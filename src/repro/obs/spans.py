"""Per-transaction phase spans derived from the trace event stream.

The engine already records lifecycle :class:`~repro.trace.TraceEvent`\\ s
per transaction; this module folds each transaction's timeline into a
hierarchy of :class:`Span`\\ s — the phase decomposition behind the
paper's Fig. 15 latency breakdown:

.. code-block:: text

    txn <tid> (root, submitted .. terminal)
    ├── register   submitted .. registered        (tid/bid assignment)
    ├── queue      registered .. first execution  (schedule wait)
    ├── execute    first execution .. execution_done
    │   ├── turn @actor-a   (PACT: turn_started .. turn_done;
    │   └── turn @actor-b    ACT: admitted .. last state_access)
    └── commit     execution_done .. committed|aborted

The four phase spans partition ``[submitted, terminal]`` exactly — each
phase starts where the previous one ends — so phase durations sum to
the transaction's end-to-end processing latency by construction (the
report CLI asserts this to within float noise).  Turn spans are
children of ``execute``, one per actor the transaction ran on, giving
the cross-actor parent/child links; they nest inside ``execute`` but do
not partition it (a multi-actor transaction's turns overlap with
message flight time).

Two events exist purely for this layer:

* ``submitted`` — recorded *retroactively* by both engines' ``run_root``
  with the simulated time at which the client call entered the engine,
  before the coordinator round-trip that assigns the tid (a span cannot
  be opened before its transaction has an identity);
* ``turn_done`` — a PACT invocation finished its accesses on one actor
  (the scheduler's ``pact_access_done`` point).

Transactions still in flight (no terminal event) are skipped: their
phases are not yet closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.trace import SYSTEM_TID, TraceEvent, TxnTracer

#: the four phases, in timeline order.
PHASES = ("register", "queue", "execute", "commit")

#: events that mark the start of actual execution (end of ``queue``).
_EXEC_START_EVENTS = {"turn_started", "admitted", "state_access"}


@dataclass
class Span:
    """One named interval, possibly with children."""

    name: str
    start: float
    end: float
    #: the owning transaction.
    tid: int
    #: "phase", "turn", or "txn" (the root).
    kind: str = "phase"
    #: actor label for turn spans, None for phases.
    actor: Optional[str] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class TxnSpans:
    """The span tree of one finished transaction."""

    tid: int
    mode: str
    outcome: str
    root: Span
    phases: Dict[str, Span]

    @property
    def latency(self) -> float:
        return self.root.duration

    def phase_duration(self, phase: str) -> float:
        span = self.phases.get(phase)
        return span.duration if span is not None else 0.0


def _event_time(events: Sequence[TraceEvent], name: str) -> Optional[float]:
    for event in events:
        if event.name == name:
            return event.time
    return None


def build_txn_spans(tid: int, mode: str,
                    events: Sequence[TraceEvent]) -> Optional[TxnSpans]:
    """Fold one transaction's event timeline into its span tree.

    Returns None for in-flight transactions (no terminal event) and for
    timelines too sparse to place the phase boundaries (e.g. traces from
    before the ``submitted`` hook: ``registered`` is used as the fall-back
    start, so the register phase collapses to zero rather than failing).
    """
    if tid == SYSTEM_TID or not events:
        return None
    committed_at = _event_time(events, "committed")
    aborted_at = _event_time(events, "aborted")
    if committed_at is None and aborted_at is None:
        return None
    if committed_at is not None:
        outcome, end = "committed", committed_at
    else:
        outcome, end = "aborted", aborted_at

    registered_at = _event_time(events, "registered")
    if registered_at is None:
        return None
    submitted_at = _event_time(events, "submitted")
    start = submitted_at if submitted_at is not None else registered_at

    exec_done_at = _event_time(events, "execution_done")
    exec_start_at = None
    for event in events:
        if event.name in _EXEC_START_EVENTS:
            exec_start_at = event.time
            break
    # A transaction can abort before executing (e.g. registration
    # failure) or commit without any state access (a no-op ACT): missing
    # boundaries collapse the surrounding phases to zero-length at the
    # next known point rather than dropping the transaction.
    if exec_start_at is None:
        exec_start_at = exec_done_at if exec_done_at is not None else end
    if exec_done_at is None:
        # aborted mid-execution: the terminal event closes the execute
        # phase and the commit phase collapses to zero.
        exec_done_at = end
    # Clamp into monotonic order; out-of-order timelines (an abort
    # landing mid-execution) must still partition [start, end].
    b1 = min(max(registered_at, start), end)
    b2 = min(max(exec_start_at, b1), end)
    b3 = min(max(exec_done_at, b2), end)

    phases = {
        "register": Span("register", start, b1, tid),
        "queue": Span("queue", b1, b2, tid),
        "execute": Span("execute", b2, b3, tid),
        "commit": Span("commit", b3, end, tid),
    }
    phases["execute"].children = _turn_spans(tid, mode, events, b2, b3)
    root = Span(f"txn {tid}", start, end, tid, kind="txn",
                children=[phases[p] for p in PHASES])
    return TxnSpans(tid=tid, mode=mode, outcome=outcome, root=root,
                    phases=phases)


def _turn_spans(tid: int, mode: str, events: Sequence[TraceEvent],
                lo: float, hi: float) -> List[Span]:
    """Per-actor turn spans, clamped inside the execute phase.

    PACT: ``turn_started`` .. ``turn_done`` pairs per actor (an actor
    accessed several times in one batch yields several spans).  ACT:
    ``admitted`` (or first ``state_access``) .. last ``state_access``
    per actor — ACTs have no explicit turn-end event, so the last
    access closes the turn.
    """
    spans: List[Span] = []
    if mode == "PACT":
        open_turns: Dict[str, float] = {}
        for event in events:
            actor = str(event.actor) if event.actor is not None else "?"
            if event.name == "turn_started":
                open_turns[actor] = event.time
            elif event.name == "turn_done" and actor in open_turns:
                spans.append(Span(
                    f"turn @{actor}", open_turns.pop(actor), event.time,
                    tid, kind="turn", actor=actor,
                ))
        for actor, started in open_turns.items():
            # turn never closed (abort mid-turn): clamp at phase end.
            spans.append(Span(
                f"turn @{actor}", started, hi, tid, kind="turn", actor=actor,
            ))
    else:
        first: Dict[str, float] = {}
        last: Dict[str, float] = {}
        for event in events:
            if event.name not in ("admitted", "state_access"):
                continue
            actor = str(event.actor) if event.actor is not None else "?"
            first.setdefault(actor, event.time)
            last[actor] = event.time
        for actor in first:
            spans.append(Span(
                f"turn @{actor}", first[actor], last[actor], tid,
                kind="turn", actor=actor,
            ))
    for span in spans:
        span.start = min(max(span.start, lo), hi)
        span.end = min(max(span.end, span.start), hi)
    spans.sort(key=lambda s: (s.start, s.actor or ""))
    return spans


def build_spans(tracer: TxnTracer) -> List[TxnSpans]:
    """Span trees for every finished transaction in the tracer."""
    out: List[TxnSpans] = []
    for tid in sorted(tracer.traces):
        trace = tracer.traces[tid]
        spans = build_txn_spans(tid, trace.mode, trace.events)
        if spans is not None:
            out.append(spans)
    return out


@dataclass
class PhaseBreakdown:
    """Aggregated per-phase latency over a set of transactions — the
    Fig. 15 decomposition (register/queue/execute/commit means plus the
    end-to-end latency they sum to)."""

    mode: str
    count: int
    #: phase -> mean seconds across the counted transactions.
    mean_seconds: Dict[str, float]
    #: mean end-to-end latency (submitted .. terminal).
    mean_latency: float

    @property
    def phase_sum(self) -> float:
        return sum(self.mean_seconds.values())


def phase_breakdown(spans: List[TxnSpans], mode: Optional[str] = None,
                    outcome: str = "committed") -> Optional[PhaseBreakdown]:
    """Aggregate phase means for one mode (or all modes when None)."""
    selected = [
        s for s in spans
        if s.outcome == outcome and (mode is None or s.mode == mode)
    ]
    if not selected:
        return None
    n = len(selected)
    means = {
        phase: sum(s.phase_duration(phase) for s in selected) / n
        for phase in PHASES
    }
    return PhaseBreakdown(
        mode=mode or "ALL",
        count=n,
        mean_seconds=means,
        mean_latency=sum(s.latency for s in selected) / n,
    )


def spans_summary(spans: List[TxnSpans]) -> Dict[str, Any]:
    """Machine-readable per-mode breakdowns (the report's ``--json``)."""
    out: Dict[str, Any] = {"transactions": len(spans), "modes": {}}
    for mode in ("PACT", "ACT"):
        breakdown = phase_breakdown(spans, mode)
        if breakdown is None:
            continue
        out["modes"][mode] = {
            "count": breakdown.count,
            "mean_latency_seconds": breakdown.mean_latency,
            "phase_mean_seconds": dict(breakdown.mean_seconds),
            "phase_sum_seconds": breakdown.phase_sum,
        }
    return out

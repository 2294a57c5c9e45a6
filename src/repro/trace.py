"""Transaction tracing: per-transaction lifecycle timelines.

Install a :class:`TxnTracer` as the ``txn_tracer`` service and Snapper
records timestamped lifecycle events for every transaction — useful for
debugging protocol behaviour, for latency attribution beyond Fig. 15's
aggregated phases, and as an observability surface a downstream user
would expect a transaction library to have.  The recorded stream is
also the input of the post-hoc schedule checker in
:mod:`repro.analysis.tracecheck`, which is why events carry structured
identity fields rather than free-form detail strings.

Events (each a :class:`TraceEvent`):

========================  =====================================================
``registered``            tid assigned (PACT: batch formed; ACT: immediate)
``turn_started``          a PACT invocation reached its deterministic turn
``admitted``              an ACT joined an actor's hybrid schedule
``state_access``          one ``get_state`` access; carries the actor and the
                          access kind (``Read`` / ``ReadWrite``), plus the
                          bid for PACTs — the read/write-set surface the
                          serializability checker consumes
``execution_done``        the root method returned
``check_passed``          the hybrid serializability check passed (ACT); the
                          detail records the ``max_bs`` / ``min_as`` evidence
``cc_abort``              a lock acquisition was refused by the
                          concurrency-control strategy (wait-die wound,
                          no-wait conflict, or lock-wait timeout); the
                          detail is the :class:`AbortReason`
``committed``             final commit (batch commit / 2PC decision)
``aborted``               terminal abort, with the reason
========================  =====================================================

``cc_abort`` is emitted per *acquisition attempt*, before the abort
fans out — a transaction that is retried can accumulate several; use
:meth:`TxnTracer.cc_aborts` to pull them out when comparing
concurrency-control strategies (the wait-die ablation).

Tracing is entirely optional: when no tracer service is registered the
hooks cost one dictionary lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: pseudo-tid that system-level events (``fault_injected``, ``silo_crash``,
#: ``recovery``) are recorded under — they belong to the deployment, not
#: to any one transaction.  The schedule checker ignores this timeline.
SYSTEM_TID = -1


class TraceEvent:
    """One recorded event: what happened (``name``, ``detail``) and when,
    plus the identity fields the schedule checker reads."""

    __slots__ = ("time", "name", "detail", "tid", "bid", "actor", "access",
                 "seq")

    def __init__(
        self,
        time: float,
        name: str,
        detail: Any = None,
        *,
        tid: Optional[int] = None,
        bid: Optional[int] = None,
        actor: Any = None,
        access: Optional[str] = None,
        seq: int = 0,
    ):
        self.time = time
        self.name = name
        self.detail = detail
        self.tid = tid
        self.bid = bid
        self.actor = actor
        self.access = access
        #: global recording order; breaks simulated-time ties so the
        #: schedule checker can reconstruct per-actor access order
        #: without heuristics.
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extras = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in ("tid", "bid", "actor", "access")
            if getattr(self, name) is not None
        )
        return (f"TraceEvent({self.time!r}, {self.name!r}, {self.detail!r}"
                + (f", {extras}" if extras else "") + ")")

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "time": self.time, "name": self.name, "seq": self.seq,
        }
        if self.detail is not None:
            detail = self.detail
            if not isinstance(detail, (str, int, float, bool, dict, list)):
                detail = str(detail)
            data["detail"] = detail
        for key in ("tid", "bid", "access"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.actor is not None:
            data["actor"] = str(self.actor)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(
            data["time"], data["name"], data.get("detail"),
            tid=data.get("tid"), bid=data.get("bid"),
            actor=data.get("actor"), access=data.get("access"),
            seq=data.get("seq", 0),
        )


@dataclass
class TxnTrace:
    """The recorded timeline of one transaction."""

    tid: int
    mode: str = "?"
    #: the PACT's batch id, once known (None for ACTs).
    bid: Optional[int] = None
    events: List[TraceEvent] = field(default_factory=list)

    def event_names(self) -> List[str]:
        return [event.name for event in self.events]

    def first(self, name: str) -> Optional[TraceEvent]:
        for event in self.events:
            if event.name == name:
                return event
        return None

    def duration(self, start: str, end: str) -> Optional[float]:
        """Seconds between the first ``start`` and first ``end`` event."""
        a, b = self.first(start), self.first(end)
        if a is None or b is None:
            return None
        return b.time - a.time

    @property
    def outcome(self) -> str:
        names = self.event_names()
        if "committed" in names:
            return "committed"
        if "aborted" in names:
            return "aborted"
        return "in-flight"

    def render(self) -> str:
        lines = [f"txn {self.tid} ({self.mode}) — {self.outcome}"]
        start = self.events[0].time if self.events else 0.0
        for event in self.events:
            detail = event.detail
            suffix = f"  {detail}" if detail not in (None, "") else ""
            offset_ms = (event.time - start) * 1000
            lines.append(f"  +{offset_ms:8.3f} ms  {event.name}{suffix}")
        return "\n".join(lines)


class TxnTracer:
    """Collects :class:`TxnTrace` timelines, bounded to ``capacity``.

    Recording is a buffered append: :meth:`record` pushes one flat tuple
    onto an internal buffer and returns — no :class:`TraceEvent` or
    :class:`TxnTrace` is constructed on the engine's hot path.  The
    buffer is folded into per-transaction timelines lazily, the first
    time anything *reads* the tracer (``traces``, ``all_events``,
    ``dump_jsonl``, ...).  Recording order is preserved, so the folded
    result is identical to eager construction — including the
    ``capacity`` eviction of the oldest transactions.
    """

    def __init__(self, capacity: int = 10_000):
        self.capacity = capacity
        self._traces: Dict[int, TxnTrace] = {}
        #: flat (now, tid, event, detail, mode, bid, actor, access, seq)
        #: tuples awaiting materialization.
        self._pending: List[Tuple[Any, ...]] = []
        self._seq = 0

    def record(self, now: float, tid: int, event: str,
               detail: Any = None, mode: Optional[str] = None, *,
               bid: Optional[int] = None, actor: Any = None,
               access: Optional[str] = None) -> None:
        self._seq += 1
        self._pending.append(
            (now, tid, event, detail, mode, bid, actor, access, self._seq)
        )

    def _drain(self) -> None:
        """Fold buffered records into per-transaction timelines."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        traces = self._traces
        capacity = self.capacity
        for now, tid, event, detail, mode, bid, actor, access, seq in pending:
            trace = traces.get(tid)
            if trace is None:
                if len(traces) >= capacity:
                    traces.pop(next(iter(traces)), None)
                trace = traces[tid] = TxnTrace(tid=tid)
            if mode is not None:
                trace.mode = mode
            if bid is not None and trace.bid is None:
                trace.bid = bid
            trace.events.append(TraceEvent(
                now, event, detail,
                tid=tid, bid=bid, actor=actor, access=access, seq=seq,
            ))

    @property
    def traces(self) -> Dict[int, TxnTrace]:
        self._drain()
        return self._traces

    # -- queries ----------------------------------------------------------
    def trace_of(self, tid: int) -> Optional[TxnTrace]:
        return self.traces.get(tid)

    def by_outcome(self, outcome: str) -> List[TxnTrace]:
        return [t for t in self.traces.values() if t.outcome == outcome]

    def cc_aborts(self) -> List[Tuple[int, Any]]:
        """All ``(tid, reason)`` lock acquisitions the concurrency-control
        strategy refused — the per-strategy abort surface of the
        wait-die-vs-timeout ablation."""
        return [
            (trace.tid, event.detail)
            for trace in self.traces.values()
            for event in trace.events
            if event.name == "cc_abort"
        ]

    def all_events(self) -> List[TraceEvent]:
        """Every recorded event across all traces, in recording order."""
        events = [
            event for trace in self.traces.values() for event in trace.events
        ]
        events.sort(key=lambda e: (e.seq, e.time))
        return events

    def mean_duration(self, start: str, end: str) -> Optional[float]:
        durations = [
            d for d in (
                t.duration(start, end) for t in self.traces.values()
            )
            if d is not None
        ]
        if not durations:
            return None
        return sum(durations) / len(durations)

    def __len__(self) -> int:
        return len(self.traces)

    # -- persistence --------------------------------------------------------
    def dump_jsonl(self, path: str) -> int:
        """Write one JSON object per event (with its trace's tid/mode),
        consumable by ``python -m repro.analysis check-trace``.  Returns
        the number of events written."""
        count = 0
        with open(path, "w", encoding="utf-8") as fh:
            for trace in self.traces.values():
                for event in trace.events:
                    data = event.to_dict()
                    data.setdefault("tid", trace.tid)
                    data["mode"] = trace.mode
                    fh.write(json.dumps(data, default=str) + "\n")
                    count += 1
        return count

    @classmethod
    def load_jsonl(cls, path: str) -> "TxnTracer":
        """Rebuild a tracer from a :meth:`dump_jsonl` file."""
        tracer = cls()
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        rows.sort(key=lambda r: r.get("seq", 0))
        for row in rows:
            tracer.record(
                row["time"], row["tid"], row["name"], row.get("detail"),
                row.get("mode"), bid=row.get("bid"), actor=row.get("actor"),
                access=row.get("access"),
            )
        return tracer

"""The traced run: where one workload's time and work go, layer by layer.

Three passes over the same quarter-size section, each on a fresh system
with the full set-up:

* an **untraced** pass, the host-time reference;
* **pass A** with ``SnapperConfig(observability=True)`` and a
  ``TxnTracer``: counts and backend-clock waits per committed
  transaction (from ``system.stats()``, the obs registry, ``IoDevice`` /
  ``CpuPool`` fields and counting wrappers this module puts around
  public calls), the span tree from ``repro.obs.build_spans``, the
  serializability audit, and the span file;
* **pass B** untraced under ``cProfile``, folded by source path into the
  layers of ``bench.spec.LAYERS``.

End-to-end metrics are never taken here: they are measured with tracing
off by ``bench.harness.run_workload``.
"""

from __future__ import annotations

import asyncio
import cProfile
import json
import os
import pstats
import selectors
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tracecheck import check_tracer
from repro.obs import (
    MetricsRegistry,
    build_spans,
    phase_breakdown,
    spans_to_chrome_trace,
)
from repro.trace import TxnTracer

from bench import BENCH_DIR, OUT_DIR, SRC
from bench.harness import (
    Prepared,
    Section,
    clock,
    environment,
    run_section,
    set_up,
    tear_down,
)
from bench.spec import (
    CORES,
    LAYERS,
    LOGGERS,
    PER_LAYER,
    UNITS,
    Workload,
    PHASES,
    phase_metric,
)

#: chrome-trace process id of the benchmark's own host-clock spans
#: (1 and 2 are the exporter's transaction and actor views).
PID_BENCH = 3

#: source path (relative to ``src/repro``) -> layer, first match wins.
#: Files of no listed layer fold into the nearest one: the CC strategies
#: with the lock they steer, contexts with the actor API that builds
#: them, the system facade and everything else with ``api``; the
#: SmallBank actor logic is application code, so it is ``bench``.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/", "sim"),
    ("runtime/", "runtime"),
    ("actors/", "actors"),
    ("baselines/", "actors"),
    ("core/coordinator.py", "core.coordinator"),
    ("core/schedule.py", "core.schedule"),
    ("core/locks.py", "core.locks"),
    ("core/engine/concurrency.py", "core.locks"),
    ("core/registry.py", "core.registry"),
    ("core/controller.py", "core.controller"),
    ("core/transactional_actor.py", "core.transactional_actor"),
    ("core/context.py", "core.transactional_actor"),
    ("core/engine/pact.py", "core.engine.pact"),
    ("core/engine/act.py", "core.engine.act"),
    ("core/engine/hybrid.py", "core.engine.hybrid"),
    ("core/engine/guard.py", "core.engine.guard"),
    ("core/engine/sanitizer.py", "core.engine.guard"),
    ("core/engine/recovery.py", "core.engine.recovery"),
    ("persistence/", "persistence"),
    ("snapshot/", "snapshot"),
    ("obs/", "obs"),
    ("trace.py", "trace"),
    ("workloads/", "bench"),
)

_REPRO_DIR = os.path.join(SRC, "repro") + os.sep
#: the stdlib event loop is the asyncio backend's kernel, as ``repro.sim``
#: is the sim backend's: its self time is ``runtime``.  (It also keeps
#: the fold honest: a profile's caller table is unreliable across
#: coroutine switches inside the loop, and need not be walked there.)
_EVENT_LOOP = (os.path.dirname(asyncio.__file__) + os.sep, selectors.__file__)


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for other stdlib code
    and builtins."""
    if filename.startswith(_REPRO_DIR):
        relative = filename[len(_REPRO_DIR):].replace(os.sep, "/")
        for prefix, layer in _LAYER_PREFIXES:
            if relative.startswith(prefix):
                return layer
        return "api"
    if filename.startswith(BENCH_DIR + os.sep):
        return "bench"
    if filename.startswith(_EVENT_LOOP):
        return "runtime"
    return None


class HostSpans:
    """Name, start, end and parent of each driver phase, host clock.

    Kept in memory and written once into the span file, next to the
    engine's own (backend-clock) spans.
    """

    def __init__(self) -> None:
        self.origin = clock()
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": clock() - self.origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = clock() - self.origin


# -- pass A: counts -----------------------------------------------------------


def _counters(system: Any, registry: MetricsRegistry) -> Dict[str, float]:
    """Every monotone count the public surface exposes, flattened."""
    runtime = system.runtime
    out: Dict[str, float] = {
        "messages": runtime.messages_sent,
        "activations": runtime.activations_created,
    }
    if hasattr(system, "stats"):
        stats = system.stats()
        out["log_records"] = stats["log_records"]
        out["log_bytes"] = stats["log_bytes"]
        out["cascades"] = stats["cascading_aborts"]
        devices = [logger.io for logger in system.loggers.loggers]
        out["flushes"] = sum(device.flushes for device in devices)
        out["io_busy_s"] = sum(device.busy_time for device in devices)
    for name, family in registry.snapshot().items():
        for series in family["series"]:
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(series["labels"].items())
            )
            key = f"{name}{{{labels}}}"
            if family["type"] == "histogram":
                out[key + ".sum"] = series["sum"]
                out[key + ".count"] = series["count"]
            else:
                out[key] = series["value"]
    return out


class _Delta:
    """Counts accumulated over the measured section."""

    def __init__(self, before: Dict[str, float], after: Dict[str, float]):
        self.values = {
            key: value - before.get(key, 0.0) for key, value in after.items()
        }

    def get(self, key: str) -> float:
        return self.values.get(key, 0.0)

    def total(self, family: str, suffix: str = "") -> float:
        """Sum over every label set of one obs family."""
        return sum(
            value for key, value in self.values.items()
            if key.startswith(family + "{") and key.endswith("}" + suffix)
        )

    def labelled(self, family: str, label: str) -> float:
        return self.get(f"{family}{{{label}}}")

    def mean_ms(self, family: str) -> float:
        count = self.total(family, ".count")
        return self.total(family, ".sum") / count * 1e3 if count else 0.0

    def mean(self, family: str) -> float:
        count = self.total(family, ".count")
        return self.total(family, ".sum") / count if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pass_a_metrics(delta: _Delta, section: Section, tasks: int,
                    scans: int) -> Dict[str, float]:
    txns = section.committed
    attempts = (
        delta.total("snapper_act_lock_wait_seconds", ".count")
        + delta.total("snapper_act_cc_aborts_total")
    )
    act_commits = delta.total("snapper_act_commits_total")
    guard_checks = delta.total("snapper_guard_check_outcomes_total")
    return {
        "sim.events_per_txn": _ratio(section.events, txns),
        "sim.tasks_per_txn": _ratio(tasks, txns),
        "sim.cpu_util": _ratio(section.cpu_busy_s, section.backend_s * CORES),
        "actors.msgs_per_txn": _ratio(delta.get("messages"), txns),
        "actors.mailbox_depth_mean": delta.mean(
            "snapper_runtime_mailbox_depth_count"
        ),
        "core.coordinator.batch_size_mean": delta.mean(
            "snapper_coordinator_batch_size_count"
        ),
        "core.coordinator.token_passes_per_txn": _ratio(
            delta.total("snapper_coordinator_token_passes_total"), txns
        ),
        "core.coordinator.batch_commit_virt_ms": delta.mean_ms(
            "snapper_coordinator_batch_commit_seconds"
        ),
        "core.engine.hybrid.pact_turn_wait_virt_ms": delta.mean_ms(
            "snapper_hybrid_pact_turn_wait_seconds"
        ),
        "core.engine.hybrid.act_admission_wait_virt_ms": delta.mean_ms(
            "snapper_hybrid_act_admission_wait_seconds"
        ),
        "core.locks.wait_virt_ms": delta.mean_ms(
            "snapper_act_lock_wait_seconds"
        ),
        "core.locks.cc_aborts_per_attempt": _ratio(
            delta.total("snapper_act_cc_aborts_total"), attempts
        ),
        "core.engine.act.two_phase_frac": _ratio(
            delta.labelled("snapper_act_commits_total", "path=two_phase"),
            act_commits,
        ),
        "core.engine.act.prepare_rtt_virt_ms": delta.mean_ms(
            "snapper_act_prepare_roundtrip_seconds"
        ),
        "core.engine.act.commit_rtt_virt_ms": delta.mean_ms(
            "snapper_act_commit_roundtrip_seconds"
        ),
        "core.engine.guard.abort_frac": _ratio(
            guard_checks - delta.labelled(
                "snapper_guard_check_outcomes_total", "outcome=passed"
            ),
            guard_checks,
        ),
        "core.controller.cascades_per_ktxn": _ratio(
            delta.get("cascades") * 1e3, txns
        ),
        "persistence.records_per_txn": _ratio(
            delta.get("log_records"), txns
        ),
        "persistence.bytes_per_txn": _ratio(delta.get("log_bytes"), txns),
        "persistence.flushes_per_txn": _ratio(delta.get("flushes"), txns),
        "persistence.records_per_flush": _ratio(
            delta.get("log_records"), delta.get("flushes")
        ),
        "persistence.io_util": _ratio(
            delta.get("io_busy_s"), section.backend_s * LOGGERS
        ),
        "core.engine.recovery.scans_per_activation": _ratio(
            scans, delta.get("activations")
        ),
    }


def _count_calls(owner: Any, name: str, counts: Dict[str, int]) -> None:
    """Wrap the public method ``owner.name`` on this one instance so each
    call bumps ``counts[name]`` — a count taken at the layer boundary,
    from the benchmark's side of it."""
    original = getattr(owner, name)

    def counted(*args: Any, **kwargs: Any) -> Any:
        counts[name] += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)


def _span_metrics(spans: List[Any]) -> Tuple[Dict[str, float], Dict[str, bool],
                                             Dict[str, Any]]:
    """Mean phase durations by mode, and the two partition checks."""
    values: Dict[str, float] = {}
    detail: Dict[str, Any] = {}
    sums_ok = True
    for mode in ("pact", "act"):
        breakdown = phase_breakdown(spans, mode.upper())
        for phase in PHASES:
            mean = breakdown.mean_seconds[phase] if breakdown else 0.0
            values[phase_metric(mode, phase)] = mean * 1e3
        if breakdown is not None:
            detail[mode] = {
                "spans": breakdown.count,
                "mean_latency_ms": breakdown.mean_latency * 1e3,
                "phase_sum_ms": breakdown.phase_sum * 1e3,
            }
            sums_ok &= (
                abs(breakdown.phase_sum - breakdown.mean_latency)
                <= 0.01 * breakdown.mean_latency
            )
    partition_ok = all(
        abs(sum(txn.phase_duration(p) for p in PHASES) - txn.latency)
        <= 0.01 * txn.latency + 1e-12
        for txn in spans
    )
    checks = {"phase_sums": sums_ok, "span_partition": partition_ok}
    return values, checks, detail


def _write_span_file(w: Workload, seed: int, spans: List[Any],
                     host: HostSpans) -> str:
    """Engine spans (backend clock) plus the benchmark's own phases
    (host clock, process ``PID_BENCH``) as one Chrome-trace JSON."""
    trace = spans_to_chrome_trace(spans)
    events = trace["traceEvents"]
    events.append({
        "ph": "M", "name": "process_name", "pid": PID_BENCH, "tid": 0,
        "args": {"name": "bench phases (host clock)"},
    })
    for record in host.spans:
        parent = record["parent"]
        events.append({
            "ph": "X", "name": record["name"], "cat": "bench",
            "pid": PID_BENCH, "tid": 0,
            "ts": round(record["start"] * 1e6, 3),
            "dur": round((record["end"] - record["start"]) * 1e6, 3),
            "args": {
                "trace_id": f"{w.name}/seed{seed}",
                "parent": (
                    host.spans[parent]["name"] if parent is not None else None
                ),
            },
        })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{w.name}.trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return path


# -- pass B: profile folding ------------------------------------------------------


def fold_profile(profile: cProfile.Profile) -> Tuple[Dict[str, float],
                                                      Dict[str, int]]:
    """Self time and call counts per layer.

    A function in a repo file keeps its own self time.  Self time of a
    builtin or stdlib function is handed to the layers that called it,
    in proportion to the time spent under each caller (the profile's
    caller table), recursively through stdlib callers — so the shares
    cover the whole profile and sum to 1.
    """
    stats = pstats.Stats(profile).stats
    memo: Dict[Any, Dict[str, float]] = {}

    def attribution(func: Any, stack: Tuple[Any, ...]) -> Dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = {
            caller: edge for caller, edge in stats[func][4].items()
            if caller not in stack and caller in stats
        }
        # weigh callers by self time spent under each; fall back to call
        # counts when the clock saw none of it.
        column = 2 if sum(e[2] for e in callers.values()) > 0 else 0
        weight = sum(edge[column] for edge in callers.values())
        shares: Dict[str, float] = {}
        if weight <= 0:
            shares["bench"] = 1.0  # a root frame: the driver called it
        else:
            for caller, edge in callers.items():
                for name, share in attribution(
                    caller, stack + (func,)
                ).items():
                    shares[name] = (
                        shares.get(name, 0.0) + share * edge[column] / weight
                    )
        if not stack:
            memo[func] = shares
        return shares

    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += ncalls
        for name, share in attribution(func, ()).items():
            self_time[name] += tottime * share
    return self_time, calls


# -- the three passes ----------------------------------------------------------------


def _measure(w: Workload, prepared: Prepared, **kwargs: Any) -> Section:
    return run_section(
        prepared.system, prepared.requests, w.slots, prepared.prologue,
        **kwargs
    )


def run_traced(
    w: Workload,
    seed: int,
    seconds: float,
    n: Optional[int] = None,
    probe_seconds: float = 0.25,
) -> Dict[str, Any]:
    """Per-layer metrics of one workload (``--trace 1``).

    ``result["metrics"]`` holds every per-layer metric of
    ``BENCHMARK.json``; a layer the workload bypasses reports 0 for its
    counts and waits, which is the bypass stated as a number.
    """
    host = HostSpans()
    n = max(1, (n if n is not None else w.measured_txns(seconds)) // 4)
    sim = w.backend == "sim"
    failures: List[str] = []
    values: Dict[str, float] = {}

    # untraced reference -------------------------------------------------
    with host.span("untraced: set-up"):
        prepared = set_up(w, seed, n)
    with host.span("untraced: measured section"):
        untraced = _measure(w, prepared)
    tear_down(prepared.system)
    failures += untraced.failures

    # pass A ----------------------------------------------------------------
    with host.span("pass A: set-up"):
        prepared = set_up(w, seed, n, observability=True)
    system = prepared.system
    registry = getattr(system, "obs", None)
    if registry is None:
        # NTSystem builds no registry; its runtime still takes one.
        registry = MetricsRegistry()
        system.runtime.attach_obs(registry)
    tracer = TxnTracer(capacity=10 * len(prepared.requests) + 1000)
    system.runtime.services["txn_tracer"] = tracer
    counts = {"create_task": 0, "all_records": 0}
    if sim:
        _count_calls(system.loop, "create_task", counts)
    if hasattr(system, "loggers"):
        _count_calls(system.loggers, "all_records", counts)
    before = _counters(system, registry)
    with host.span("pass A: measured section"):
        traced = _measure(w, prepared, count_events=sim)
    delta = _Delta(before, _counters(system, registry))
    tear_down(system)
    failures += traced.failures
    values.update(_pass_a_metrics(
        delta, traced, counts["create_task"], counts["all_records"]
    ))
    with host.span("pass A: fold spans"):
        spans = build_spans(tracer)
        span_values, checks, span_detail = _span_metrics(spans)
    values.update(span_values)
    with host.span("pass A: serializability audit"):
        audit = check_tracer(tracer)
    checks["serializable"] = audit.ok
    values["trace.overhead_frac"] = traced.host_s / untraced.host_s - 1.0

    # pass B ----------------------------------------------------------------
    with host.span("pass B: set-up"):
        prepared = set_up(w, seed, n)
    profile = cProfile.Profile()
    with host.span("pass B: measured section (cProfile)"):
        profiled = _measure(w, prepared, around=profile.runcall)
    tear_down(prepared.system)
    failures += profiled.failures
    with host.span("pass B: fold profile"):
        self_time, calls = fold_profile(profile)
    total = sum(self_time.values())
    for layer in LAYERS:
        values[f"{layer}.self_share"] = _ratio(self_time[layer], total)
        values[f"{layer}.calls_per_txn"] = _ratio(
            calls[layer], profiled.committed
        )
    checks["shares_sum_to_1"] = abs(
        sum(values[f"{layer}.self_share"] for layer in LAYERS) - 1.0
    ) <= 0.01
    if sim:
        # observing must not change what is observed: on the
        # deterministic backend all three passes are the same run.
        checks["tracing_neutral"] = (
            untraced.committed == traced.committed == profiled.committed
            and untraced.backend_s == traced.backend_s == profiled.backend_s
        )

    # probes ----------------------------------------------------------------
    if probe_seconds > 0:
        from bench import layers

        with host.span("layer probes"):
            values.update(layers.probe_values(probe_seconds))

    span_file = _write_span_file(w, seed, spans, host)
    names = [name for name, _, _ in PER_LAYER if name in values]
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "n": n,
        "slots": w.slots,
        "backend": w.backend,
        "env": environment(),
        "attempted": len(traced.requests),
        "committed": traced.committed,
        "aborted": traced.aborted,
        "failed": len(failures),
        "correct": not failures and all(checks.values()),
        "checks": checks,
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]}
            for name in names
        },
        "detail": {
            "untraced_host_s": untraced.host_s,
            "traced_host_s": traced.host_s,
            "profiled_host_s": profiled.host_s,
            "backend_s": traced.backend_s,
            "spans": span_detail,
            "audit": audit.render(),
            "span_file": os.path.relpath(span_file, os.path.dirname(BENCH_DIR)),
            "failures": failures[:3],
        },
    }


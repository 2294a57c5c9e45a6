"""Set a system up, drive one closed-loop section, check it, report.

Everything here runs inside the worker subprocess and reaches the
engine only through its public surface: ``SnapperSystem`` /
``NTSystem.submit(TxnRequest)``, ``repro.runtime.kernel``
``spawn/gather/now``, ``system.stats()`` and the crash/recover calls.

Two clocks, always named: *host* time is ``time.perf_counter()`` in this
process; *backend* time is ``kernel.now()`` — virtual seconds on the sim
backend (a pure function of seed and code), wall seconds on asyncio.
"""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import subprocess
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro import SnapperConfig, SnapperSystem, TransactionAbortedError
from repro.actors.runtime import SiloConfig
from repro.api import TxnRequest
from repro.baselines.nontransactional import NTSystem
from repro.runtime import kernel
from repro.workloads.distributions import make_distribution
from repro.workloads.metrics import percentile
from repro.workloads.smallbank import (
    ACCOUNT_KIND,
    INITIAL_CHECKING,
    INITIAL_SAVINGS,
    NTAccountActor,
    SmallBankWorkload,
    SnapperAccountActor,
)

from bench import ROOT
from bench.spec import (
    BATCH_COMPLETE_TIMEOUT,
    COORDINATORS,
    CORES,
    END_TO_END,
    LOGGERS,
    TXN_SIZE,
    UNITS,
    WARMUP_TXNS,
    Workload,
)

INITIAL_BALANCE = INITIAL_CHECKING + INITIAL_SAVINGS

#: account actor per engine; a test swaps in a money-leaking one.
ACCOUNT_ACTORS: Dict[str, Any] = {
    "snapper": SnapperAccountActor,
    "nt": NTAccountActor,
}

#: crash -> recover -> read-back cycles after a steady-state section.
RECOVERY_CYCLES = 3

clock = time.perf_counter


class BenchError(RuntimeError):
    """The run is invalid (not merely slow): set-up itself misbehaved."""


# -- building and feeding a system ---------------------------------------


def build_system(w: Workload, seed: int, observability: bool = False) -> Any:
    """A started system.  ``seed`` feeds the simulated network's jitter
    stream: it is an input like the requests, and without it the
    virtual timeline of ``sb-nt`` (no contention, fixed costs) would not
    depend on ``--seed`` at all."""
    silo = SiloConfig(cores=CORES, seed=seed)
    if w.engine == "nt":
        system = NTSystem(silo=silo, seed=seed)
    else:
        config = SnapperConfig(
            num_coordinators=COORDINATORS,
            num_loggers=LOGGERS,
            logging_enabled=True,
            batch_complete_timeout=BATCH_COMPLETE_TIMEOUT,
            runtime_backend=w.backend,
            observability=observability,
        )
        system = SnapperSystem(config, silo=silo, seed=seed)
    system.register_actor(ACCOUNT_KIND, ACCOUNT_ACTORS[w.engine])
    system.start()
    return system


def tear_down(system: Any) -> None:
    system.shutdown()
    system.backend.close()


def generate_requests(w: Workload, seed: int, count: int) -> List[TxnRequest]:
    """``count`` MultiTransfers of the workload's mix, a function of seed.

    ``sb-hybrid`` and ``sb-hybrid-aio`` share mix and skew, so for one
    seed the shorter list is a prefix of the longer one.
    """
    rng = random.Random(seed)
    generator = SmallBankWorkload(
        make_distribution(w.skew, w.accounts, rng),
        txn_size=TXN_SIZE,
        pact_fraction=w.pact_fraction,
        rng=rng,
    )
    requests = []
    for _ in range(count):
        spec = generator.next_txn()
        if spec.is_pact and w.engine != "nt":
            requests.append(TxnRequest.pact(
                spec.kind, spec.start_key, spec.method, spec.func_input,
                access=spec.access,
            ))
        else:
            # NT requests are ACT-shaped, as EngineRunner.request_for
            # builds them; NTSystem ignores the kind anyway.
            requests.append(TxnRequest.act(
                spec.kind, spec.start_key, spec.method, spec.func_input
            ))
    return requests


def sweep_requests(keys: Iterable[int]) -> List[TxnRequest]:
    """One ``balance`` ACT per key: pre-activation and every read-back."""
    return [TxnRequest.act(ACCOUNT_KIND, key, "balance") for key in keys]


def recovery_requests(w: Workload, keys: Iterable[int]) -> List[TxnRequest]:
    """Post-crash reads in the workload's own mix (even keys as PACTs
    on a hybrid mix), so both paths are exercised after recovery."""
    requests = []
    for key in keys:
        as_pact = w.engine != "nt" and (
            w.pact_fraction == 1.0
            or (w.pact_fraction > 0.0 and key % 2 == 0)
        )
        if as_pact:
            requests.append(TxnRequest.pact(
                ACCOUNT_KIND, key, "balance", access={key: 1}
            ))
        else:
            requests.append(TxnRequest.act(ACCOUNT_KIND, key, "balance"))
    return requests


# -- one closed-loop section ---------------------------------------------


@dataclass
class Section:
    """What one closed-loop section did, indexed by request."""

    requests: List[TxnRequest]
    #: backend-clock submit -> commit seconds, None unless committed.
    latency: List[Optional[float]]
    result: List[Any]
    #: committed request indexes in completion order, with the host
    #: clock at each completion.
    order: List[int] = field(default_factory=list)
    done_at: List[float] = field(default_factory=list)
    aborted: int = 0
    #: tracebacks of outcomes that were neither commit nor abort.
    failures: List[str] = field(default_factory=list)
    host_start: float = 0.0
    host_end: float = 0.0
    backend_start: float = 0.0
    backend_end: float = 0.0
    #: loop events processed (sim backend, only when asked to count).
    events: int = 0
    #: core-seconds the cost model charged (``CpuPool.busy_time``).
    cpu_busy_s: float = 0.0

    @property
    def committed(self) -> int:
        return len(self.order)

    @property
    def host_s(self) -> float:
        return self.host_end - self.host_start

    @property
    def backend_s(self) -> float:
        return self.backend_end - self.backend_start


@contextmanager
def full_collections_deferred():
    """Collect now, then keep CPython's generation-2 collector out of
    the timed region (young generations still run, so cyclic garbage of
    aborted transactions does not pile up).

    A full collection walks the whole heap, which grows with the WAL:
    60-100 ms each by the end of a section, a handful per section.  On
    the wall-clock workload every transaction in flight during one lands
    in the latency tail, and whether 1% or 2% of a run is hit decides
    its p99 — a coin flip between ~40 and ~90 ms.  ``timeit`` switches
    the collector off for the same reason: comparable timings.
    """
    gc.collect()
    young, middle, old = gc.get_threshold()
    gc.set_threshold(young, middle, 1 << 30)
    try:
        yield
    finally:
        gc.set_threshold(young, middle, old)


async def _closed_loop(system: Any, section: Section, slots: int) -> None:
    """``slots`` clients, each submitting its next request when the
    previous one resolves, pulling from one shared list (paper §5.1.3)."""
    pending = iter(enumerate(section.requests))
    now = kernel.now

    async def slot() -> None:
        for index, request in pending:
            started = now()
            try:
                value = await system.submit(request)
            except TransactionAbortedError:
                section.aborted += 1
            except Exception:  # noqa: BLE001 - counted, reported, fails run
                section.failures.append(traceback.format_exc())
            else:
                section.latency[index] = now() - started
                section.result[index] = value
                section.order.append(index)
                section.done_at.append(clock())

    clients = min(slots, len(section.requests))
    await kernel.gather(*[kernel.spawn(slot()) for _ in range(clients)])


def run_section(
    system: Any,
    requests: List[TxnRequest],
    slots: int,
    prologue: Optional[Callable[[], Any]] = None,
    count_events: bool = False,
    around: Optional[Callable[[Callable[[], None]], None]] = None,
) -> Section:
    """Drive ``requests`` through ``slots`` clients to completion.

    ``prologue`` (an async callable) runs first inside the timed region
    — the crash and recovery of a recovery section.  ``count_events``
    drives a sim backend through ``run(stop_when=...)``, which is
    consulted once per loop event.  ``around`` wraps the drive call (the
    profiler of traced pass B).
    """
    section = Section(
        requests, [None] * len(requests), [None] * len(requests)
    )

    async def body() -> None:
        if prologue is not None:
            await prologue()
        await _closed_loop(system, section, slots)

    def drive() -> None:
        if not count_events:
            system.run(body())
            return
        main = system.backend.spawn(body())

        def done() -> bool:
            section.events += 1
            return main.done()

        system.backend.run(stop_when=done)
        main.result()

    with full_collections_deferred():
        busy = system.runtime.total_cpu_busy()
        section.backend_start = system.backend.now
        section.host_start = clock()
        if around is None:
            drive()
        else:
            around(drive)
        section.host_end = clock()
        section.backend_end = system.backend.now
        section.cpu_busy_s = system.runtime.total_cpu_busy() - busy
    return section


def crash_then_recover(system: Any) -> Callable[[], Any]:
    """The prologue of a recovery section."""

    async def prologue() -> None:
        if isinstance(system, NTSystem):
            # NT keeps nothing durable: a crash loses every activation
            # and what comes back is the initial state.
            system.runtime.kill_all()
        else:
            system.crash_silo()
            await system.recover()

    return prologue


def read_balances(system: Any, keys: List[int]) -> Dict[int, float]:
    """Read every key's balance on a quiescent system; any miss is fatal.

    All reads are in flight at once: as the pre-activation sweep this
    activates every account against the WAL as it stands, before the
    sweep's own log records lengthen it.
    """
    section = run_section(system, sweep_requests(keys), len(keys))
    if section.committed != len(keys):
        raise BenchError(
            f"read-back sweep lost {len(keys) - section.committed} of "
            f"{len(keys)} reads\n" + "".join(section.failures[:1])
        )
    return dict(zip(keys, section.result))


# -- set-up -----------------------------------------------------------------


@dataclass
class Prepared:
    """A system ready for its measured section."""

    system: Any
    requests: List[TxnRequest]
    prologue: Optional[Callable[[], Any]]
    #: balance of every account when set-up ended.
    before: Dict[int, float]


def set_up(w: Workload, seed: int, n: int,
           observability: bool = False) -> Prepared:
    """Everything before the measured section; all of it is ``setup_s``.

    Steady-state workloads pre-activate every account while the WAL is
    still short — a transactional actor's first activation scans the
    whole WAL twice, so left to the measured section those scans, not
    the transaction path, would be what is measured — and then run a
    warm-up of the workload's own mix.  ``crash-recover`` instead runs
    its load cold (the load *is* set-up) and reads every balance.
    """
    system = build_system(w, seed, observability)
    keys = list(range(w.accounts))
    if w.measures_recovery:
        load = run_section(system, generate_requests(w, seed, n), w.slots)
        if load.failures:
            raise BenchError("load failed\n" + load.failures[0])
        before = read_balances(system, keys)
        return Prepared(
            system, recovery_requests(w, keys), crash_then_recover(system),
            before,
        )
    warmup = min(WARMUP_TXNS, n)
    requests = generate_requests(w, seed, warmup + n)
    before = read_balances(system, keys)
    warm = run_section(system, requests[:warmup], w.slots)
    if warm.failures:
        raise BenchError("warm-up failed\n" + warm.failures[0])
    return Prepared(system, requests[warmup:], None, before)


# -- metrics ------------------------------------------------------------------


def segment_edges(n: int, segments: int) -> List[Tuple[int, int]]:
    """Index ranges of ``segments`` equal-count runs of ``n`` items."""
    edges = [round(i * n / segments) for i in range(segments + 1)]
    return list(zip(edges, edges[1:]))


def segment_rates(section: Section, segments: int = 5) -> List[float]:
    """Committed per host second over equal-count segments split by
    completion order; one rate when there are too few completions."""
    n = section.committed
    if n < segments:
        return [n / section.host_s]
    rates = []
    start = section.host_start
    for lo, hi in segment_edges(n, segments):
        end = section.done_at[hi - 1]
        rates.append((hi - lo) / (end - start))
        start = end
    return rates


def segmented_percentile(values: List[float], pct: float,
                         segments: int) -> float:
    """Median over ``segments`` equal-count runs of ``values`` (kept in
    completion order) of each run's percentile; the plain percentile
    for one segment."""
    if len(values) < segments:
        segments = 1
    return statistics.median(
        percentile(values[lo:hi], pct)
        for lo, hi in segment_edges(len(values), segments)
    )


def latency_metrics(section: Section,
                    segments: int) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """p50/p99 of committed transactions by type, in backend ms.

    On a virtual clock these are the percentiles of the whole section
    (``segments`` = 1).  A wall clock is disturbed by the host, in
    bursts that decide a whole-section p99 by how many of them a run
    caught; there each percentile is the median over five equal-count
    segments, like ``host_txn_per_s``, and the whole-section values are
    kept in the detail.

    A workload that runs one type only reports that type under both
    names (listed in ``detail["mirrored"]``): the driver wants every
    end-to-end metric on every workload, and the one latency such a
    workload has is the honest value for it.
    """
    by_type: Dict[str, List[float]] = {"pact": [], "act": []}
    for index in section.order:
        by_type[section.requests[index].txn].append(section.latency[index])
    everything = [section.latency[index] for index in section.order]
    values: Dict[str, float] = {}
    detail: Dict[str, Any] = {
        "samples": {}, "mirrored": [], "segments": segments, "whole": {},
    }
    for txn, latencies in by_type.items():
        detail["samples"][txn] = len(latencies)
        if not latencies:
            latencies = everything
            detail["mirrored"] += [f"{txn}_lat_p50_ms", f"{txn}_lat_p99_ms"]
        for pct in (50, 99):
            name = f"{txn}_lat_p{pct}_ms"
            values[name] = segmented_percentile(latencies, pct, segments) * 1e3
            detail["whole"][name] = percentile(latencies, pct) * 1e3
    return values, detail


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


# -- one whole run ---------------------------------------------------------------


def mismatches(section: Section, keys: List[int],
               expected: Dict[int, float]) -> int:
    """Reads of a recovery section that failed or returned the wrong
    balance (requests are in ``keys`` order)."""
    wrong = len(keys) - section.committed
    for index in section.order:
        if section.result[index] != expected[keys[index]]:
            wrong += 1
    return wrong


def run_workload(
    w: Workload,
    seed: int,
    seconds: float,
    n: Optional[int] = None,
    repeats: int = 3,
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """The untraced run: set up ``repeats`` times, measure once, check.

    Returns the full result; ``result["metrics"]`` holds exactly the
    end-to-end metrics of ``BENCHMARK.json``.
    """
    n = n if n is not None else w.measured_txns(seconds)
    setups: List[float] = []
    for attempt in range(repeats):
        started = clock()
        prepared = set_up(w, seed, n)
        setups.append(clock() - started)
        if attempt < repeats - 1:
            # only the last set-up is measured on; the others exist so
            # that setup_s is a median, not one sample.
            tear_down(prepared.system)
            del prepared
            gc.collect()
    system = prepared.system
    keys = list(range(w.accounts))

    section = run_section(
        system, prepared.requests, w.slots, prepared.prologue
    )

    checks: Dict[str, bool] = {}
    if w.measures_recovery:
        # the measured section *is* the recovery: every account read
        # back must hold its pre-crash balance.
        recoveries, sample, expected = [section], keys, prepared.before
        checks["conservation"] = (
            sum(prepared.before.values()) == INITIAL_BALANCE * w.accounts
        )
    else:
        after = read_balances(system, keys)
        checks["conservation"] = (
            sum(after.values()) == sum(prepared.before.values())
        )
        step = max(1, w.accounts // w.recover_sample)
        sample = keys[::step][:w.recover_sample]
        expected = after if w.engine != "nt" else dict.fromkeys(
            keys, INITIAL_BALANCE
        )
        # the first cycle scans a WAL gone cold behind the measured
        # section; the median of three is the warm cost.
        recoveries = [
            run_section(
                system, recovery_requests(w, sample), w.slots,
                crash_then_recover(system),
            )
            for _ in range(RECOVERY_CYCLES)
        ]
    wrong_reads = sum(
        mismatches(recovery, sample, expected) for recovery in recoveries
    )
    checks["durability"] = wrong_reads == 0
    tear_down(system)

    attempted = len(section.requests)
    failures = list(section.failures)
    for recovery in recoveries:
        if recovery is not section:
            failures += recovery.failures
    if w.measures_recovery:
        failed = wrong_reads
        good = attempted - wrong_reads
    else:
        failed = len(failures)
        good = section.committed
    checks["accounting"] = (
        section.committed + section.aborted + len(section.failures)
        == attempted
    )
    # modelled seconds: the virtual clock, or — asyncio has none — the
    # time the cost model's cores were charged for the same executions.
    modelled_s = (
        section.backend_s if w.backend == "sim"
        else section.cpu_busy_s / CORES
    )
    rates = segment_rates(section)
    values, latency_detail = latency_metrics(
        section, segments=1 if w.backend == "sim" else 5
    )
    values.update({
        "setup_s": import_s + statistics.median(setups),
        "host_txn_per_s": statistics.median(rates),
        "virt_txn_per_s": section.committed / modelled_s,
        "commit_frac": good / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "recover_s": statistics.median(r.host_s for r in recoveries),
    })
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "n": n,
        "slots": w.slots,
        "backend": w.backend,
        "env": environment(),
        "attempted": attempted,
        "committed": section.committed,
        "aborted": section.aborted,
        "failed": failed,
        "correct": failed == 0 and all(checks.values()),
        "checks": checks,
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]}
            for name, _, _ in END_TO_END
        },
        "detail": {
            "measured_host_s": section.host_s,
            "measured_backend_s": section.backend_s,
            "abort_frac": 1.0 - good / attempted,
            "host_txn_per_s_segments": rates,
            "latency": latency_detail,
            "setup_runs_s": setups,
            "import_s": import_s,
            "recover_sample": len(sample),
            "recover_runs_s": [r.host_s for r in recoveries],
            "failures": failures[:3],
        },
    }

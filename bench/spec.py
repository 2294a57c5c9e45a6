"""The names this benchmark defines: workloads, metrics, layers.

``BENCHMARK.json`` at the repo root lists the same workload and metric
names for the driver (``bench/tests`` pins the two against each other);
this module adds what the manifest cannot hold — how each workload is
generated and where each per-layer metric comes from.  Later issues
refer to all of them by these names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: every SmallBank transaction is a MultiTransfer over this many actors.
TXN_SIZE = 4
#: silo and protocol sizing shared by every workload (paper §5.1.2).
CORES = 4
COORDINATORS = 4
LOGGERS = 4
#: long enough that a wall-clock stall on the asyncio backend is never
#: mistaken for a failed batch participant.
BATCH_COMPLETE_TIMEOUT = 30.0
#: warm-up transactions of the workload's own mix, part of set-up.
WARMUP_TXNS = 1000


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``txns_per_second`` turns the driver's ``--seconds`` into a fixed
    transaction count (``N = txns_per_second * seconds``): a count, not
    a deadline, so every virtual-clock number and every per-transaction
    counter is a pure function of ``--seed`` and ``--seconds``.  The
    rates are the parent commit's issue rates on the 2-core reference
    box, rounded up so each measured section lasts a little over
    ``--seconds`` there.
    """

    name: str
    why: str
    backend: str  # "sim" | "asyncio"
    engine: str  # "snapper" | "nt"
    pact_fraction: float
    skew: str  # a repro.workloads.distributions name
    slots: int  # P: closed-loop clients
    txns_per_second: int
    accounts: int = 2000
    #: accounts read back after the crash that ends every run; all of
    #: them where that is the measured section or costs nothing.
    recover_sample: int = 8
    #: crash-recover only: the transactions above are *load* (set-up)
    #: and the measured section is crash -> recover -> read every account.
    measures_recovery: bool = False

    def measured_txns(self, seconds: float) -> int:
        return max(1, round(self.txns_per_second * seconds))


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "sb-pact",
        "100% PACT, uniform: token ring, batch formation, LocalSchedule "
        "and batch commit do the work; no locks, no 2PC, no aborts",
        backend="sim", engine="snapper", pact_fraction=1.0,
        skew="uniform", slots=64, txns_per_second=880,
    ),
    Workload(
        "sb-act-skew",
        "100% ACT, zipf 0.75: ActorLock wait-die, 2PC and per-transaction "
        "logging do the work; the one workload with real contention",
        backend="sim", engine="snapper", pact_fraction=0.0,
        skew="medium", slots=8, txns_per_second=1100,
    ),
    Workload(
        "sb-hybrid",
        "50% PACT / 50% ACT, zipf 0.5: the paper's headline mix; hybrid "
        "admission and the BS/AS guard run only here and in sb-hybrid-aio",
        backend="sim", engine="snapper", pact_fraction=0.5,
        skew="low", slots=32, txns_per_second=900,
    ),
    Workload(
        "sb-hybrid-aio",
        "sb-hybrid's request list on the asyncio backend: same engine "
        "layers, repro.sim bypassed; the only wall-clock latencies",
        backend="asyncio", engine="snapper", pact_fraction=0.5,
        skew="low", slots=32, txns_per_second=1390,
    ),
    Workload(
        "sb-nt",
        "NTSystem, uniform: only sim + runtime + actors execute; the "
        "no-change prediction for every protocol or logging optimisation",
        backend="sim", engine="nt", pact_fraction=0.0,
        skew="uniform", slots=64, txns_per_second=5300,
        recover_sample=2000,
    ),
    Workload(
        "crash-recover",
        "load a hybrid mix, crash the silo, recover, read every account: "
        "the read side of persistence and core.engine.recovery",
        backend="sim", engine="snapper", pact_fraction=0.5,
        skew="low", slots=32, txns_per_second=300, accounts=800,
        recover_sample=800, measures_recovery=True,
    ),
)

WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: (name, unit, better) of every end-to-end metric, in report order.
#: Bounds live in ``BENCHMARK.json`` only.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("host_txn_per_s", "1/s", "higher"),
    ("virt_txn_per_s", "1/s", "higher"),
    ("pact_lat_p50_ms", "ms", "lower"),
    ("pact_lat_p99_ms", "ms", "lower"),
    ("act_lat_p50_ms", "ms", "lower"),
    ("act_lat_p99_ms", "ms", "lower"),
    ("commit_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("recover_s", "s", "lower"),
)

#: end-to-end metrics read off the backend clock or counted: on a sim
#: workload they repeat exactly for one (seed, seconds) pair.
EXACT_ON_SIM = frozenset({
    "virt_txn_per_s", "pact_lat_p50_ms", "pact_lat_p99_ms",
    "act_lat_p50_ms", "act_lat_p99_ms", "commit_frac",
})

#: layers are this repo's modules; profile self time folds into them.
LAYERS: Tuple[str, ...] = (
    "sim", "runtime", "actors",
    "core.coordinator", "core.schedule", "core.locks", "core.registry",
    "core.controller", "core.transactional_actor",
    "core.engine.pact", "core.engine.act", "core.engine.hybrid",
    "core.engine.guard", "core.engine.recovery",
    "persistence", "snapshot", "obs", "trace", "api", "bench",
)

#: source 1 — layer probes (host clock, tight loops on one layer).
PROBES: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.task_step_us", "us", "lower"),
    ("sim.future_us", "us", "lower"),
    ("sim.cpu_execute_us", "us", "lower"),
    ("runtime.sim.spawn_gather_us", "us", "lower"),
    ("runtime.aio.spawn_gather_us", "us", "lower"),
    ("actors.msgs_per_s", "1/s", "higher"),
    ("actors.activate_us", "us", "lower"),
    ("core.schedule.ops_per_s", "1/s", "higher"),
    ("core.locks.ops_per_s", "1/s", "higher"),
    ("core.registry.ops_per_s", "1/s", "higher"),
    ("persistence.appends_per_s", "1/s", "higher"),
    ("persistence.file_append_mb_per_s", "MB/s", "higher"),
    ("persistence.scan_records_per_s", "1/s", "higher"),
    ("core.engine.recovery.records_per_s", "1/s", "higher"),
)

#: the span tree's phases (``repro.obs.spans.PHASES``), in order.
PHASES = ("register", "queue", "execute", "commit")

#: source 2 — traced pass A (counts and backend-clock waits per
#: committed transaction; exact on sim workloads).
PASS_A: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events_per_txn", "count", "lower"),
    ("sim.tasks_per_txn", "count", "lower"),
    ("sim.cpu_util", "ratio", "lower"),
    ("actors.msgs_per_txn", "count", "lower"),
    ("actors.mailbox_depth_mean", "count", "lower"),
    ("core.coordinator.batch_size_mean", "count", "higher"),
    ("core.coordinator.token_passes_per_txn", "count", "lower"),
    ("core.coordinator.batch_commit_virt_ms", "ms", "lower"),
    ("core.engine.hybrid.pact_turn_wait_virt_ms", "ms", "lower"),
    ("core.engine.hybrid.act_admission_wait_virt_ms", "ms", "lower"),
    ("core.locks.wait_virt_ms", "ms", "lower"),
    ("core.locks.cc_aborts_per_attempt", "ratio", "lower"),
    ("core.engine.act.two_phase_frac", "ratio", "lower"),
    ("core.engine.act.prepare_rtt_virt_ms", "ms", "lower"),
    ("core.engine.act.commit_rtt_virt_ms", "ms", "lower"),
    ("core.engine.guard.abort_frac", "ratio", "lower"),
    ("core.controller.cascades_per_ktxn", "count", "lower"),
    ("persistence.records_per_txn", "count", "lower"),
    ("persistence.bytes_per_txn", "B", "lower"),
    ("persistence.flushes_per_txn", "count", "lower"),
    ("persistence.records_per_flush", "count", "higher"),
    ("persistence.io_util", "ratio", "lower"),
    ("core.engine.recovery.scans_per_activation", "count", "lower"),
) + tuple(
    (f"phase.{mode}.{phase}_virt_ms", "ms", "lower")
    for mode in ("pact", "act") for phase in PHASES
)

#: host-clock ratio of the traced pass to an untraced pass of equal size.
TRACE_OVERHEAD = ("trace.overhead_frac", "ratio", "lower")

#: source 3 — traced pass B (the same pass under cProfile).
PASS_B: Tuple[Tuple[str, str, str], ...] = tuple(
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.self_share", "ratio", "lower"),
        (f"{layer}.calls_per_txn", "count", "lower"),
    )
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    PROBES + PASS_A + (TRACE_OVERHEAD,) + PASS_B
)

UNITS: Dict[str, str] = {
    name: unit for name, unit, _ in END_TO_END + PER_LAYER
}

#: per-layer metrics that repeat exactly on a sim workload.
PER_LAYER_EXACT_ON_SIM = frozenset(
    [name for name, _, _ in PASS_A]
    + [name for name, _, _ in PASS_B if name.endswith(".calls_per_txn")]
)


def phase_metric(mode: str, phase: str) -> str:
    return f"phase.{mode}.{phase}_virt_ms"

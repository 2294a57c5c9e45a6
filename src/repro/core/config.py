"""Snapper configuration: protocol switches and the CC cost model.

All CPU costs are in simulated seconds and are charged on the silo's
core pool, so they contend with application work exactly like the
library's bookkeeping contends with user code on a real silo.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class SnapperConfig:
    """Tunables for the Snapper transaction library.

    The defaults reproduce the paper's single-silo deployment (§5.1.2):
    4 coordinators on a 4-core silo, logging enabled through a small
    group of loggers, wait-die for ACT-ACT deadlocks and a timeout for
    hybrid PACT-ACT deadlocks.

    Every tunable is keyword-only and grouped into the sections below;
    :meth:`to_dict` / :meth:`from_dict` round-trip the full
    configuration as a plain mapping (config files, sweep harnesses).
    """

    #: every constructor tunable, in declaration order — the
    #: ``to_dict``/``from_dict`` round-trip surface.
    _FIELDS = (
        # coordination (token ring, §4.2)
        "num_coordinators", "act_tid_range", "token_cycle_time",
        # logging
        "logging_enabled", "num_loggers", "io_base_latency",
        "io_per_byte", "group_commit",
        # CC cost model
        "cpu_txn_setup", "cpu_state_access", "cpu_lock_op",
        "cpu_schedule_op", "cpu_commit_op",
        # deadlock handling
        "deadlock_timeout", "concurrency_control",
        # ablation switches
        "batching_enabled", "incomplete_after_set_optimization",
        # recovery
        "batch_complete_timeout", "log_dir",
        # observability
        "observability",
        # verification
        "sanitize_access_sets",
        # execution substrate / deployment
        "runtime_backend", "coordinator_placement",
        # snapshots & residency (repro.snapshot)
        "snapshot_interval", "max_resident_actors", "wal_segment_bytes",
    )

    def __init__(
        self,
        *,
        # -- coordination (token ring, §4.2) --------------------------------
        num_coordinators: int = 4,
        act_tid_range: int = 64,
        token_cycle_time: float = 2e-3,
        # -- logging ------------------------------------------------------
        logging_enabled: bool = True,
        num_loggers: int = 4,
        io_base_latency: float = 125e-6,
        io_per_byte: float = 5e-9,
        group_commit: bool = True,
        # -- CC cost model (CPU seconds per operation) ---------------------
        cpu_txn_setup: float = 10e-6,
        cpu_state_access: float = 5e-6,
        cpu_lock_op: float = 3e-6,
        cpu_schedule_op: float = 1e-6,
        cpu_commit_op: float = 6e-6,
        # -- deadlock handling -----------------------------------------------
        deadlock_timeout: float = 0.05,
        concurrency_control: Optional[str] = None,
        # -- ablation switches -------------------------------------------------
        batching_enabled: bool = True,
        incomplete_after_set_optimization: bool = True,
        # -- recovery ---------------------------------------------------------
        batch_complete_timeout: Optional[float] = 1.0,
        log_dir: Optional[str] = None,
        # -- observability ------------------------------------------------------
        observability: bool = False,
        # -- verification -------------------------------------------------------
        sanitize_access_sets: bool = False,
        # -- execution substrate / deployment ------------------------------------
        runtime_backend: str = "sim",
        coordinator_placement: Any = "spread",
        # -- snapshots & residency (repro.snapshot) -------------------------------
        snapshot_interval: Optional[float] = None,
        max_resident_actors: Optional[int] = None,
        wal_segment_bytes: Optional[int] = None,
    ):
        if num_coordinators < 1:
            raise ValueError("need at least one coordinator")
        if act_tid_range < 1:
            raise ValueError("ACT tid range must be >= 1")
        self.num_coordinators = num_coordinators
        #: target duration of one full token circulation (§4.2.2): each
        #: coordinator holds the token for cycle/num_coordinators while
        #: it performs its other duties.  The cycle sets the batching
        #: epoch — PACTs accumulated during one cycle form one batch —
        #: and thus trades PACT latency for amortization.
        self.token_cycle_time = token_cycle_time
        #: contiguous tids pre-allocated for ACTs at each token visit (§4.3.1).
        self.act_tid_range = act_tid_range

        self.logging_enabled = logging_enabled
        self.num_loggers = num_loggers
        self.io_base_latency = io_base_latency
        self.io_per_byte = io_per_byte
        self.group_commit = group_commit

        #: coordinator work to register a transaction and build contexts.
        self.cpu_txn_setup = cpu_txn_setup
        #: GetState body: copy/refcount handling of the state blob.
        self.cpu_state_access = cpu_state_access
        #: one lock-table operation (acquire attempt or release); the
        #: compatibility check walks the holder map in place, no copies.
        self.cpu_lock_op = cpu_lock_op
        #: one local-schedule operation (admit, advance, append).  The
        #: schedule keeps O(1) bid/tid indexes and a precomputed
        #: per-batch dispatch order, so an op is a dict probe plus a
        #: cursor bump — not a scan.
        self.cpu_schedule_op = cpu_schedule_op
        #: per-transaction commit bookkeeping on coordinators/actors;
        #: the commit registry advances its bid chain by deque popleft.
        self.cpu_commit_op = cpu_commit_op

        #: time an ACT may block (admission or lock wait) before it is
        #: presumed deadlocked and aborted (§4.4.2).
        self.deadlock_timeout = deadlock_timeout
        #: ACT-ACT concurrency-control strategy, by name ("wait_die" —
        #: §4.3.2 and the default, "timeout" — what Orleans Transactions
        #: does, "no_wait", ...); see repro.core.engine.concurrency.
        if concurrency_control is None:
            concurrency_control = "wait_die"
        from repro.core.engine.concurrency import CC_STRATEGIES

        if concurrency_control not in CC_STRATEGIES:
            raise ValueError(
                f"unknown concurrency_control {concurrency_control!r}; "
                f"known strategies: {sorted(CC_STRATEGIES)}"
            )
        self.concurrency_control = concurrency_control

        #: deliver sub-batches as one message per batch (True, §4.2.2) or
        #: one message per transaction (False; ablation).
        self.batching_enabled = batching_enabled
        #: pass the serializability check when the AfterSet is incomplete
        #: but every BeforeSet batch has committed (§4.4.3).
        self.incomplete_after_set_optimization = incomplete_after_set_optimization

        #: how long a coordinator waits for BatchComplete votes before
        #: presuming a participant failed and aborting the batch.
        self.batch_complete_timeout = batch_complete_timeout

        #: install a :class:`repro.obs.MetricsRegistry` as the ``obs``
        #: service and instrument the whole stack (coordinator, both
        #: engine paths, scheduler, runtime, WAL).  Metrics are read from
        #: simulated time and charge no simulated CPU, so enabling this
        #: does not change any simulated result.
        self.observability = observability

        #: run the :class:`repro.core.engine.sanitizer.AccessSanitizer`:
        #: every PACT context carries its normalized access declaration,
        #: and the engine cross-checks actual accesses (cross-actor
        #: calls, invocation counts, ``get_state`` modes) against it at
        #: execution time, failing fast with
        #: ``AbortReason.ACCESS_VIOLATION`` and the offending
        #: actor/mode.  The dynamic oracle for the static
        #: ``repro.analysis.accessflow`` pass; off by default — with it
        #: off, contexts and message payloads are bit-for-bit what they
        #: were before the sanitizer existed.  See docs/analysis.md.
        self.sanitize_access_sets = sanitize_access_sets

        #: directory for file-backed WALs (None keeps them in memory,
        #: which still survives simulated crashes — the WAL object *is*
        #: the durable device).  Set a path to survive process restarts.
        self.log_dir = log_dir

        #: multi-silo coordinator placement (§7 future work): "spread"
        #: round-robins the ring across silos; an integer pins the whole
        #: ring to that silo.  Ignored in single-silo deployments.
        self.coordinator_placement = coordinator_placement

        #: execution substrate: "sim" (deterministic DES kernel, the
        #: reproducibility reference) or "asyncio" (real tasks, wall
        #: clock, duplex-stream transport).  See docs/runtime.md.
        from repro.runtime import BACKENDS

        if runtime_backend not in BACKENDS:
            raise ValueError(
                f"unknown runtime_backend {runtime_backend!r}; "
                f"known backends: {list(BACKENDS)}"
            )
        self.runtime_backend = runtime_backend

        #: run the :class:`repro.snapshot.SnapshotService`: every this
        #: many (virtual) seconds, checkpoint each resident actor's
        #: committed state to the WAL and truncate records behind the
        #: machine-wide snapshot frontier.  None (the default) disables
        #: the service — no SnapshotRecord is ever written, and the WAL
        #: contents are bit-for-bit what they were before the subsystem
        #: existed.  See docs/snapshots.md.
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        self.snapshot_interval = snapshot_interval

        #: LRU residency budget for transactional actors: when more than
        #: this many are live, the snapshot service snapshots the
        #: coldest quiescent ones and deactivates them; the next PACT or
        #: ACT touch transparently reactivates from snapshot + WAL tail.
        #: None (the default) keeps every activation forever.
        if max_resident_actors is not None and max_resident_actors < 1:
            raise ValueError("max_resident_actors must be >= 1")
        self.max_resident_actors = max_resident_actors

        #: roll file-backed WALs (``log_dir``) into sealed segments of
        #: this many bytes so truncation can drop whole segments behind
        #: the snapshot frontier.  None = a single unsegmented file
        #: (truncation then reclaims nothing on disk).
        if wal_segment_bytes is not None and wal_segment_bytes < 1:
            raise ValueError("wal_segment_bytes must be >= 1")
        self.wal_segment_bytes = wal_segment_bytes

    # -- round-trip ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Snapshot every tunable as a plain mapping (declaration order)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SnapperConfig":
        """Rebuild a config from a :meth:`to_dict`-style mapping.

        Unknown keys raise the constructor's ``TypeError``, so stale
        config files fail loudly."""
        return cls(**dict(data))

"""``SnapperSystem``: wiring facade for one Snapper deployment.

Builds the silo (actor runtime + CPU pool), the logger group, the commit
registry, the abort controller, and the coordinator ring; registers the
shared services actors look up; starts and stops the token; exposes the
client-side submission helpers; and implements whole-system crash and
recovery for the durability tests and examples.

Typical use::

    system = SnapperSystem(seed=42)
    system.register_actor("account", AccountActor)
    system.start()
    balance = system.run(
        system.submit(TxnRequest.pact(
            "account", 1, "transfer", (100.0, 2),
            access={1: 1, 2: 1},
        ))
    )
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Set

from repro.actors.ref import ActorId, ActorRef
from repro.api import TxnHandle, TxnRequest, submit_over
from repro.actors.runtime import ActorRuntime, SiloConfig
from repro.core.config import SnapperConfig
from repro.core.controller import AbortController
from repro.core.coordinator import CoordinatorActor, Token
from repro.core.registry import CommitRegistry
from repro.obs.instruments import MetricsRegistry
from repro.persistence.logger import LoggerGroup
from repro.persistence.records import (
    BatchAbortRecord,
    BatchCommitRecord,
    BatchCompleteRecord,
    BatchInfoRecord,
    CoordCommitRecord,
    CoordPrepareRecord,
    SnapshotRecord,
)
from repro.runtime import as_backend, create_backend
from repro.runtime.sync import Condition
from repro.trace import SYSTEM_TID

COORDINATOR_KIND = "snapper-coordinator"


class SnapperSystem:
    """One single-silo Snapper deployment (the paper's setting, §1)."""

    def __init__(
        self,
        config: Optional[SnapperConfig] = None,
        silo: Optional[SiloConfig] = None,
        loop: Optional[Any] = None,
        seed: int = 0,
    ):
        self.config = config or SnapperConfig()
        if loop is not None:
            # explicit substrate handle: a RuntimeBackend or a raw
            # SimLoop (the pre-seam signature, kept working verbatim).
            self.backend = as_backend(loop)
            self.loop = loop
        else:
            self.backend = create_backend(
                self.config.runtime_backend, seed=seed
            )
            # legacy alias: for the sim backend this stays the raw
            # SimLoop, so `system.loop` behaves exactly as before the
            # runtime seam; other backends expose the same surface.
            self.loop = getattr(self.backend, "loop", self.backend)
        self.runtime = ActorRuntime(
            self.backend, silo or SiloConfig(seed=seed)
        )
        self.registry = CommitRegistry()
        self.controller = AbortController(self.registry)
        self.controller.actor_ref = self._actor_ref_by_id
        self.loggers = LoggerGroup(
            num_loggers=self.config.num_loggers,
            io_base_latency=self.config.io_base_latency,
            io_per_byte=self.config.io_per_byte,
            group_commit=self.config.group_commit,
            enabled=self.config.logging_enabled,
            cpu=self.runtime.cpu_of,
            log_dir=self.config.log_dir,
            io_factory=self.backend.io_device,
            wal_segment_bytes=self.config.wal_segment_bytes,
        )
        self.controller.loggers = self.loggers
        self._token_active = False
        self._token_epoch = 0
        #: silo-down window: True between :meth:`crash_silo` and the end
        #: of :meth:`recover`.  Transactional actors must not activate
        #: inside it — their recovery scan would race the WAL resolution
        #: and registry reset (see ``services["silo_gate"]``).
        self._silo_down = False
        self._silo_gate = Condition(label="silo-gate")

        #: the metrics registry (``repro.obs``), live only when
        #: ``SnapperConfig(observability=True)``: a disabled registry
        #: registers nothing and hands out no-op instruments, so the
        #: disabled path costs exactly one None/no-op call per hook.
        self.obs = MetricsRegistry(enabled=self.config.observability)

        services = self.runtime.services
        services["snapper_config"] = self.config
        services["loggers"] = self.loggers
        services["registry"] = self.registry
        services["abort_controller"] = self.controller
        services["actor_ref"] = self._actor_ref_by_id
        services["coordinator_by_key"] = self._coordinator_by_key
        services["coordinator_for"] = self._coordinator_for
        services["token_active"] = lambda: self._token_active
        services["token_epoch"] = lambda: self._token_epoch
        #: awaited at the top of ``TransactionalActor.on_activate``: an
        #: actor touched between a silo crash and the end of recovery
        #: must not rebuild its state from a WAL whose in-doubt tail is
        #: still being resolved (it could adopt a batch recovery is
        #: about to presume aborted, or miss one recovery is about to
        #: commit).  Coordinators are *not* gated — ``reinitiate_token``
        #: runs inside ``recover()`` and must be able to activate one.
        services["silo_gate"] = self._wait_silo_up
        #: the runtime access sanitizer (``docs/analysis.md``): live only
        #: under ``SnapperConfig(sanitize_access_sets=True)``; with it
        #: off, no service exists and contexts carry no declaration.
        self.sanitizer = None
        if self.config.sanitize_access_sets:
            from repro.core.engine.sanitizer import AccessSanitizer

            self.sanitizer = AccessSanitizer(self.controller)
            services["access_sanitizer"] = self.sanitizer
        #: the snapshot service (``repro.snapshot``): live only when the
        #: config asks for snapshots or a residency budget; with it off,
        #: no SnapshotRecord is ever written and the WAL is bit-for-bit
        #: what it was before the subsystem existed.
        self.snapshots = None
        if (self.config.snapshot_interval is not None
                or self.config.max_resident_actors is not None):
            from repro.snapshot import SnapshotService

            self.snapshots = SnapshotService(
                self.runtime, self.loggers, self.registry, self.config
            )
            services["snapshots"] = self.snapshots
        if self.obs.enabled:
            services["obs"] = self.obs
            self.runtime.attach_obs(self.obs)
            self.loggers.attach_obs(self.obs)
            self.controller.attach_obs(self.obs)
            if self.snapshots is not None:
                self.snapshots.attach_obs(self.obs)

        self.runtime.register(COORDINATOR_KIND, CoordinatorActor)
        self._place_coordinators()

    def _place_coordinators(self) -> None:
        """Pin coordinators per the placement policy (multi-silo, §7).

        ``SnapperConfig.coordinator_placement`` is either ``"spread"``
        (round-robin across silos — short hops for the actors, longer
        token circulation) or a silo index (token circulates within one
        silo, but remote actors pay cross-silo batch messaging).
        """
        if self.runtime.config.num_silos == 1:
            return
        placement = self.config.coordinator_placement
        for key in range(self.config.num_coordinators):
            actor_id = ActorId(COORDINATOR_KIND, key)
            if placement == "spread":
                self.runtime.pin_actor(
                    actor_id, key % self.runtime.config.num_silos
                )
            else:
                self.runtime.pin_actor(actor_id, int(placement))

    # -- wiring helpers -----------------------------------------------------
    def _actor_ref_by_id(self, actor_id: ActorId) -> ActorRef:
        return ActorRef(self.runtime, actor_id)

    def _coordinator_by_key(self, key: int) -> ActorRef:
        return self.runtime.ref(COORDINATOR_KIND, key)

    def _coordinator_for(self, actor_id: ActorId) -> ActorRef:
        """The coordinator serving ``actor_id``: a stable hash (§4.1.2)."""
        key = hash(actor_id) % self.config.num_coordinators
        return self._coordinator_by_key(key)

    # -- public surface --------------------------------------------------------
    def register_actor(self, kind: str, factory: Callable[[], Any]) -> None:
        """Register a user-defined transactional actor kind."""
        self.runtime.register(kind, factory)

    def actor(self, kind: str, key: Hashable) -> ActorRef:
        return self.runtime.ref(kind, key)

    def start(self) -> None:
        """Inject the token into the coordinator ring."""
        if self._token_active:
            return
        self._token_active = True
        if self.snapshots is not None:
            self.snapshots.start()
        self._coordinator_by_key(0).call(
            "receive_token", Token(epoch=self._token_epoch)
        )

    def shutdown(self) -> None:
        """Stop the token (and close file-backed logs, if any); the
        simulation can then drain naturally."""
        self._token_active = False
        if self.snapshots is not None:
            self.snapshots.stop()
        self.loggers.close()

    def submit(self, request: TxnRequest) -> TxnHandle:
        """Submit one transaction (Fig. 1) described by ``request``.

        The one client entry point (``repro.api``): fires the start message
        immediately and returns an awaitable :class:`TxnHandle` exposing
        result, status, and trace id.  ``system.run(handle)`` drives it
        to completion on any backend.
        """

        def start(handle: TxnHandle) -> Any:
            return self.actor(request.kind, request.key).call(
                "start_txn", request.method, request.func_input,
                request.access, handle._set_tid,
            )

        return submit_over(self.backend, start, request)

    def run(self, coro_or_future, until: Optional[float] = None):
        """Drive the backend until the given work completes."""
        if isinstance(coro_or_future, TxnHandle):
            coro_or_future = coro_or_future.future
        return self.backend.run_until_complete(coro_or_future, until=until)

    def run_for(self, duration: float) -> None:
        """Advance the backend by ``duration`` seconds (virtual or wall)."""
        self.backend.run(until=self.backend.now + duration)

    # -- failure & recovery (§4.2.5, §4.3.4, §4.4.5) ------------------------------
    def crash_actor(self, kind: str, key: Hashable) -> bool:
        """Crash one actor, losing its in-memory state."""
        return self.runtime.kill(ActorId(kind, key))

    def _trace_system(self, event: str, detail: Any = None) -> None:
        """Record a system-level (non-transactional) trace event."""
        tracer = self.runtime.services.get("txn_tracer")
        if tracer is not None:
            tracer.record(self.backend.now, SYSTEM_TID, event, detail)

    def crash_silo(self) -> int:
        """Crash everything (actors *and* coordinators); the token dies.

        Durable state — the logger group's WALs — survives, exactly like
        the SSD in the paper's deployment.
        """
        self._token_active = False
        self._silo_down = True
        killed = self.runtime.kill_all()
        self._trace_system("silo_crash", {"killed": killed})
        return killed

    async def _wait_silo_up(self) -> None:
        """Block while the silo is down (``services["silo_gate"]``)."""
        if self._silo_down:
            await self._silo_gate.wait_until(lambda: not self._silo_down)

    async def recover(self) -> None:
        """Bring the system back after :meth:`crash_silo`.

        Applies the paper's commit rule for in-doubt batches — a batch
        whose every participant logged BatchComplete can commit; others
        abort (§4.2.4) — resolves in-doubt ACTs by presumed abort
        (§4.3.4), resets the in-memory registry, and re-initiates a
        fresh token (§4.2.5).  Actors lazily restore their last
        committed state from the WAL on next activation.
        """
        committed_bids: Set[int] = set()
        aborted_bids: Set[int] = set()
        complete_votes: Dict[int, Set[Any]] = {}
        batch_infos: Dict[int, BatchInfoRecord] = {}
        max_tid = -1
        # Snapshots carry the watermarks of everything truncated behind
        # them: a batch whose records were dropped was committed at or
        # below some snapshot's bid, and the tid space must restart
        # above anything the vanished records could have named.
        snapshot_bid_floor = -1
        for record in self.loggers.all_records():
            if isinstance(record, BatchInfoRecord):
                batch_infos[record.bid] = record
                max_tid = max(max_tid, record.bid)
            elif isinstance(record, BatchCommitRecord):
                committed_bids.add(record.bid)
            elif isinstance(record, BatchAbortRecord):
                aborted_bids.add(record.bid)
                max_tid = max(max_tid, record.bid)
            elif isinstance(record, BatchCompleteRecord):
                complete_votes.setdefault(record.bid, set()).add(record.actor)
            elif isinstance(record, (CoordPrepareRecord, CoordCommitRecord)):
                max_tid = max(max_tid, record.tid)
            elif isinstance(record, SnapshotRecord):
                snapshot_bid_floor = max(snapshot_bid_floor, record.bid)
                max_tid = max(max_tid, record.bid, record.tid_highwater)
        resolved_commits = 0
        presumed_aborts = 0
        # Batches commit strictly in bid order, and under speculative
        # pipelining (§4.2.3) a batch's durable snapshot embeds the
        # effects of every earlier batch on the same actor.  The commit
        # rule must honor that dependency:
        #  * an in-doubt batch below the highest durably-committed bid
        #    was passed over by the live commit chain — it can only have
        #    aborted (a cascade), and resurrecting it would resurrect
        #    effects the survivors' snapshots were rolled back from;
        #  * once one in-doubt batch aborts, every later in-doubt batch
        #    aborts with it — its snapshot may embed the aborted
        #    effects.
        max_committed_bid = max(
            max(committed_bids, default=-1), snapshot_bid_floor
        )
        abort_point: Optional[int] = None
        for bid, info in sorted(batch_infos.items()):
            if bid in committed_bids:
                continue
            if bid in aborted_bids:
                # decided, not in doubt: the cascade write-aheads its
                # abort decisions (BatchAbortRecord), so the commit rule
                # must not resurrect this batch however complete its
                # votes look.  Batches registered after the cascade
                # carry post-rollback state, so the abort dooms nothing
                # later.
                presumed_aborts += 1
                continue
            votes = complete_votes.get(bid, set())
            if (
                bid > max_committed_bid
                and abort_point is None
                and votes >= set(info.participants)
            ):
                # every participant voted, and nothing this batch could
                # depend on was aborted: commit (§4.2.4)
                await self.loggers.persist(
                    ("recovery", bid), BatchCommitRecord(bid=bid)
                )
                resolved_commits += 1
            else:
                # presumed abort — actors will not restore its state.
                if abort_point is None:
                    abort_point = bid
                presumed_aborts += 1
        # fresh in-memory protocol state + a new token (§4.2.5).
        self.registry.reset()
        self.reinitiate_token(max_tid)
        # the WAL's in-doubt tail is resolved and the registry rebuilt:
        # reopen the activation gate for transactional actors.
        self._silo_down = False
        self._silo_gate.notify_all()
        self._trace_system(
            "recovery",
            {
                "epoch": self._token_epoch,
                "resolved_commits": resolved_commits,
                "presumed_aborts": presumed_aborts,
            },
        )

    def reinitiate_token(self, max_logged_tid: Optional[int] = None) -> None:
        """Fence any surviving token and inject a fresh one (§4.2.5).

        Covers the *coordinator* failure case where the silo — and hence
        every actor's in-memory state — is still alive: the commit
        registry is left alone (batches in flight resolve through the
        vote-timeout/cascade path), but the token epoch is bumped so a
        stale token dies at its next hop, and the new token's ``last_tid``
        jumps above every tid that could have been handed out — the
        logged maximum plus one ACT range per coordinator of slack for
        ranges that never produced a record.
        """
        if max_logged_tid is None:
            max_logged_tid = -1
            for record in self.loggers.all_records():
                if isinstance(record, BatchInfoRecord):
                    max_logged_tid = max(max_logged_tid, record.bid)
                elif isinstance(record,
                                (CoordPrepareRecord, CoordCommitRecord)):
                    max_logged_tid = max(max_logged_tid, record.tid)
                elif isinstance(record, SnapshotRecord):
                    max_logged_tid = max(
                        max_logged_tid, record.bid, record.tid_highwater
                    )
        self._token_epoch += 1
        token = Token(epoch=self._token_epoch)
        token.last_tid = max(
            max_logged_tid, self.registry.tid_highwater
        ) + self.config.act_tid_range * (self.config.num_coordinators + 1)
        self._token_active = True
        self._coordinator_by_key(0).call("receive_token", token)

    # -- statistics ---------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        stats = {
            "messages_sent": self.runtime.messages_sent,
            "cpu_busy_time": self.runtime.cpu.busy_time,
            "log_records": self.loggers.records_persisted(),
            "log_bytes": self.loggers.bytes_written(),
            "batches_committed": self.registry.batches_committed,
            "batches_aborted": self.registry.batches_aborted,
            "cascading_aborts": self.controller.cascades,
        }
        # only when the service is live: the snapshots-off stats surface
        # must stay bit-identical to pre-subsystem pins (BENCH_core).
        if self.snapshots is not None:
            stats["snapshots_taken"] = self.snapshots.snapshots_taken
            stats["records_truncated"] = self.snapshots.records_truncated
            stats["evictions"] = self.snapshots.evictions
        return stats

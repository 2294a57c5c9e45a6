"""``TransactionalActor``: the base class user actors extend (§3, §4).

It implements the three-API surface of Table 1 — ``start_txn``,
``call_actor``, ``get_state`` — as a thin *composition root* over the
layered engine in :mod:`repro.core.engine`:

* :class:`~repro.core.engine.pact.PactExecutor` — deterministic batch
  execution, completion snapshots, batch commit, cascading rollback;
* :class:`~repro.core.engine.act.ActExecutor` — nondeterministic
  execution, S2PL through a pluggable
  :class:`~repro.core.engine.concurrency.ConcurrencyControl` strategy,
  and 2PC with the first accessed actor as coordinator;
* :class:`~repro.core.engine.hybrid.HybridScheduler` — the two
  interleaving rules over the actor's local schedule (§4.4.1);
* :class:`~repro.core.engine.guard.SerializabilityGuard` — the
  BeforeSet/AfterSet commit-time check (§4.4.3-4).

The actor itself owns only its state blobs (``_state``,
``_committed_state``, the incremental-logging ``_delta_buffer``) and
the RPC surface; every protocol decision lives in the engine layers,
which makes each one swappable, ablatable, and testable on its own.

User subclasses implement ``initial_state()`` and ``async`` transaction
methods taking ``(ctx, func_input)``, exactly like Fig. 2's
``AccountActor``.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.actors.actor import Actor
from repro.actors.ref import ActorId, ActorRef
from repro.core.config import SnapperConfig
from repro.core.context import (
    AccessMode,
    FuncCall,
    ResultObj,
    TxnContext,
    parse_access_decl,
)
from repro.core.engine import (
    ActExecutor,
    HybridScheduler,
    PactExecutor,
    SerializabilityGuard,
    recover_state_ex,
    resolve_concurrency_control,
)
from repro.core.engine.recovery import (
    DELTA_MARKER,
    resolve_in_doubt_tail,
)
from repro.core.locks import ActorLock
from repro.obs.instruments import LATENCY_BUCKETS, registry_from_services
from repro.core.schedule import LocalSchedule
from repro.errors import SimulationError


class TransactionalActor(Actor):
    """Base class providing Snapper's transactional guarantees."""

    reentrant = True  # §4.2.3: suspended turns must not block the actor

    #: opt-in incremental logging (the paper's §5.4.2 future work): when
    #: True, state records carry only the entries passed to
    #: :meth:`log_delta` since the last persist instead of the whole
    #: state blob — a large win for insertion-only states like TPC-C's
    #: Order tables.  Subclasses must then implement :meth:`apply_delta`.
    incremental_logging: bool = False

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------
    def initial_state(self) -> Any:
        """Return the actor's initial state blob (override me)."""
        raise NotImplementedError

    def apply_delta(self, state: Any, delta: List[Any]) -> Any:
        """Re-apply a logged delta during recovery (incremental logging).

        Returns the new state; the default handles list states by
        appending."""
        if isinstance(state, list):
            state.extend(delta)
            return state
        raise NotImplementedError(
            f"{type(self).__name__} uses incremental_logging but does not "
            "implement apply_delta()"
        )

    def log_delta(self, ctx: TxnContext, entry: Any) -> None:
        """Record one logical change for incremental logging.

        Call this alongside the in-place state mutation; the entries
        accumulated since the last persist form the delta written to the
        WAL instead of the full state blob.
        """
        self._delta_buffer.append((ctx.tid, entry))

    # ------------------------------------------------------------------
    # lifecycle: wire the engine layers
    # ------------------------------------------------------------------
    async def on_activate(self) -> None:
        # A touch between crash_silo() and the end of recover() must not
        # rebuild state from a WAL whose in-doubt tail is mid-resolution
        # (wrongly adopting a batch recovery presumes aborted, or missing
        # one recovery is about to commit).  Wait the window out.
        gate = self.runtime.services.get("silo_gate")
        if gate is not None:
            await gate()
        self._config: SnapperConfig = self.runtime.service("snapper_config")
        self._loggers = self.runtime.service("loggers")
        self._registry = self.runtime.service("registry")
        self._controller = self.runtime.service("abort_controller")
        self._coordinator: ActorRef = self.runtime.service("coordinator_for")(
            self.id
        )
        #: the access sanitizer service, present only under
        #: ``SnapperConfig(sanitize_access_sets=True)``.
        self._sanitizer = self.runtime.services.get("access_sanitizer")

        self._obs = registry_from_services(self.runtime.services)
        self._scheduler = HybridScheduler(
            label=str(self.id),
            deadlock_timeout=self._config.deadlock_timeout,
            obs=self._obs,
        )
        cc = resolve_concurrency_control(self._config.concurrency_control)
        self._lock = ActorLock(cc, label=str(self.id))
        guard = SerializabilityGuard(self._config, self._registry, self._obs)
        self._acts = ActExecutor(self, self._scheduler, guard, cc, self._lock)
        self._pact = PactExecutor(self, self._scheduler, self._acts)

        activate_from = self.runtime.loop.now
        #: (tid, entry) changes since the last persist (incremental mode).
        self._delta_buffer: List[tuple] = []
        self._state = self.initial_state()
        #: LSN of the newest durable state record embedded in
        #: ``_committed_state`` — the frontier a snapshot of this actor
        #: anchors to (``-1``: no committed history).  Per-actor state
        #: records commit in LSN order (the schedule gates later turns on
        #: earlier commit points), so a single max is exact.
        self._committed_lsn = -1
        recovered = recover_state_ex(
            self.id, self._loggers, self._state, self.apply_delta
        )
        self._state = recovered.state
        self._committed_lsn = recovered.frontier_lsn
        #: covered records replayed past the snapshot seed at the last
        #: reactivation (bounded-recovery accounting; see bench-recovery).
        self._recovery_replayed = recovered.replayed
        # 2PC participant recovery: resolve work this actor prepared
        # whose commit decision was still in flight when it crashed.
        # The runtime holds the inbox closed until on_activate returns,
        # so no transaction observes the actor mid-resolution.
        if self._obs.enabled:
            self._obs.histogram(
                "snapper_wal_indoubt_tail_count",
                "Undecided records per actor reactivation (2PC recovery)",
                buckets=(0, 1, 2, 4, 8, 16, 32, 64),
            ).observe(len(recovered.tail))
        self._state = await resolve_in_doubt_tail(
            self.id,
            self._loggers,
            self._registry,
            self._state,
            self.apply_delta,
            timeout=self._config.batch_complete_timeout or 1.0,
            tail=recovered.tail,
            on_adopt=self._note_adopted,
        )
        self._committed_state = copy.deepcopy(self._state)
        #: position of the actor's execution frontier in its local serial
        #: order (bumped at every completion-snapshot / ACT-commit point)
        #: and the frontier position ``_committed_state`` corresponds to.
        #: Commit notifications can arrive out of order (a delayed
        #: BatchCommit may land after a newer batch or ACT already
        #: committed); promotions compare positions so a stale snapshot
        #: can never roll the committed state backwards.
        self._serial_seq = 0
        self._committed_seq = 0
        if self._obs.enabled:
            self._obs.histogram(
                "snapper_snapshot_reactivation_seconds",
                "Activation latency: WAL recovery + in-doubt resolution",
                buckets=LATENCY_BUCKETS,
            ).observe(self.runtime.loop.now - activate_from)

    def _note_adopted(self, record: Any) -> None:
        """An in-doubt record resolved to commit during reactivation:
        its effects are now part of the committed state."""
        if record.lsn > self._committed_lsn:
            self._committed_lsn = record.lsn

    # ------------------------------------------------------------------
    # Table 1: StartTxn
    # ------------------------------------------------------------------
    async def start_txn(
        self,
        method: str,
        func_input: Any = None,
        actor_access_info: Optional[Dict[Any, Any]] = None,
        on_tid: Optional[Callable[[int], None]] = None,
    ) -> Any:
        """Submit a transaction starting at this actor (Fig. 1).

        With ``actor_access_info`` the transaction runs as a PACT; the
        dictionary maps each accessed actor (an :class:`ActorId`, an
        :class:`ActorRef`, or a raw key of this actor's kind) to its
        declared access — an int count, a mode string (``"r"``/``"rw"``),
        or a ``(count, mode)`` pair (see
        :func:`repro.core.context.parse_access_decl`).  Without it, the
        transaction runs as an ACT.  Returns the first method's result
        after commit; raises :class:`TransactionAbortedError` if the
        transaction aborted.  ``on_tid`` (used by ``TxnHandle``) is
        called with the assigned tid the moment the coordinator
        registers the transaction.
        """
        await self.charge(self._config.cpu_txn_setup)
        if actor_access_info is not None:
            access = self._normalize_access_info(actor_access_info)
            return await self._pact.run_root(method, func_input, access,
                                             on_tid)
        return await self._acts.run_root(method, func_input, on_tid)

    def _normalize_access_info(
        self, info: Dict[Any, Any]
    ) -> Dict[ActorId, Tuple[int, str]]:
        """Resolve targets and declaration values to ``ActorId ->
        (count, mode)``; duplicate targets merge (counts add, ReadWrite
        wins over Read)."""
        access: Dict[ActorId, Tuple[int, str]] = {}
        for target, decl in info.items():
            actor_id = self._resolve_target(target)
            try:
                count, mode = parse_access_decl(decl)
            except ValueError as exc:
                raise SimulationError(str(exc)) from None
            if count < 1:
                raise SimulationError(
                    f"access count for {actor_id} must be >= 1"
                )
            prev = access.get(actor_id)
            if prev is not None:
                count += prev[0]
                if AccessMode.READ_WRITE in (mode, prev[1]):
                    mode = AccessMode.READ_WRITE
            access[actor_id] = (count, mode)
        if self.id not in access:
            raise SimulationError(
                f"actorAccessInfo must include the first actor {self.id}"
            )
        return access

    def _resolve_target(self, target: Union[ActorId, ActorRef, Any]) -> ActorId:
        if isinstance(target, ActorRef):
            return target.id
        if isinstance(target, ActorId):
            return target
        return ActorId(self.id.kind, target)  # raw key: same kind as self

    # ------------------------------------------------------------------
    # Table 1: CallActor and GetState
    # ------------------------------------------------------------------
    async def call_actor(
        self,
        ctx: TxnContext,
        target: Union[ActorId, ActorRef, Any],
        call: FuncCall,
    ) -> Any:
        """Invoke a method on another actor within transaction ``ctx``."""
        await self.charge(self.runtime.config.cpu_per_send)
        target_id = self._resolve_target(target)
        if ctx.is_pact:
            if self._sanitizer is not None and ctx.declared_access is not None:
                # caller-side: an undeclared callee would stall (it never
                # receives a plan for this tid), so fail before sending.
                self._sanitizer.check_call(self.id, ctx, target_id)
            return await self.actor_ref(target_id).call(
                "pact_invoke", ctx, call
            )
        return await self._acts.call_child(ctx, target_id, call)

    async def get_state(
        self, ctx: TxnContext, mode: str = AccessMode.READ_WRITE
    ) -> Any:
        """Access this actor's state under transaction ``ctx`` (Fig. 2).

        Returns the live state object; with ``ReadWrite`` the caller may
        mutate it in place.  PACTs rely on deterministic turn order;
        ACTs go through the concurrency-control strategy (§4.3.2).
        """
        await self.charge(self._config.cpu_state_access)
        if ctx.is_pact:
            return self._pact.state_access(ctx, mode)
        return await self._acts.acquire_state(ctx, mode)

    # ------------------------------------------------------------------
    # RPC endpoints: PACT protocol (§4.2)
    # ------------------------------------------------------------------
    async def pact_invoke(self, ctx: TxnContext, call: FuncCall) -> Any:
        """RPC endpoint for PACT method invocations (via ``call_actor``)."""
        return await self._pact.invoke(ctx, call)

    async def receive_batch(self, sub_batch) -> None:
        """RPC endpoint: a coordinator delivered a BatchMsg (§4.2.2)."""
        await self._pact.receive_batch(sub_batch)

    async def batch_committed(self, bid: int) -> None:
        """RPC endpoint: BatchCommit from the coordinator (§4.2.4)."""
        await self._pact.batch_committed(bid)

    async def rollback_uncommitted(self) -> None:
        """RPC endpoint: cascading abort — restore last committed state
        and drop every uncommitted batch (§4.2.4)."""
        await self._pact.rollback_uncommitted()

    # ------------------------------------------------------------------
    # RPC endpoints: ACT protocol (§4.3)
    # ------------------------------------------------------------------
    async def act_invoke(self, ctx: TxnContext, call: FuncCall) -> ResultObj:
        """RPC endpoint for ACT method invocations (via ``call_actor``)."""
        return await self._acts.invoke_remote(ctx, call)

    async def act_prepare(self, tid: int) -> bool:
        """RPC endpoint: 2PC prepare; persists state and votes (Fig. 7)."""
        return await self._acts.on_prepare(tid)

    async def act_commit(self, tid: int, max_bs: Optional[int]) -> None:
        """RPC endpoint: 2PC commit decision."""
        await self._acts.on_commit(tid, max_bs)

    async def act_abort(self, tid: int) -> None:
        """RPC endpoint: 2PC abort decision (presumed abort: no logging)."""
        await self._acts.on_abort(tid)

    # ------------------------------------------------------------------
    # snapshot subsystem surface (repro.snapshot)
    # ------------------------------------------------------------------
    def snapshot_capture(self) -> Optional[Tuple[Any, int, int]]:
        """``(committed state, frontier LSN, commit seq)`` — or None.

        Synchronous and copy-free by design: the committed blob is
        rebound, never mutated, once installed (the in-memory WAL
        already shares these objects), and ``_committed_state`` /
        ``_committed_lsn`` are always updated without an intervening
        await, so the triple read here is consistent even mid-schedule.
        This is what makes the snapshot *asynchronous*: capturing never
        blocks or pauses the hybrid schedule.  Returns None when the
        actor has no durably committed history to anchor a snapshot to.
        """
        if self._committed_lsn < 0:
            return None
        return self._committed_state, self._committed_lsn, self._committed_seq

    def engine_quiescent(self) -> bool:
        """No transaction in any stage on this actor — safe to deactivate
        (an eviction between check and deactivation must not await)."""
        return (
            self._scheduler.schedule.is_empty()
            and self._pact.is_idle()
            and not self._acts.active_runs
            and not self._delta_buffer
        )

    # ------------------------------------------------------------------
    # host surface for the engine layers
    # ------------------------------------------------------------------
    @property
    def _schedule(self) -> LocalSchedule:
        """Legacy introspection alias for the scheduler's LocalSchedule."""
        return self._scheduler.schedule

    def actor_ref(self, actor_id: ActorId) -> ActorRef:
        return ActorRef(self.runtime, actor_id)

    def trace(self, tid: int, event: str, detail: Any = None,
              mode: Optional[str] = None, *, bid: Optional[int] = None,
              actor: Any = None, access: Optional[str] = None,
              at: Optional[float] = None) -> None:
        """Record a lifecycle event on the ``txn_tracer`` service.

        ``at`` back-dates the event to an earlier simulated time — used
        for ``submitted``, which is only recordable once the coordinator
        round-trip has given the transaction a tid.
        """
        tracer = self.runtime.services.get("txn_tracer")
        if tracer is not None:
            tracer.record(at if at is not None else self.runtime.loop.now,
                          tid, event, detail, mode,
                          bid=bid, actor=actor, access=access)

    def capture_delta(self) -> tuple:
        """Drain the delta buffer into a loggable payload (§5.4.2 ext)."""
        entries = [entry for _tid, entry in self._delta_buffer]
        self._delta_buffer.clear()
        return (DELTA_MARKER, entries)

    def user_method(self, name: str):
        if name.startswith("_") or name in _PROTOCOL_METHODS:
            raise SimulationError(f"{name!r} is not a transaction method")
        method = getattr(self, name, None)
        if method is None or not callable(method):
            raise SimulationError(
                f"{type(self).__name__} has no transaction method {name!r}"
            )
        return method


_PROTOCOL_METHODS = frozenset(
    name
    for name in dir(TransactionalActor)
    if not name.startswith("_")
)

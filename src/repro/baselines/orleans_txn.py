"""OrleansTxn: a re-implementation of Orleans Transactions (§5.2.3).

Orleans 3.4.3 ships distributed actor transactions built on:

* a **TransactionAgent** (TA) — an in-memory object that assigns tids
  and drives the commit protocol.  Unlike Snapper's ACT, where the first
  accessed actor *is* the 2PC coordinator, the TA sends an extra Prepare
  message to the first actor even for single-actor commits — the I8 gap
  the paper measures in Fig. 15.  We model the TA as one reentrant actor
  per silo so those messages are real.
* **2PL with early lock release (ELR)** [7, 47]: locks drop at prepare
  time rather than after commit, buying concurrency at the price of
  cascading aborts — a reader of prepared-but-uncommitted state must
  wait for (and share the fate of) the writer at its own commit point.
* **timeout-based deadlock detection** (no wait-die): deadlocked
  transactions burn their full timeout before aborting, which is why
  OrleansTxn collapses under contention in Fig. 14.

The engine is built on the same layers as Snapper's ACT path: the
execution mechanics (:class:`~repro.core.engine.act.ActExecutionCore`)
and the :class:`~repro.core.engine.concurrency.ConcurrencyControl`
strategy interface — ELR is just another strategy
(:class:`~repro.core.engine.concurrency.TwoPhaseLockingELR`) plugged
into the same :class:`~repro.core.locks.ActorLock`.  Only the commit
protocol (TA-driven 2PC with fate-sharing outcome futures) is
Orleans-specific.

The paper attributes the remaining ACT-vs-OrleansTxn gap to
implementation overheads "spread over many operations" (§5.2.3); we
model that with ``overhead_factor`` multiplying every protocol CPU
charge.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Hashable, List, Optional, Set, Union

from repro.actors.actor import Actor
from repro.actors.ref import ActorId, ActorRef
from repro.actors.runtime import ActorRuntime, SiloConfig
from repro.api import TxnHandle, TxnRequest, submit_over
from repro.core.context import (
    AccessMode,
    FuncCall,
    ResultObj,
    TxnContext,
    TxnExeInfo,
)
from repro.core.engine.act import ActExecutionCore, ActRun
from repro.core.engine.concurrency import TimeoutOnly, TwoPhaseLockingELR
from repro.core.locks import ActorLock
from repro.errors import (
    AbortReason,
    SimulationError,
    TransactionAbortedError,
)
from repro.persistence.logger import LoggerGroup
from repro.persistence.records import (
    ActCommitRecord,
    ActPrepareRecord,
    CoordCommitRecord,
    CoordPrepareRecord,
)
from repro.runtime import as_backend
from repro.runtime.kernel import Future, gather, wait_for
ORLEANS_MODE = "ORLEANS"
TA_KIND = "orleans-ta"


class OrleansTxnConfig:
    """Tunables of the OrleansTxn baseline."""

    def __init__(
        self,
        lock_timeout: float = 0.05,
        overhead_factor: float = 2.5,
        logging_enabled: bool = True,
        num_loggers: int = 4,
        io_base_latency: float = 125e-6,
        io_per_byte: float = 5e-9,
        group_commit: bool = True,
        cpu_txn_setup: float = 10e-6,
        cpu_state_access: float = 5e-6,
        cpu_lock_op: float = 5e-6,
        cpu_commit_op: float = 10e-6,
        early_lock_release: bool = True,
    ):
        self.lock_timeout = lock_timeout
        #: per-operation CPU multiplier modelling the measured
        #: implementation gap (Fig. 15: I6 was 1.6x, I8 far larger).
        self.overhead_factor = overhead_factor
        self.logging_enabled = logging_enabled
        self.num_loggers = num_loggers
        self.io_base_latency = io_base_latency
        self.io_per_byte = io_per_byte
        self.group_commit = group_commit
        self.cpu_txn_setup = cpu_txn_setup
        self.cpu_state_access = cpu_state_access
        self.cpu_lock_op = cpu_lock_op
        self.cpu_commit_op = cpu_commit_op
        self.early_lock_release = early_lock_release


class OrleansRun(ActRun):
    """Per-transaction bookkeeping, extended with ELR fate-sharing."""

    __slots__ = ("dependencies", "elr_outcome")

    def __init__(self, epoch: int = 0):
        super().__init__(epoch)
        #: outcome futures of ELR writers whose dirty state we observed.
        self.dependencies: List[Future] = []
        #: this actor's own outcome future when it released locks early.
        self.elr_outcome: Optional[Future] = None


class TransactionAgentActor(Actor):
    """The TA: assigns tids and coordinates 2PC (§5.2.3, Fig. 15 I2/I8)."""

    reentrant = True

    def __init__(self):
        self._next_tid = 0
        self.txns_started = 0
        self.txns_committed = 0

    async def on_activate(self) -> None:
        self._config: OrleansTxnConfig = self.runtime.service("orleans_config")
        self._loggers: LoggerGroup = self.runtime.service("orleans_loggers")

    async def new_txn(self) -> int:
        await self.charge(
            self._config.cpu_txn_setup * self._config.overhead_factor
        )
        tid = self._next_tid
        self._next_tid += 1
        self.txns_started += 1
        return tid

    async def commit(self, tid: int, participants: List[ActorId]) -> None:
        """Run 2PC over the participants; raises on any abort vote.

        Note the structural difference from Snapper's ACT: even the first
        accessed actor receives the Prepare/Commit as *messages* from the
        TA (the paper's 0.2ms-vs-0.01ms I8 gap for 1W workloads).
        """
        await self.charge(
            self._config.cpu_commit_op * self._config.overhead_factor
        )
        if not participants:
            self.txns_committed += 1
            return
        await self._loggers.persist(
            self.id,
            CoordPrepareRecord(
                tid=tid, coordinator=self.id,
                participants=tuple(participants),
            ),
        )
        refs = [ActorRef(self.runtime, p) for p in participants]
        try:
            votes = await gather(
                *[ref.call("orleans_prepare", tid) for ref in refs]
            )
            # ELR fate-sharing: this transaction read state of writers
            # that had released their locks early; it may only commit
            # after they do, and must abort if any of them aborted.
            for dependencies in votes:
                for outcome in dependencies:
                    result = await wait_for(
                        outcome,
                        timeout=self._config.lock_timeout * 10,
                        message=f"txn {tid}: ELR dependency stuck",
                    )
                    if result == "aborted":
                        raise TransactionAbortedError(
                            f"txn {tid}: dirty read from an aborted writer",
                            AbortReason.CASCADING,
                        )
        except Exception:
            await gather(*[ref.call("orleans_abort", tid) for ref in refs])
            raise
        await self._loggers.persist(self.id, CoordCommitRecord(tid=tid))
        await gather(*[ref.call("orleans_commit", tid) for ref in refs])
        self.txns_committed += 1

    async def abort(self, tid: int, participants: List[ActorId]) -> None:
        await self.charge(
            self._config.cpu_commit_op * self._config.overhead_factor
        )
        refs = [ActorRef(self.runtime, p) for p in participants]
        if refs:
            await gather(*[ref.call("orleans_abort", tid) for ref in refs])


class OrleansActExecutor(ActExecutionCore):
    """Orleans' nondeterministic engine on the shared execution core.

    Reuses :class:`ActExecutionCore`'s run bookkeeping, child-call
    fan-out and partial-failure accounting; adds the TA-facing 2PC
    participant role with early lock release.  The lock discipline is
    whatever :class:`ConcurrencyControl` strategy the host wires in —
    :class:`TwoPhaseLockingELR` by default, which is timeout-based like
    Orleans (no wait-die) and releases at prepare time.
    """

    invoke_endpoint = "orleans_invoke"
    abort_endpoint = "orleans_abort"
    txn_noun = "txn"
    track_attempted = False

    def __init__(self, host, cc, lock):
        super().__init__(host, cc, lock)
        #: bumped when an abort restores an undo image: dependents'
        #: undo images captured before the restore are stale.
        self.epoch = 0
        #: outcome futures of ELR writers that prepared but not committed.
        self._elr_outcomes: List[Future] = []

    def run_for(self, tid: int) -> OrleansRun:
        run = self._runs.get(tid)
        if run is None:
            run = OrleansRun(self.epoch)
            self._runs[tid] = run
        return run

    # -- execution --------------------------------------------------------------
    async def invoke(self, ctx: TxnContext, call: FuncCall) -> ResultObj:
        host = self._host
        method = getattr(host, call.method, None)
        if method is None or not callable(method):
            raise SimulationError(
                f"{type(host).__name__} has no method {call.method!r}"
            )
        # model the measured per-call overhead of the Orleans txn stack
        await host.charge(
            host._config.cpu_state_access * (host._config.overhead_factor - 1)
        )
        run = self.run_for(ctx.tid)
        try:
            result = await method(ctx, call.func_input)
            await self.settle_children(run)
        except Exception as exc:  # noqa: BLE001
            await self.settle_children(run)
            partial = run.info.snapshot()
            existing = getattr(exc, "partial_exe_info", None)
            if existing is not None:
                partial.merge(existing)
            try:
                exc.partial_exe_info = partial
            except Exception:
                pass
            if (host.id not in run.info.participants
                    and run.elr_outcome is None):
                # this actor held nothing for the doomed txn (e.g. its
                # lock acquisition timed out): drop the bookkeeping now,
                # since no abort message will ever address it here.
                self._runs.pop(ctx.tid, None)
            raise
        snapshot = run.info.snapshot()
        if not run.info.participants and not run.dependencies:
            self._runs.pop(ctx.tid, None)  # no-op participation
        return ResultObj(result, snapshot)

    async def acquire_state(self, ctx: TxnContext, mode: str) -> Any:
        host = self._host
        run = self.run_for(ctx.tid)
        lock_timeout = self.cc.wait_timeout(host._config.lock_timeout)
        await self.lock.acquire(ctx.tid, mode, timeout=lock_timeout)
        run.info.participants.add(host.id)
        # ELR: joining after a prepared-but-uncommitted writer means
        # sharing its fate (dirty read).
        for outcome in self._elr_outcomes:
            if not outcome.done() and outcome not in run.dependencies:
                run.dependencies.append(outcome)
        if mode == AccessMode.READ_WRITE and not run.wrote:
            run.wrote = True
            run.undo = copy.deepcopy(host._state)
            run.epoch = self.epoch
            run.info.writers.add(host.id)
        return host._state

    # -- 2PC participant role (TA-driven) ----------------------------------------
    async def on_prepare(self, tid: int) -> List[Future]:
        """Vote to commit; returns the ELR outcome futures this txn's
        reads depend on (empty when no dirty state was observed)."""
        host = self._host
        await host.charge(
            host._config.cpu_commit_op * host._config.overhead_factor
        )
        run = self._runs.get(tid)
        if run is None:
            raise TransactionAbortedError(
                f"{host.id}: unknown txn {tid} at prepare", AbortReason.FAILURE
            )
        state = copy.deepcopy(host._state) if run.wrote else None
        await host._loggers.persist(
            host.id, ActPrepareRecord(tid=tid, actor=host.id, state=state)
        )
        if self.cc.early_lock_release:
            # release now; expose an outcome future for dependents
            outcome = Future(label=f"elr:{tid}")
            self._elr_outcomes.append(outcome)
            run.elr_outcome = outcome
            self.lock.release(tid)
        return list(run.dependencies)

    async def on_commit(self, tid: int) -> None:
        host = self._host
        await host.charge(
            host._config.cpu_commit_op * host._config.overhead_factor
        )
        await host._loggers.persist(
            host.id, ActCommitRecord(tid=tid, actor=host.id)
        )
        run = self._runs.pop(tid, None)
        self._resolve_elr(run, "committed")
        if not self.cc.early_lock_release:
            self.lock.release(tid)

    async def on_abort(self, tid: int) -> None:
        host = self._host
        await host.charge(
            host._config.cpu_commit_op * host._config.overhead_factor
        )
        run = self._runs.pop(tid, None)
        if run is not None and run.wrote and run.undo is not None:
            if run.epoch == self.epoch:
                host._state = run.undo
                self.epoch += 1  # dependents' undo images are now stale
        self._resolve_elr(run, "aborted")
        self.lock.abort_waiter(tid, AbortReason.ACT_CONFLICT)
        self.lock.release(tid)

    def _resolve_elr(self, run: Optional[OrleansRun],
                     outcome: str) -> None:
        future = run.elr_outcome if run is not None else None
        if future is not None:
            future.try_set_result(outcome)
            if future in self._elr_outcomes:
                self._elr_outcomes.remove(future)


class OrleansTxnActor(Actor):
    """Base class for actors under the OrleansTxn engine.

    Thin composition root mirroring :class:`TransactionalActor`: the
    execution and locking live in :class:`OrleansActExecutor`; the
    actor keeps the state blob and the RPC surface.
    """

    reentrant = True

    def initial_state(self) -> Any:
        raise NotImplementedError

    async def on_activate(self) -> None:
        self._config: OrleansTxnConfig = self.runtime.service("orleans_config")
        self._loggers: LoggerGroup = self.runtime.service("orleans_loggers")
        self._state = self.initial_state()
        cc = (
            TwoPhaseLockingELR()
            if self._config.early_lock_release
            else TimeoutOnly()
        )
        self._lock = ActorLock(cc, label=str(self.id))
        self._engine = OrleansActExecutor(self, cc, self._lock)

    def actor_ref(self, actor_id: ActorId) -> ActorRef:
        return ActorRef(self.runtime, actor_id)

    def _resolve_target(self, target: Union[ActorId, ActorRef, Any]) -> ActorId:
        if isinstance(target, ActorRef):
            return target.id
        if isinstance(target, ActorId):
            return target
        return ActorId(self.id.kind, target)

    # -- public API (same shape as TransactionalActor) ----------------------
    async def start_txn(
        self,
        method: str,
        func_input: Any = None,
        actor_access_info: Optional[Dict[Any, int]] = None,
    ) -> Any:
        recorder = self.runtime.services.get("breakdown_recorder")
        t_start = self.runtime.loop.now
        ta = self.runtime.ref(TA_KIND, 0)
        tid = await ta.call("new_txn")
        t_tid = self.runtime.loop.now
        ctx = TxnContext(
            tid=tid, mode=ORLEANS_MODE, start_actor=self.id, coordinator_key=0
        )
        participants: Set[ActorId] = set()
        try:
            result_obj = await self._engine.invoke(
                ctx, FuncCall(method, func_input)
            )
            t_exec = self.runtime.loop.now
            participants = set(result_obj.exe_info.participants)
            await ta.call("commit", tid, sorted(participants))
            if recorder is not None:
                recorder.record("tid_assign", t_tid - t_start)
                recorder.record("execute", t_exec - t_tid)
                recorder.record("commit", self.runtime.loop.now - t_exec)
            return result_obj.result
        except Exception as exc:  # noqa: BLE001
            info: Optional[TxnExeInfo] = getattr(exc, "partial_exe_info", None)
            if info is not None:
                participants |= set(info.participants)
            await ta.call("abort", tid, sorted(participants))
            if isinstance(exc, TransactionAbortedError):
                raise
            if isinstance(exc, TimeoutError):
                raise TransactionAbortedError(
                    f"txn {tid} deadlock timeout", AbortReason.HYBRID_DEADLOCK
                ) from exc
            raise TransactionAbortedError(
                f"txn {tid} aborted: {exc!r}", AbortReason.USER_ABORT
            ) from exc

    async def call_actor(
        self,
        ctx: TxnContext,
        target: Union[ActorId, ActorRef, Any],
        call: FuncCall,
    ) -> Any:
        await self.charge(self.runtime.config.cpu_per_send)
        target_id = self._resolve_target(target)
        return await self._engine.call_child(ctx, target_id, call)

    async def get_state(
        self, ctx: TxnContext, mode: str = AccessMode.READ_WRITE
    ) -> Any:
        await self.charge(
            (self._config.cpu_state_access + self._config.cpu_lock_op)
            * self._config.overhead_factor
        )
        return await self._engine.acquire_state(ctx, mode)

    # -- RPC endpoints ----------------------------------------------------------
    async def orleans_invoke(self, ctx: TxnContext, call: FuncCall) -> ResultObj:
        return await self._engine.invoke(ctx, call)

    async def orleans_prepare(self, tid: int) -> List[Future]:
        return await self._engine.on_prepare(tid)

    async def orleans_commit(self, tid: int) -> None:
        await self._engine.on_commit(tid)

    async def orleans_abort(self, tid: int) -> None:
        await self._engine.on_abort(tid)


class OrleansTxnSystem:
    """Harness mirroring :class:`SnapperSystem` for the baseline."""

    def __init__(
        self,
        config: Optional[OrleansTxnConfig] = None,
        silo: Optional[SiloConfig] = None,
        loop: Optional[Any] = None,
        seed: int = 0,
    ):
        self.config = config or OrleansTxnConfig()
        self.backend = as_backend(loop, seed=seed)
        self.loop = loop if loop is not None else getattr(
            self.backend, "loop", self.backend
        )
        self.runtime = ActorRuntime(self.backend, silo or SiloConfig(seed=seed))
        self.loggers = LoggerGroup(
            num_loggers=self.config.num_loggers,
            io_base_latency=self.config.io_base_latency,
            io_per_byte=self.config.io_per_byte,
            group_commit=self.config.group_commit,
            enabled=self.config.logging_enabled,
            cpu=self.runtime.cpu,
        )
        self.runtime.services["orleans_config"] = self.config
        self.runtime.services["orleans_loggers"] = self.loggers
        self.runtime.register(TA_KIND, TransactionAgentActor)

    def register_actor(self, kind: str, factory) -> None:
        self.runtime.register(kind, factory)

    def actor(self, kind: str, key: Hashable) -> ActorRef:
        return self.runtime.ref(kind, key)

    def start(self) -> None:  # symmetry with SnapperSystem
        pass

    def shutdown(self) -> None:
        pass

    def submit(self, request: TxnRequest) -> TxnHandle:
        """Submit one transaction; the unified ``repro.api`` surface.

        OrleansTxn runs every transaction nondeterministically, so a
        PACT request's access set is accepted but unused (the paper's
        baseline has no pre-declared path).
        """

        def start(handle: TxnHandle) -> Any:
            return self.actor(request.kind, request.key).call(
                "start_txn", request.method, request.func_input
            )

        return submit_over(self.backend, start, request)

    def run(self, coro_or_future, until: Optional[float] = None):
        if isinstance(coro_or_future, TxnHandle):
            coro_or_future = coro_or_future.future
        return self.backend.run_until_complete(coro_or_future, until=until)

    def run_for(self, duration: float) -> None:
        self.backend.run(until=self.backend.now + duration)

"""NT: non-transactional execution (§5.2.1).

NT processes actor calls with no concurrency control, no atomicity, and
no logging — it is what a plain Orleans application does, and its
throughput comprises an upper bound for transactional execution on the
same runtime (Fig. 12 measures PACT/ACT overhead relative to it).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Union

from repro.actors.actor import Actor
from repro.actors.ref import ActorId, ActorRef
from repro.actors.runtime import ActorRuntime, SiloConfig
from repro.api import TxnHandle, TxnRequest, submit_over
from repro.core.context import AccessMode, FuncCall, TxnContext
from repro.errors import SimulationError
from repro.runtime import as_backend


#: the mode string carried by NT contexts (never checked by NT itself).
NT_MODE = "NT"


class NonTransactionalActor(Actor):
    """Base class mirroring ``TransactionalActor``'s API with no guarantees.

    Workload logic written against ``start_txn``/``call_actor``/
    ``get_state`` runs unchanged; state accesses go straight to the blob.
    """

    reentrant = True

    def initial_state(self) -> Any:
        raise NotImplementedError

    async def on_activate(self) -> None:
        self._state = self.initial_state()
        self._next_tid = 0

    async def start_txn(
        self,
        method: str,
        func_input: Any = None,
        actor_access_info: Optional[Dict[Any, int]] = None,
    ) -> Any:
        """Run ``method`` as a plain (non-atomic) chain of actor calls."""
        ctx = TxnContext(
            tid=self._next_tid,
            mode=NT_MODE,
            start_actor=self.id,
            coordinator_key=0,
        )
        self._next_tid += 1
        return await self._invoke(ctx, FuncCall(method, func_input))

    async def nt_invoke(self, ctx: TxnContext, call: FuncCall) -> Any:
        return await self._invoke(ctx, call)

    async def _invoke(self, ctx: TxnContext, call: FuncCall) -> Any:
        method = getattr(self, call.method, None)
        if method is None or not callable(method):
            raise SimulationError(
                f"{type(self).__name__} has no method {call.method!r}"
            )
        return await method(ctx, call.func_input)

    async def call_actor(
        self,
        ctx: TxnContext,
        target: Union[ActorId, ActorRef, Any],
        call: FuncCall,
    ) -> Any:
        await self.charge(self.runtime.config.cpu_per_send)
        if isinstance(target, ActorRef):
            target = target.id
        elif not isinstance(target, ActorId):
            target = ActorId(self.id.kind, target)
        return await ActorRef(self.runtime, target).call("nt_invoke", ctx, call)

    async def get_state(
        self, ctx: TxnContext, mode: str = AccessMode.READ_WRITE
    ) -> Any:
        return self._state


class NTSystem:
    """Minimal harness mirroring :class:`SnapperSystem` for NT runs."""

    def __init__(
        self,
        silo: Optional[SiloConfig] = None,
        loop: Optional[Any] = None,
        seed: int = 0,
    ):
        self.backend = as_backend(loop, seed=seed)
        self.loop = loop if loop is not None else getattr(
            self.backend, "loop", self.backend
        )
        self.runtime = ActorRuntime(self.backend, silo or SiloConfig(seed=seed))

    def register_actor(self, kind: str, factory) -> None:
        self.runtime.register(kind, factory)

    def actor(self, kind: str, key: Hashable) -> ActorRef:
        return self.runtime.ref(kind, key)

    def start(self) -> None:  # symmetry with SnapperSystem
        pass

    def shutdown(self) -> None:
        pass

    def submit(self, request: TxnRequest) -> TxnHandle:
        """Submit one call; the unified ``repro.api`` surface.

        NT runs everything without transactions, so the request's
        ``txn`` kind and access set are simply ignored.
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

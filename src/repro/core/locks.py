"""Per-actor S2PL lock table (§4.3.2): mechanism only.

Actor state is a single value blob (§5.4.2), so each transactional actor
has exactly one read/write lock.  ACTs acquire it through ``get_state``
and hold it until the second phase of 2PC (strict two-phase locking).

The lock implements *mechanism* — grant compatibility, a FIFO queue,
timeout races — and delegates *policy* (what to do on conflict, whether
waits are bounded) to a pluggable
:class:`~repro.core.engine.concurrency.ConcurrencyControl` strategy:
wait-die (the paper's §4.3.2 default), timeout-only (what Orleans
Transactions uses), no-wait, or anything registered by name.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Union

from repro.core.context import AccessMode
from repro.core.engine.concurrency import (
    ConcurrencyControl,
    resolve_concurrency_control,
)
from repro.errors import AbortReason, DeadlockError, SimulationError
from repro.runtime.kernel import Future, current_loop


class _Request:
    __slots__ = ("tid", "mode", "future")

    def __init__(self, tid: int, mode: str):
        self.tid = tid
        self.mode = mode
        self.future: Future = Future(label=f"lock:{tid}:{mode}")


class ActorLock:
    """One read/write lock guarding an actor's state blob."""

    def __init__(
        self,
        cc: Union[ConcurrencyControl, str, None] = None,
        label: str = "actor",
    ):
        #: ``None`` resolves to the default strategy, wait-die.
        self.cc = resolve_concurrency_control(cc)
        self.label = label
        self._holders: Dict[int, str] = {}  # tid -> mode held
        self._queue: Deque[_Request] = deque()
        # statistics for the experiment harness, bumped by the strategies
        self.wait_die_aborts = 0
        self.timeout_aborts = 0
        self.no_wait_aborts = 0

    # -- queries -----------------------------------------------------------
    def held_by(self, tid: int) -> Optional[str]:
        return self._holders.get(tid)

    @property
    def holders(self) -> Set[int]:
        return set(self._holders)

    @property
    def oldest_holder(self) -> Optional[int]:
        return min(self._holders) if self._holders else None

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def live_queued_requests(self) -> List[_Request]:
        """Queued requests still waiting (strategy eviction surface)."""
        return [r for r in self._queue if not r.future.done()]

    def kill_request(self, request: _Request, exc: BaseException) -> None:
        """Evict one queued request with ``exc`` (strategy eviction surface)."""
        if request in self._queue:
            self._queue.remove(request)
        request.future.try_set_exception(exc)

    def _compatible(self, tid: int, mode: str) -> bool:
        """Can ``tid`` acquire ``mode`` given current holders?"""
        holders = self._holders
        if not holders or (len(holders) == 1 and tid in holders):
            return True
        if mode == AccessMode.READ:
            for t, m in holders.items():
                if t != tid and m != AccessMode.READ:
                    return False
            return True
        return False  # write needs exclusivity over other holders

    # -- acquire/release -----------------------------------------------------
    async def acquire(self, tid: int, mode: str,
                      timeout: Optional[float] = None) -> None:
        """Acquire (or upgrade to) ``mode`` for transaction ``tid``.

        Raises :class:`DeadlockError` when the concurrency-control
        strategy kills the requester or the timeout expires.
        """
        if mode not in (AccessMode.READ, AccessMode.READ_WRITE):
            raise SimulationError(f"bad lock mode {mode!r}")
        held = self._holders.get(tid)
        if held == AccessMode.READ_WRITE or held == mode:
            return  # re-entrant / already sufficient
        if self._compatible(tid, mode) and not self._blocked_by_queue(tid, mode):
            self._holders[tid] = mode
            self.cc.on_holders_changed(self)
            return
        self.cc.on_conflict(self, tid, mode)  # may raise instead of waiting
        request = _Request(tid, mode)
        self._queue.append(request)
        if timeout is None:
            await request.future
            return
        timer = current_loop().sleep(timeout)
        race = Future(label=f"lockrace:{tid}")
        request.future.add_done_callback(
            lambda f: race.try_set_result("granted")
        )
        timer.add_done_callback(lambda f: race.try_set_result("timeout"))
        winner = await race
        if winner == "timeout" and not request.future.done():
            self._queue.remove(request)
            self.timeout_aborts += 1
            raise DeadlockError(
                f"{self.label}: txn {tid} timed out waiting for lock",
                AbortReason.HYBRID_DEADLOCK,
            )
        await request.future  # surfaces grant (or a cancellation)

    def _blocked_by_queue(self, tid: int, mode: str) -> bool:
        """FIFO fairness: a read cannot jump over a queued write, except
        that lock *upgrades* by existing holders bypass the queue."""
        if tid in self._holders:
            return False
        return bool(self._queue)

    def release(self, tid: int) -> None:
        """Release ``tid``'s lock and grant to queued compatible waiters."""
        self._holders.pop(tid, None)
        self._drain_queue()

    def _drain_queue(self) -> None:
        granted = True
        while granted and self._queue:
            granted = False
            head = self._queue[0]
            if head.future.done():  # abandoned (timed out / cancelled)
                self._queue.popleft()
                granted = True
                continue
            if self._compatible(head.tid, head.mode):
                self._queue.popleft()
                self._holders[head.tid] = head.mode
                head.future.try_set_result(None)
                granted = True
        self.cc.on_holders_changed(self)

    def abort_waiter(self, tid: int, reason: str, message: str = "") -> None:
        """Fail a queued request for ``tid`` (cascading abort path)."""
        for request in list(self._queue):
            if request.tid == tid and not request.future.done():
                self._queue.remove(request)
                request.future.try_set_exception(
                    DeadlockError(message or f"txn {tid} evicted", reason)
                )
        self._drain_queue()

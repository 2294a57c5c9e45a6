"""The backend-generic condition variable.

Waiters are released strictly FIFO, in arrival order.  Futures and
timers are created through the kernel dispatch
(:mod:`repro.runtime.kernel`), so the one implementation serves both the
virtual-time and the asyncio backends.  Construction is loop-free: a
condition can be built before any backend runs
(``SnapperSystem.__init__`` does) because futures are only created at
``wait`` time.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.runtime import kernel


class Condition:
    """A condition variable bound to no lock.

    ``wait`` returns a future resolved by the next ``notify_all``.  Users
    re-check their predicate in a loop, as with any condition variable.
    """

    def __init__(self, label: str = "cond"):
        self._waiters: Deque[Any] = deque()
        self.label = label

    def wait(self) -> Any:
        fut = kernel.Future(label=f"{self.label}.wait")
        self._waiters.append(fut)
        return fut

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, deque()
        for waiter in waiters:
            waiter.try_set_result(None)

    async def wait_until(
        self, predicate, timeout: Optional[float] = None
    ) -> None:
        """Await until ``predicate()`` is true, re-checking on each notify.

        Raises :class:`TimeoutError` when a ``timeout`` is given and the
        deadline passes first.
        """
        deadline = None if timeout is None else kernel.now() + timeout
        while not predicate():
            waiter = self.wait()
            if deadline is None:
                await waiter
                continue
            remaining = deadline - kernel.now()
            if remaining <= 0:
                raise TimeoutError(f"{self.label}: wait_until timed out")
            timer = kernel.sleep(remaining)
            race = kernel.Future(label=f"{self.label}.race")
            waiter.add_done_callback(lambda f: race.try_set_result("notify"))
            timer.add_done_callback(lambda f: race.try_set_result("timeout"))
            winner = await race
            if winner == "timeout" and not predicate():
                raise TimeoutError(f"{self.label}: wait_until timed out")

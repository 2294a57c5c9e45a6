"""The virtual-time event loop.

The loop holds a priority queue of ``(time, seq, callback)`` entries; the
monotonically increasing ``seq`` makes same-timestamp ordering — and thus
the whole simulation — deterministic.  A module-level *current loop* makes
``sleep``/``spawn``/``now`` available to library code without threading a
loop handle through every call, mirroring how ``asyncio`` exposes its
running loop.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Coroutine, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.future import Future
from repro.sim.task import Task

_current: Optional["SimLoop"] = None


def current_loop() -> "SimLoop":
    """Return the loop currently running (or being stepped)."""
    if _current is None:
        raise SimulationError("no simulation loop is running")
    return _current


def now() -> float:
    """Current virtual time of the running loop, in simulated seconds."""
    return current_loop().now


def sleep(delay: float) -> Future:
    """Return a future resolved ``delay`` simulated seconds from now."""
    return current_loop().sleep(delay)


def spawn(coro: Coroutine, label: str = "") -> Task:
    """Schedule ``coro`` as a concurrently running task."""
    return current_loop().create_task(coro, label=label)


def _ensure_future(loop: "SimLoop", aw: Any) -> Future:
    """What ``gather`` and ``wait_for`` subscribe to for ``aw``."""
    if isinstance(aw, Future):
        return aw
    inner = getattr(aw, "future", None)
    if isinstance(inner, Future):
        # future-like wrappers (e.g. TxnHandle) expose the real future
        return inner
    return loop.create_task(aw)


def gather(*awaitables: Future) -> Future:
    """Return a future resolving to the list of results.

    Fails fast with the first exception, like ``asyncio.gather``.  Plain
    coroutines are spawned as tasks; future-like objects exposing a
    ``.future`` attribute are unwrapped.
    """
    loop = current_loop()
    futures: List[Future] = [
        _ensure_future(loop, aw) for aw in awaitables
    ]
    result = Future(label="gather")
    if not futures:
        result.set_result([])
        return result
    remaining = [len(futures)]

    def on_done(fut: Future) -> None:
        if result.done():
            return
        if fut.exception() is not None:
            result.set_exception(fut.exception())
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            result.set_result([f.result() for f in futures])

    for fut in futures:
        fut.add_done_callback(on_done)
    return result


async def wait_for(awaitable, timeout: float, message: str = "timeout"):
    """Await ``awaitable`` but fail with :class:`TimeoutError` after ``timeout``.

    The underlying future is *not* cancelled on timeout (the caller owns
    it); tasks passed in are cancelled, matching asyncio behaviour.
    """
    loop = current_loop()
    fut = _ensure_future(loop, awaitable)
    timer = loop.sleep(timeout)
    outcome = Future(label="wait_for")

    def on_fut(f: Future) -> None:
        if outcome.done():
            return
        timer.cancel()
        if f.exception() is not None:
            outcome.set_exception(f.exception())
        else:
            outcome.set_result(f.result())

    def on_timer(t: Future) -> None:
        if outcome.done() or t.cancelled():
            return
        if isinstance(fut, Task):
            fut.cancel(message)
        outcome.set_exception(TimeoutError(message))

    fut.add_done_callback(on_fut)
    timer.add_done_callback(on_timer)
    return await outcome


class SimLoop:
    """Deterministic virtual-time event loop.

    Parameters
    ----------
    seed:
        Seed for the loop's random stream (used by higher layers for
        message jitter, workload generation, ...).  Two runs with the same
        seed execute identically.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._running = False
        self._task_depth = 0
        self._tasks_started = 0
        #: the task currently being stepped (None between steps).
        self.current_task = None

    # -- scheduling primitives -------------------------------------------
    def call_at(self, when: float, callback: Callable, *args: Any) -> None:
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})"
            )
        heapq.heappush(self._heap, (when, self._seq, callback, args))
        self._seq += 1

    def call_later(self, delay: float, callback: Callable, *args: Any) -> None:
        self.call_at(self.now + delay, callback, *args)

    def call_clamped(self, when: float, callback: Callable, *args: Any) -> None:
        """Schedule at ``when``, clamping past times to *now*.

        The interception hook used by :mod:`repro.chaos`: a fault plan
        replayed onto a loop that already advanced past an injection
        point should fire the fault immediately rather than raise.
        """
        self.call_at(max(when, self.now), callback, *args)

    def _call_soon(self, callback: Callable, *args: Any) -> None:
        self.call_at(self.now, callback, *args)

    # -- task management ----------------------------------------------------
    def create_task(self, coro: Coroutine, label: str = "") -> Task:
        self._tasks_started += 1
        task = Task(coro, self, label=label)
        if self.current_task is not None:
            task.silo = self.current_task.silo  # inherit execution locality
        return task

    def _enter_task(self, task: Task) -> None:
        self._task_depth += 1
        self.current_task = task

    def _exit_task(self, task: Task) -> None:
        self._task_depth -= 1
        self.current_task = None

    def sleep(self, delay: float) -> Future:
        if delay < 0:
            raise SimulationError(f"negative sleep: {delay}")
        fut = Future(label=f"sleep({delay:g})")
        self.call_later(delay, fut.try_set_result, None)
        return fut

    # -- running ------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 100_000_000,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Process events until the queue drains, ``until`` is reached, or
        ``stop_when()`` becomes true (checked between events)."""
        global _current
        if self._running:
            raise SimulationError("loop is already running")
        self._running = True
        previous, _current = _current, self
        events = 0
        try:
            while self._heap:
                if stop_when is not None and stop_when():
                    break
                when, _seq, callback, args = self._heap[0]
                if until is not None and when > until:
                    self.now = until
                    break
                heapq.heappop(self._heap)
                self.now = when
                callback(*args)
                events += 1
                if events >= max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events}); "
                        "likely a livelock in the simulated protocol"
                    )
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
            _current = previous

    def run_until_complete(self, coro_or_future, until: Optional[float] = None):
        """Run the loop until ``coro_or_future`` resolves; return its result."""
        global _current
        previous, _current = _current, self
        try:
            if isinstance(coro_or_future, Future):
                fut = coro_or_future
            else:
                fut = self.create_task(coro_or_future, label="main")
        finally:
            _current = previous
        self.run(until=until, stop_when=fut.done)
        if not fut.done():
            raise SimulationError(
                f"main future still pending at t={self.now:g} "
                "(simulation deadlock or `until` too small)"
            )
        return fut.result()

    # -- introspection --------------------------------------------------------
    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimLoop t={self.now:g} pending={len(self._heap)}>"

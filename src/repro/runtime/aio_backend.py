"""``AsyncioBackend``: the Snapper engine on real parallelism.

One real ``asyncio`` event loop drives every silo's tasks; wall-clock
timers replace virtual time, and cross-silo envelopes travel over local
duplex streams (one ``socketpair`` per destination silo, read by a
per-silo dispatch task).  Shared engine singletons — commit registry,
abort controller, logger group — stay in-process, which is why the
silos cooperate on a single loop rather than a thread each; the stream
hop is the transport seam a true multi-process deployment would widen.

The payload of a cross-silo envelope is not serialized: the stream
carries an 8-byte delivery token and the callback is looked up on the
receiving side.  Real bytes cross a real socket (ordering, batching and
backpressure behave like a loopback transport), while reply futures —
which cannot meaningfully be pickled — stay shared.

Determinism: this backend is *not* deterministic (``deterministic`` is
False).  Its contract is differential instead: a seeded workload run
here must reach the same committed application state and a serializable
trace, as checked against ``SimBackend`` by
``tests/test_runtime_differential.py``.
"""

from __future__ import annotations

import asyncio
import contextvars
import random
import socket
from typing import Any, Callable, Coroutine, Dict, Optional, Tuple

from repro.errors import CancelledError, SimulationError
from repro.runtime import kernel
from repro.runtime.aio import (
    AioCpuPool,
    AioFuture,
    AioIoDevice,
    is_future_like,
)

_silo_var: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "repro_runtime_silo", default=None
)

#: timers shorter than this collapse to ``call_soon``: the callback still
#: goes through the event loop (one fairness point), but skips the epoll
#: timer wait.  Sub-resolution delays — per-message network latency,
#: per-dispatch CPU charges — are *modelled* costs; on the wall-clock
#: substrate the real cost is the CPU the callback burns, so waiting out
#: each microsecond-scale timer only fragments the loop into thousands
#: of near-empty epoll waits.  Longer delays (token pacing, deadlock and
#: batch timeouts, retry backoff) remain real timers.
TIMER_RESOLUTION = 250e-6


def _completion(fut: Any) -> Tuple[Optional[BaseException], Any]:
    """Normalize a done future/task into ``(exception, result)``."""
    if isinstance(fut, AioFuture):
        if fut.cancelled():
            return fut._exception, None
        return fut._exception, fut._result
    if fut.cancelled():
        return CancelledError(f"task {fut!r} was cancelled"), None
    exc = fut.exception()
    return exc, (fut.result() if exc is None else None)


class AsyncioBackend:
    """Wall-clock substrate: asyncio tasks + duplex-stream transport."""

    name = "asyncio"
    deterministic = False

    def __init__(self, seed: int = 0, transport: bool = True,
                 timer_resolution: float = TIMER_RESOLUTION):
        self._loop = asyncio.new_event_loop()
        self.seed = seed
        #: seeded jitter/workload stream — same role as ``SimLoop.rng``
        #: (draw *order* differs across runs, so no determinism claim).
        self.rng = random.Random(seed)
        self._epoch = self._loop.time()
        self._transport_enabled = transport
        self.timer_resolution = timer_resolution
        #: silo -> (writer, reader_task, keepalive streams); created
        #: lazily inside the loop.  The unused halves of each stream
        #: pair must be retained: a garbage-collected ``StreamWriter``
        #: closes its transport and resets the socket.
        self._endpoints: Dict[int, Tuple[Any, ...]] = {}
        self._endpoint_locks: Dict[int, asyncio.Lock] = {}
        self._pending_envelopes: Dict[int, Tuple[Callable, tuple]] = {}
        #: silo -> tokens whose delivery delay has elapsed, awaiting one
        #: coalesced socket write; drained by a single flusher task per
        #: silo instead of one task + write + drain per envelope.
        self._outboxes: Dict[int, list] = {}
        self._flushers: Dict[int, Any] = {}
        self._next_token = 0
        self.transport_messages = 0
        self.transport_bytes = 0
        self._closed = False

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self._loop.time() - self._epoch

    def sleep(self, delay: float) -> AioFuture:
        fut = AioFuture(self._loop, label=f"sleep({delay:g})")
        if delay < self.timer_resolution:
            self._loop.call_soon(fut.try_set_result, None)
        else:
            self._loop.call_later(delay, fut.try_set_result, None)
        return fut

    def call_later(self, delay: float, callback: Callable, *args: Any):
        if delay < self.timer_resolution:
            self._loop.call_soon(callback, *args)
        else:
            self._loop.call_later(delay, callback, *args)

    def call_at(self, when: float, callback: Callable, *args: Any):
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past ({when} < {self.now})"
            )
        self.call_later(when - self.now, callback, *args)

    def call_clamped(self, when: float, callback: Callable, *args: Any):
        self.call_later(max(0.0, when - self.now), callback, *args)

    # -- scheduling ------------------------------------------------------
    @staticmethod
    def _retrieve(task: asyncio.Task) -> None:
        # sim parity: a fire-and-forget task's exception is observable
        # through the task object but never *demands* retrieval (PACT
        # fan-out spawns legitimately die on batch aborts).  Reading it
        # here silences asyncio's destructor warning.
        if not task.cancelled():
            task.exception()

    def create_task(
        self, coro: Coroutine, label: str = "", silo: Optional[int] = None
    ) -> asyncio.Task:
        if silo is not None:
            coro = self._tagged(silo, coro)
        task = self._loop.create_task(coro, name=label or None)
        task.add_done_callback(self._retrieve)
        return task

    async def _tagged(self, silo: int, coro: Coroutine) -> Any:
        # runs inside the new task: the contextvar write is task-local
        # and inherited by tasks it spawns — the asyncio equivalent of
        # the sim task's inherited ``.silo`` attribute.
        _silo_var.set(silo)
        return await coro

    def spawn(self, coro: Coroutine, label: str = "") -> asyncio.Task:
        return self.create_task(coro, label=label)

    def create_future(self, label: str = "") -> AioFuture:
        return AioFuture(self._loop, label=label)

    def current_silo(self) -> Optional[int]:
        return _silo_var.get()

    def gather(self, *awaitables: Any) -> AioFuture:
        futures = [
            aw if is_future_like(aw) else self.spawn(aw) for aw in awaitables
        ]
        result = AioFuture(self._loop, label="gather")
        if not futures:
            result.set_result([])
            return result
        remaining = [len(futures)]

        def on_done(fut: Any) -> None:
            # normalize before the settled check: reading a Task's
            # exception marks it retrieved, silencing asyncio's
            # "exception was never retrieved" for losing siblings
            # (sim gather semantics: first failure wins, rest ignored).
            exc, _ = _completion(fut)
            if result.done():
                return
            if exc is not None:
                result.try_set_exception(exc)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                result.try_set_result(
                    [_completion(f)[1] for f in futures]
                )

        for fut in futures:
            fut.add_done_callback(on_done)
        return result

    async def wait_for(
        self, awaitable: Any, timeout: float, message: str = "timeout"
    ) -> Any:
        fut = awaitable if is_future_like(awaitable) else self.spawn(awaitable)
        timer = self.sleep(timeout)
        outcome = AioFuture(self._loop, label="wait_for")

        def on_fut(f: Any) -> None:
            exc, result = _completion(f)
            if outcome.done():
                return
            timer.cancel()
            if exc is not None:
                outcome.try_set_exception(exc)
            else:
                outcome.try_set_result(result)

        def on_timer(t: AioFuture) -> None:
            if outcome.done() or t.cancelled():
                return
            if isinstance(fut, asyncio.Task):
                fut.cancel(message)
            outcome.try_set_exception(TimeoutError(message))

        fut.add_done_callback(on_fut)
        timer.add_done_callback(on_timer)
        return await outcome

    # -- transport -------------------------------------------------------
    def deliver(
        self,
        delay: float,
        callback: Callable,
        *args: Any,
        silo: Optional[int] = None,
        cross_silo: bool = False,
    ) -> None:
        if self._closed:
            return  # substrate shutting down: the message is lost with it
        if not cross_silo or not self._transport_enabled or silo is None:
            self.call_later(delay, callback, *args)
            return
        token = self._next_token
        self._next_token += 1
        self._pending_envelopes[token] = (callback, args)
        # No per-envelope task: once the modelled network delay elapses
        # the token joins the silo's outbox, and one flusher task writes
        # every queued token as a single coalesced frame + drain.
        if delay < self.timer_resolution:
            self._enqueue_frame(silo, token)
        else:
            self._loop.call_later(delay, self._enqueue_frame, silo, token)

    def _enqueue_frame(self, silo: int, token: int) -> None:
        if self._closed:
            return
        outbox = self._outboxes.get(silo)
        if outbox is None:
            outbox = self._outboxes[silo] = []
        outbox.append(token)
        if silo not in self._flushers:
            self._flushers[silo] = self.create_task(
                self._flush_outbox(silo), label=f"xsilo:{silo}"
            )

    async def _flush_outbox(self, silo: int) -> None:
        """Drain the silo's outbox: all queued tokens, one write, one
        drain per round — sub-ms envelope bursts share a socket frame."""
        writer = await self._writer_for(silo)
        outbox = self._outboxes[silo]
        while True:
            if not outbox:
                # single-threaded loop, no await between the check and
                # the unregister: nothing can slip into the gap.
                del self._flushers[silo]
                return
            payload = b"".join(
                token.to_bytes(8, "big") for token in outbox
            )
            self.transport_messages += len(outbox)
            self.transport_bytes += len(payload)
            outbox.clear()
            writer.write(payload)
            await writer.drain()

    async def _writer_for(self, silo: int):
        lock = self._endpoint_locks.setdefault(silo, asyncio.Lock())
        async with lock:
            endpoint = self._endpoints.get(silo)
            if endpoint is None:
                send_sock, recv_sock = socket.socketpair()
                send_sock.setblocking(False)
                recv_sock.setblocking(False)
                send_reader, writer = await asyncio.open_connection(
                    sock=send_sock
                )
                reader, recv_writer = await asyncio.open_connection(
                    sock=recv_sock
                )
                reader_task = self._loop.create_task(
                    self._dispatch_loop(silo, reader),
                    name=f"silo{silo}.dispatch",
                )
                endpoint = (writer, reader_task, send_reader, recv_writer)
                self._endpoints[silo] = endpoint
        return endpoint[0]

    async def _dispatch_loop(self, silo: int, reader) -> None:
        """Per-silo envelope pump: pop tokens off the wire, deliver."""
        _silo_var.set(silo)
        while True:
            try:
                frame = await reader.readexactly(8)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            token = int.from_bytes(frame, "big")
            callback, args = self._pending_envelopes.pop(token)
            callback(*args)

    # -- resources -------------------------------------------------------
    def cpu_pool(self, cores: int, label: str = "cpu") -> AioCpuPool:
        return AioCpuPool(cores, label=label)

    def io_device(
        self,
        base_latency: float,
        per_byte: float,
        label: str = "disk",
        bandwidth_cap: Optional[float] = None,
    ) -> AioIoDevice:
        return AioIoDevice(
            base_latency, per_byte, label=label, bandwidth_cap=bandwidth_cap,
            timer_resolution=self.timer_resolution,
        )

    # -- running ---------------------------------------------------------
    def current_loop(self) -> "AsyncioBackend":
        """While installed as the kernel target, the backend is its own
        loop-ish handle (``now``, ``sleep``, ``call_later``, ``rng``)."""
        return self

    def _drive(self, coro: Coroutine) -> Any:
        kernel.install(self)
        try:
            return self._loop.run_until_complete(coro)
        finally:
            kernel.uninstall(self)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 100_000_000,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run the loop until the wall clock reaches ``until`` (seconds
        since the backend's epoch) or ``stop_when()`` turns true."""
        if until is None and stop_when is None:
            raise SimulationError(
                "AsyncioBackend.run needs an `until` deadline or a "
                "`stop_when` predicate; a wall clock never drains"
            )

        async def _tick() -> None:
            while stop_when is None or not stop_when():
                if until is not None and self.now >= until:
                    return
                if until is not None and stop_when is None:
                    await asyncio.sleep(until - self.now)
                else:
                    await asyncio.sleep(0.001)

        self._drive(_tick())

    def run_until_complete(
        self, coro_or_future: Any, until: Optional[float] = None
    ) -> Any:
        async def _main() -> Any:
            target = coro_or_future
            if is_future_like(target):
                awaitable = self._await_future(target)
            else:
                awaitable = target
            if until is None:
                return await awaitable
            try:
                return await asyncio.wait_for(
                    awaitable, timeout=max(0.0, until - self.now)
                )
            except asyncio.TimeoutError:
                raise SimulationError(
                    f"main future still pending at t={self.now:g} "
                    "(deadlock or `until` too small)"
                ) from None

        return self._drive(_main())

    @staticmethod
    async def _await_future(fut: Any) -> Any:
        return await fut

    def run_for(self, duration: float) -> None:
        self.run(until=self.now + duration)

    def close(self) -> None:
        """Tear down transport endpoints and the event loop."""
        if self._closed:
            return
        self._closed = True

        async def _shutdown() -> None:
            for writer, reader_task, _, recv_writer in (
                self._endpoints.values()
            ):
                writer.close()
                recv_writer.close()
                reader_task.cancel()
            for writer, reader_task, _, recv_writer in (
                self._endpoints.values()
            ):
                for w in (writer, recv_writer):
                    try:
                        await w.wait_closed()
                    except (ConnectionError, asyncio.CancelledError):
                        pass
                try:
                    await reader_task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
            self._endpoints.clear()
            # reap whatever the engine left in flight (token turns,
            # pending envelopes): a closing substrate takes its tasks
            # with it, exactly like a silo process exiting.  Iterate:
            # a cancelled turn's cleanup may spawn follow-up tasks.
            for _ in range(5):
                stragglers = [
                    task for task in asyncio.all_tasks(self._loop)
                    if task is not asyncio.current_task()
                ]
                if not stragglers:
                    break
                for task in stragglers:
                    task.cancel("backend closed")
                await asyncio.gather(*stragglers, return_exceptions=True)

        self._drive(_shutdown())
        self._loop.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AsyncioBackend t={self.now:g} seed={self.seed}>"

"""``SimBackend``: the DES kernel behind the runtime-backend seam.

This module and :mod:`repro.runtime.kernel` are the only places outside
:mod:`repro.sim` itself allowed to import simulation internals (lint
rule SNAP014 enforces the boundary).  It is a thin adapter: every method
delegates to the exact ``SimLoop`` primitive the engine called before
the refactor, so a run through ``SimBackend`` is bit-for-bit identical
to a run against a raw ``SimLoop`` — the determinism tests in
``tests/test_runtime_differential.py`` pin that.

``SimBackend`` never installs itself into the kernel dispatch: while a
``SimLoop`` runs it publishes itself as the sim-current loop, and the
kernel's default target resolves through that global — the same code
path raw-``SimLoop`` tests use.
"""

from __future__ import annotations

from typing import Any, Callable, Coroutine, Optional

from repro.sim.future import Future
from repro.sim.loop import SimLoop, gather, wait_for
from repro.sim.resources import CpuPool, IoDevice


class SimBackend:
    """The deterministic virtual-time substrate (reference backend)."""

    name = "sim"
    deterministic = True

    def __init__(self, loop: Optional[SimLoop] = None, seed: int = 0):
        self.loop = loop if loop is not None else SimLoop(seed=seed)

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        return self.loop.now

    @property
    def rng(self):
        return self.loop.rng

    def sleep(self, delay: float):
        return self.loop.sleep(delay)

    def call_later(self, delay: float, callback: Callable, *args: Any):
        self.loop.call_later(delay, callback, *args)

    def call_at(self, when: float, callback: Callable, *args: Any):
        self.loop.call_at(when, callback, *args)

    def call_clamped(self, when: float, callback: Callable, *args: Any):
        self.loop.call_clamped(when, callback, *args)

    # -- scheduling ------------------------------------------------------
    def create_task(
        self, coro: Coroutine, label: str = "", silo: Optional[int] = None
    ):
        task = self.loop.create_task(coro, label=label)
        if silo is not None:
            task.silo = silo
        return task

    def spawn(self, coro: Coroutine, label: str = ""):
        return self.loop.create_task(coro, label=label)

    def create_future(self, label: str = "") -> Future:
        return Future(label=label)

    def gather(self, *awaitables: Any):
        return gather(*awaitables)

    def wait_for(self, awaitable, timeout: float, message: str = "timeout"):
        return wait_for(awaitable, timeout, message=message)

    def current_silo(self) -> Optional[int]:
        task = self.loop.current_task
        return getattr(task, "silo", None) if task is not None else None

    # -- transport -------------------------------------------------------
    def deliver(
        self,
        delay: float,
        callback: Callable,
        *args: Any,
        silo: Optional[int] = None,
        cross_silo: bool = False,
    ) -> None:
        # the DES fabric models transport as latency alone; cross-silo
        # hops already paid their higher delay in the cost model.
        self.loop.call_later(delay, callback, *args)

    # -- resources -------------------------------------------------------
    def cpu_pool(self, cores: int, label: str = "cpu") -> CpuPool:
        return CpuPool(cores, label=label)

    def io_device(
        self,
        base_latency: float,
        per_byte: float,
        label: str = "disk",
        bandwidth_cap: Optional[float] = None,
    ) -> IoDevice:
        return IoDevice(
            base_latency, per_byte, label=label, bandwidth_cap=bandwidth_cap
        )

    # -- running ---------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 100_000_000,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.loop.run(until=until, max_events=max_events, stop_when=stop_when)

    def run_until_complete(
        self, coro_or_future, until: Optional[float] = None
    ):
        return self.loop.run_until_complete(coro_or_future, until=until)

    def close(self) -> None:
        pass

    # -- introspection ---------------------------------------------------
    @property
    def current_task(self):
        return self.loop.current_task

    @property
    def pending_events(self) -> int:
        return self.loop.pending_events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimBackend {self.loop!r}>"

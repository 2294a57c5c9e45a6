"""Free-function dispatch onto the current runtime target.

Library code (coordinators, engine layers, workloads, sync primitives)
has no backend handle; it calls these module-level functions, exactly
as it used to call ``repro.sim.loop``'s free functions.  Every call
goes through one module-level target:

* by default that target is the simulation kernel's own free functions,
  which resolve through ``repro.sim.loop``'s current-loop global — so a
  raw ``SimLoop`` driven directly by a test and a ``SimBackend`` run
  (which never installs) take the same path;
* an :class:`AsyncioBackend` installs itself as the target for the
  duration of ``run``/``run_until_complete``.

Components that must create futures or timers *outside* any run (e.g.
``SnapperSystem.start`` injecting the token before the first ``run``)
hold a backend handle and call it directly instead of going through
this module.
"""

from __future__ import annotations

import asyncio as _asyncio
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Coroutine, Optional

from repro.errors import CancelledError as _SimCancelled
from repro.sim import loop as _sim
from repro.sim.future import Future as _SimFuture
from repro.sim.resources import IoDevice as _SimIoDevice

#: exception types meaning "this task was cancelled" on either backend.
CancelledErrors = (_SimCancelled, _asyncio.CancelledError)

#: the default target: the slice of the backend surface this module
#: dispatches to, served by the DES kernel's own free functions.
_SIM = SimpleNamespace(
    current_loop=_sim.current_loop,
    sleep=_sim.sleep,
    spawn=_sim.spawn,
    gather=_sim.gather,
    wait_for=_sim.wait_for,
    create_future=_SimFuture,
    io_device=_SimIoDevice,
)
_target: Any = _SIM


def install(backend: Any) -> None:
    """Make ``backend`` the dispatch target (one at a time, like a loop)."""
    global _target
    _target = backend


def uninstall(backend: Any) -> None:
    """Restore the simulation kernel as the target."""
    global _target
    if _target is backend:
        _target = _SIM


def current_loop() -> Any:
    """The installed backend, or the running ``SimLoop``.

    Both expose the loop-ish surface library code touches: the clock,
    timers, task creation and the seeded ``rng``.
    """
    return _target.current_loop()


def now() -> float:
    return _target.current_loop().now


def sleep(delay: float) -> Any:
    return _target.sleep(delay)


def spawn(coro: Coroutine, label: str = "") -> Any:
    return _target.spawn(coro, label=label)


def gather(*awaitables: Any) -> Any:
    return _target.gather(*awaitables)


def wait_for(awaitable: Any, timeout: float, message: str = "timeout"):
    return _target.wait_for(awaitable, timeout, message=message)


def _future_factory(label: str = "") -> Any:
    """Create a target-appropriate future."""
    return _target.create_future(label)


if TYPE_CHECKING:
    # annotations like ``List[Future]`` in the engine keep type-checking
    # against the reference future class;  at runtime ``Future(...)`` is
    # the factory, so call sites read exactly as they did when they
    # constructed the sim future directly.
    from repro.sim.future import Future
else:
    Future = _future_factory


def io_device(
    base_latency: float,
    per_byte: float,
    label: str = "disk",
    bandwidth_cap: Optional[float] = None,
) -> Any:
    return _target.io_device(
        base_latency, per_byte, label=label, bandwidth_cap=bandwidth_cap
    )

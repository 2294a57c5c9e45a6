"""Pluggable concurrency-control strategies for the actor lock (§4.3.2).

The :class:`ActorLock` in :mod:`repro.core.locks` is pure mechanism: a
read/write lock with a FIFO queue.  *Policy* — what happens when a
request cannot be granted immediately, and whether waiting is bounded —
lives here, behind the small :class:`ConcurrencyControl` protocol, so
engines can swap deadlock-handling disciplines without touching the
lock table or the executors:

* :class:`WaitDie` — the paper's default (§4.3.2): a younger requester
  never waits for an older holder (it dies); waits are unbounded
  because ACT-ACT deadlocks cannot form.
* :class:`TimeoutOnly` — no victim selection; blocked requests burn the
  deadlock timeout before aborting.  This is what Orleans Transactions
  does.
* :class:`NoWait` — abort immediately on any conflict.  The classic
  low-latency/high-abort extreme, useful as an ablation endpoint.
* :class:`TwoPhaseLockingELR` — timeout waiting plus *early lock
  release* at prepare time (§5.2.3); the OrleansTxn baseline's
  discipline.  The release itself happens in the commit protocol — the
  strategy carries the :attr:`early_lock_release` capability flag.

Strategies are selected by name through ``SnapperConfig``
(``concurrency_control="wait_die" | "timeout" | "no_wait"``) and
resolved with :func:`resolve_concurrency_control`.  New disciplines are
one-file additions: subclass, then :func:`register_strategy`.
"""

from __future__ import annotations

from typing import Dict, Optional, Type, Union

from repro.errors import AbortReason, DeadlockError


class ConcurrencyControl:
    """Strategy protocol: conflict handling for one actor's lock table.

    Instances are stateless (per-strategy counters live on the lock), so
    one instance per actor is cheap.  Subclasses override the hooks:

    * :meth:`on_conflict` — called when a request cannot be granted
      immediately, *before* it is queued; raise
      :class:`~repro.errors.DeadlockError` to abort instead of waiting.
    * :meth:`on_holders_changed` — called whenever the holder set
      changes (grant or release); may evict queued requests that the
      discipline now forbids from waiting.
    * :meth:`wait_timeout` — how long a queued request may wait, given
      the configured deadlock timeout; ``None`` means wait forever.
    """

    #: registry key; also what ``SnapperConfig.concurrency_control`` names.
    name: str = "?"
    #: whether the commit protocol may release this strategy's locks at
    #: prepare time (early lock release, §5.2.3).
    early_lock_release: bool = False

    def on_conflict(self, lock, tid: int, mode: str) -> None:
        """A request by ``tid`` conflicts with the current holders."""

    def on_holders_changed(self, lock) -> None:
        """The holder set of ``lock`` changed; enforce queue invariants."""

    def wait_timeout(self, deadlock_timeout: Optional[float]) -> Optional[float]:
        """Bound for lock waits (``None`` = unbounded)."""
        return deadlock_timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class WaitDie(ConcurrencyControl):
    """Wait-die (§4.3.2): younger requesters die, older requesters wait.

    Lock waits are unbounded: ACT-ACT deadlocks cannot form under
    wait-die, and every hybrid PACT-ACT cycle (Fig. 9) contains a
    schedule-admission edge, which *does* time out.  Timing out lock
    waits here would break wait-die's liveness guarantee (the oldest
    transaction never dies).
    """

    name = "wait_die"

    def wait_timeout(self, deadlock_timeout: Optional[float]) -> Optional[float]:
        return None

    def on_conflict(self, lock, tid: int, mode: str) -> None:
        if any(t < tid for t in lock.holders if t != tid):
            # A younger transaction never waits for an older holder: die.
            lock.wait_die_aborts += 1
            raise DeadlockError(
                f"{lock.label}: txn {tid} died (wait-die) waiting for "
                f"{sorted(lock.holders)}",
                AbortReason.ACT_CONFLICT,
            )

    def on_holders_changed(self, lock) -> None:
        """Wait-die invariant: nobody may *wait* for an older holder.

        Checked whenever the holder set changes — a queued request that
        arrived while the (younger) previous holder was active can find
        itself behind an older one after a grant, and must die then."""
        oldest_holder = lock.oldest_holder
        if oldest_holder is None:
            return
        for request in lock.live_queued_requests():
            if request.tid > oldest_holder:
                lock.wait_die_aborts += 1
                lock.kill_request(
                    request,
                    DeadlockError(
                        f"{lock.label}: txn {request.tid} died (wait-die) "
                        f"waiting behind older holder {oldest_holder}",
                        AbortReason.ACT_CONFLICT,
                    ),
                )


class TimeoutOnly(ConcurrencyControl):
    """Pure timeout-based deadlock handling (no victim selection).

    Every conflicting request queues; a deadlocked request burns the
    full deadlock timeout before aborting — which is why this
    discipline collapses under contention (Fig. 14).
    """

    name = "timeout"


class NoWait(ConcurrencyControl):
    """Abort immediately on any lock conflict.

    The zero-wait extreme of the conservative spectrum: latency under
    conflict is minimal, but every conflict costs a whole transaction
    retry.  Not in the paper; included as an ablation endpoint for the
    wait-die-vs-timeout comparison (§4.3.2).
    """

    name = "no_wait"

    def on_conflict(self, lock, tid: int, mode: str) -> None:
        lock.no_wait_aborts += 1
        raise DeadlockError(
            f"{lock.label}: txn {tid} aborted (no-wait) — lock held by "
            f"{sorted(lock.holders)}",
            AbortReason.ACT_CONFLICT,
        )


class TwoPhaseLockingELR(TimeoutOnly):
    """2PL with early lock release at prepare time (§5.2.3).

    Lock-conflict handling is timeout-based, like Orleans Transactions;
    the distinguishing capability is that the commit protocol may
    release locks at *prepare* rather than after commit, trading
    cascading aborts for concurrency.  The OrleansTxn baseline consults
    :attr:`early_lock_release` to decide when to release.
    """

    name = "2pl_elr"
    early_lock_release = True


#: name -> strategy class; extended via :func:`register_strategy`.
CC_STRATEGIES: Dict[str, Type[ConcurrencyControl]] = {
    WaitDie.name: WaitDie,
    TimeoutOnly.name: TimeoutOnly,
    NoWait.name: NoWait,
    TwoPhaseLockingELR.name: TwoPhaseLockingELR,
}


def register_strategy(cls: Type[ConcurrencyControl]) -> Type[ConcurrencyControl]:
    """Register a strategy class under ``cls.name`` (usable as decorator)."""
    if not cls.name or cls.name == "?":
        raise ValueError(f"{cls.__name__} needs a non-empty 'name'")
    CC_STRATEGIES[cls.name] = cls
    return cls


def resolve_concurrency_control(
    spec: Union[str, ConcurrencyControl, Type[ConcurrencyControl], None],
) -> ConcurrencyControl:
    """Turn a config value into a strategy instance.

    Accepts a registered name, a strategy instance (returned as-is), a
    strategy class, or ``None`` (the paper's default, wait-die).
    """
    if spec is None:
        return WaitDie()
    if isinstance(spec, ConcurrencyControl):
        return spec
    if isinstance(spec, type) and issubclass(spec, ConcurrencyControl):
        return spec()
    if isinstance(spec, str):
        cls = CC_STRATEGIES.get(spec)
        if cls is None:
            raise ValueError(
                f"unknown concurrency control {spec!r}; known strategies: "
                f"{sorted(CC_STRATEGIES)}"
            )
        return cls()
    raise TypeError(f"cannot resolve a concurrency control from {spec!r}")

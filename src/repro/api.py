"""The unified client submission surface: ``submit(TxnRequest) -> TxnHandle``.

Snapper's two transaction flavors — a PACT (pre-declared access set,
deterministic batching) and an ACT (nondeterministic, S2PL + 2PC) — are
one client call that differs only in whether the request declares its
access set (§3.1).  Every client — workloads, baselines, examples,
chaos — goes through this one request/handle pair:

* :class:`TxnRequest` — an immutable description of one submission:
  which actor starts it, which method runs, the PACT access set (or
  none for an ACT), and an optional :class:`RetryPolicy`.
* :class:`TxnHandle` — the receipt: awaitable for the result, plus
  ``status`` / ``trace_id`` for introspection while (and after) the
  transaction runs.

Systems implement ``submit(request) -> TxnHandle``:
:class:`repro.core.system.SnapperSystem`, and — so the experiment
runner is backend-agnostic — the baselines
(:class:`repro.baselines.orleans_txn.OrleansTxnSystem`,
:class:`repro.baselines.nontransactional.NTSystem`).

Typical use::

    handle = system.submit(TxnRequest.pact(
        "account", 1, "transfer", (100.0, 2), access={1: 1, 2: 1},
    ))
    balance = system.run(handle)
    assert handle.status == TxnHandle.COMMITTED
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, Optional

from repro.errors import TransactionAbortedError

#: transaction kinds carried by :attr:`TxnRequest.txn`.
PACT = "pact"
ACT = "act"


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side resubmission on transient aborts (wait-die dies,
    hybrid deadlocks, serializability failures — ``repro.retry``).

    Each attempt is a *new* transaction with a new tid, which is exactly
    what wait-die requires for progress; backoff doubles per attempt
    with full jitter, capped at ``max_backoff`` (simulated seconds on
    the sim backend, wall seconds on asyncio).
    """

    max_attempts: int = 5
    base_backoff: float = 1e-3
    max_backoff: float = 50e-3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("RetryPolicy needs at least one attempt")


@dataclass(frozen=True)
class TxnRequest:
    """One transaction submission, engine-agnostic.

    ``txn`` is ``"pact"`` or ``"act"``; when left empty it is inferred
    from the presence of ``access`` (a PACT pre-declares its access set,
    an ACT declares nothing — §3.1).  ``access`` maps each accessed
    actor (an ``ActorId``, an ``ActorRef``, or a raw key of the start
    actor's kind) to its declared access: an int count (mode defaults to
    ``ReadWrite``), a mode string (``"r"``/``"rw"``), or a
    ``(count, mode)`` pair — see
    :func:`repro.core.context.parse_access_decl`.  Declarations are
    checked statically by ``python -m repro.analysis verify`` and, under
    ``SnapperConfig(sanitize_access_sets=True)``, at execution time.
    """

    kind: str
    key: Hashable
    method: str
    func_input: Any = None
    txn: str = ""
    access: Optional[Mapping[Any, Any]] = None
    retry: Optional[RetryPolicy] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        txn = self.txn or (PACT if self.access is not None else ACT)
        if txn not in (PACT, ACT):
            raise ValueError(
                f"unknown transaction kind {txn!r}; use {PACT!r} or {ACT!r}"
            )
        if txn == PACT and self.access is None:
            raise ValueError(
                "a PACT pre-declares its access set: pass access={...}"
            )
        if txn == ACT and self.access is not None:
            raise ValueError(
                "an ACT declares no access set: drop access=, or make "
                "the request a PACT"
            )
        object.__setattr__(self, "txn", txn)

    @property
    def is_pact(self) -> bool:
        return self.txn == PACT

    @classmethod
    def pact(
        cls,
        kind: str,
        key: Hashable,
        method: str,
        func_input: Any = None,
        *,
        access: Mapping[Any, Any],
        retry: Optional[RetryPolicy] = None,
    ) -> "TxnRequest":
        """A pre-declared (deterministic, batched) transaction."""
        return cls(kind, key, method, func_input,
                   txn=PACT, access=access, retry=retry)

    @classmethod
    def act(
        cls,
        kind: str,
        key: Hashable,
        method: str,
        func_input: Any = None,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> "TxnRequest":
        """A nondeterministic (S2PL + 2PC) transaction."""
        return cls(kind, key, method, func_input, txn=ACT, retry=retry)


class TxnHandle:
    """The receipt for one submitted transaction.

    Future-like: awaitable, and accepted by ``system.run(...)`` on every
    backend.  ``status`` reflects the terminal outcome once the
    underlying future settles; ``trace_id`` is the engine-assigned tid
    (the key into ``TxnTracer.traces``), available as soon as the
    coordinator registers the transaction — ``None`` before that.
    """

    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"
    FAILED = "failed"

    __slots__ = ("request", "_future", "_tid")

    def __init__(self, request: TxnRequest, future: Any):
        self.request = request
        self._future = future
        self._tid: Optional[int] = None

    # -- outcome ----------------------------------------------------------
    @property
    def status(self) -> str:
        if not self._future.done():
            return self.PENDING
        if self._future.cancelled():
            return self.FAILED
        exc = self._future.exception()
        if exc is None:
            return self.COMMITTED
        if isinstance(exc, TransactionAbortedError):
            return self.ABORTED
        return self.FAILED

    @property
    def abort_reason(self) -> Optional[str]:
        """The abort reason, when :attr:`status` is ``"aborted"``."""
        if self.status != self.ABORTED:
            return None
        return self._future.exception().reason

    @property
    def trace_id(self) -> Optional[int]:
        """Engine tid: keys the transaction's ``TxnTracer`` timeline.

        With a retry policy, the tid of the most recent attempt."""
        return self._tid

    def _set_tid(self, tid: int) -> None:
        # threaded down to the executors as the ``on_tid`` callback of
        # ``start_txn``; overwritten per attempt under a retry policy.
        self._tid = tid

    # -- future protocol (delegated) --------------------------------------
    @property
    def future(self) -> Any:
        """The underlying backend future (what ``system.run`` drives)."""
        return self._future

    def done(self) -> bool:
        return self._future.done()

    def cancelled(self) -> bool:
        return self._future.cancelled()

    def result(self) -> Any:
        return self._future.result()

    def exception(self) -> Optional[BaseException]:
        return self._future.exception()

    def add_done_callback(self, callback: Callable[[Any], None]) -> None:
        self._future.add_done_callback(lambda _f: callback(self))

    def __await__(self):
        return self._future.__await__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        req = self.request
        return (
            f"<TxnHandle {req.txn} {req.kind}/{req.key}.{req.method} "
            f"{self.status} tid={self._tid}>"
        )


def submit_over(
    backend: Any,
    start: Callable[["TxnHandle"], Any],
    request: TxnRequest,
) -> TxnHandle:
    """Shared ``submit`` plumbing for systems.

    ``start(handle)`` fires one attempt and returns its future.  Without
    a retry policy the handle wraps that future directly (no extra task:
    the start message leaves at submit time); with one, a driver task
    resubmits on transient aborts per :mod:`repro.retry`.
    """
    handle = TxnHandle(request, None)
    if request.retry is None:
        handle._future = start(handle)
        return handle

    from repro.retry import retry_transaction

    policy = request.retry

    async def _drive() -> Any:
        return await retry_transaction(
            lambda: start(handle),
            max_attempts=policy.max_attempts,
            base_backoff=policy.base_backoff,
            max_backoff=policy.max_backoff,
        )

    handle._future = backend.spawn(
        _drive(), label=f"submit:{request.kind}/{request.key}"
    )
    return handle


__all__ = [
    "ACT",
    "PACT",
    "RetryPolicy",
    "TxnHandle",
    "TxnRequest",
    "submit_over",
]

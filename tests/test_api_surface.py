"""The unified submission API (``repro.api``): contract + neutrality.

Two layers of guarantees:

* unit contracts of :class:`TxnRequest` / :class:`TxnHandle` /
  :class:`RetryPolicy` — validation, inference, status lifecycle;
* **observability neutrality** — running the same seeded workload with
  observability on (tracer installed, spans built post-hoc) leaves
  every result and final balance identical to the disabled run.
"""

import pytest

from repro.api import ACT, PACT, RetryPolicy, TxnHandle, TxnRequest
from repro.errors import TransactionAbortedError
from repro.obs.spans import build_spans
from repro.trace import TxnTracer

from tests.conftest import build_system


# -- TxnRequest --------------------------------------------------------------

def test_request_kind_inference_and_flags():
    pact = TxnRequest("account", 1, "transfer", (1.0, 2), access={1: 1, 2: 1})
    assert pact.txn == PACT and pact.is_pact
    act = TxnRequest("account", 1, "balance")
    assert act.txn == ACT and not act.is_pact
    assert TxnRequest.pact("a", 0, "m", access={0: 1}).is_pact
    assert not TxnRequest.act("a", 0, "m").is_pact


def test_request_validation():
    with pytest.raises(ValueError, match="pre-declares its access set"):
        TxnRequest("account", 1, "transfer", txn=PACT)
    with pytest.raises(ValueError, match="declares no access set"):
        TxnRequest("account", 1, "balance", txn=ACT, access={1: "r"})
    with pytest.raises(ValueError, match="unknown transaction kind"):
        TxnRequest("account", 1, "balance", txn="interactive")


def test_retry_policy_validation():
    with pytest.raises(ValueError, match="at least one attempt"):
        RetryPolicy(max_attempts=0)
    assert RetryPolicy().max_attempts == 5


# -- TxnHandle lifecycle -----------------------------------------------------

def test_handle_commit_lifecycle(system):
    handle = system.submit(TxnRequest.pact(
        "account", 1, "transfer", (10.0, 2), access={1: 1, 2: 1},
    ))
    assert handle.status == TxnHandle.PENDING
    assert handle.trace_id is None
    result = system.run(handle)
    assert result == 90.0
    assert handle.status == TxnHandle.COMMITTED
    assert handle.done() and handle.result() == 90.0
    assert handle.exception() is None
    assert handle.abort_reason is None
    assert isinstance(handle.trace_id, int)


def test_handle_abort_lifecycle(system):
    handle = system.submit(TxnRequest.act(
        "account", 1, "withdraw", 10_000.0,
    ))
    with pytest.raises(TransactionAbortedError):
        system.run(handle)
    assert handle.status == TxnHandle.ABORTED
    assert handle.abort_reason is not None


# -- observability neutrality (perf-regression oracle) -----------------------

#: seeded mixed workload: (is_pact, key, method, input, access)
_WORKLOAD = [
    ("pact", 0, "transfer", (5.0, 1), {0: 1, 1: 1}),
    ("act", 2, "deposit", 7.0, None),
    ("pact", 1, "transfer", (2.0, 3), {1: 1, 3: 1}),
    ("act", 0, "balance", None, None),
    ("pact", 3, "deposit", 1.5, {3: 1}),
    ("act", 3, "balance", None, None),
]


def _seeded_outcome(observability):
    system = build_system(seed=23, observability=observability)
    tracer = None
    if observability:
        tracer = TxnTracer()
        system.runtime.services["txn_tracer"] = tracer

    async def client():
        results = []
        for txn, key, method, func_input, access in _WORKLOAD:
            request = (
                TxnRequest.pact("account", key, method, func_input,
                                access=access)
                if txn == "pact"
                else TxnRequest.act("account", key, method, func_input)
            )
            results.append(await system.submit(request))
        balances = []
        for key in range(4):
            balances.append(await system.submit(
                TxnRequest.act("account", key, "balance")
            ))
        return results, balances

    outcome = system.run(client())
    if observability:
        spans = build_spans(tracer)
        assert spans, "span build produced nothing despite a live tracer"
    system.shutdown()
    return outcome


def test_observability_and_spans_change_no_results():
    assert _seeded_outcome(False) == _seeded_outcome(True)

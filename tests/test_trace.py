"""Tests for the transaction tracing facility (repro.trace)."""

import pytest

from repro import TransactionAbortedError
from repro.api import TxnRequest
from repro.trace import TraceEvent, TxnTrace, TxnTracer

from tests.conftest import build_system


def traced_system(**kwargs):
    system = build_system(**kwargs)
    tracer = TxnTracer()
    system.runtime.services["txn_tracer"] = tracer
    return system, tracer


# ---------------------------------------------------------------------------
# unit level
# ---------------------------------------------------------------------------
def test_trace_event_ordering_and_durations():
    trace = TxnTrace(tid=1, mode="PACT")
    trace.events = [TraceEvent(0.0, "registered"),
                    TraceEvent(0.010, "committed")]
    assert trace.outcome == "committed"
    assert trace.duration("registered", "committed") == pytest.approx(0.010)
    assert trace.duration("registered", "nope") is None
    assert "committed" in trace.render()


def test_tracer_capacity_evicts_oldest():
    tracer = TxnTracer(capacity=3)
    for tid in range(5):
        tracer.record(0.0, tid, "registered")
    assert len(tracer) == 3
    assert tracer.trace_of(0) is None
    assert tracer.trace_of(4) is not None


def test_tracer_mean_duration():
    tracer = TxnTracer()
    tracer.record(0.0, 1, "a")
    tracer.record(0.2, 1, "b")
    tracer.record(1.0, 2, "a")
    tracer.record(1.4, 2, "b")
    assert tracer.mean_duration("a", "b") == pytest.approx(0.3)
    assert tracer.mean_duration("a", "zzz") is None


def test_trace_event_dict_round_trip():
    event = TraceEvent(1.0, "state_access", "Read",
                       tid=5, bid=2, actor="a/x", access="Read", seq=9)
    clone = TraceEvent.from_dict(event.to_dict())
    fields = ("time", "name", "detail", "tid", "bid", "actor", "access", "seq")
    assert [getattr(clone, f) for f in fields] == [
        1.0, "state_access", "Read", 5, 2, "a/x", "Read", 9
    ]


def test_record_enriched_fields_and_bid_capture():
    tracer = TxnTracer()
    tracer.record(0.0, 1, "registered", "bid=4", "PACT", bid=4, actor="a/1")
    tracer.record(0.1, 1, "state_access", "Read", bid=4, actor="a/1",
                  access="Read")
    trace = tracer.trace_of(1)
    assert trace.bid == 4
    events = tracer.all_events()
    assert [e.seq for e in events] == sorted(e.seq for e in events)
    access = events[-1]
    assert access.access == "Read" and access.actor == "a/1"


def test_jsonl_round_trip(tmp_path):
    tracer = TxnTracer()
    tracer.record(0.0, 1, "registered", "bid=2", "PACT", bid=2, actor="a/1")
    tracer.record(0.1, 1, "state_access", "ReadWrite", bid=2, actor="a/1",
                  access="ReadWrite")
    tracer.record(0.2, 1, "committed")
    path = tmp_path / "trace.jsonl"
    assert tracer.dump_jsonl(str(path)) == 3
    loaded = TxnTracer.load_jsonl(str(path))
    assert len(loaded) == 1
    trace = loaded.trace_of(1)
    assert trace.mode == "PACT" and trace.bid == 2
    assert trace.event_names() == ["registered", "state_access", "committed"]
    access = loaded.all_events()[1]
    assert access.actor == "a/1" and access.access == "ReadWrite"


# ---------------------------------------------------------------------------
# wired into the engine
# ---------------------------------------------------------------------------
def test_pact_lifecycle_traced():
    system, tracer = traced_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 5.0, access={1: 1}
        ))

    system.run(main())
    committed = tracer.by_outcome("committed")
    assert len(committed) == 1
    trace = committed[0]
    assert trace.mode == "PACT"
    names = trace.event_names()
    assert names.index("registered") < names.index("turn_started")
    assert names.index("turn_started") < names.index("execution_done")
    assert names.index("execution_done") < names.index("committed")
    # batching delay shows up between registration and commit
    assert trace.duration("registered", "committed") > 0


def test_act_lifecycle_traced():
    system, tracer = traced_system()

    async def main():
        await system.submit(TxnRequest.act("account", 1, "transfer", (5.0, 2)))

    system.run(main())
    committed = tracer.by_outcome("committed")
    assert len(committed) == 1
    trace = committed[0]
    assert trace.mode == "ACT"
    names = trace.event_names()
    assert "admitted" in names
    assert "check_passed" in names
    assert names.index("execution_done") < names.index("check_passed")
    assert names[-1] == "committed"


def test_engine_emits_enriched_state_access_events():
    system, tracer = traced_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 5.0, access={1: 1}
        ))
        await system.submit(TxnRequest.act("account", 1, "transfer", (5.0, 2)))

    system.run(main())
    accesses = [e for e in tracer.all_events() if e.name == "state_access"]
    assert accesses, "engine should emit state_access events"
    assert all(e.actor is not None and e.access is not None
               for e in accesses)
    pact_accesses = [e for e in accesses if e.bid is not None]
    act_accesses = [e for e in accesses if e.bid is None]
    assert pact_accesses and act_accesses
    # the ACT's check_passed detail carries the BS/AS evidence
    act = next(t for t in tracer.traces.values() if t.mode == "ACT")
    check = act.first("check_passed")
    assert set(check.detail) == {"max_bs", "min_as"}


def test_aborted_act_traced_with_reason():
    system, tracer = traced_system()

    async def main():
        with pytest.raises(TransactionAbortedError):
            await system.submit(TxnRequest.act("account", 1, "transfer", (1e9, 2)))

    system.run(main())
    aborted = tracer.by_outcome("aborted")
    assert len(aborted) == 1
    assert aborted[0].first("aborted").detail == "user_abort"


def test_tracing_absent_costs_nothing():
    system = build_system()
    assert "txn_tracer" not in system.runtime.services

    async def main():
        return await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 5.0, access={1: 1}
        ))

    assert system.run(main()) == 105.0

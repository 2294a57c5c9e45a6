"""Tests for repro.verify, plus audited end-to-end executions."""

import pytest

from repro import AccessMode, SnapperSystem, TransactionAbortedError, TransactionalActor
from repro.api import TxnRequest
from repro.verify import (
    AccessRecorder,
    assert_serializable,
    build_serialization_graph,
    find_cycle,
    is_serializable,
    serialization_order,
)

R, W = AccessMode.READ, AccessMode.READ_WRITE


# ---------------------------------------------------------------------------
# graph construction on hand-written histories
# ---------------------------------------------------------------------------
def test_serial_history_is_serializable():
    logs = {"x": [(1, W), (2, W)], "y": [(1, W), (2, R)]}
    assert is_serializable(logs)
    assert serialization_order(logs) == [1, 2]


def test_write_write_cycle_detected():
    logs = {"x": [(1, W), (2, W)], "y": [(2, W), (1, W)]}
    assert not is_serializable(logs)
    cycle = find_cycle(build_serialization_graph(logs))
    assert set(cycle) == {1, 2}
    with pytest.raises(AssertionError, match="cycle"):
        assert_serializable(logs)


def test_read_write_conflicts_create_edges():
    # r1(x) w2(x): edge 1 -> 2; w2(y) r1(y) would be 2 -> 1: cycle
    logs = {"x": [(1, R), (2, W)], "y": [(2, W), (1, R)]}
    assert not is_serializable(logs)


def test_reads_do_not_conflict():
    logs = {"x": [(1, R), (2, R)], "y": [(2, R), (1, R)]}
    graph = build_serialization_graph(logs)
    assert graph.number_of_edges() == 0
    assert is_serializable(logs)


def test_multiple_readers_then_writer():
    logs = {"x": [(1, R), (2, R), (3, W)]}
    graph = build_serialization_graph(logs)
    assert set(graph.edges) == {(1, 3), (2, 3)}


def test_same_txn_accesses_no_self_edges():
    logs = {"x": [(1, R), (1, W), (1, W)]}
    graph = build_serialization_graph(logs)
    assert graph.number_of_edges() == 0


def test_recorder_filters_uncommitted():
    recorder = AccessRecorder()
    recorder.record("x", 1, W)
    recorder.record("x", 2, W)  # 2 will abort
    recorder.record("x", 3, W)
    logs = recorder.committed_logs({1, 3})
    assert logs == {"x": [(1, W), (3, W)]}


def test_recorder_rejects_bad_mode():
    recorder = AccessRecorder()
    with pytest.raises(ValueError):
        recorder.record("x", 1, "Write")


# ---------------------------------------------------------------------------
# end-to-end: audit a real hybrid execution with the recorder
# ---------------------------------------------------------------------------
class AuditedActor(TransactionalActor):
    def initial_state(self):
        return 0

    async def touch(self, ctx, other_keys):
        from repro import FuncCall

        recorder = self.runtime.service("recorder")
        state = await self.get_state(ctx, AccessMode.READ_WRITE)
        recorder.record(self.id.key, ctx.tid, AccessMode.READ_WRITE)
        self._state = state + 1
        for key in other_keys or []:
            await self.call_actor(
                ctx, self.ref("audited", key).id, FuncCall("touch", None)
            )
        return ctx.tid


def test_audited_hybrid_execution_is_serializable():
    from repro.sim import gather, spawn

    system = SnapperSystem(seed=57)
    recorder = AccessRecorder()
    system.runtime.services["recorder"] = recorder
    system.register_actor("audited", AuditedActor)
    system.start()
    committed = set()

    async def one(i):
        start = i % 4
        others = [(i + 1) % 4]
        try:
            if i % 2 == 0:
                access = {start: 1, others[0]: 1}
                tid = await system.submit(TxnRequest.pact(
                    "audited", start, "touch", others, access=access
                ))
            else:
                tid = await system.submit(TxnRequest.act(
                    "audited", start, "touch", others
                ))
            committed.add(tid)
        except TransactionAbortedError:
            pass

    async def main():
        await gather(*[spawn(one(i)) for i in range(24)])

    system.run(main())
    assert committed, "some transactions must commit"
    logs = recorder.committed_logs(committed)
    assert_serializable(logs, label="hybrid execution")
    # witness order exists
    order = serialization_order(logs)
    assert set(order) >= committed

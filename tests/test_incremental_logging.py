"""Tests for the incremental-logging extension (§5.4.2 future work).

An insertion-only actor opts in with ``incremental_logging = True`` and
calls ``log_delta`` next to each state mutation; its WAL records then
carry only the new entries.  Recovery replays base + deltas.
"""

import pytest

from repro import AccessMode, SnapperConfig, SnapperSystem, TransactionalActor
from repro.api import TxnRequest
from repro.persistence.records import ActPrepareRecord, BatchCompleteRecord


class AppendLogActor(TransactionalActor):
    """Insertion-only state, like TPC-C's Order tables."""

    incremental_logging = True

    def initial_state(self):
        return []

    async def append(self, ctx, item):
        state = await self.get_state(ctx, AccessMode.READ_WRITE)
        state.append(item)
        self.log_delta(ctx, item)
        return len(state)

    async def read_all(self, ctx, _input=None):
        return list(await self.get_state(ctx, AccessMode.READ))

    async def append_fail(self, ctx, item):
        state = await self.get_state(ctx, AccessMode.READ_WRITE)
        state.append(item)
        self.log_delta(ctx, item)
        raise RuntimeError("abort after buffering the delta")


class FullLogActor(AppendLogActor):
    incremental_logging = False


def build(kind_class=AppendLogActor):
    system = SnapperSystem(config=SnapperConfig(), seed=41)
    system.register_actor("log", kind_class)
    system.start()
    return system


def state_records(system):
    return [
        r for r in system.loggers.all_records()
        if isinstance(r, (BatchCompleteRecord, ActPrepareRecord))
        and r.state is not None
    ]


def test_incremental_records_carry_deltas_not_state():
    system = build()

    async def main():
        for i in range(5):
            await system.submit(TxnRequest.pact(
                "log", 1, "append", f"item-{i}", access={1: 1}
            ))

    system.run(main())
    records = state_records(system)
    assert records, "writes must produce state records"
    for record in records:
        marker, entries = record.state
        assert marker == "__snapper_delta__"
        assert all(e.startswith("item-") for e in entries)


def test_incremental_records_smaller_than_full():
    def total_state_bytes(kind_class):
        system = build(kind_class)

        async def main():
            for i in range(30):
                await system.submit(TxnRequest.pact(
                    "log", 1, "append", f"padded-item-{i:04d}" * 8, access={1: 1}
                ))

        system.run(main())
        return sum(r.size_bytes() for r in state_records(system))

    incremental = total_state_bytes(AppendLogActor)
    full = total_state_bytes(FullLogActor)
    assert incremental < full / 3, (
        f"incremental logging wrote {incremental}B vs full {full}B"
    )


def test_recovery_replays_deltas_after_pacts():
    system = build()

    async def phase1():
        for i in range(4):
            await system.submit(TxnRequest.pact(
                "log", 1, "append", f"item-{i}", access={1: 1}
            ))

    system.run(phase1())
    system.crash_silo()

    async def phase2():
        await system.recover()
        return await system.submit(TxnRequest.act("log", 1, "read_all"))

    assert system.run(phase2()) == [f"item-{i}" for i in range(4)]


def test_recovery_replays_deltas_after_acts():
    system = build()

    async def phase1():
        await system.submit(TxnRequest.act("log", 2, "append", "a"))
        await system.submit(TxnRequest.act("log", 2, "append", "b"))

    system.run(phase1())
    system.crash_silo()

    async def phase2():
        await system.recover()
        return await system.submit(TxnRequest.act("log", 2, "read_all"))

    assert system.run(phase2()) == ["a", "b"]


def test_aborted_act_delta_not_logged_or_replayed():
    system = build()

    async def main():
        with pytest.raises(Exception):
            await system.submit(TxnRequest.act("log", 3, "append_fail", "poison"))
        await system.submit(TxnRequest.act("log", 3, "append", "good"))

    system.run(main())
    system.crash_silo()

    async def after():
        await system.recover()
        return await system.submit(TxnRequest.act("log", 3, "read_all"))

    assert system.run(after()) == ["good"]


def test_mixed_full_and_delta_recovery_order():
    """A full snapshot (non-incremental write path is simulated via a
    direct log record) followed by deltas replays in LSN order."""
    from repro.actors.ref import ActorId
    from repro.persistence.records import BatchCommitRecord, BatchInfoRecord

    system = build()
    actor = ActorId("log", 9)

    async def seed():
        await system.loggers.persist(
            "c", BatchInfoRecord(bid=700, coordinator=0, participants=(actor,))
        )
        await system.loggers.persist(
            actor,
            BatchCompleteRecord(bid=700, actor=actor, state=["base-1"]),
        )
        await system.loggers.persist("c", BatchCommitRecord(bid=700))
        await system.recover()
        # now append through the normal incremental path
        await system.submit(TxnRequest.act("log", 9, "append", "delta-1"))
        return await system.submit(TxnRequest.act("log", 9, "read_all"))

    assert system.run(seed()) == ["base-1", "delta-1"]
    system.crash_silo()

    async def after():
        await system.recover()
        return await system.submit(TxnRequest.act("log", 9, "read_all"))

    assert system.run(after()) == ["base-1", "delta-1"]


def test_default_apply_delta_requires_list_state():
    class BadActor(TransactionalActor):
        incremental_logging = True

        def initial_state(self):
            return {"not": "a list"}

    actor = BadActor()
    with pytest.raises(NotImplementedError):
        actor.apply_delta({"not": "a list"}, ["x"])

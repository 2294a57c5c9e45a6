"""The snapshot subsystem: bounded replay, truncation, residency, and
the crash-decision records it leans on (docs/snapshots.md)."""

import pytest

from repro.actors.ref import ActorId
from repro.api import TxnRequest
from repro.core.engine.recovery import in_doubt_tail, recover_state_ex
from repro.persistence.records import (
    BatchAbortRecord,
    BatchCommitRecord,
    BatchCompleteRecord,
    BatchInfoRecord,
    SnapshotRecord,
)
from repro.sim import sleep

from tests.conftest import build_system


def _raise_on_delta(_state, _delta):
    raise AssertionError("account actors log full blobs")


def _snap_system(**config_kwargs):
    # a huge interval: the service exists but only sweeps when a test
    # calls it, so every frontier movement is the test's own doing.
    config_kwargs.setdefault("snapshot_interval", 1e9)
    return build_system(**config_kwargs)


# ---------------------------------------------------------------------------
# bounded replay: the tentpole guarantee, counted
# ---------------------------------------------------------------------------


def test_snapshot_bounds_replay_to_post_frontier_records():
    """After a snapshot at frontier F, recovery replays only records
    with LSN > F — the ISSUE's countable bounded-recovery assertion."""
    system = _snap_system()
    actor = ActorId("account", 1)

    async def main():
        for _ in range(4):
            await system.submit(TxnRequest.pact(
                "account", 1, "deposit", 1.0, access={1: 1}
            ))
        await system.snapshots.snapshot_sweep()
        before = recover_state_ex(actor, system.loggers, None,
                                  _raise_on_delta)
        for _ in range(2):
            await system.submit(TxnRequest.pact(
                "account", 1, "deposit", 1.0, access={1: 1}
            ))
        after = recover_state_ex(actor, system.loggers, None,
                                 _raise_on_delta)
        return before, after

    before, after = system.run(main())
    assert before.snapshot is not None
    assert before.replayed == 0  # snapshot current: nothing to replay
    assert before.state == 104.0
    assert after.replayed == 2  # exactly the post-snapshot commits
    assert after.state == 106.0
    # frontier exactness: every replayed record is past the frontier
    assert after.snapshot.frontier_lsn == before.frontier_lsn


def test_fresh_sweep_resets_replay_to_zero():
    system = _snap_system()
    actor = ActorId("account", 1)

    async def main():
        for _ in range(3):
            await system.submit(TxnRequest.pact(
                "account", 1, "deposit", 1.0, access={1: 1}
            ))
        await system.snapshots.snapshot_sweep()
        return recover_state_ex(actor, system.loggers, None,
                                _raise_on_delta)

    result = system.run(main())
    assert result.replayed == 0
    assert result.state == 103.0


def test_unchanged_frontier_is_not_resnapshotted():
    system = _snap_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 1.0, access={1: 1}
        ))
        first = await system.snapshots.snapshot_sweep()
        second = await system.snapshots.snapshot_sweep()
        return first, second

    first, second = system.run(main())
    assert first == 1
    assert second == 0  # nothing committed in between


# ---------------------------------------------------------------------------
# durability hinge: the frontier may never outrun the disk
# ---------------------------------------------------------------------------


def test_failed_persist_leaves_frontier_unmarked():
    """A crash (or fault) between capture and durability must degrade
    to plain replay: the frontier table only moves after the persist."""
    system = _snap_system()
    actor = ActorId("account", 1)

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 1.0, access={1: 1}
        ))
        real_persist = system.loggers.persist

        async def failing_persist(owner, record):
            if isinstance(record, SnapshotRecord):
                raise IOError("injected append fault")
            return await real_persist(owner, record)

        system.loggers.persist = failing_persist
        host = system.runtime._activations[actor].actor
        with pytest.raises(IOError):
            await system.snapshots.snapshot_actor(actor, host)
        system.loggers.persist = real_persist
        return recover_state_ex(actor, system.loggers, None,
                                _raise_on_delta)

    result = system.run(main())
    assert system.snapshots._frontiers == {}
    assert system.snapshots.snapshots_taken == 0
    assert result.snapshot is None  # plain replay, correct state
    assert result.state == 101.0
    assert result.replayed == 1


# ---------------------------------------------------------------------------
# truncation floor
# ---------------------------------------------------------------------------


def test_actor_without_snapshot_pins_the_floor():
    """One state-bearing actor without a snapshot keeps every record:
    a record may only drop once *no* actor could need it for replay."""
    system = _snap_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 1.0, access={1: 1}
        ))
        await system.snapshots.snapshot_sweep()
        # actor 2 logs state *after* the sweep: no snapshot covers it
        await system.submit(TxnRequest.pact(
            "account", 2, "deposit", 1.0, access={2: 1}
        ))
        pinned = await system.snapshots.truncate()
        # once actor 2 is snapshotted too, the floor lifts (the sweep
        # itself truncates after snapshotting)
        await system.snapshots.snapshot_sweep()
        return pinned

    pinned = system.run(main())
    assert pinned == (0, 0)
    assert system.snapshots.records_truncated > 0


def test_truncated_wal_still_recovers_every_actor():
    system = _snap_system()

    async def main():
        for key in (1, 2, 3):
            await system.submit(TxnRequest.pact(
                "account", key, "deposit", float(key), access={key: 1}
            ))
        await system.snapshots.snapshot_sweep()
        states = {}
        for key in (1, 2, 3):
            result = recover_state_ex(ActorId("account", key),
                                      system.loggers, None, _raise_on_delta)
            states[key] = (result.state, result.replayed)
        return states

    states = system.run(main())
    assert system.snapshots.records_truncated > 0
    assert states == {1: (101.0, 0), 2: (102.0, 0), 3: (103.0, 0)}


# ---------------------------------------------------------------------------
# residency and migration
# ---------------------------------------------------------------------------


def test_residency_budget_evicts_cold_and_reactivates_transparently():
    system = _snap_system(max_resident_actors=2)
    keys = (1, 2, 3, 4, 5, 6)

    async def main():
        for key in keys:
            await system.submit(TxnRequest.pact(
                "account", key, "deposit", float(key), access={key: 1}
            ))
        await system.snapshots.snapshot_sweep()
        resident = [
            actor_id for actor_id in system.runtime._activations
            if actor_id.kind == "account"
        ]
        # the evicted majority transparently reactivates on touch
        balances = [
            await system.submit(TxnRequest.act("account", key, "balance"))
            for key in keys
        ]
        return resident, balances

    resident, balances = system.run(main())
    assert system.snapshots.evictions >= len(keys) - 2
    assert len(resident) <= 2
    assert balances == [100.0 + key for key in keys]


def test_migrate_actor_preserves_state_on_the_target_silo():
    system = _snap_system(silo={"num_silos": 2})
    actor = ActorId("account", 1)

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 7.0, access={1: 1}
        ))
        source = system.runtime.silo_of(actor)
        target = 1 - source
        moved = await system.snapshots.migrate_actor(actor, target)
        balance = await system.submit(TxnRequest.act("account", 1, "balance"))
        return moved, target, system.runtime.silo_of(actor), balance

    moved, target, now_on, balance = system.run(main())
    assert moved
    assert now_on == target
    assert balance == 107.0


def test_migration_refuses_mid_transaction_actors():
    system = _snap_system()
    actor = ActorId("account", 1)

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 1.0, access={1: 1}
        ))
        activation = system.runtime._activations[actor]
        activation.turns_inflight += 1  # simulate a running turn
        try:
            return await system.snapshots.migrate_actor(actor, 0)
        finally:
            activation.turns_inflight -= 1

    assert system.run(main()) is False


# ---------------------------------------------------------------------------
# durable abort decisions (cascade write-ahead) and the recovery rules
# ---------------------------------------------------------------------------


def test_durable_abort_decision_is_not_resurrected_by_recovery():
    """A fully-voted batch with a BatchAbortRecord stays aborted: the
    live cascade externalized the abort, so the commit rule must not
    resurrect it after a crash."""
    system = build_system()
    actor = ActorId("account", 1)

    async def main():
        await system.loggers.persist(
            "coord", BatchInfoRecord(bid=600, coordinator=0,
                                     participants=(actor,)))
        await system.loggers.persist(
            actor, BatchCompleteRecord(bid=600, actor=actor, state=999.0))
        await system.loggers.persist(
            ("abort", 600), BatchAbortRecord(bid=600))
        await system.recover()
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == 100.0  # not 999: decided abort
    commits = [r for r in system.loggers.all_records()
               if isinstance(r, BatchCommitRecord) and r.bid == 600]
    assert commits == []


def test_durable_commit_record_outranks_abort_record():
    """Commit-wins: if the batch won the race and its commit record is
    durable, a later abort record is void."""
    system = build_system()
    actor = ActorId("account", 1)

    async def main():
        await system.loggers.persist(
            "coord", BatchInfoRecord(bid=600, coordinator=0,
                                     participants=(actor,)))
        await system.loggers.persist(
            actor, BatchCompleteRecord(bid=600, actor=actor, state=999.0))
        await system.loggers.persist("coord", BatchCommitRecord(bid=600))
        await system.loggers.persist(
            ("abort", 600), BatchAbortRecord(bid=600))
        await system.recover()
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == 999.0


def test_in_doubt_tail_excludes_decided_aborts():
    """A vote whose batch carries a durable abort decision is garbage,
    not doubt — reactivation must not wait on (or adopt) it."""

    class StubLog:
        enabled = True

        def __init__(self, records):
            self._records = list(records)
            for index, record in enumerate(self._records):
                object.__setattr__(record, "lsn", index)

        def all_records(self):
            return list(self._records)

    actor = ActorId("account", 1)
    log = StubLog([
        BatchCompleteRecord(bid=5, actor=actor, state=55.0),
        BatchAbortRecord(bid=5),
        BatchCompleteRecord(bid=6, actor=actor, state=66.0),
    ])
    tail = in_doubt_tail(actor, log)
    assert [record.bid for record in tail] == [6]


# ---------------------------------------------------------------------------
# the silo-down activation gate
# ---------------------------------------------------------------------------


def test_touch_during_crash_window_waits_for_recovery():
    """An activation between crash_silo() and the end of recover() must
    not race the WAL resolution: it blocks on the silo gate and then
    sees fully recovered state."""
    system = build_system()

    async def phase1():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 42.0, access={1: 1}
        ))

    system.run(phase1())
    system.crash_silo()

    async def phase2():
        probe = system.submit(TxnRequest.act("account", 1, "balance"))
        await sleep(0.05)
        assert not probe.done()  # gated: the silo is down
        await system.recover()
        return await probe

    assert system.run(phase2()) == 142.0

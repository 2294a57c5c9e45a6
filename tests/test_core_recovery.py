"""Failure injection and recovery tests (§4.2.5, §4.3.4, §4.4.5)."""

import pytest

from repro import TransactionAbortedError
from repro.api import TxnRequest
from repro.errors import ActorCrashedError

from tests.conftest import build_system


def test_actor_crash_recovers_committed_state():
    """A crashed actor re-activates with its last committed state."""
    system = build_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 42.0, access={1: 1}
        ))
        assert system.crash_actor("account", 1)
        # next access transparently re-activates and recovers from the WAL
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == 142.0


def test_actor_crash_loses_uncommitted_act_writes():
    system = build_system()

    async def main():
        await system.submit(TxnRequest.act("account", 1, "deposit", 10.0))
        system.crash_actor("account", 1)
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == 110.0


def test_crash_without_logging_resets_state():
    """With logging disabled there is nothing to recover from."""
    system = build_system(logging_enabled=False)

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 42.0, access={1: 1}
        ))
        system.crash_actor("account", 1)
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == 100.0


def test_silo_crash_and_recover_preserves_committed_only():
    """Full-system crash: committed transactions survive; in-flight ones
    are resolved by the recovery rules (§4.2.4 commit rule, presumed
    abort for ACTs)."""
    system = build_system()

    async def phase1():
        await system.submit(TxnRequest.pact(
            "account", 1, "transfer", (30.0, 2), access={1: 1, 2: 1}
        ))
        await system.submit(TxnRequest.act("account", 3, "deposit", 5.0))

    system.run(phase1())
    system.crash_silo()

    async def phase2():
        await system.recover()
        return [
            await system.submit(TxnRequest.act("account", k, "balance"))
            for k in (1, 2, 3)
        ]

    assert system.run(phase2()) == [70.0, 130.0, 105.0]


def test_recovery_commits_fully_voted_batch():
    """A batch whose every participant logged BatchComplete commits
    during recovery even though BatchCommit was never written."""
    from repro.persistence.records import (
        BatchCommitRecord,
        BatchCompleteRecord,
        BatchInfoRecord,
    )
    from repro.actors.ref import ActorId

    system = build_system()
    actor1 = ActorId("account", 1)

    async def seed_log():
        # Simulate a crash after all votes were logged: BatchInfo +
        # BatchComplete present, BatchCommit absent.
        await system.loggers.persist(
            "coord", BatchInfoRecord(bid=500, coordinator=0,
                                     participants=(actor1,))
        )
        await system.loggers.persist(
            actor1, BatchCompleteRecord(bid=500, actor=actor1, state=777.0)
        )
        await system.recover()
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(seed_log()) == 777.0
    commits = [
        r for r in system.loggers.all_records()
        if isinstance(r, BatchCommitRecord) and r.bid == 500
    ]
    assert len(commits) == 1


def test_recovery_aborts_partially_voted_batch():
    """A batch missing votes is presumed aborted: its state is not
    restored."""
    from repro.persistence.records import BatchCompleteRecord, BatchInfoRecord
    from repro.actors.ref import ActorId

    system = build_system()
    actor1 = ActorId("account", 1)
    actor2 = ActorId("account", 2)

    async def seed_log():
        await system.loggers.persist(
            "coord",
            BatchInfoRecord(bid=500, coordinator=0,
                            participants=(actor1, actor2)),
        )
        # only actor1 voted before the crash
        await system.loggers.persist(
            actor1, BatchCompleteRecord(bid=500, actor=actor1, state=777.0)
        )
        await system.recover()
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(seed_log()) == 100.0  # initial state, not 777


def test_recovery_restores_latest_of_batch_and_act_state():
    """Recovery picks the *latest* committed state record by LSN, whether
    it came from a batch or an ACT."""
    system = build_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 4, "deposit", 10.0, access={4: 1}
        ))
        await system.submit(TxnRequest.act("account", 4, "deposit", 20.0))

    system.run(main())
    system.crash_silo()

    async def after():
        await system.recover()
        return await system.submit(TxnRequest.act("account", 4, "balance"))

    assert system.run(after()) == 130.0


def test_inflight_transactions_fail_on_silo_crash_then_new_ones_work():
    system = build_system()
    failures = []

    async def main():
        job = system.submit(TxnRequest.pact(
            "account", 1, "transfer", (10.0, 2), access={1: 1, 2: 1}
        ))
        from repro import sim

        # crash once the start_txn turn is running (after ~200us delivery)
        await sim.sleep(0.0006)
        system.crash_silo()
        try:
            await job
        except (TransactionAbortedError, ActorCrashedError, Exception) as exc:
            failures.append(type(exc).__name__)
        await system.recover()
        return await system.submit(TxnRequest.act("account", 5, "deposit", 1.0))

    assert system.run(main()) == 101.0
    assert failures, "the in-flight transaction must not silently succeed"


def test_recovered_token_continues_pact_processing():
    """After recovery the fresh token keeps assigning increasing tids."""
    system = build_system()

    async def phase1():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 1.0, access={1: 1}
        ))

    system.run(phase1())
    system.crash_silo()

    async def phase2():
        await system.recover()
        for _ in range(3):
            await system.submit(TxnRequest.pact(
                "account", 1, "deposit", 1.0, access={1: 1}
            ))
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(phase2()) == 104.0


def test_participant_crash_aborts_act_2pc():
    """A 2PC participant crash fails the ACT, not the system."""
    system = build_system()
    from repro import FuncCall, sim
    from tests.conftest import AccountActor

    async def slow_transfer(self, ctx, txn_input):
        money, to_key = txn_input
        state = await self.get_state(ctx)
        self._state = state - money
        await self.call_actor(
            ctx, self.ref("account", to_key).id, FuncCall("deposit", money)
        )
        await sim.sleep(0.01)  # window for the crash before 2PC
        return self._state

    AccountActor.slow_transfer = slow_transfer
    try:
        async def main():
            job = system.submit(TxnRequest.act(
                "account", 1, "slow_transfer", (10.0, 2)
            ))
            await sim.sleep(0.005)
            system.crash_actor("account", 2)
            with pytest.raises(Exception):
                await job
            b1 = await system.submit(TxnRequest.act("account", 1, "balance"))
            b2 = await system.submit(TxnRequest.act("account", 2, "balance"))
            return b1, b2

        b1, b2 = system.run(main())
        assert b1 == 100.0  # rolled back
        assert b2 == 100.0  # recovered initial state
    finally:
        del AccountActor.slow_transfer

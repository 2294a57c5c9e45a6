"""End-to-end tests for ACT execution: S2PL, wait-die, 2PC (§4.3)."""

import pytest

from repro import AbortReason, TransactionAbortedError
from repro.api import TxnRequest
from repro.sim import gather, spawn

from tests.conftest import build_system


def test_single_actor_act_commits(system):
    async def main():
        return await system.submit(TxnRequest.act("account", 1, "deposit", 25.0))

    assert system.run(main()) == 125.0


def test_multi_actor_act_transfers_money(system):
    async def main():
        balance = await system.submit(TxnRequest.act(
            "account", 1, "transfer", (40.0, 2)
        ))
        b1 = await system.submit(TxnRequest.act("account", 1, "balance"))
        b2 = await system.submit(TxnRequest.act("account", 2, "balance"))
        return balance, b1, b2

    assert system.run(main()) == (60.0, 60.0, 140.0)


def test_act_user_abort_rolls_back(system):
    async def main():
        with pytest.raises(TransactionAbortedError) as excinfo:
            await system.submit(TxnRequest.act("account", 1, "transfer", (1000.0, 2)))
        assert excinfo.value.reason == AbortReason.USER_ABORT
        b1 = await system.submit(TxnRequest.act("account", 1, "balance"))
        b2 = await system.submit(TxnRequest.act("account", 2, "balance"))
        return b1, b2

    assert system.run(main()) == (100.0, 100.0)
    # ACT aborts never trigger the cascading machinery
    assert system.controller.cascades == 0


def test_act_abort_after_remote_write_restores_state(system):
    """The callee's write must be undone when the caller later fails."""
    from repro import FuncCall
    from tests.conftest import AccountActor

    async def deposit_then_fail(self, ctx, to_key):
        target = self.ref("account", to_key).id
        await self.call_actor(ctx, target, FuncCall("deposit", 99.0))
        raise RuntimeError("late failure")

    AccountActor.deposit_then_fail = deposit_then_fail
    try:
        async def main():
            with pytest.raises(TransactionAbortedError):
                await system.submit(TxnRequest.act(
                    "account", 1, "deposit_then_fail", 2
                ))
            return await system.submit(TxnRequest.act("account", 2, "balance"))

        assert system.run(main()) == 100.0
    finally:
        del AccountActor.deposit_then_fail


def test_concurrent_acts_conserve_money():
    """Wait-die may abort some ACTs, but committed ones stay serializable."""
    system = build_system(seed=11)
    accounts = list(range(6))

    async def one_transfer(i):
        to = (i + 1) % len(accounts)
        try:
            await system.submit(TxnRequest.act("account", i, "transfer", (10.0, to)))
            return "committed"
        except TransactionAbortedError as exc:
            return exc.reason

    async def main():
        outcomes = await gather(
            *[spawn(one_transfer(i)) for i in accounts for _ in range(3)]
        )
        balances = [
            await system.submit(TxnRequest.act("account", i, "balance"))
            for i in accounts
        ]
        return outcomes, balances

    outcomes, balances = system.run(main())
    assert sum(balances) == pytest.approx(100.0 * len(accounts))
    assert "committed" in outcomes


def test_wait_die_aborts_younger_on_conflict():
    """Under heavy same-actor contention some ACTs die (§4.3.2)."""
    system = build_system(seed=3)

    async def one(i):
        try:
            await system.submit(TxnRequest.act("account", 0, "deposit", 1.0))
            return True
        except TransactionAbortedError as exc:
            assert exc.reason == AbortReason.ACT_CONFLICT
            return False

    async def main():
        results = await gather(*[spawn(one(i)) for i in range(30)])
        final = await system.submit(TxnRequest.act("account", 0, "balance"))
        return results, final

    results, final = system.run(main())
    committed = sum(results)
    # every committed deposit is reflected, aborted ones are not
    assert final == pytest.approx(100.0 + committed)
    assert committed >= 1


def test_act_read_only_participants_release_locks(system):
    """Read-only ACTs don't leave locks behind."""

    async def main():
        for _ in range(3):
            await system.submit(TxnRequest.act("account", 5, "balance"))
        # a writer can still get through afterwards
        return await system.submit(TxnRequest.act("account", 5, "deposit", 1.0))

    assert system.run(main()) == 101.0


def test_act_2pc_logs_prepare_and_commit(system):
    async def main():
        await system.submit(TxnRequest.act("account", 1, "transfer", (5.0, 2)))

    system.run(main())
    kinds = [r.kind for r in system.loggers.all_records()]
    assert "CoordPrepareRecord" in kinds
    assert "ActPrepareRecord" in kinds
    assert "CoordCommitRecord" in kinds
    assert "ActCommitRecord" in kinds


def test_act_abort_writes_no_commit_records(system):
    """Presumed abort (§4.3.3): aborted ACTs leave no commit records."""

    async def main():
        with pytest.raises(TransactionAbortedError):
            await system.submit(TxnRequest.act("account", 1, "transfer", (1000.0, 2)))

    system.run(main())
    kinds = [r.kind for r in system.loggers.all_records()]
    assert "CoordCommitRecord" not in kinds
    assert "ActCommitRecord" not in kinds


def test_noop_actor_not_in_commit_protocol(system):
    """Actors that never touch state stay out of 2PC (§5.2.3)."""
    from repro import FuncCall
    from tests.conftest import AccountActor

    async def relay(self, ctx, to_key):
        # touch nothing locally; forward to another account
        target = self.ref("account", to_key).id
        return await self.call_actor(ctx, target, FuncCall("deposit", 10.0))

    AccountActor.relay = relay
    try:
        async def main():
            result = await system.submit(TxnRequest.act("account", 1, "relay", 2))
            return result

        assert system.run(main()) == 110.0
        prepares = [
            r for r in system.loggers.all_records()
            if r.kind == "ActPrepareRecord"
        ]
        prepared_actors = {r.actor.key for r in prepares}
        assert prepared_actors == {2}, "only the real participant prepares"
    finally:
        del AccountActor.relay


def test_pure_noop_act_commits_without_logging(system):
    async def main():
        return await system.submit(TxnRequest.act("account", 1, "noop"))

    assert system.run(main()) == "ok"
    assert system.loggers.records_persisted() == 0


def test_act_tids_are_unique_and_fresh(system):
    seen = []
    from tests.conftest import AccountActor

    async def record_tid(self, ctx, _input=None):
        seen.append(ctx.tid)
        return ctx.tid

    AccountActor.record_tid = record_tid
    try:
        async def main():
            await gather(
                *[
                    system.submit(TxnRequest.act("account", i % 5, "record_tid"))
                    for i in range(40)
                ]
            )

        system.run(main())
        assert len(seen) == 40
        assert len(set(seen)) == 40
    finally:
        del AccountActor.record_tid


def test_act_sequential_throughput_no_contention(system):
    """Back-to-back ACTs on distinct actors commit without aborts."""

    async def main():
        for i in range(20):
            await system.submit(TxnRequest.act("account", i, "deposit", 2.0))
        return [
            await system.submit(TxnRequest.act("account", i, "balance"))
            for i in range(20)
        ]

    assert system.run(main()) == [102.0] * 20

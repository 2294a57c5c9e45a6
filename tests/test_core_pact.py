"""End-to-end tests for PACT execution (§4.2)."""

import pytest

from repro import AbortReason, TransactionAbortedError
from repro.api import PACT, TxnRequest
from repro.sim import gather

from tests.conftest import build_system


def test_single_actor_pact_commits(system):
    async def main():
        return await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 50.0, access={1: 1}
        ))

    assert system.run(main()) == 150.0


def test_multi_actor_pact_transfers_money(system):
    async def main():
        balance = await system.submit(TxnRequest.pact(
            "account", 1, "transfer", (30.0, 2), access={1: 1, 2: 1}
        ))
        b1 = await system.submit(TxnRequest.pact(
            "account", 1, "balance", access={1: "r"}
        ))
        b2 = await system.submit(TxnRequest.pact(
            "account", 2, "balance", access={2: "r"}
        ))
        return balance, b1, b2

    balance, b1, b2 = system.run(main())
    assert balance == 70.0
    assert (b1, b2) == (70.0, 130.0)


def test_multi_transfer_parallel_deposits(system):
    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "multi_transfer", (10.0, [2, 3, 4]),
            access={1: 1, 2: 1, 3: 1, 4: 1},
        ))
        balances = await gather(
            *[
                system.submit(TxnRequest.pact("account", k, "balance", access={k: 1}))
                for k in (1, 2, 3, 4)
            ]
        )
        return balances

    assert system.run(main()) == [70.0, 110.0, 110.0, 110.0]


def test_concurrent_pacts_all_commit_no_aborts(system):
    """PACTs never abort due to conflicts (§3.1), even under contention."""

    async def main():
        results = await gather(
            *[
                system.submit(TxnRequest.pact(
                    "account", 1, "deposit", 1.0, access={1: 1}
                ))
                for _ in range(50)
            ]
        )
        final = await system.submit(TxnRequest.pact(
            "account", 1, "balance", access={1: "r"}
        ))
        return results, final

    results, final = system.run(main())
    assert len(results) == 50
    assert final == 150.0
    assert system.registry.batches_aborted == 0


def test_concurrent_transfers_conserve_money(system):
    """Serializability: total balance is invariant under transfers."""
    accounts = list(range(8))

    async def main():
        txns = []
        for i in accounts:
            to = (i + 3) % len(accounts)
            txns.append(
                system.submit(TxnRequest.pact(
                    "account", i, "transfer", (5.0, to), access={i: 1, to: 1}
                ))
            )
        await gather(*txns)
        balances = []
        for i in accounts:
            balances.append(
                await system.submit(TxnRequest.pact(
                    "account", i, "balance", access={i: 1}
                ))
            )
        return balances

    balances = system.run(main())
    assert sum(balances) == pytest.approx(100.0 * len(accounts))


def test_pact_user_abort_rolls_back_whole_batch(system):
    """A PACT that throws aborts and leaves no partial effects (§3.2.3)."""

    async def main():
        with pytest.raises(TransactionAbortedError) as excinfo:
            await system.submit(TxnRequest.pact(
                "account", 1, "transfer", (1000.0, 2), access={1: 1, 2: 1}
            ))
        assert excinfo.value.reason in (
            AbortReason.USER_ABORT,
            AbortReason.CASCADING,
        )
        b1 = await system.submit(TxnRequest.pact(
            "account", 1, "balance", access={1: "r"}
        ))
        b2 = await system.submit(TxnRequest.pact(
            "account", 2, "balance", access={2: "r"}
        ))
        return b1, b2

    assert system.run(main()) == (100.0, 100.0)
    assert system.controller.cascades == 1


def test_pact_batches_execute_in_bid_order(system):
    """Committed effects respect the global tid order within an actor."""

    async def main():
        # sequential submissions => deterministic order of effects
        await system.submit(TxnRequest.pact(
            "account", 7, "deposit", 1.0, access={7: 1}
        ))
        await system.submit(TxnRequest.pact(
            "account", 7, "withdraw", 50.0, access={7: 1}
        ))
        return await system.submit(TxnRequest.pact(
            "account", 7, "balance", access={7: "r"}
        ))

    assert system.run(main()) == 51.0


def test_pact_batching_groups_transactions():
    """Concurrent PACTs land in few batches (amortization, §4.2.2)."""
    system = build_system()

    async def main():
        await gather(
            *[
                system.submit(TxnRequest.pact(
                    "account", i % 4, "deposit", 1.0, access={i % 4: 1}
                ))
                for i in range(40)
            ]
        )

    system.run(main())
    committed = system.registry.batches_committed
    assert committed < 40, "batching should group transactions"


def test_no_batching_ablation_one_batch_per_pact():
    system = build_system(batching_enabled=False)

    async def main():
        await gather(
            *[
                system.submit(TxnRequest.pact(
                    "account", 1, "deposit", 1.0, access={1: 1}
                ))
                for _ in range(10)
            ]
        )

    system.run(main())
    assert system.registry.batches_committed == 10


def test_pact_requires_first_actor_in_access_info(system):
    async def main():
        with pytest.raises(Exception, match="must include the first actor"):
            await system.submit(TxnRequest.pact(  # snapper: noqa
                "account", 1, "deposit", 1.0, access={2: 1}
            ))

    system.run(main())


def test_pact_without_access_info_rejected(system):
    with pytest.raises(ValueError, match="pre-declares its access set"):
        system.submit(TxnRequest("account", 1, "deposit", 1.0, txn=PACT))


def test_declared_multiple_accesses_same_actor(system):
    """A PACT may access the same actor several times (§3.1)."""

    class _:  # marker for readability only
        pass

    async def main():
        # deposit twice to account 2 through two call_actor invocations
        return await system.submit(TxnRequest.pact(
            "account", 1, "double_deposit", 2, access={1: 1, 2: 2}
        ))

    # add the method dynamically on the class for this test
    from repro import FuncCall
    from tests.conftest import AccountActor

    async def double_deposit(self, ctx, to_key):
        await self.get_state(ctx)
        target = self.ref("account", to_key).id
        await self.call_actor(ctx, target, FuncCall("deposit", 5.0))
        await self.call_actor(ctx, target, FuncCall("deposit", 7.0))
        return "done"

    AccountActor.double_deposit = double_deposit
    try:
        assert system.run(main()) == "done"
        assert (
            system.run(
                system.submit(TxnRequest.pact("account", 2, "balance", access={2: "r"}))
            )
            == 112.0
        )
    finally:
        del AccountActor.double_deposit


def test_logging_writes_batch_records(system):
    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "transfer", (10.0, 2), access={1: 1, 2: 1}
        ))

    system.run(main())
    kinds = [r.kind for r in system.loggers.all_records()]
    assert "BatchInfoRecord" in kinds
    assert "BatchCompleteRecord" in kinds
    assert "BatchCommitRecord" in kinds


def test_cc_only_mode_writes_no_logs():
    system = build_system(logging_enabled=False)

    async def main():
        return await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 5.0, access={1: 1}
        ))

    assert system.run(main()) == 105.0
    assert system.loggers.records_persisted() == 0

"""Tests for the classic SmallBank operations across engines."""

import pytest

from repro.actors.runtime import SiloConfig
from repro.api import TxnRequest
from repro.baselines.nontransactional import NTSystem
from repro.core.system import SnapperSystem
from repro.errors import TransactionAbortedError
from repro.workloads.smallbank import (
    ACCOUNT_KIND,
    INITIAL_CHECKING,
    INITIAL_SAVINGS,
    NTAccountActor,
    SnapperAccountActor,
)


def snapper_system(seed=0):
    system = SnapperSystem(seed=seed)
    system.register_actor(ACCOUNT_KIND, SnapperAccountActor)
    system.start()
    return system


def test_balance_sums_checking_and_savings():
    system = snapper_system()

    async def main():
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == INITIAL_CHECKING + INITIAL_SAVINGS


def test_deposit_checking_and_transact_saving():
    system = snapper_system()

    async def main():
        checking = await system.submit(TxnRequest.act(
            "account", 1, "deposit_checking", 250.0
        ))
        savings = await system.submit(TxnRequest.act(
            "account", 1, "transact_saving", -100.0
        ))
        total = await system.submit(TxnRequest.act("account", 1, "balance"))
        return checking, savings, total

    checking, savings, total = system.run(main())
    assert checking == INITIAL_CHECKING + 250.0
    assert savings == INITIAL_SAVINGS - 100.0
    assert total == checking + savings


def test_transact_saving_rejects_overdraft():
    system = snapper_system()

    async def main():
        with pytest.raises(TransactionAbortedError):
            await system.submit(TxnRequest.act(
                "account", 1, "transact_saving", -(INITIAL_SAVINGS + 1)
            ))
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == INITIAL_CHECKING + INITIAL_SAVINGS


def test_write_check_applies_penalty_when_overdrawn():
    system = snapper_system()

    async def main():
        big = INITIAL_CHECKING + INITIAL_SAVINGS + 5.0
        checking = await system.submit(TxnRequest.act("account", 1, "write_check", big))
        return checking

    checking = system.run(main())
    # amount + 1.0 penalty deducted from checking
    assert checking == pytest.approx(
        INITIAL_CHECKING - (INITIAL_CHECKING + INITIAL_SAVINGS + 5.0) - 1.0
    )


def test_write_check_no_penalty_when_funded():
    system = snapper_system()

    async def main():
        return await system.submit(TxnRequest.act("account", 1, "write_check", 100.0))

    assert system.run(main()) == INITIAL_CHECKING - 100.0


def test_amalgamate_moves_all_funds():
    system = snapper_system()

    async def main():
        moved = await system.submit(TxnRequest.pact(
            "account", 1, "amalgamate", 2, access={1: 1, 2: 1}
        ))
        b1 = await system.submit(TxnRequest.act("account", 1, "balance"))
        b2 = await system.submit(TxnRequest.act("account", 2, "balance"))
        return moved, b1, b2

    moved, b1, b2 = system.run(main())
    assert moved == INITIAL_CHECKING + INITIAL_SAVINGS
    assert b1 == 0.0
    # account 2 now holds its own initial total plus everything moved
    assert b2 == 2 * (INITIAL_CHECKING + INITIAL_SAVINGS)


def test_amalgamate_conserves_total_money():
    system = snapper_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "amalgamate", 2, access={1: 1, 2: 1}
        ))
        b1 = await system.submit(TxnRequest.act("account", 1, "balance"))
        b2 = await system.submit(TxnRequest.act("account", 2, "balance"))
        return b1 + b2

    total = system.run(main())
    assert total == pytest.approx(2 * (INITIAL_CHECKING + INITIAL_SAVINGS))


def test_multi_transfer_noop_variant_single_actor():
    system = snapper_system()

    async def main():
        return await system.submit(TxnRequest.act(
            "account", 1, "multi_transfer_noop", (1.0, [], [2, 3], False)
        ))

    assert system.run(main()) == "ok"


def test_same_ops_under_nt():
    system = NTSystem(silo=SiloConfig(seed=0), seed=0)
    system.register_actor(ACCOUNT_KIND, NTAccountActor)

    async def main():
        await system.submit(TxnRequest.act("account", 1, "deposit_checking", 10.0))
        await system.submit(TxnRequest.act("account", 1, "transact_saving", 5.0))
        return await system.submit(TxnRequest.act("account", 1, "balance"))

    assert system.run(main()) == INITIAL_CHECKING + INITIAL_SAVINGS + 15.0

"""Direct tests for the cascading-abort controller (§4.2.4)."""

import pytest

from repro import sim
from repro.api import TxnRequest
from repro.sim import gather, spawn

from tests.conftest import AccountActor, build_system


def test_cascade_aborts_all_uncommitted_batches():
    """An abort in one batch takes down every uncommitted batch in the
    system (the paper's coarse rule), while committed work survives."""
    system = build_system(seed=61)
    outcomes = {}

    async def main():
        # one committed transaction first
        await system.submit(TxnRequest.pact(
            "account", 0, "deposit", 5.0, access={0: 1}
        ))

        # a wave of transactions, one of which user-aborts
        async def good(i):
            try:
                await system.submit(TxnRequest.pact(
                    "account", i, "deposit", 1.0, access={i: 1}
                ))
                outcomes[i] = "committed"
            except Exception as exc:
                outcomes[i] = type(exc).__name__

        async def bad():
            try:
                await system.submit(TxnRequest.pact(
                    "account", 1, "withdraw", 10_000.0, access={1: 1}
                ))
                outcomes["bad"] = "committed"
            except Exception as exc:
                outcomes["bad"] = type(exc).__name__

        await gather(*[spawn(good(i)) for i in range(2, 6)], spawn(bad()))
        await sim.sleep(0.05)
        balances = {
            key: await system.submit(TxnRequest.act("account", key, "balance"))
            for key in range(6)
        }
        return balances

    balances = system.run(main())
    assert outcomes["bad"] == "TransactionAbortedError"
    assert balances[0] == 105.0, "previously committed work survives"
    assert balances[1] == 100.0, "the aborting txn leaves no effects"
    assert system.controller.cascades >= 1
    # transactions in the same doomed window either committed (if their
    # batch beat the cascade) or rolled back consistently
    for key in range(2, 6):
        if outcomes.get(key) == "committed":
            assert balances[key] == 101.0
        else:
            assert balances[key] == 100.0


def test_system_resumes_after_cascade():
    system = build_system(seed=62)

    async def main():
        with pytest.raises(Exception):
            await system.submit(TxnRequest.pact(
                "account", 1, "withdraw", 10_000.0, access={1: 1}
            ))
        # emission resumes: new PACTs commit normally
        results = []
        for i in range(3):
            results.append(await system.submit(TxnRequest.pact(
                "account", i, "deposit", 2.0, access={i: 1}
            )))
        return results

    assert system.run(main()) == [102.0, 102.0, 102.0]
    assert not system.controller.emission_paused


def test_concurrent_failures_trigger_single_cascade():
    """Multiple failing PACTs in one window collapse into one cascade."""
    system = build_system(seed=63)

    async def bad(i):
        try:
            await system.submit(TxnRequest.pact(
                "account", i, "withdraw", 10_000.0, access={i: 1}
            ))
        except Exception:
            pass

    async def main():
        await gather(*[spawn(bad(i)) for i in range(4)])
        await sim.sleep(0.1)

    system.run(main())
    # every failure report during an active cascade is suppressed; each
    # of the (at most 4) post-resume batches may trigger its own
    assert 1 <= system.controller.cascades <= 4
    # and the system remains functional afterwards
    assert system.run(
        system.submit(TxnRequest.pact("account", 9, "deposit", 1.0, access={9: 1}))
    ) == 101.0


def test_generation_dooms_concurrent_acts():
    """An ACT that overlaps a cascade aborts rather than committing on
    possibly-rolled-back state."""
    from repro import TransactionAbortedError

    system = build_system(seed=64)

    async def slow_act(self, ctx, _input=None):
        state = await self.get_state(ctx)
        await sim.sleep(0.02)  # a cascade happens in this window
        return state

    AccountActor.slow_act = slow_act
    try:
        async def main():
            act = system.submit(TxnRequest.act("account", 9, "slow_act"))
            await sim.sleep(0.005)
            with pytest.raises(TransactionAbortedError):
                await system.submit(TxnRequest.pact(
                    "account", 1, "withdraw", 10_000.0, access={1: 1}
                ))
            try:
                await act
                return "committed"
            except TransactionAbortedError as exc:
                return exc.reason

        outcome = system.run(main())
        assert outcome in ("cascading", "committed")
        # if it committed, the cascade must have finished before it began
        if outcome == "committed":
            assert system.controller.cascades == 1
    finally:
        del AccountActor.slow_act

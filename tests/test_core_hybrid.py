"""Tests for hybrid PACT+ACT execution (§4.4)."""

import pytest

from repro import AbortReason, TransactionAbortedError
from repro.api import TxnRequest
from repro.sim import gather, spawn

from tests.conftest import build_system


def test_mixed_workload_conserves_money():
    system = build_system(seed=5)
    accounts = list(range(8))

    async def one(i, use_pact):
        to = (i + 3) % len(accounts)
        try:
            if use_pact:
                await system.submit(TxnRequest.pact(
                    "account", i, "transfer", (5.0, to), access={i: 1, to: 1}
                ))
            else:
                await system.submit(TxnRequest.act("account", i, "transfer", (5.0, to)))
            return "committed"
        except TransactionAbortedError as exc:
            return exc.reason

    async def main():
        outcomes = await gather(
            *[
                spawn(one(i, (i + r) % 2 == 0))
                for i in accounts
                for r in range(4)
            ]
        )
        balances = [
            await system.submit(TxnRequest.pact("account", i, "balance", access={i: 1}))
            for i in accounts
        ]
        return outcomes, balances

    outcomes, balances = system.run(main())
    assert sum(balances) == pytest.approx(100.0 * len(accounts))
    assert outcomes.count("committed") >= len(accounts)
    # PACTs never abort due to conflicts: any abort must be an ACT reason
    for reason in outcomes:
        assert reason in (
            "committed",
            AbortReason.ACT_CONFLICT,
            AbortReason.HYBRID_DEADLOCK,
            AbortReason.INCOMPLETE_AFTER_SET,
            AbortReason.SERIALIZABILITY,
            AbortReason.CASCADING,
        )
    assert system.controller.cascades == 0


def test_act_between_batches_sees_consistent_state():
    """An ACT reading two actors sees a prefix-consistent snapshot."""
    system = build_system(seed=9)

    async def read_both():
        from repro import FuncCall
        from tests.conftest import AccountActor

        async def sum_two(self, ctx, other_key):
            mine = await self.get_state(ctx)
            theirs = await self.call_actor(
                ctx, self.ref("account", other_key).id, FuncCall("balance")
            )
            return mine + theirs

        AccountActor.sum_two = sum_two
        try:
            total = None
            # transfers move money between 1 and 2; their sum is invariant
            writers = [
                system.submit(TxnRequest.pact(
                    "account", 1, "transfer", (2.0, 2), access={1: 1, 2: 1}
                ))
                for _ in range(10)
            ]
            for _ in range(5):
                try:
                    total = await system.submit(TxnRequest.act(
                        "account", 1, "sum_two", 2
                    ))
                    assert total == pytest.approx(200.0)
                except TransactionAbortedError:
                    pass
            await gather(*writers)
            return True
        finally:
            del AccountActor.sum_two

    assert system.run(read_both())


def test_pact_waits_for_preceding_act_and_commits():
    """Hybrid rule 2: a batch starts after earlier ACTs finish (§4.4.1)."""
    system = build_system(seed=2)

    async def main():
        act = system.submit(TxnRequest.act("account", 3, "deposit", 10.0))
        pact = system.submit(TxnRequest.pact(
            "account", 3, "deposit", 1.0, access={3: 1}
        ))
        await gather(act, pact)
        return await system.submit(TxnRequest.act("account", 3, "balance"))

    assert system.run(main()) == 111.0


def test_act_commit_waits_for_before_set_batches():
    """§4.4.4: an ACT commits only after the batches it read committed."""
    system = build_system(seed=4)
    commit_order = []

    async def main():
        pact = system.submit(TxnRequest.pact(
            "account", 6, "deposit", 5.0, access={6: 1}
        ))
        # let the batch be scheduled on the actor before the ACT arrives
        # (must exceed the token cycle time so the batch has formed)
        from repro import sim

        await sim.sleep(0.006)
        act = system.submit(TxnRequest.act("account", 6, "deposit", 7.0))

        async def tag(future, name):
            await future
            commit_order.append(name)

        await gather(spawn(tag(pact, "pact")), spawn(tag(act, "act")))
        return await system.submit(TxnRequest.act("account", 6, "balance"))

    final = system.run(main())
    assert final == 112.0
    assert commit_order == ["pact", "act"]


def test_serializability_check_stats_exposed():
    """Heavy hybrid contention on few actors yields only legal outcomes
    and keeps the money invariant."""
    system = build_system(seed=13)
    accounts = [0, 1, 2]
    outcomes = []

    async def one(i, use_pact):
        frm = i % 3
        to = (i + 1) % 3
        if frm == to:
            return
        try:
            if use_pact:
                await system.submit(TxnRequest.pact(
                    "account", frm, "transfer", (1.0, to), access={frm: 1, to: 1}
                ))
            else:
                await system.submit(TxnRequest.act(
                    "account", frm, "transfer", (1.0, to)
                ))
            outcomes.append("committed")
        except TransactionAbortedError as exc:
            outcomes.append(exc.reason)

    async def main():
        await gather(
            *[spawn(one(i, i % 3 != 0)) for i in range(60)]
        )
        return [
            await system.submit(TxnRequest.pact("account", a, "balance", access={a: 1}))
            for a in accounts
        ]

    balances = system.run(main())
    assert sum(balances) == pytest.approx(300.0)
    assert outcomes.count("committed") >= 3
    illegal = [
        o for o in outcomes
        if o not in ("committed",) + tuple(AbortReason.ALL)
    ]
    assert not illegal


def test_incomplete_after_set_optimization_allows_tail_acts():
    """An ACT at the tail of all schedules (no batch after it) passes the
    check because its BeforeSet batches have committed (§4.4.3)."""
    system = build_system(seed=1)

    async def main():
        # commit a PACT first so the actor has a committed batch history
        await system.submit(TxnRequest.pact(
            "account", 9, "deposit", 1.0, access={9: 1}
        ))
        # now a lone ACT with nothing scheduled after it
        return await system.submit(TxnRequest.act("account", 9, "deposit", 2.0))

    assert system.run(main()) == 103.0


def test_incomplete_after_set_without_optimization_aborts():
    """Ablation: disabling the §4.4.3 optimization dooms ACTs whose
    AfterSet is incomplete (i.e. with no batch scheduled after them)."""
    system = build_system(seed=1, incomplete_after_set_optimization=False)

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 9, "deposit", 1.0, access={9: 1}
        ))
        with pytest.raises(TransactionAbortedError) as excinfo:
            # the deposit ACT conflicts with actor 9's batch history: its
            # BeforeSet is nonempty, its AfterSet incomplete -> abort
            await system.submit(TxnRequest.act("account", 9, "deposit", 2.0))
        return excinfo.value.reason

    reason = system.run(main())
    assert reason == AbortReason.INCOMPLETE_AFTER_SET


def test_hybrid_deadlock_resolved_by_aborting_act():
    """PACT-ACT deadlocks (Fig. 9) break by timing out the ACT (§4.4.2);
    the PACT itself must still commit."""
    system = build_system(seed=7, deadlock_timeout=0.01)
    from repro import FuncCall
    from tests.conftest import AccountActor
    from repro import sim

    async def slow_two_hop(self, ctx, other_key):
        await self.get_state(ctx)
        await sim.sleep(0.005)  # widen the race window
        target = self.ref("account", other_key).id
        return await self.call_actor(ctx, target, FuncCall("deposit", 1.0))

    AccountActor.slow_two_hop = slow_two_hop
    try:
        async def main():
            jobs = []
            for i in range(12):
                # ACTs and PACTs hitting the same two actors in both orders
                jobs.append(spawn(guarded(system.submit(TxnRequest.act(
                    "account", i % 2, "slow_two_hop", (i + 1) % 2
                )))))
                a, b = i % 2, (i + 1) % 2
                jobs.append(spawn(guarded(system.submit(TxnRequest.pact(
                    "account", a, "slow_two_hop", b, access={a: 1, b: 1}
                )))))
            results = await gather(*jobs)
            return results

        async def guarded(coro):
            try:
                await coro
                return "committed"
            except TransactionAbortedError as exc:
                return exc.reason

        results = system.run(main())
        pact_count = results[1::2].count("committed")
        assert pact_count == 12, "every PACT must commit"
    finally:
        del AccountActor.slow_two_hop

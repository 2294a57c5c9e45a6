"""Targeted tests for the ACT abort machinery: attempted-target
notification, tombstones, and lock hygiene after failures."""

import pytest

from repro import FuncCall, TransactionAbortedError, sim
from repro.api import TxnRequest
from repro.sim import gather, spawn

from tests.conftest import AccountActor, build_system


def lock_of(system, key):
    activation = system.runtime._activations.get(
        system.actor("account", key).id
    )
    return None if activation is None else activation.actor._lock


def test_no_locks_leak_after_partial_multi_transfer_failure():
    """A multi_transfer that dies mid-way (insufficient balance happens
    after a parallel deposit was already sent) must release every lock
    it touched, including on actors whose call was still in flight."""
    system = build_system(seed=21)

    async def failing_fanout(self, ctx, to_keys):
        # send deposits first, then fail before awaiting them
        for key in to_keys:
            spawn(self.call_actor(
                ctx, self.ref("account", key).id, FuncCall("deposit", 1.0)
            ))
        await sim.sleep(0)  # let the sends leave
        raise RuntimeError("late failure")

    AccountActor.failing_fanout = failing_fanout
    try:
        async def main():
            with pytest.raises(TransactionAbortedError):
                await system.submit(TxnRequest.act(
                    "account", 0, "failing_fanout", [1, 2, 3]
                ))
            # every touched actor must be lock-free afterwards
            await sim.sleep(0.05)
            for key in (0, 1, 2, 3):
                lock = lock_of(system, key)
                if lock is not None:
                    assert not lock.holders, f"lock leak on account {key}"
                    assert lock.queue_length == 0
            # and all actors remain usable
            return await system.submit(TxnRequest.act("account", 1, "deposit", 5.0))

        assert system.run(main()) in (105.0, 106.0)
    finally:
        del AccountActor.failing_fanout


def test_tombstone_rejects_late_invocation():
    """An invocation arriving after its transaction aborted is rejected
    and does not acquire locks."""
    system = build_system(seed=22)

    async def slow_then_fail(self, ctx, to_key):
        # late deposit races with the abort below
        spawn(self.call_actor(
            ctx, self.ref("account", to_key).id, FuncCall("deposit", 7.0)
        ))
        raise RuntimeError("immediate failure")

    AccountActor.slow_then_fail = slow_then_fail
    try:
        async def main():
            with pytest.raises(TransactionAbortedError):
                await system.submit(TxnRequest.act("account", 0, "slow_then_fail", 9))
            await sim.sleep(0.05)  # let the raced deposit resolve
            balance = await system.submit(TxnRequest.act("account", 9, "balance"))
            lock = lock_of(system, 9)
            return balance, (lock.holders if lock else set())

        balance, holders = system.run(main())
        assert balance == 100.0, "the aborted deposit must not stick"
        assert not holders
    finally:
        del AccountActor.slow_then_fail


def test_sustained_contention_keeps_committing():
    """Under sustained same-actor contention, aborted transactions must
    not poison actors: newer transactions still commit (wait-die
    liveness)."""
    system = build_system(seed=23)
    outcomes = []

    async def one(i):
        try:
            await system.submit(TxnRequest.act(
                "account", i % 3, "transfer", (1.0, (i + 1) % 3)
            ))
            outcomes.append("committed")
        except TransactionAbortedError as exc:
            outcomes.append(exc.reason)

    async def main():
        for wave in range(6):
            await gather(*[spawn(one(i + wave)) for i in range(6)])
        balances = [
            await system.submit(TxnRequest.act("account", k, "balance"))
            for k in range(3)
        ]
        return balances

    balances = system.run(main())
    assert sum(balances) == pytest.approx(300.0)
    # later waves must still commit: no permanent poisoning
    assert outcomes[-6:].count("committed") >= 1
    assert outcomes.count("committed") >= 6


def test_abort_reports_reach_attempted_targets():
    """The abort fan-out covers attempted-but-unconfirmed participants."""
    system = build_system(seed=24)
    seen_aborts = []

    from repro.core.transactional_actor import TransactionalActor

    original = TransactionalActor.act_abort

    async def spying_abort(self, tid):
        seen_aborts.append((self.id.key, tid))
        return await original(self, tid)

    TransactionalActor.act_abort = spying_abort

    async def failing_fanout(self, ctx, to_keys):
        for key in to_keys:
            spawn(self.call_actor(
                ctx, self.ref("account", key).id, FuncCall("deposit", 1.0)
            ))
        # wait until the calls have actually been sent (attempted set
        # populated), but fail before their replies can return
        run = self._acts[ctx.tid]
        while len(run.info.attempted) < len(to_keys):
            await sim.sleep(0.00005)
        raise RuntimeError("fail before any reply")

    AccountActor.failing_fanout = failing_fanout
    try:
        async def main():
            with pytest.raises(TransactionAbortedError):
                await system.submit(TxnRequest.act(
                    "account", 0, "failing_fanout", [5, 6]
                ))
            await sim.sleep(0.05)

        system.run(main())
        aborted_keys = {key for key, _ in seen_aborts}
        assert {5, 6} <= aborted_keys
    finally:
        TransactionalActor.act_abort = original
        del AccountActor.failing_fanout


def test_wait_die_liveness_oldest_commits():
    """Wait-die kills younger requesters arriving while the lock is
    held, but the system keeps committing as the lock frees up: with
    arrivals spread out, a hot actor still makes steady progress."""
    system = build_system(seed=25)

    async def one(i):
        # spread arrivals so not everything lands while the lock is held
        await sim.sleep(0.002 * i)
        try:
            await system.submit(TxnRequest.act("account", 0, "deposit", 1.0))
            return 1
        except TransactionAbortedError:
            return 0

    async def main():
        results = await gather(*[spawn(one(i)) for i in range(40)])
        final = await system.submit(TxnRequest.act("account", 0, "balance"))
        return sum(results), final

    committed, final = system.run(main())
    assert committed >= 10, "hot-actor deposits must keep committing"
    # committed deposits are exactly reflected in the balance
    assert final == pytest.approx(100.0 + committed)

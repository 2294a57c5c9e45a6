"""Property-based tests (hypothesis) for core invariants."""

from hypothesis import given, settings, strategies as st

import pytest

from repro import sim
from repro.api import TxnRequest
from repro.core.context import AccessMode, SubBatch, TxnExeInfo
from repro.core.engine.concurrency import WaitDie
from repro.core.locks import ActorLock
from repro.core.registry import CommitRegistry
from repro.core.schedule import LocalSchedule
from repro.errors import DeadlockError
from repro.sim import SimLoop


# ---------------------------------------------------------------------------
# schedule: any arrival order of chained batches executes in bid order
# ---------------------------------------------------------------------------
@given(st.permutations(range(6)))
@settings(max_examples=50, deadline=None)
def test_schedule_executes_chain_in_bid_order_any_arrival(arrival_order):
    bids = [10 * (i + 1) for i in range(6)]  # 10, 20, ..., 60
    prev = {bids[0]: None}
    for earlier, later in zip(bids, bids[1:]):
        prev[later] = earlier
    completed = []
    schedule = LocalSchedule()
    schedule.on_subbatch_complete = lambda e: completed.append(e.bid)
    for index in arrival_order:
        bid = bids[index]
        schedule.register_batch(
            SubBatch(bid=bid, prev_bid=prev[bid], coordinator_key=0,
                     plans=((bid, 1),))
        )
    for bid in bids:
        schedule.await_pact_turn(bid, bid)
    # drive turns to completion; they must release strictly in bid order
    for expected in bids:
        assert schedule.batch_entry(expected).status == "executing"
        schedule.pact_access_done(expected, expected)
    assert completed == bids


# ---------------------------------------------------------------------------
# schedule: intra-batch turn order is ascending tid regardless of plan order
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=8, unique=True))
@settings(max_examples=50, deadline=None)
def test_schedule_intra_batch_ascending_tids(tids):
    schedule = LocalSchedule()
    plans = tuple(sorted((t, 1) for t in tids))
    schedule.register_batch(
        SubBatch(bid=min(tids), prev_bid=None, coordinator_key=0, plans=plans)
    )
    executed = []
    for tid in sorted(tids):
        fut = schedule.await_pact_turn(min(tids), tid)
        assert fut.done()
        executed.append(tid)
        schedule.pact_access_done(min(tids), tid)
    assert executed == sorted(tids)


# ---------------------------------------------------------------------------
# registry: any interleaving of commit attempts resolves in bid order
# ---------------------------------------------------------------------------
@given(st.permutations(range(5)))
@settings(max_examples=30, deadline=None)
def test_registry_commit_waiters_resolve_in_bid_order(start_order):
    loop = SimLoop()
    registry = CommitRegistry()
    bids = [i * 3 + 1 for i in range(5)]
    for bid in bids:
        registry.register_batch(bid, 0, ())
    committed = []

    async def committer(bid, delay):
        await sim.sleep(delay)
        await registry.wait_turn_to_commit(bid)
        registry.mark_committed(bid)
        committed.append(bid)

    async def main():
        await sim.gather(
            *[
                sim.spawn(committer(bids[i], 0.01 * rank))
                for rank, i in enumerate(start_order)
            ]
        )

    loop.run_until_complete(main())
    assert committed == bids


# ---------------------------------------------------------------------------
# locks: wait-die never deadlocks, all holders eventually release
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.booleans()),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=40, deadline=None)
def test_lock_wait_die_always_terminates(requests):
    loop = SimLoop()
    lock = ActorLock(WaitDie())
    outcomes = []

    async def txn(tid, write):
        mode = AccessMode.READ_WRITE if write else AccessMode.READ
        try:
            await lock.acquire(tid, mode)
        except DeadlockError:
            outcomes.append(("died", tid))
            return
        await sim.sleep(0.01)
        lock.release(tid)
        outcomes.append(("done", tid))

    async def main():
        # distinct tids per request: tid*100 + index keeps age ordering
        await sim.gather(
            *[
                sim.spawn(txn(tid * 100 + i, write))
                for i, (tid, write) in enumerate(requests)
            ]
        )

    loop.run_until_complete(main())  # would raise on deadlock
    assert len(outcomes) == len(requests)
    assert lock.holders == set()


# ---------------------------------------------------------------------------
# TxnExeInfo: merge is commutative and associative on the fields we use
# ---------------------------------------------------------------------------
def _info(participants, max_bs, min_as, incomplete):
    info = TxnExeInfo()
    info.participants = set(participants)
    info.max_bs = max_bs
    info.min_as = min_as
    info.as_incomplete_on = set(incomplete)
    return info


info_strategy = st.builds(
    _info,
    st.sets(st.integers(0, 5), max_size=4),
    st.one_of(st.none(), st.integers(0, 100)),
    st.one_of(st.none(), st.integers(0, 100)),
    st.sets(st.integers(0, 5), max_size=3),
)


def _merged(a, b):
    result = a.snapshot()
    result.merge(b.snapshot())
    return (
        frozenset(result.participants),
        result.max_bs,
        result.min_as,
        frozenset(result.as_incomplete_on),
    )


@given(info_strategy, info_strategy)
@settings(max_examples=100, deadline=None)
def test_exe_info_merge_commutative(a, b):
    assert _merged(a, b) == _merged(b, a)


@given(info_strategy, info_strategy, info_strategy)
@settings(max_examples=100, deadline=None)
def test_exe_info_merge_associative(a, b, c):
    ab = a.snapshot()
    ab.merge(b.snapshot())
    left = _merged(ab, c)
    bc = b.snapshot()
    bc.merge(c.snapshot())
    right = _merged(a, bc)
    assert left == right


# ---------------------------------------------------------------------------
# end-to-end: random mixed workloads conserve money and stay serializable
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),  # from account
            st.integers(0, 4),  # to account
            st.booleans(),      # PACT?
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_random_hybrid_workload_conserves_money(transfers, seed):
    from repro import TransactionAbortedError
    from repro.sim import gather, spawn
    from tests.conftest import build_system

    system = build_system(seed=seed)

    async def one(frm, to, use_pact):
        if frm == to:
            return "skipped"
        try:
            if use_pact:
                await system.submit(TxnRequest.pact(
                    "account", frm, "transfer", (1.0, to), access={frm: 1, to: 1}
                ))
            else:
                await system.submit(TxnRequest.act(
                    "account", frm, "transfer", (1.0, to)
                ))
            return "committed"
        except TransactionAbortedError as exc:
            return exc.reason

    async def main():
        outcomes = await gather(
            *[spawn(one(f, t, p)) for f, t, p in transfers]
        )
        balances = [
            await system.submit(TxnRequest.act("account", k, "balance"))
            for k in range(5)
        ]
        return outcomes, balances

    outcomes, balances = system.run(main())
    assert sum(balances) == pytest.approx(500.0)
    pact_outcomes = [
        o for (f, t, p), o in zip(transfers, outcomes) if p and f != t
    ]
    # PACTs abort only through user logic or cascades, never conflicts
    for outcome in pact_outcomes:
        assert outcome in ("committed", "user_abort", "cascading")

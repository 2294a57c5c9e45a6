"""Tests for coordinator behavior: token ring, batching, tid ranges."""

from repro import sim
from repro.api import TxnRequest
from repro.core.system import COORDINATOR_KIND
from repro.sim import gather

from tests.conftest import build_system


def coordinators_of(system):
    out = []
    for aid, activation in system.runtime._activations.items():
        if aid.kind == COORDINATOR_KIND:
            out.append(activation.actor)
    return out


def test_token_keeps_circulating_among_coordinators():
    system = build_system()

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "deposit", 1.0, access={1: 1}
        ))
        await sim.sleep(0.01)

    system.run(main())
    # all coordinators in the ring were activated by the token
    assert len(coordinators_of(system)) == system.config.num_coordinators


def test_tids_strictly_increase_within_batches():
    system = build_system()
    seen = []

    from tests.conftest import AccountActor

    async def record(self, ctx, _input=None):
        seen.append((ctx.bid, ctx.tid))

    AccountActor.record = record
    try:
        async def main():
            await gather(*[
                system.submit(TxnRequest.pact(
                    "account", i % 3, "record", access={i % 3: 1}
                ))
                for i in range(20)
            ])

        system.run(main())
    finally:
        del AccountActor.record
    assert len(seen) == 20
    assert len({tid for _, tid in seen}) == 20
    # within a batch, tids are contiguous from the bid upward
    by_bid = {}
    for bid, tid in seen:
        by_bid.setdefault(bid, []).append(tid)
    for bid, tids in by_bid.items():
        assert min(tids) >= bid
        assert max(tids) - bid < 20


def test_pact_and_act_tids_never_collide():
    system = build_system()
    pact_tids, act_tids = [], []

    from tests.conftest import AccountActor

    async def record(self, ctx, _input=None):
        (pact_tids if ctx.is_pact else act_tids).append(ctx.tid)

    AccountActor.record = record
    try:
        async def main():
            jobs = []
            for i in range(12):
                jobs.append(system.submit(TxnRequest.pact(
                    "account", i % 3, "record", access={i % 3: 1}
                )))
                jobs.append(system.submit(TxnRequest.act("account", i % 3, "record")))
            await gather(*jobs)

        system.run(main())
    finally:
        del AccountActor.record
    assert len(pact_tids) == 12 and len(act_tids) == 12
    assert not set(pact_tids) & set(act_tids)


def test_bids_monotonic_across_coordinators():
    system = build_system()
    bids = []

    from tests.conftest import AccountActor

    async def record(self, ctx, _input=None):
        bids.append(ctx.bid)

    AccountActor.record = record
    try:
        async def main():
            for wave in range(5):
                await gather(*[
                    system.submit(TxnRequest.pact(
                        "account", (wave * 7 + i) % 9, "record",
                        access={(wave * 7 + i) % 9: 1},
                    ))
                    for i in range(4)
                ])

        system.run(main())
    finally:
        del AccountActor.record
    committed_order = sorted(set(bids))
    assert committed_order == sorted(committed_order)
    assert system.registry.last_committed_bid == max(bids)


def test_coordinator_stats_accumulate():
    system = build_system()

    async def main():
        for i in range(6):
            await system.submit(TxnRequest.pact(
                "account", i, "deposit", 1.0, access={i: 1}
            ))
            await system.submit(TxnRequest.act("account", i, "deposit", 1.0))

    system.run(main())
    coordinators = coordinators_of(system)
    assert sum(c.pacts_scheduled for c in coordinators) == 6
    assert sum(c.acts_registered for c in coordinators) == 6
    assert sum(c.batches_emitted for c in coordinators) >= 1


def test_single_coordinator_ring_works():
    system = build_system(num_coordinators=1)

    async def main():
        await gather(*[
            system.submit(TxnRequest.pact("account", i, "deposit", 1.0, access={i: 1}))
            for i in range(8)
        ])
        return await system.submit(TxnRequest.act("account", 0, "balance"))

    assert system.run(main()) == 101.0


def test_act_tid_pool_refills_under_demand():
    """More ACTs than one pre-allocated range still get unique tids."""
    system = build_system(act_tid_range=4)
    tids = []

    from tests.conftest import AccountActor

    async def record(self, ctx, _input=None):
        tids.append(ctx.tid)

    AccountActor.record = record
    try:
        async def main():
            await gather(*[
                system.submit(TxnRequest.act("account", i % 5, "record"))
                for i in range(40)
            ])

        system.run(main())
    finally:
        del AccountActor.record
    assert len(tids) == 40
    assert len(set(tids)) == 40

"""Tests for the multi-server deployment extension (paper §7).

The paper defers multi-server Snapper to future work but sketches the
key concerns: distributed vs single-server transactions, and the impact
of coordinator placement on token circulation latency.  This extension
implements the substrate: actors hashed (or pinned) across silos, each
with its own cores, and cross-silo messages paying a higher latency.
"""

import pytest

from repro import SnapperConfig, SnapperSystem, sim
from repro.actors import Actor, ActorRuntime, SiloConfig
from repro.actors.ref import ActorId
from repro.api import TxnRequest
from repro.sim import SimLoop, gather, spawn

from tests.conftest import AccountActor


def multisilo_system(num_silos=2, placement="spread", seed=0, **cfg):
    config = SnapperConfig(**cfg)
    config.coordinator_placement = placement
    system = SnapperSystem(
        config=config,
        silo=SiloConfig(num_silos=num_silos, seed=seed),
        seed=seed,
    )
    system.register_actor("account", AccountActor)
    system.start()
    return system


# ---------------------------------------------------------------------------
# runtime-level placement mechanics
# ---------------------------------------------------------------------------
class Echo(Actor):
    reentrant = True

    async def ping(self, _input=None):
        return self.runtime.silo_of(self.id)


def test_actors_hash_across_silos():
    loop = SimLoop()
    runtime = ActorRuntime(loop, SiloConfig(num_silos=4))
    runtime.register("echo", Echo)
    silos = {runtime.silo_of(ActorId("echo", key)) for key in range(50)}
    assert silos == {0, 1, 2, 3}


def test_pinning_overrides_hash():
    loop = SimLoop()
    runtime = ActorRuntime(loop, SiloConfig(num_silos=4))
    runtime.register("echo", Echo)
    actor_id = ActorId("echo", "x")
    runtime.pin_actor(actor_id, 2)
    assert runtime.silo_of(actor_id) == 2


def test_single_silo_everything_on_zero():
    loop = SimLoop()
    runtime = ActorRuntime(loop, SiloConfig(num_silos=1))
    assert runtime.silo_of(ActorId("echo", 1)) == 0
    assert len(runtime.cpu_pools) == 1


def test_cross_silo_messages_cost_more():
    """A call chain between silos takes longer than one within a silo."""
    loop = SimLoop(seed=5)
    runtime = ActorRuntime(
        loop,
        SiloConfig(num_silos=2, net_latency=50e-6, net_jitter=0.0,
                   cross_silo_latency=500e-6, cross_silo_jitter=0.0),
    )

    class Chain(Actor):
        reentrant = True

        async def hop(self, to_key):
            if to_key is None:
                return "end"
            return await self.ref("chain", to_key).call("hop", None)

    runtime.register("chain", Chain)
    a, b = ActorId("chain", "a"), ActorId("chain", "b"),
    c = ActorId("chain", "c")
    runtime.pin_actor(a, 0)
    runtime.pin_actor(b, 0)
    runtime.pin_actor(c, 1)

    async def timed(first, second):
        start = loop.now
        await runtime.ref("chain", first).call("hop", second)
        return loop.now - start

    async def main():
        local = await timed("a", "b")     # both silo 0
        remote = await timed("a", "c")    # crosses silos
        return local, remote

    local, remote = loop.run_until_complete(main())
    assert remote > local + 400e-6
    assert runtime.cross_silo_messages > 0


def test_per_silo_cpu_pools_are_independent():
    loop = SimLoop()
    runtime = ActorRuntime(loop, SiloConfig(num_silos=2, cores=1,
                                            cpu_per_dispatch=0.0))

    class Burner(Actor):
        reentrant = True

        async def burn(self):
            await self.charge(1.0)

    runtime.register("burner", Burner)
    hot = ActorId("burner", "hot1"), ActorId("burner", "hot2")
    runtime.pin_actor(hot[0], 0)
    runtime.pin_actor(hot[1], 1)

    async def main():
        await gather(
            runtime.ref("burner", "hot1").call("burn"),
            runtime.ref("burner", "hot2").call("burn"),
        )

    loop.run_until_complete(main())
    # 2 seconds of work over two 1-core silos runs in parallel
    assert loop.now < 1.5
    assert runtime.cpu_pools[0].busy_time == pytest.approx(1.0)
    assert runtime.cpu_pools[1].busy_time == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Snapper on multiple silos
# ---------------------------------------------------------------------------
def test_multisilo_pact_and_act_commit():
    system = multisilo_system(num_silos=2)

    async def main():
        await system.submit(TxnRequest.pact(
            "account", 1, "transfer", (30.0, 2), access={1: 1, 2: 1}
        ))
        await system.submit(TxnRequest.act("account", 3, "deposit", 5.0))
        return [
            await system.submit(TxnRequest.act("account", k, "balance"))
            for k in (1, 2, 3)
        ]

    assert system.run(main()) == [70.0, 130.0, 105.0]


def test_multisilo_money_conserved_under_concurrency():
    system = multisilo_system(num_silos=4, seed=3)
    from repro import TransactionAbortedError

    async def one(i):
        frm, to = i % 10, (i + 3) % 10
        if frm == to:
            return
        try:
            await system.submit(TxnRequest.pact(
                "account", frm, "transfer", (2.0, to), access={frm: 1, to: 1}
            ))
        except TransactionAbortedError:
            pass

    async def main():
        await gather(*[spawn(one(i)) for i in range(30)])
        await sim.sleep(0.05)
        return [
            await system.submit(TxnRequest.act("account", k, "balance"))
            for k in range(10)
        ]

    balances = system.run(main())
    assert sum(balances) == pytest.approx(1000.0)


def test_coordinator_placement_policies():
    spread = multisilo_system(num_silos=4, placement="spread")
    pinned = multisilo_system(num_silos=4, placement=2)
    from repro.core.system import COORDINATOR_KIND

    spread_silos = {
        spread.runtime.silo_of(ActorId(COORDINATOR_KIND, k))
        for k in range(spread.config.num_coordinators)
    }
    pinned_silos = {
        pinned.runtime.silo_of(ActorId(COORDINATOR_KIND, k))
        for k in range(pinned.config.num_coordinators)
    }
    assert len(spread_silos) > 1
    assert pinned_silos == {2}


def test_pinned_ring_shortens_token_cycle():
    """§7: coordinator placement influences token circulation latency —
    a ring pinned to one silo circulates without cross-silo hops."""

    def run_one(placement):
        system = multisilo_system(
            num_silos=4, placement=placement, seed=2,
            token_cycle_time=0.0,  # expose pure messaging latency
        )

        async def main():
            # exercise the ring with a few PACTs, then measure messages
            for i in range(5):
                await system.submit(TxnRequest.pact(
                    "account", i, "deposit", 1.0, access={i: 1}
                ))
            return system.runtime.cross_silo_messages

        return system.run(main())

    spread_crossings = run_one("spread")
    pinned_crossings = run_one(0)
    assert pinned_crossings < spread_crossings


def test_multisilo_recovery_works():
    system = multisilo_system(num_silos=2)

    async def phase1():
        await system.submit(TxnRequest.pact(
            "account", 1, "transfer", (25.0, 2), access={1: 1, 2: 1}
        ))

    system.run(phase1())
    system.crash_silo()

    async def phase2():
        await system.recover()
        return [
            await system.submit(TxnRequest.act("account", k, "balance")) for k in (1, 2)
        ]

    assert system.run(phase2()) == [75.0, 125.0]

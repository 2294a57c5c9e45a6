"""ChaosInjector and ChaosLogStorage: fault mechanics and determinism."""

import pytest

from repro.api import TxnRequest
from repro.chaos.harness import ChaosHarness
from repro.chaos.injector import ChaosInjector, ChaosLogStorage
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.chaos.workload import CHAOS_ACCOUNT_KIND, ChaosAccountActor
from repro.core.config import SnapperConfig
from repro.core.system import SnapperSystem
from repro.persistence.records import BatchCommitRecord
from repro.persistence.wal import InMemoryLogStorage


# ---------------------------------------------------------------------------
# ChaosLogStorage
# ---------------------------------------------------------------------------

def _record(bid, lsn):
    record = BatchCommitRecord(bid=bid)
    object.__setattr__(record, "lsn", lsn)
    return record


def test_armed_fail_rejects_one_append():
    storage = ChaosLogStorage(InMemoryLogStorage())
    storage.arm("fail")
    with pytest.raises(IOError):
        storage.append(_record(1, 0))
    assert storage.appends_failed == 1
    assert list(storage.scan()) == []  # nothing reached the device
    storage.append(_record(2, 1))  # one-shot: the next append succeeds
    assert [r.bid for r in storage.scan()] == [2]


def test_armed_torn_append_stores_but_hides_the_record():
    """A torn write: the caller sees a failure, and although bytes hit
    the device, recovery must never see the record."""
    storage = ChaosLogStorage(InMemoryLogStorage())
    storage.arm("torn")
    with pytest.raises(IOError):
        storage.append(_record(1, 0))
    assert storage.appends_torn == 1
    assert len(storage.inner) == 1  # stored...
    assert list(storage.scan()) == []  # ...but never scanned
    assert len(storage) == 0


def test_exclude_lsn_drops_records_retroactively():
    storage = ChaosLogStorage(InMemoryLogStorage())
    storage.append(_record(1, 10))
    storage.append(_record(2, 11))
    storage.exclude_lsn(10)
    assert [r.bid for r in storage.scan()] == [2]


def test_unknown_arm_mode_rejected():
    with pytest.raises(ValueError):
        ChaosLogStorage(InMemoryLogStorage()).arm("explode")


# ---------------------------------------------------------------------------
# ChaosInjector fault dispatch
# ---------------------------------------------------------------------------

def _system(plan):
    system = SnapperSystem(config=SnapperConfig(), seed=plan.seed)
    system.register_actor(CHAOS_ACCOUNT_KIND, ChaosAccountActor)
    return system


def test_message_faults_arm_the_interceptor_once():
    plan = FaultPlan(seed=0, duration=1.0, faults=[])
    system = _system(plan)
    injector = ChaosInjector(system, plan)
    injector.attach()
    injector._fire(FaultSpec(0.0, FaultKind.MSG_DROP, target="act_prepare",
                             arg=0.01))
    target = system.actor(CHAOS_ACCOUNT_KIND, 0).id
    assert injector._intercept(target, "act_prepare", 0.0) == ("drop", 0.01)
    # one-shot: consumed by the first matching message
    assert injector._intercept(target, "act_prepare", 0.0) is None
    # non-matching methods pass through untouched
    injector._fire(FaultSpec(0.0, FaultKind.MSG_DELAY,
                             target="batch_committed", arg=0.02))
    assert injector._intercept(target, "act_prepare", 0.0) is None
    assert injector._intercept(target, "batch_committed", 0.0) == \
        ("delay", 0.02)


def test_actor_crash_fault_kills_and_system_recovers():
    plan = FaultPlan(seed=0, duration=0.5, faults=[
        FaultSpec(at=0.1, kind=FaultKind.ACTOR_CRASH, target=0),
    ])
    system = _system(plan)
    injector = ChaosInjector(system, plan)
    system.start()
    injector.attach()

    async def main():
        # commit something so the crash has durable state to recover
        await system.submit(TxnRequest.pact(
            CHAOS_ACCOUNT_KIND, 0, "chaos_transfer", ("m0", 2.0, (1,)),
            access={0: 1, 1: 1},
        ))
        from repro.sim.loop import sleep
        await sleep(0.2)  # let the scheduled crash fire
        # the next access transparently reactivates from the WAL
        return await system.submit(TxnRequest.act(CHAOS_ACCOUNT_KIND, 0, "probe"))

    balance = system.run(main())
    assert injector.stats["actor_crashes"] == 1
    assert balance == 998.0  # 1000 - 2.0, recovered across the crash


def test_wal_fault_targets_armed_storage():
    plan = FaultPlan(seed=0, duration=1.0, faults=[])
    system = _system(plan)
    injector = ChaosInjector(system, plan)
    injector.attach()
    injector._fire(FaultSpec(0.0, FaultKind.WAL_FAIL, target=1))
    armed = [s for s in injector.storages if s._armed == "fail"]
    assert len(armed) == 1
    injector.detach()  # detach disarms without removing the wrappers
    assert all(s._armed is None for s in injector.storages)
    assert all(isinstance(logger.wal.storage, ChaosLogStorage)
               for logger in system.loggers.loggers)


# ---------------------------------------------------------------------------
# end-to-end determinism: the acceptance property
# ---------------------------------------------------------------------------

def test_same_plan_same_run_bit_for_bit():
    """Two consecutive runs of the same seeded plan must produce the
    identical report — fault schedule, outcome tallies, message
    statistics, and oracle verdicts."""
    plan = FaultPlan.generate(2, duration=0.4)
    first = ChaosHarness(plan).run()
    second = ChaosHarness(plan).run()
    assert first.to_dict() == second.to_dict()
    assert first.ok, first.render()

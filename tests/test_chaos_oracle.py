"""Chaos oracle: classification, tamper detection, and the 2PC windows.

The crash-window tests pin a silo crash to an exact protocol point with
a ``crash_on_record`` fault — right after the 2PC coordinator's prepare
record (the presumed-abort window, §4.3.4) and right after its commit
record (the decision is durable) — then prove through the oracle that
recovery lands on the correct side of the decision in each case.
"""

import pytest

from repro.actors.ref import ActorId
from repro.actors.runtime import SiloConfig
from repro.api import TxnRequest
from repro.chaos.injector import ChaosInjector
from repro.chaos.oracle import classify, recovered_states, verify
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.chaos.workload import (
    CHAOS_ACCOUNT_KIND,
    INITIAL_BALANCE,
    ChaosAccountActor,
    ChaosOutcome,
)
from repro.core.config import SnapperConfig
from repro.core.system import SnapperSystem
from repro.errors import AbortReason
from repro.persistence.records import (
    ActCommitRecord,
    CoordCommitRecord,
    CoordPrepareRecord,
)


# ---------------------------------------------------------------------------
# outcome classification (the Jepsen convention)
# ---------------------------------------------------------------------------

def _outcome(mode, status, reason=None):
    return ChaosOutcome(marker="m", mode=mode, source=0, destinations=(1,),
                        amount=1.0, status=status, reason=reason)


def test_classify_committed():
    assert classify(_outcome("act", "committed")) == "committed"


def test_classify_definite_aborts():
    assert classify(_outcome(
        "pact", "aborted:user_abort", AbortReason.USER_ABORT,
    )) == "definite_abort"
    assert classify(_outcome(
        "act", "aborted:act_conflict", AbortReason.ACT_CONFLICT,
    )) == "definite_abort"
    assert classify(_outcome(
        "act", "aborted:cascading", AbortReason.CASCADING,
    )) == "definite_abort"


def test_classify_in_doubt():
    # a cascaded PACT can be resurrected by the recovery commit rule
    assert classify(_outcome(
        "pact", "aborted:cascading", AbortReason.CASCADING,
    )) == "in_doubt"
    assert classify(_outcome("act", "failure:ActorCrashedError")) == "in_doubt"
    assert classify(_outcome("pact", "unknown")) == "in_doubt"


# ---------------------------------------------------------------------------
# tamper detection: the oracle must actually catch violations
# ---------------------------------------------------------------------------

def _states(**markers_by_key):
    """Two-actor deployment states with the given applied markers."""
    states = {}
    for key in (0, 1):
        applied = dict(markers_by_key.get(f"a{key}", {}))
        states[key] = {
            "balance": INITIAL_BALANCE + sum(applied.values()),
            "applied": applied,
        }
    return states


def test_oracle_passes_a_consistent_deployment():
    outcome = _outcome("act", "committed")
    states = _states(a0={"m": -1.0}, a1={"m": 1.0})
    assert verify(states, [outcome]).ok


def test_oracle_catches_lost_committed_write():
    outcome = _outcome("act", "committed")
    states = _states(a0={"m": -1.0})  # missing on actor 1
    report = verify(states, [outcome])
    assert not report.ok
    assert not report.check("C1 committed-durable").ok
    assert not report.check("C3 atomicity").ok


def test_oracle_catches_surviving_definite_abort():
    outcome = _outcome("act", "aborted:act_conflict", AbortReason.ACT_CONFLICT)
    states = _states(a0={"m": -1.0}, a1={"m": 1.0})
    report = verify(states, [outcome])
    assert not report.check("C2 aborts-not-durable").ok


def test_oracle_catches_conservation_drift():
    states = _states()
    states[0]["balance"] += 3.0  # money out of thin air
    report = verify(states, [])
    assert not report.check("C4 conservation").ok
    assert not report.check("C5 internal-consistency").ok


def test_oracle_allows_in_doubt_either_way_but_not_partially():
    outcome = _outcome("pact", "failure:ActorCrashedError")
    assert verify(_states(a0={"m": -1.0}, a1={"m": 1.0}), [outcome]).ok
    assert verify(_states(), [outcome]).ok
    partial = verify(_states(a0={"m": -1.0}), [outcome])
    assert not partial.check("C3 atomicity").ok


# ---------------------------------------------------------------------------
# crash windows around the 2PC decision point
# ---------------------------------------------------------------------------

def _run_act_with_crash_on(record_kind):
    """Run one cross-actor ACT; crash the silo (taking the 2PC
    coordinator — the first actor — with it) right after ``record_kind``
    becomes durable; let the injector recover; return the system and the
    client-observed outcome."""
    plan = FaultPlan(seed=1, duration=1.0, faults=[
        FaultSpec(at=0.0, kind=FaultKind.CRASH_ON_RECORD,
                  target=record_kind, arg=1),
    ])
    system = SnapperSystem(
        config=SnapperConfig(num_coordinators=2, num_loggers=2),
        silo=SiloConfig(seed=plan.seed),
        seed=plan.seed,
    )
    system.register_actor(CHAOS_ACCOUNT_KIND, ChaosAccountActor)
    injector = ChaosInjector(system, plan)
    system.start()
    injector.attach()

    outcome = ChaosOutcome(marker="m-2pc", mode="act", source=0,
                           destinations=(1,), amount=5.0)

    async def client():
        try:
            await system.submit(TxnRequest.act(
                CHAOS_ACCOUNT_KIND, 0, "chaos_transfer", ("m-2pc", 5.0, (1,))
            ))
        except Exception as exc:  # noqa: BLE001 - crash observed
            outcome.status = f"failure:{type(exc).__name__}"
        else:
            outcome.status = "committed"

    system.loop.create_task(client(), label="client")
    system.loop.run(until=1.0)
    injector.detach()
    assert injector.stats["record_triggers"] == 1, (
        f"the crash never hit its {record_kind} window"
    )
    assert injector.stats["silo_crashes"] == 1
    assert injector.stats["recoveries"] == 1
    return system, outcome


def test_coordinator_crash_mid_2pc_is_presumed_abort():
    """Kill the silo right after the 2PC coordinator logged its prepare
    record but before any commit record (§4.3.4): the in-doubt ACT must
    resolve to presumed abort — durable nowhere — and the oracle must
    agree."""
    system, outcome = _run_act_with_crash_on("CoordPrepareRecord")
    records = list(system.loggers.all_records())
    tids = [r.tid for r in records if isinstance(r, CoordPrepareRecord)]
    assert tids, "the ACT never reached its prepare record"
    # the crash landed inside the in-doubt window: prepared, not decided
    assert not any(isinstance(r, (CoordCommitRecord, ActCommitRecord))
                   for r in records)
    assert outcome.status.startswith("failure")
    assert classify(outcome) == "in_doubt"

    states = {
        aid.key: state
        for aid, state in recovered_states(
            system.loggers,
            [ActorId(CHAOS_ACCOUNT_KIND, key) for key in (0, 1)],
        ).items()
    }
    # presumed abort: the marker survived on *no* actor, balances intact
    for key, state in states.items():
        assert "m-2pc" not in state["applied"], f"marker survived on {key}"
        assert state["balance"] == INITIAL_BALANCE
    report = verify(states, [outcome])
    assert report.ok, report.render()


def test_crash_after_commit_record_preserves_the_act():
    """Same window, other side of the decision: the coordinator's commit
    record is durable, so recovery must keep the ACT's effects on every
    participant even though the client only saw the crash."""
    system, outcome = _run_act_with_crash_on("CoordCommitRecord")
    states = {
        aid.key: state
        for aid, state in recovered_states(
            system.loggers,
            [ActorId(CHAOS_ACCOUNT_KIND, key) for key in (0, 1)],
        ).items()
    }
    assert states[0]["applied"].get("m-2pc") == pytest.approx(-5.0)
    assert states[1]["applied"].get("m-2pc") == pytest.approx(5.0)
    # the decision is durable: audit it as committed and the oracle
    # must hold C1 (committed-durable) on every touched actor
    outcome.status = "committed"
    report = verify(states, [outcome])
    assert report.ok, report.render()

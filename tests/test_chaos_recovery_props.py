"""Recovery properties: crash-at-every-LSN, delta chains, in-doubt tails.

The crash-at-every-LSN test is the core property: whatever prefix of the
WAL a crash leaves behind, the production ``recover_state_ex`` must
reconstruct a committed-consistent deployment — atomic per transaction,
money conserved, balances derivable from the applied markers.
"""

from types import SimpleNamespace

import pytest

from repro.actors.ref import ActorId
from repro.api import TxnRequest
from repro.chaos.workload import (
    CHAOS_ACCOUNT_KIND,
    INITIAL_BALANCE,
    ChaosAccountActor,
)
from repro.core.config import SnapperConfig
from repro.core.engine.recovery import (
    DELTA_MARKER,
    RecoveryWarning,
    in_doubt_tail,
    recover_state_ex,
    resolve_in_doubt_tail,
)
from repro.core.system import SnapperSystem
from repro.persistence.records import (
    ActCommitRecord,
    ActPrepareRecord,
    BatchCommitRecord,
    BatchCompleteRecord,
)
from repro.sim.loop import SimLoop, sleep, spawn


class StubLog:
    """A loggers stand-in serving an explicit record list."""

    def __init__(self, records, stamp=False):
        self.enabled = True
        self._records = list(records)
        if stamp:
            for index, record in enumerate(self._records):
                object.__setattr__(record, "lsn", index)

    def add(self, record):
        object.__setattr__(record, "lsn", len(self._records))
        self._records.append(record)

    def all_records(self):
        return list(self._records)


def _raise_on_delta(_state, _delta):
    raise AssertionError("no deltas expected")


# ---------------------------------------------------------------------------
# crash at every LSN
# ---------------------------------------------------------------------------

def test_recover_state_is_consistent_at_every_wal_prefix():
    """Cut the WAL of a real mixed run at every LSN; each prefix must
    recover to an atomic, money-conserving deployment."""
    num_actors = 4
    system = SnapperSystem(config=SnapperConfig(), seed=0)
    system.register_actor(CHAOS_ACCOUNT_KIND, ChaosAccountActor)
    system.start()

    async def drive():
        for index in range(6):
            source = index % num_actors
            dest = (index + 1) % num_actors
            marker = f"m{index}"
            if index % 2 == 0:
                await system.submit(TxnRequest.pact(
                    CHAOS_ACCOUNT_KIND, source, "chaos_transfer",
                    (marker, 2.0, (dest,)), access={source: 1, dest: 1},
                ))
            else:
                await system.submit(TxnRequest.act(
                    CHAOS_ACCOUNT_KIND, source, "chaos_transfer", (marker, 2.0, (dest,))
                ))

    system.run(drive())
    system.shutdown()
    records = sorted(system.loggers.all_records(), key=lambda r: r.lsn)
    assert len(records) > 10
    actor_ids = [ActorId(CHAOS_ACCOUNT_KIND, k) for k in range(num_actors)]

    for cut in range(len(records) + 1):
        prefix = StubLog(records[:cut])
        commit_bids = {r.bid for r in records[:cut]
                       if isinstance(r, BatchCommitRecord)}
        commit_tids = {r.tid for r in records[:cut]
                       if isinstance(r, ActCommitRecord)}
        states = {
            aid: recover_state_ex(
                aid, prefix,
                {"balance": INITIAL_BALANCE, "applied": {}},
                _raise_on_delta,
            ).state
            for aid in actor_ids
        }
        # conservation at every cut
        total = sum(s["balance"] for s in states.values())
        assert total == pytest.approx(INITIAL_BALANCE * num_actors), (
            f"cut={cut}: money not conserved"
        )
        # each balance is derivable from its applied markers
        for aid, state in states.items():
            derived = INITIAL_BALANCE + sum(state["applied"].values())
            assert state["balance"] == pytest.approx(derived), (
                f"cut={cut}: {aid} balance not explained by markers"
            )
        # atomicity: a marker is on both touched actors or on neither,
        # and only markers whose commit decision is inside the prefix
        # may appear at all
        markers_seen = {}
        for aid, state in states.items():
            for marker in state["applied"]:
                markers_seen.setdefault(marker, set()).add(aid)
        for marker, where in markers_seen.items():
            assert len(where) == 2, (
                f"cut={cut}: {marker} recovered on {where} only"
            )
        if not commit_bids and not commit_tids:
            assert not markers_seen, f"cut={cut}: markers without commits"


# ---------------------------------------------------------------------------
# covered-record selection and delta chains
# ---------------------------------------------------------------------------

def _aid(key=1):
    return ActorId("acct", key)


def test_uncovered_records_are_ignored():
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=1, actor=aid, state=10.0),
        ActPrepareRecord(tid=2, actor=aid, state=20.0),
    ], stamp=True)
    assert recover_state_ex(aid, log, 0.0, _raise_on_delta).state == 0.0


def test_latest_covered_record_wins_by_lsn():
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=1, actor=aid, state=10.0),
        BatchCommitRecord(bid=1),
        ActPrepareRecord(tid=2, actor=aid, state=20.0),
        ActCommitRecord(tid=2, actor=aid),
    ], stamp=True)
    assert recover_state_ex(aid, log, 0.0, _raise_on_delta).state == 20.0


def test_delta_records_replay_onto_covered_base():
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=1, actor=aid, state=[1]),
        BatchCommitRecord(bid=1),
        BatchCompleteRecord(bid=2, actor=aid, state=(DELTA_MARKER, [2, 3])),
        BatchCommitRecord(bid=2),
    ], stamp=True)

    def apply_delta(state, delta):
        state.extend(delta)
        return state

    assert recover_state_ex(aid, log, [], apply_delta).state == [1, 2, 3]


def test_covered_delta_without_base_warns():
    """A covered delta chain whose full base snapshot exists but is not
    covered: recovery proceeds best-effort and warns."""
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=1, actor=aid, state=[1, 2]),  # uncovered
        BatchCompleteRecord(bid=2, actor=aid, state=(DELTA_MARKER, [3])),
        BatchCommitRecord(bid=2),
    ], stamp=True)

    def apply_delta(state, delta):
        state.extend(delta)
        return state

    with pytest.warns(RecoveryWarning):
        recovered = recover_state_ex(aid, log, [], apply_delta).state
    assert recovered == [3]  # replayed from the initial state


def test_delta_chain_from_birth_does_not_warn():
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=1, actor=aid, state=(DELTA_MARKER, [1])),
        BatchCommitRecord(bid=1),
    ], stamp=True)

    def apply_delta(state, delta):
        state.extend(delta)
        return state

    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RecoveryWarning)
        assert recover_state_ex(aid, log, [], apply_delta).state == [1]


# ---------------------------------------------------------------------------
# the in-doubt tail (2PC participant recovery)
# ---------------------------------------------------------------------------

def test_in_doubt_tail_lists_uncovered_records_past_recovery_point():
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=1, actor=aid, state=10.0),  # old, uncovered
        BatchCompleteRecord(bid=2, actor=aid, state=20.0),
        BatchCommitRecord(bid=2),                           # recovery point
        ActPrepareRecord(tid=3, actor=aid, state=30.0),     # in doubt
        BatchCompleteRecord(bid=4, actor=aid, state=40.0),  # in doubt
    ], stamp=True)
    tail = in_doubt_tail(aid, log)
    assert [type(r).__name__ for r in tail] == [
        "ActPrepareRecord", "BatchCompleteRecord",
    ]
    assert [r.lsn for r in tail] == sorted(r.lsn for r in tail)


def test_in_doubt_tail_empty_when_everything_is_covered():
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=1, actor=aid, state=10.0),
        BatchCommitRecord(bid=1),
    ], stamp=True)
    assert in_doubt_tail(aid, log) == []


class RegistryStub:
    def __init__(self, known=True, outcome="commit"):
        self.known = known
        self.outcome = outcome
        self.waited = []

    def batch(self, bid):
        if not self.known:
            return None
        # a faithful double: the resolver re-checks ``status`` after the
        # wait to tell explicit commit entries from watermark resolution.
        status = "committed" if self.outcome == "commit" else "aborted"
        return SimpleNamespace(status=status)

    async def wait_until_committed(self, bid, timeout=None):
        self.waited.append(bid)
        if self.outcome != "commit":
            raise TimeoutError(f"batch {bid} did not commit")


def _resolve(log, registry, state=0.0, timeout=0.05):
    loop = SimLoop(seed=0)
    return loop.run_until_complete(
        resolve_in_doubt_tail(
            _aid(), log, registry, state, _raise_on_delta, timeout=timeout,
            tail=in_doubt_tail(_aid(), log),
        )
    )


def test_tail_batch_adopted_once_registry_commits():
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=5, actor=aid, state=55.0),
    ], stamp=True)
    registry = RegistryStub(outcome="commit")
    assert _resolve(log, registry) == 55.0
    assert registry.waited == [5]


def test_tail_batch_abort_stops_the_walk():
    """An aborted batch ends resolution: later tail records embed its
    speculative effects and must not be adopted either."""
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=5, actor=aid, state=55.0),
        BatchCompleteRecord(bid=6, actor=aid, state=66.0),
    ], stamp=True)
    registry = RegistryStub(outcome="abort")
    assert _resolve(log, registry) == 0.0
    assert registry.waited == [5]  # never asked about 6


def test_tail_batch_unknown_to_registry_is_presumed_aborted():
    """Registry amnesia: a batch from before a silo recovery whose
    commit record is absent was resolved-aborted by the recovery commit
    rule — the tail walk must not consult the watermark."""
    aid = _aid()
    log = StubLog([
        BatchCompleteRecord(bid=5, actor=aid, state=55.0),
    ], stamp=True)
    registry = RegistryStub(known=False)
    assert _resolve(log, registry) == 0.0
    assert registry.waited == []


def test_tail_act_presumed_abort_after_grace_period():
    aid = _aid()
    log = StubLog([
        ActPrepareRecord(tid=9, actor=aid, state=99.0),
    ], stamp=True)
    assert _resolve(log, RegistryStub()) == 0.0


def test_tail_act_adopted_when_decision_lands_during_grace_period():
    """The coordinator's durable commit record appears while the
    reactivated participant is waiting: the prepared state is adopted."""
    aid = _aid()
    log = StubLog([
        ActPrepareRecord(tid=9, actor=aid, state=99.0),
    ], stamp=True)
    loop = SimLoop(seed=0)

    async def main():
        async def land_decision():
            await sleep(0.01)
            log.add(ActCommitRecord(tid=9, actor=aid))

        spawn(land_decision())
        return await resolve_in_doubt_tail(
            aid, log, RegistryStub(), 0.0, _raise_on_delta, timeout=0.05,
            tail=in_doubt_tail(aid, log),
        )

    assert loop.run_until_complete(main()) == 99.0


def test_tail_act_abort_does_not_stop_the_walk():
    """Unlike batches, an aborted ACT's effects were undone before any
    later record was logged — later decided work is still adopted."""
    aid = _aid()
    log = StubLog([
        ActPrepareRecord(tid=9, actor=aid, state=99.0),   # presumed abort
        ActPrepareRecord(tid=10, actor=aid, state=111.0),
    ], stamp=True)
    loop = SimLoop(seed=0)

    async def main():
        async def land_decision():
            await sleep(0.01)
            log.add(ActCommitRecord(tid=10, actor=aid))

        spawn(land_decision())
        return await resolve_in_doubt_tail(
            aid, log, RegistryStub(), 0.0, _raise_on_delta, timeout=0.05,
            tail=in_doubt_tail(aid, log),
        )

    # tid 9 never decides (presumed abort, skipped); tid 10's decision
    # lands during tid 9's grace period and is adopted.
    assert loop.run_until_complete(main()) == 111.0

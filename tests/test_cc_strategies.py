"""Concurrency-control strategy selection and the ablation it enables.

Covers the pluggable :class:`ConcurrencyControl` layer: name-based
selection through ``SnapperConfig``, the removed ``wait_die`` booleans
(config- and lock-level: both now fail with Python's own errors), and —
the point of the ablation — that swapping the strategy name actually
changes end-to-end abort behavior.
"""

import pytest

from repro import AbortReason, TransactionAbortedError
from repro.baselines.orleans_txn import OrleansActExecutor, OrleansTxnActor
from repro.core.config import SnapperConfig
from repro.core.engine.act import ActExecutionCore, ActExecutor
from repro.core.engine.concurrency import (
    CC_STRATEGIES,
    ConcurrencyControl,
    NoWait,
    TimeoutOnly,
    TwoPhaseLockingELR,
    WaitDie,
    resolve_concurrency_control,
)
from repro.core.locks import ActorLock
from repro.sim import gather, spawn

from tests.conftest import build_system


# -- resolution -------------------------------------------------------------

def test_resolve_by_name_instance_class_and_default():
    assert isinstance(resolve_concurrency_control("wait_die"), WaitDie)
    assert isinstance(resolve_concurrency_control("timeout"), TimeoutOnly)
    assert isinstance(resolve_concurrency_control("no_wait"), NoWait)
    assert isinstance(resolve_concurrency_control(None), WaitDie)
    instance = TimeoutOnly()
    assert resolve_concurrency_control(instance) is instance
    assert isinstance(resolve_concurrency_control(NoWait), NoWait)


def test_resolve_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown concurrency control"):
        resolve_concurrency_control("optimistic")


def test_registry_contains_all_shipped_strategies():
    assert {"wait_die", "timeout", "no_wait", "2pl_elr"} <= set(CC_STRATEGIES)


# -- SnapperConfig selection + removed-option errors --------------------------

def test_config_selects_strategy_by_name():
    assert SnapperConfig().concurrency_control == "wait_die"
    assert (SnapperConfig(concurrency_control="timeout").concurrency_control
            == "timeout")
    with pytest.raises(ValueError, match="unknown concurrency_control"):
        SnapperConfig(concurrency_control="mvcc")


def test_config_wait_die_flag_is_gone():
    with pytest.raises(TypeError, match="wait_die"):
        SnapperConfig(wait_die=False)
    with pytest.raises(AttributeError, match="wait_die"):
        SnapperConfig().wait_die


def test_config_unknown_option_and_positional_args_rejected():
    with pytest.raises(TypeError, match="num_cordinators"):
        SnapperConfig(num_cordinators=2)  # typo'd key fails loudly
    with pytest.raises(TypeError):
        SnapperConfig(2)  # every tunable is keyword-only


def test_config_dict_round_trip():
    config = SnapperConfig(concurrency_control="timeout", num_loggers=2,
                           observability=True)
    data = config.to_dict()
    assert data["concurrency_control"] == "timeout"
    assert data["num_loggers"] == 2
    clone = SnapperConfig.from_dict(data)
    assert clone.to_dict() == data
    with pytest.raises(TypeError, match="wait_die"):
        SnapperConfig.from_dict({**data, "wait_die": True})


def test_actor_lock_boolean_shim():
    """The shim is gone: a lock takes a strategy (default wait-die),
    and a boolean in either position fails loudly."""
    assert isinstance(ActorLock().cc, WaitDie)
    assert isinstance(ActorLock(NoWait()).cc, NoWait)
    with pytest.raises(TypeError):
        ActorLock(wait_die=True)
    with pytest.raises(TypeError):
        ActorLock(False)


# -- the ablation: strategy choice changes abort behavior ---------------------

def _run_contended(strategy):
    """30 concurrent single-actor deposits; return (outcomes, balance)."""
    system = build_system(seed=3, concurrency_control=strategy)

    async def one(i):
        try:
            await system.submit_act("account", 0, "deposit", 1.0)
            return "committed"
        except TransactionAbortedError as exc:
            return exc.reason

    async def main():
        outcomes = await gather(*[spawn(one(i)) for i in range(30)])
        balance = await system.submit_act("account", 0, "balance")
        return outcomes, balance

    return system.run(main())


def test_wait_die_vs_timeout_changes_abort_behavior():
    """The §4.3.2 ablation is real: wait-die kills younger conflicting
    ACTs, while timeout-only lets them queue on the lock and commit."""
    wd_outcomes, wd_balance = _run_contended("wait_die")
    to_outcomes, to_balance = _run_contended("timeout")

    wd_aborts = [o for o in wd_outcomes if o != "committed"]
    assert wd_aborts, "wait-die should abort some contending ACTs"
    assert set(wd_aborts) == {AbortReason.ACT_CONFLICT}
    assert wd_balance == pytest.approx(100.0 + wd_outcomes.count("committed"))

    # no deadlock is possible on a single lock: with timeout-only every
    # deposit queues and commits — no wait-die victims.
    assert to_outcomes.count("committed") == len(to_outcomes)
    assert to_balance == pytest.approx(130.0)
    assert to_outcomes.count("committed") > wd_outcomes.count("committed")


def test_no_wait_aborts_every_conflict():
    outcomes, balance = _run_contended("no_wait")
    aborts = [o for o in outcomes if o != "committed"]
    assert aborts and set(aborts) == {AbortReason.ACT_CONFLICT}
    assert balance == pytest.approx(100.0 + outcomes.count("committed"))


def test_engine_wires_configured_strategy_onto_lock():
    system = build_system(concurrency_control="no_wait")

    async def main():
        await system.submit_act("account", 4, "deposit", 1.0)

    system.run(main())
    activation = system.runtime._activations[system.actor("account", 4).id]
    assert isinstance(activation.actor._lock.cc, NoWait)
    assert isinstance(activation.actor._acts, ActExecutor)
    assert activation.actor._acts.cc is activation.actor._lock.cc


# -- the baseline shares the same interfaces ----------------------------------

def test_orleans_engine_is_built_on_the_shared_core():
    assert issubclass(OrleansActExecutor, ActExecutionCore)
    assert issubclass(TwoPhaseLockingELR, ConcurrencyControl)
    assert TwoPhaseLockingELR.early_lock_release is True
    assert WaitDie.early_lock_release is False


def test_orleans_actor_uses_strategy_lock():
    from repro.baselines.orleans_txn import OrleansTxnConfig, OrleansTxnSystem

    class Counter(OrleansTxnActor):
        def initial_state(self):
            return 0

        async def bump(self, ctx, _input=None):
            state = await self.get_state(ctx)
            self._state = state + 1
            return self._state

    for elr, expected in ((True, TwoPhaseLockingELR), (False, TimeoutOnly)):
        system = OrleansTxnSystem(
            config=OrleansTxnConfig(early_lock_release=elr), seed=5
        )
        system.register_actor("counter", Counter)
        assert system.run(system.submit("counter", 0, "bump")) == 1
        activation = system.runtime._activations[
            system.actor("counter", 0).id
        ]
        assert isinstance(activation.actor._lock.cc, expected)
        assert activation.actor._engine.cc is activation.actor._lock.cc

"""Serializability stress tests.

Each transaction appends its tid to the history list of every actor it
touches.  Conflict serializability implies: for any two committed
transactions that both touched two (or more) common actors, their
relative order must be the same on every common actor.  We check that
pairwise property over mixed PACT/ACT histories under contention.
"""

import itertools

import pytest

from repro import (
    AccessMode,
    SnapperConfig,
    SnapperSystem,
    TransactionAbortedError,
    TransactionalActor,
)
from repro.api import TxnRequest
from repro.sim import gather, spawn


class HistoryActor(TransactionalActor):
    """State is the ordered list of tids that wrote this actor."""

    def initial_state(self):
        return []

    async def mark(self, ctx, _input=None):
        state = await self.get_state(ctx, AccessMode.READ_WRITE)
        state.append(ctx.tid)
        return ctx.tid

    async def mark_many(self, ctx, other_keys):
        from repro import FuncCall

        state = await self.get_state(ctx, AccessMode.READ_WRITE)
        state.append(ctx.tid)
        for key in other_keys:
            await self.call_actor(
                ctx, self.ref("history", key).id, FuncCall("mark")
            )
        return ctx.tid


def build():
    system = SnapperSystem(config=SnapperConfig(), seed=31)
    system.register_actor("history", HistoryActor)
    system.start()
    return system


def committed_histories(system, keys):
    """Final committed history list per actor."""
    out = {}
    for key in keys:
        activation = system.runtime._activations.get(
            system.actor("history", key).id
        )
        out[key] = list(activation.actor._committed_state) if activation else []
    return out


def assert_pairwise_consistent(histories):
    """Any two txns sharing >= 2 actors appear in the same order on all."""
    positions = {}  # tid -> {actor: index}
    for actor, history in histories.items():
        for index, tid in enumerate(history):
            positions.setdefault(tid, {})[actor] = index
    tids = list(positions)
    for a, b in itertools.combinations(tids, 2):
        common = set(positions[a]) & set(positions[b])
        if len(common) < 2:
            continue
        orders = {positions[a][actor] < positions[b][actor]
                  for actor in common}
        assert len(orders) == 1, (
            f"txns {a} and {b} ordered inconsistently across {common}"
        )


def run_mixed(system, num_txns, keys, pact_every):
    outcomes = []

    async def one(i):
        start = keys[i % len(keys)]
        others = [keys[(i + 1) % len(keys)], keys[(i + 2) % len(keys)]]
        use_pact = i % pact_every == 0
        try:
            if use_pact:
                access = {start: 1}
                for key in others:
                    access[key] = access.get(key, 0) + 1
                await system.submit(TxnRequest.pact(
                    "history", start, "mark_many", others, access=access
                ))
            else:
                await system.submit(TxnRequest.act(
                    "history", start, "mark_many", others
                ))
            outcomes.append("committed")
        except TransactionAbortedError as exc:
            outcomes.append(exc.reason)

    async def main():
        from repro import sim

        await gather(*[spawn(one(i)) for i in range(num_txns)])
        # let trailing BatchCommit / act_commit messages drain before the
        # test inspects committed states
        await sim.sleep(0.1)

    system.run(main())
    return outcomes


def test_pact_only_history_is_serializable():
    system = build()
    keys = list(range(4))
    outcomes = run_mixed(system, 24, keys, pact_every=1)
    assert outcomes.count("committed") == 24  # PACTs never abort
    histories = committed_histories(system, keys)
    assert_pairwise_consistent(histories)
    # every committed txn appears exactly 3 times (3 actors each)
    flattened = [tid for h in histories.values() for tid in h]
    for tid in set(flattened):
        assert flattened.count(tid) == 3


def test_act_only_history_is_serializable():
    system = build()
    keys = list(range(4))
    outcomes = run_mixed(system, 24, keys, pact_every=10**9)
    assert "committed" in outcomes
    histories = committed_histories(system, keys)
    assert_pairwise_consistent(histories)


@pytest.mark.parametrize("pact_every", [2, 3])
def test_hybrid_history_is_serializable(pact_every):
    system = build()
    keys = list(range(5))
    outcomes = run_mixed(system, 30, keys, pact_every=pact_every)
    assert outcomes.count("committed") >= 10
    histories = committed_histories(system, keys)
    assert_pairwise_consistent(histories)
    # no aborted transaction's mark may survive in committed state
    committed_count = outcomes.count("committed")
    flattened = [tid for h in histories.values() for tid in h]
    assert len(set(flattened)) == committed_count


def test_committed_marks_equal_committed_txns():
    """Atomicity: a committed txn's marks appear on ALL its actors."""
    system = build()
    keys = list(range(4))
    run_mixed(system, 20, keys, pact_every=2)
    histories = committed_histories(system, keys)
    flattened = [tid for h in histories.values() for tid in h]
    for tid in set(flattened):
        assert flattened.count(tid) == 3, (
            f"txn {tid} committed partially ({flattened.count(tid)}/3 marks)"
        )

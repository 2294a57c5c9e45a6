"""Tests for the client-side retry utility."""

import pytest

from repro import AbortReason, TransactionAbortedError, sim
from repro.api import TxnRequest
from repro.retry import RetriesExhausted, retry_transaction
from repro.sim import SimLoop, gather, spawn

from tests.conftest import build_system


def test_retry_succeeds_after_transient_aborts():
    loop = SimLoop()
    attempts = []

    async def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise TransactionAbortedError("conflict", AbortReason.ACT_CONFLICT)
        return "done"

    async def main():
        return await retry_transaction(flaky, max_attempts=5)

    assert loop.run_until_complete(main()) == "done"
    assert len(attempts) == 3


def test_retry_backs_off_between_attempts():
    loop = SimLoop()

    async def always_fails():
        raise TransactionAbortedError("conflict", AbortReason.ACT_CONFLICT)

    async def main():
        with pytest.raises(RetriesExhausted) as excinfo:
            await retry_transaction(
                always_fails, max_attempts=4, base_backoff=1e-3
            )
        assert excinfo.value.attempts == 4
        assert excinfo.value.reason == AbortReason.ACT_CONFLICT
        return sim.now()

    elapsed = loop.run_until_complete(main())
    assert elapsed > 0, "backoff must consume simulated time"


def test_user_aborts_are_not_retried():
    loop = SimLoop()
    attempts = []

    async def user_abort():
        attempts.append(1)
        raise TransactionAbortedError("bad input", AbortReason.USER_ABORT)

    async def main():
        with pytest.raises(TransactionAbortedError) as excinfo:
            await retry_transaction(user_abort)
        assert excinfo.value.reason == AbortReason.USER_ABORT

    loop.run_until_complete(main())
    assert len(attempts) == 1


def test_retry_requires_positive_attempts():
    loop = SimLoop()

    async def main():
        with pytest.raises(ValueError):
            await retry_transaction(lambda: None, max_attempts=0)

    loop.run_until_complete(main())


def test_retry_drives_hot_actor_to_full_commit_count():
    """With retries, every deposit eventually lands despite wait-die."""
    system = build_system(seed=71)

    async def one(i):
        await sim.sleep(0.0005 * i)
        return await retry_transaction(
            lambda: system.submit(TxnRequest.act("account", 0, "deposit", 1.0)),
            max_attempts=20,
            base_backoff=2e-3,
        )

    async def main():
        await gather(*[spawn(one(i)) for i in range(25)])
        return await system.submit(TxnRequest.act("account", 0, "balance"))

    assert system.run(main()) == 125.0

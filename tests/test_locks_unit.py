"""Unit tests for the wait-die S2PL actor lock (§4.3.2)."""

import pytest

from repro import sim
from repro.core.context import AccessMode
from repro.core.engine.concurrency import TimeoutOnly
from repro.core.locks import ActorLock
from repro.errors import DeadlockError
from repro.sim import SimLoop


def run(coro):
    return SimLoop().run_until_complete(coro)


def test_shared_reads_coexist():
    lock = ActorLock()

    async def main():
        await lock.acquire(1, AccessMode.READ)
        await lock.acquire(2, AccessMode.READ)
        assert lock.holders == {1, 2}

    run(main())


def test_write_excludes_others():
    lock = ActorLock()

    async def main():
        await lock.acquire(5, AccessMode.READ_WRITE)
        blocked = sim.spawn(lock.acquire(1, AccessMode.READ))  # older: waits
        await sim.sleep(1)
        assert not blocked.done()
        lock.release(5)
        await blocked
        assert lock.holders == {1}

    run(main())


def test_wait_die_younger_requester_dies():
    lock = ActorLock()

    async def main():
        await lock.acquire(1, AccessMode.READ_WRITE)  # old txn holds
        with pytest.raises(DeadlockError):
            await lock.acquire(2, AccessMode.READ_WRITE)  # younger dies
        assert lock.wait_die_aborts == 1

    run(main())


def test_wait_die_older_requester_waits():
    lock = ActorLock()

    async def main():
        await lock.acquire(10, AccessMode.READ_WRITE)  # young txn holds
        waiter = sim.spawn(lock.acquire(3, AccessMode.READ_WRITE))
        await sim.sleep(1)
        assert not waiter.done()
        lock.release(10)
        await waiter
        assert lock.holders == {3}

    run(main())


def test_reentrant_acquire_same_mode():
    lock = ActorLock()

    async def main():
        await lock.acquire(1, AccessMode.READ_WRITE)
        await lock.acquire(1, AccessMode.READ_WRITE)  # no self-deadlock
        await lock.acquire(1, AccessMode.READ)  # weaker mode: fine
        assert lock.holders == {1}

    run(main())


def test_upgrade_read_to_write_when_sole_holder():
    lock = ActorLock()

    async def main():
        await lock.acquire(1, AccessMode.READ)
        await lock.acquire(1, AccessMode.READ_WRITE)
        assert lock.held_by(1) == AccessMode.READ_WRITE

    run(main())


def test_timeout_mode_aborts_after_deadline():
    lock = ActorLock(TimeoutOnly())

    async def main():
        await lock.acquire(10, AccessMode.READ_WRITE)
        start = sim.now()
        with pytest.raises(DeadlockError):
            await lock.acquire(20, AccessMode.READ_WRITE, timeout=0.5)
        assert sim.now() - start == pytest.approx(0.5)
        assert lock.timeout_aborts == 1

    run(main())


def test_fifo_grant_order_on_release():
    lock = ActorLock(TimeoutOnly())
    order = []

    async def grab(tid):
        await lock.acquire(tid, AccessMode.READ_WRITE)
        order.append(tid)
        await sim.sleep(0.1)
        lock.release(tid)

    async def main():
        first = sim.spawn(grab(1))
        await sim.sleep(0.01)
        rest = [sim.spawn(grab(t)) for t in (4, 2, 3)]
        await sim.gather(first, *rest)

    run(main())
    assert order == [1, 4, 2, 3]


def test_release_grants_multiple_readers_at_once():
    lock = ActorLock(TimeoutOnly())

    async def main():
        await lock.acquire(1, AccessMode.READ_WRITE)
        r1 = sim.spawn(lock.acquire(2, AccessMode.READ))
        r2 = sim.spawn(lock.acquire(3, AccessMode.READ))
        await sim.sleep(0.01)
        lock.release(1)
        await sim.gather(r1, r2)
        assert lock.holders == {2, 3}

    run(main())


def test_abort_waiter_evicts_queued_request():
    lock = ActorLock(TimeoutOnly())

    async def main():
        await lock.acquire(1, AccessMode.READ_WRITE)
        waiter = sim.spawn(lock.acquire(2, AccessMode.READ_WRITE))
        await sim.sleep(0.01)
        lock.abort_waiter(2, "act_conflict")
        with pytest.raises(DeadlockError):
            await waiter
        assert lock.queue_length == 0

    run(main())


def test_writer_queued_behind_reader_blocks_new_reader():
    """FIFO fairness: late readers don't starve a queued writer."""
    lock = ActorLock(TimeoutOnly())

    async def main():
        await lock.acquire(1, AccessMode.READ)
        writer = sim.spawn(lock.acquire(2, AccessMode.READ_WRITE))
        await sim.sleep(0.01)
        late_reader = sim.spawn(lock.acquire(3, AccessMode.READ))
        await sim.sleep(0.01)
        assert not writer.done() and not late_reader.done()
        lock.release(1)
        await writer
        assert lock.held_by(2) == AccessMode.READ_WRITE
        lock.release(2)
        await late_reader

    run(main())

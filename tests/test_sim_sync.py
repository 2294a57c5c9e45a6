"""Tests for the simulation's semaphore and hardware models."""

import pytest

from repro import sim
from repro.sim import CpuPool, IoDevice, Semaphore, SimLoop


def test_semaphore_allows_up_to_n():
    loop = SimLoop()
    semaphore = Semaphore(3)
    max_active = [0]
    active = [0]

    async def worker():
        async with semaphore:
            active[0] += 1
            max_active[0] = max(max_active[0], active[0])
            await sim.sleep(1)
            active[0] -= 1

    async def main():
        await sim.gather(*[sim.spawn(worker()) for _ in range(9)])

    loop.run_until_complete(main())
    assert max_active[0] == 3
    assert loop.now == 3.0  # 9 jobs / 3 slots x 1s


def test_semaphore_fifo_order():
    loop = SimLoop()
    semaphore = Semaphore(1)
    order = []

    async def worker(tag):
        await semaphore.acquire()
        order.append(tag)
        await sim.sleep(1)
        semaphore.release()

    async def main():
        tasks = []
        for tag in range(4):
            tasks.append(sim.spawn(worker(tag)))
            await sim.sleep(0.01)
        await sim.gather(*tasks)

    loop.run_until_complete(main())
    assert order == [0, 1, 2, 3]


def test_cpu_pool_caps_throughput():
    loop = SimLoop()
    cpu = CpuPool(2)

    async def job():
        await cpu.execute(1.0)

    async def main():
        await sim.gather(*[sim.spawn(job()) for _ in range(10)])

    loop.run_until_complete(main())
    # 10 seconds of work over 2 cores takes 5 simulated seconds.
    assert loop.now == 5.0
    assert cpu.busy_time == 10.0
    assert cpu.utilization(loop.now) == 1.0


def test_cpu_pool_more_cores_scale_throughput():
    durations = {}
    for cores in (1, 4):
        loop = SimLoop()
        cpu = CpuPool(cores)

        async def main():
            await sim.gather(*[sim.spawn(cpu.execute(0.5)) for _ in range(16)])

        loop.run_until_complete(main())
        durations[cores] = loop.now
    assert durations[1] == pytest.approx(4 * durations[4])


def test_cpu_zero_cost_is_free():
    loop = SimLoop()
    cpu = CpuPool(1)

    async def main():
        await cpu.execute(0.0)
        return sim.now()

    assert loop.run_until_complete(main()) == 0.0
    assert cpu.jobs_executed == 0


def test_io_device_serializes_flushes():
    loop = SimLoop()
    disk = IoDevice(base_latency=0.01, per_byte=0.0)

    async def main():
        await sim.gather(*[sim.spawn(disk.flush(100)) for _ in range(5)])

    loop.run_until_complete(main())
    assert loop.now == pytest.approx(0.05)
    assert disk.flushes == 5
    assert disk.bytes_written == 500


def test_io_device_per_byte_charge():
    loop = SimLoop()
    disk = IoDevice(base_latency=0.001, per_byte=0.0001)

    async def main():
        await disk.flush(1000)
        return sim.now()

    assert loop.run_until_complete(main()) == pytest.approx(0.101)


def test_io_batched_write_cheaper_than_individual():
    """One flush of N records beats N flushes — the group-commit effect."""

    def run(sizes):
        loop = SimLoop()
        disk = IoDevice(base_latency=0.005, per_byte=1e-6)

        async def main():
            for size in sizes:
                await disk.flush(size)

        loop.run_until_complete(main())
        return loop.now

    individual = run([100] * 20)
    batched = run([100 * 20])
    assert batched < individual / 10


# ---------------------------------------------------------------------------
# cancellation while queued: permits must never leak
# ---------------------------------------------------------------------------


def test_cancelled_queued_waiter_does_not_eat_a_permit():
    """A task killed while queued on ``acquire`` abandons its waiter;
    ``release`` must skip it, not hand it the permit.  (Regression: a
    silo crash cancelling queued turn tasks leaked one CPU slot each,
    eventually wedging every later ``CpuPool.execute`` forever.)"""
    loop = SimLoop()
    semaphore = Semaphore(1)
    completions = []

    async def holder():
        async with semaphore:
            await sim.sleep(1)

    async def worker(name):
        async with semaphore:
            completions.append(name)

    async def main():
        hold = sim.spawn(holder())
        doomed = sim.spawn(worker("doomed"))
        survivor = sim.spawn(worker("survivor"))
        await sim.sleep(0.5)  # both workers are queued behind the holder
        doomed.cancel("killed while queued")
        await sim.gather(hold, survivor)
        # the released permit must reach the live waiter, then free up
        async with semaphore:
            completions.append("after")

    loop.run_until_complete(main())
    assert completions == ["survivor", "after"]
    assert semaphore.value == 1  # nothing leaked


def test_cancellation_racing_a_grant_passes_the_permit_on():
    """If the permit lands on a waiter in the same instant its task is
    cancelled, ``acquire`` hands the grant to the next waiter instead of
    swallowing it."""
    loop = SimLoop()
    semaphore = Semaphore(1)
    completions = []

    async def holder():
        async with semaphore:
            await sim.sleep(1)

    async def worker(name):
        async with semaphore:
            completions.append(name)

    async def main():
        hold = sim.spawn(holder())
        doomed = sim.spawn(worker("doomed"))
        survivor = sim.spawn(worker("survivor"))
        await sim.sleep(1)  # the holder releases *now*: grant in flight
        doomed.cancel("cancelled at the instant of the grant")
        await sim.gather(hold, survivor)
        return semaphore.value

    assert loop.run_until_complete(main()) == 1
    assert completions == ["survivor"]


def test_cpu_pool_survives_mass_cancellation_of_queued_work():
    """The resource-level consequence: cancelling a crowd of queued jobs
    leaves the pool at full capacity for later work."""
    loop = SimLoop()
    pool = CpuPool(2)

    async def main():
        tasks = [sim.spawn(pool.execute(1.0)) for _ in range(10)]
        await sim.sleep(0.5)  # 2 running, 8 queued
        for task in tasks[2:]:
            task.cancel("silo crash")
        await sim.gather(*tasks[:2])
        before = loop.now
        # the pool must still run 2-wide: 4 jobs in 2 seconds
        await sim.gather(*[sim.spawn(pool.execute(1.0)) for _ in range(4)])
        return loop.now - before

    assert loop.run_until_complete(main()) == 2.0

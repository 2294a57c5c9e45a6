"""Layer probes: one tight loop per layer, on that layer's public calls.

Each probe runs rounds of a fixed amount of work until its host-time
budget is spent and reports work per host second (or host microseconds
per operation).  They share nothing with the workloads: a probe moves
only when its own layer does, which is what makes it the first rung of
the ladder (ROADMAP item 1).  Host clock throughout.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, Tuple

from repro.actors.actor import Actor
from repro.actors.ref import ActorId
from repro.actors.runtime import ActorRuntime, SiloConfig
from repro.core.context import AccessMode, SubBatch
from repro.core.engine.recovery import recover_state_ex
from repro.core.locks import ActorLock
from repro.core.registry import CommitRegistry
from repro.core.schedule import LocalSchedule
from repro.persistence.logger import LoggerGroup
from repro.persistence.records import BatchCommitRecord, BatchCompleteRecord
from repro.persistence.wal import FileLogStorage
from repro.runtime import create_backend, kernel
from repro.sim import CpuPool, Future, SimLoop
from repro.workloads.smallbank import ACCOUNT_KIND

from bench import OUT_DIR
from bench.harness import build_system, clock, environment, tear_down
from bench.spec import PROBES, UNITS, WORKLOAD_BY_NAME

#: work per round; a probe's budget buys as many rounds as fit.
ROUND = 2000
#: WAL length of the recovery probe (the issue's sizing).
RECOVERY_WAL_RECORDS = 20_000
RECOVERY_WAL_ACTORS = 200
STATE = {"checking": 10_000.0, "savings": 10_000.0}


def _rate(seconds: float, round_fn: Callable[[], int]) -> float:
    """Operations per host second of ``round_fn`` (which returns how
    many operations one call performed), over at least one round."""
    operations = 0
    started = clock()
    deadline = started + seconds
    while True:
        operations += round_fn()
        now = clock()
        if now >= deadline:
            return operations / (now - started)


def _us(rate: float) -> float:
    return 1e6 / rate


def _noop() -> None:
    pass


# -- sim ---------------------------------------------------------------------


def sim_events_per_s(seconds: float) -> float:
    def one_round() -> int:
        loop = SimLoop()
        for i in range(ROUND):
            loop.call_later(i * 1e-6, _noop)
        loop.run()
        return ROUND

    return _rate(seconds, one_round)


def sim_task_step_us(seconds: float) -> float:
    tasks, steps = 20, ROUND // 20

    def one_round() -> int:
        loop = SimLoop()

        async def stepper() -> None:
            for _ in range(steps):
                await loop.sleep(0)

        for _ in range(tasks):
            loop.create_task(stepper())
        loop.run()
        return tasks * steps

    return _us(_rate(seconds, one_round))


def sim_future_us(seconds: float) -> float:
    def callback(_future: Future) -> None:
        pass

    def one_round() -> int:
        for _ in range(ROUND):
            future = Future()
            future.add_done_callback(callback)
            future.set_result(None)
        return ROUND

    return _us(_rate(seconds, one_round))


def sim_cpu_execute_us(seconds: float) -> float:
    tasks, jobs = 8, ROUND // 8

    def one_round() -> int:
        loop = SimLoop()

        async def main() -> None:
            pool = CpuPool(4)

            async def worker() -> None:
                for _ in range(jobs):
                    await pool.execute(1e-6)

            await kernel.gather(*[kernel.spawn(worker()) for _ in range(tasks)])

        loop.run_until_complete(main())
        return tasks * jobs

    return _us(_rate(seconds, one_round))


# -- runtime --------------------------------------------------------------------


def _spawn_gather_us(backend_name: str, seconds: float) -> float:
    fan_out = 16
    backend = create_backend(backend_name)

    async def child() -> None:
        pass

    async def main() -> None:
        for _ in range(ROUND // fan_out):
            await kernel.gather(*[kernel.spawn(child()) for _ in range(fan_out)])

    def one_round() -> int:
        backend.run_until_complete(main())
        return ROUND // fan_out * fan_out

    try:
        return _us(_rate(seconds, one_round))
    finally:
        backend.close()


def runtime_sim_spawn_gather_us(seconds: float) -> float:
    return _spawn_gather_us("sim", seconds)


def runtime_aio_spawn_gather_us(seconds: float) -> float:
    return _spawn_gather_us("asyncio", seconds)


# -- actors ----------------------------------------------------------------------


class _PingActor(Actor):
    async def ping(self) -> int:
        return 1


def actors_msgs_per_s(seconds: float) -> float:
    clients, actors = 32, 64
    backend = create_backend("sim")
    runtime = ActorRuntime(backend, SiloConfig())
    runtime.register("ping", _PingActor)

    async def main() -> None:
        async def client(offset: int) -> None:
            for i in range(ROUND // clients):
                await runtime.ref("ping", (offset + i) % actors).call("ping")

        await kernel.gather(*[kernel.spawn(client(c)) for c in range(clients)])

    def one_round() -> int:
        backend.run_until_complete(main())
        return ROUND // clients * clients

    return _rate(seconds, one_round)


def actors_activate_us(seconds: float) -> float:
    """First message to a fresh transactional actor, empty WAL: the
    activation (engine wiring plus two empty WAL scans) and one turn of
    a method that touches no transaction machinery."""
    w = WORKLOAD_BY_NAME["sb-pact"]

    def one_round() -> int:
        system = build_system(w, seed=0)

        async def main() -> None:
            await kernel.gather(*[
                system.actor(ACCOUNT_KIND, key).call("noop", None, None)
                for key in range(ROUND)
            ])

        system.run(main())
        tear_down(system)
        return ROUND

    return _us(_rate(seconds, one_round))


# -- core ---------------------------------------------------------------------------


def core_schedule_ops_per_s(seconds: float) -> float:
    def one_round() -> int:
        schedule = LocalSchedule("probe")
        previous = None
        for bid in range(ROUND // 4):
            schedule.register_batch(SubBatch(bid, previous, 0, ((bid, 1),)))
            schedule.await_pact_turn(bid, bid)
            schedule.pact_access_done(bid, bid)
            schedule.batch_committed(bid)
            previous = bid
        return ROUND // 4 * 4

    return _rate(seconds, one_round)


def core_locks_ops_per_s(seconds: float) -> float:
    def one_round() -> int:
        loop = SimLoop()
        lock = ActorLock(label="probe")

        async def main() -> None:
            for tid in range(ROUND // 2):
                await lock.acquire(tid, AccessMode.READ_WRITE)
                lock.release(tid)

        loop.run_until_complete(main())
        return ROUND // 2 * 2

    return _rate(seconds, one_round)


def core_registry_ops_per_s(seconds: float) -> float:
    def one_round() -> int:
        registry = CommitRegistry()
        for bid in range(ROUND // 2):
            registry.register_batch(bid, 0, ())
            registry.mark_committed(bid)
        return ROUND // 2 * 2

    return _rate(seconds, one_round)


# -- persistence --------------------------------------------------------------------------


def _state_record(bid: int, actor: Any) -> BatchCompleteRecord:
    return BatchCompleteRecord(bid=bid, actor=actor, state=dict(STATE))


def persistence_appends_per_s(seconds: float) -> float:
    writers = 64
    backend = create_backend("sim")
    loggers = LoggerGroup(io_factory=backend.io_device)
    actors = [ActorId(ACCOUNT_KIND, key) for key in range(writers)]

    async def main() -> None:
        async def writer(actor: ActorId) -> None:
            for bid in range(ROUND // writers):
                await loggers.persist(actor, _state_record(bid, actor))

        await kernel.gather(*[kernel.spawn(writer(a)) for a in actors])

    def one_round() -> int:
        backend.run_until_complete(main())
        return ROUND // writers * writers

    return _rate(seconds, one_round)


def _file_probes(seconds: float) -> Tuple[float, float]:
    """Append (write + flush + fsync per record) then scan one log file
    under ``bench/out``; MB/s appended and records/s scanned."""
    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="probe-wal-", dir=OUT_DIR)
    actor = ActorId(ACCOUNT_KIND, 0)
    try:
        path = os.path.join(directory, "log0.bin")
        with FileLogStorage(path) as storage:
            written = [0]

            def append_round() -> int:
                for _ in range(50):
                    storage.append(_state_record(written[0], actor))
                    written[0] += 1
                return 50

            started = clock()
            _rate(seconds, append_round)
            append_mb_per_s = (
                os.path.getsize(path) / 1e6 / (clock() - started)
            )

            def scan_round() -> int:
                return sum(1 for _ in storage.scan())

            scan_per_s = _rate(seconds, scan_round)
        return append_mb_per_s, scan_per_s
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def core_engine_recovery_records_per_s(seconds: float) -> float:
    """``recover_state_ex`` for one actor over a 20k-record in-memory WAL
    (every state record covered by a commit record)."""
    backend = create_backend("sim")
    loggers = LoggerGroup(io_factory=backend.io_device)
    actors = [ActorId(ACCOUNT_KIND, k) for k in range(RECOVERY_WAL_ACTORS)]
    batches = RECOVERY_WAL_RECORDS // (RECOVERY_WAL_ACTORS + 1)

    async def fill() -> None:
        for bid in range(batches):
            await kernel.gather(*[
                kernel.spawn(loggers.persist(a, _state_record(bid, a)))
                for a in actors
            ])
            await loggers.persist(("coordinator", 0), BatchCommitRecord(bid))

    backend.run_until_complete(fill())
    records = sum(1 for _ in loggers.all_records())

    def one_round() -> int:
        recover_state_ex(actors[0], loggers, dict(STATE), lambda s, d: s)
        return records

    return _rate(seconds, one_round)


# -- running them ------------------------------------------------------------------------------


def probe_values(seconds: float) -> Dict[str, float]:
    """Every probe of ``bench.spec.PROBES``, ``seconds`` of host time each."""
    values = {
        "sim.events_per_s": sim_events_per_s(seconds),
        "sim.task_step_us": sim_task_step_us(seconds),
        "sim.future_us": sim_future_us(seconds),
        "sim.cpu_execute_us": sim_cpu_execute_us(seconds),
        "runtime.sim.spawn_gather_us": runtime_sim_spawn_gather_us(seconds),
        "runtime.aio.spawn_gather_us": runtime_aio_spawn_gather_us(seconds),
        "actors.msgs_per_s": actors_msgs_per_s(seconds),
        "actors.activate_us": actors_activate_us(seconds),
        "core.schedule.ops_per_s": core_schedule_ops_per_s(seconds),
        "core.locks.ops_per_s": core_locks_ops_per_s(seconds),
        "core.registry.ops_per_s": core_registry_ops_per_s(seconds),
        "persistence.appends_per_s": persistence_appends_per_s(seconds),
        "core.engine.recovery.records_per_s":
            core_engine_recovery_records_per_s(seconds),
    }
    (values["persistence.file_append_mb_per_s"],
     values["persistence.scan_records_per_s"]) = _file_probes(seconds)
    return values


def run_probes(seconds: float) -> Dict[str, Any]:
    """``python -m bench layers``: the probes as a result dictionary."""
    started = time.perf_counter()
    values = probe_values(seconds)
    return {
        "workload": "layers",
        "seconds_per_probe": seconds,
        "env": environment(),
        "correct": all(values[name] > 0 for name, _, _ in PROBES),
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]}
            for name, _, _ in PROBES
        },
        "detail": {"host_s": time.perf_counter() - started},
    }

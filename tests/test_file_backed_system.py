"""Durability across *process* boundaries: file-backed WALs.

A SnapperSystem with ``log_dir`` set persists its WAL as pickle files;
a brand-new system instance pointed at the same directory recovers the
committed state — the strongest durability story the library offers.
"""

from repro import SnapperConfig, SnapperSystem
from repro.api import TxnRequest

from tests.conftest import AccountActor


def make_system(tmp_path, seed=3):
    system = SnapperSystem(
        config=SnapperConfig(log_dir=str(tmp_path / "wal")), seed=seed
    )
    system.register_actor("account", AccountActor)
    system.start()
    return system


def test_committed_state_survives_new_system_instance(tmp_path):
    first = make_system(tmp_path)

    async def phase1():
        await first.submit(TxnRequest.pact(
            "account", 1, "transfer", (40.0, 2), access={1: 1, 2: 1}
        ))
        await first.submit(TxnRequest.act("account", 3, "deposit", 7.0))

    first.run(phase1())
    first.shutdown()

    # a completely fresh process: new loop, new runtime, same directory
    second = make_system(tmp_path, seed=99)

    async def phase2():
        await second.recover()
        return [
            await second.submit(TxnRequest.act("account", key, "balance"))
            for key in (1, 2, 3)
        ]

    assert second.run(phase2()) == [60.0, 140.0, 107.0]


def test_lsn_resumes_above_existing_records(tmp_path):
    first = make_system(tmp_path)

    async def phase1():
        await first.submit(TxnRequest.pact("account", 1, "deposit", 1.0, access={1: 1}))

    first.run(phase1())
    max_lsn_before = max(r.lsn for r in first.loggers.all_records())
    first.shutdown()

    second = make_system(tmp_path, seed=4)

    async def phase2():
        await second.recover()
        await second.submit(TxnRequest.pact(
            "account", 1, "deposit", 1.0, access={1: 1}
        ))

    second.run(phase2())
    new_records = [
        r for r in second.loggers.all_records() if r.lsn > max_lsn_before
    ]
    assert new_records, "new records must continue the LSN sequence"
    lsns = [r.lsn for r in second.loggers.all_records()]
    assert len(lsns) == len(set(lsns)), "LSNs must stay unique"


def test_uncommitted_work_absent_after_restart(tmp_path):
    first = make_system(tmp_path)

    async def phase1():
        await first.submit(TxnRequest.act("account", 5, "deposit", 10.0))  # committed
        # an in-flight PACT: submit and advance a tiny bit, then drop it
        first.submit(TxnRequest.pact("account", 6, "deposit", 99.0, access={6: 1}))

    first.run(phase1())
    # abandon the first system mid-flight (process dies)
    second = make_system(tmp_path, seed=7)

    async def phase2():
        await second.recover()
        b5 = await second.submit(TxnRequest.act("account", 5, "balance"))
        b6 = await second.submit(TxnRequest.act("account", 6, "balance"))
        return b5, b6

    b5, b6 = second.run(phase2())
    assert b5 == 110.0
    assert b6 in (100.0, 199.0)  # committed iff its full commit chain logged

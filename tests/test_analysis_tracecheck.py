"""The trace-based schedule checker: violations flagged, clean runs pass.

Three layers of evidence:

* hand-built traces with a known ``max(BS) < min(AS)`` violation and a
  known conflict cycle are flagged;
* a real hybrid run with the online :class:`SerializabilityGuard`
  disabled (and the §4.4.4 commit wait removed) under NoWait produces
  anomalies the offline checker catches;
* clean runs — the contended-deposit scenario of
  ``test_cc_strategies`` and a seeded SmallBank hybrid mix — audit
  green, including through the JSONL dump/load round trip.
"""

import random

import pytest

from repro.analysis import check_trace_file, check_tracer
from repro.analysis.__main__ import main as analysis_main
from repro.api import TxnRequest
from repro.core.config import SnapperConfig
from repro.core.context import TxnMode
from repro.core.engine.guard import SerializabilityGuard
from repro.core.registry import CommitRegistry
from repro.sim import gather, spawn
from repro.trace import TxnTracer
from repro.workloads.distributions import UniformDistribution
from repro.workloads.runner import EngineRunner, run_epochs
from repro.workloads.smallbank import (
    ACCOUNT_KIND,
    SmallBankWorkload,
    SnapperAccountActor,
)

from tests.conftest import build_system


# -- hand-built fixture traces ------------------------------------------------

def _violating_tracer():
    """Batch 1 and ACT 20 ordered oppositely on actors X and Y:
    on X the ACT runs after the batch (batch in BS), on Y before it
    (batch in AS) — max(BS) = 1 >= 1 = min(AS)."""
    t = TxnTracer()
    t.record(0.0, 10, "registered", mode=TxnMode.PACT, bid=1)
    t.record(0.1, 10, "state_access", "ReadWrite",
             bid=1, actor="acct/X", access="ReadWrite")
    t.record(0.2, 20, "registered", mode=TxnMode.ACT)
    t.record(0.3, 20, "state_access", "ReadWrite",
             actor="acct/X", access="ReadWrite")
    t.record(0.4, 20, "state_access", "ReadWrite",
             actor="acct/Y", access="ReadWrite")
    t.record(0.5, 10, "state_access", "ReadWrite",
             bid=1, actor="acct/Y", access="ReadWrite")
    t.record(0.6, 10, "committed")
    t.record(0.7, 20, "committed")
    return t


def test_bs_as_violation_is_flagged():
    report = check_tracer(_violating_tracer())
    assert not report.ok
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.tid == 20
    assert violation.max_bs == 1 and violation.min_as == 1
    assert violation.evidence["acct/X"] == (1, None)
    assert violation.evidence["acct/Y"] == (None, 1)
    assert "max(BS)=1" in violation.render()
    # the same anomaly is also a conflict cycle
    assert report.cycle is not None and set(report.cycle) == {10, 20}
    assert "FAIL" in report.render()


def test_aborted_transactions_do_not_constrain_the_schedule():
    t = _violating_tracer()
    # the ACT aborts instead: its accesses were rolled back, so the
    # schedule is just batch 1 alone — clean.
    for trace in t.traces.values():
        if trace.tid == 20:
            trace.events = [
                e for e in trace.events if e.name != "committed"
            ]
    t.record(0.8, 20, "aborted", "serializability")
    report = check_tracer(t)
    assert report.ok
    assert report.num_committed == 1
    assert report.acts_checked == 0


def test_act_only_conflict_cycle_is_flagged():
    """Two ACTs with opposite access order on two actors: not a BS/AS
    issue (no batches) but a classic write-write cycle."""
    t = TxnTracer()
    for tid in (1, 2):
        t.record(0.0, tid, "registered", mode=TxnMode.ACT)
    t.record(0.1, 1, "state_access", "ReadWrite",
             actor="a/X", access="ReadWrite")
    t.record(0.2, 2, "state_access", "ReadWrite",
             actor="a/Y", access="ReadWrite")
    t.record(0.3, 2, "state_access", "ReadWrite",
             actor="a/X", access="ReadWrite")
    t.record(0.4, 1, "state_access", "ReadWrite",
             actor="a/Y", access="ReadWrite")
    t.record(0.5, 1, "committed")
    t.record(0.6, 2, "committed")
    report = check_tracer(t)
    assert report.cycle is not None
    assert not report.violations  # BS/AS is about batches only
    assert not report.ok


def test_reads_do_not_conflict():
    t = TxnTracer()
    for tid in (1, 2):
        t.record(0.0, tid, "registered", mode=TxnMode.ACT)
        t.record(0.1, tid, "state_access", "Read",
                 actor="a/X", access="Read")
        t.record(0.2, tid, "committed")
    report = check_tracer(t)
    assert report.ok


# -- a real run with the online guard disabled --------------------------------

def _run_hybrid(seed, config=None, epoch_duration=0.4):
    rng = random.Random(seed)
    runner = EngineRunner(
        "hybrid",
        {"snapper": {ACCOUNT_KIND: SnapperAccountActor}},
        seed=seed,
        snapper_config=config,
    )
    tracer = TxnTracer(capacity=100_000)
    runner.system.runtime.services["txn_tracer"] = tracer
    workload = SmallBankWorkload(
        UniformDistribution(4, rng), txn_size=3, pact_fraction=0.5, rng=rng
    )
    run_epochs(
        runner, workload.next_txn, num_clients=2, pipeline_size=4,
        epochs=1, epoch_duration=epoch_duration, warmup_epochs=0,
    )
    return tracer


def test_guard_disabled_no_wait_run_is_flagged(monkeypatch):
    """With Theorem 4.2 unenforced, the engine commits non-serializable
    hybrid schedules — and the offline checker catches them."""
    monkeypatch.setattr(
        SerializabilityGuard, "check", lambda self, ctx, info: None
    )

    async def no_wait(self, bid, timeout=None):
        return None

    monkeypatch.setattr(CommitRegistry, "wait_until_committed", no_wait)
    tracer = _run_hybrid(
        seed=1, config=SnapperConfig(concurrency_control="no_wait")
    )
    report = check_tracer(tracer)
    assert not report.ok
    assert report.violations, "expected max(BS) >= min(AS) anomalies"
    assert report.cycle is not None


# -- clean runs must pass -----------------------------------------------------

def test_contended_deposits_audit_clean():
    """The test_cc_strategies scenario: 30 concurrent single-actor
    deposits under wait-die."""
    system = build_system(seed=3, concurrency_control="wait_die")
    tracer = TxnTracer()
    system.runtime.services["txn_tracer"] = tracer

    async def one(i):
        try:
            await system.submit(TxnRequest.act("account", 0, "deposit", 1.0))
        except Exception:
            pass

    async def main():
        await gather(*[spawn(one(i)) for i in range(30)])

    system.run(main())
    report = check_tracer(tracer)
    assert report.ok
    assert report.num_committed > 0


def test_clean_hybrid_smallbank_run_passes(tmp_path):
    """A seeded SmallBank hybrid mix audits green, including through
    the JSONL round trip and the CLI."""
    tracer = _run_hybrid(seed=7)
    report = check_tracer(tracer)
    assert report.ok
    assert report.acts_checked > 0, "mix should exercise hybrid ACTs"
    assert report.num_events > 0

    path = tmp_path / "run.jsonl"
    count = tracer.dump_jsonl(str(path))
    assert count > 0
    file_report = check_trace_file(str(path))
    assert file_report.ok
    assert file_report.num_events == report.num_events
    assert analysis_main(["check-trace", str(path)]) == 0


def test_cli_flags_violating_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    _violating_tracer().dump_jsonl(str(path))
    assert analysis_main(["check-trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "max(BS)" in out

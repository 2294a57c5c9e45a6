"""Smoke tests for the experiment harness at a tiny scale.

These don't validate the paper's shapes (the benchmarks do, at a larger
scale); they validate that every experiment module runs end-to-end and
produces structurally complete rows and tables.
"""

import pytest

from repro.experiments import (
    ablations,
    fig12_overhead,
    fig13_latency,
    fig14_skew,
    fig15_breakdown,
    fig16_hybrid,
    fig17_scalability,
    format_table,
)
from repro.experiments.settings import ExperimentScale, print_settings

TINY = ExperimentScale("tiny", num_actors=500, epochs=2, epoch_duration=0.1,
                       warmup_epochs=1)
#: the ablation sweep is 19 engine runs: row names only, at a smaller scale.
SMOKE = ExperimentScale("smoke", num_actors=200, epochs=2,
                        epoch_duration=0.03, warmup_epochs=1)


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [[1, 2.5], ["xx", 10000.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines[:2])
    assert "10,000" in text


def test_scale_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "default")
    assert ExperimentScale.from_env().name == "default"
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        ExperimentScale.from_env()
    monkeypatch.delenv("REPRO_SCALE")
    assert ExperimentScale.from_env().name == "quick"


def test_settings_tables_render():
    text = print_settings()
    assert "pipeline" in text
    assert "zipf" in text


def test_fig12_rows_complete():
    rows = fig12_overhead.run(TINY, txn_sizes=(2,))
    assert len(rows) == 1
    row = rows[0]
    for key in ("nt_tps", "pact_cc", "pact_cc_log", "act_cc", "act_cc_log",
                "act_abort_rate"):
        assert key in row
    assert 0 < row["pact_cc"] < 1
    assert "PACT" in fig12_overhead.print_table(rows)


def test_fig13_rows_complete():
    rows = fig13_latency.run(TINY, txn_sizes=(2,))
    row = rows[0]
    assert row["pact_p50_ms"] > 0
    assert row["act_p99_ms"] >= row["act_p50_ms"]
    assert "p99" in fig13_latency.print_table(rows)


def test_fig14_rows_complete():
    rows = fig14_skew.run(TINY, skews=("uniform",))
    row = rows[0]
    assert row["pact_tps"] > 0
    assert row["act_tps"] > 0
    assert row["orleans_tps"] > 0
    assert "OrleansTxn" in fig14_skew.print_table(rows)


def test_fig15_rows_complete():
    rows = fig15_breakdown.run(TINY, iterations=20)
    assert {r["variant"] for r in rows} == {"0W+1N", "0W+4N", "1W+3N",
                                            "4W+0N"}
    for row in rows:
        assert row["act_total_ms"] > 0
        assert row["orleans_total_ms"] > 0
    assert "commit" in fig15_breakdown.print_table(rows)


def test_fig16_rows_complete():
    rows = fig16_hybrid.run(TINY, skews=("uniform",),
                            pact_percentages=(100, 50))
    assert len(rows) == 2
    pure = next(r for r in rows if r["pact_pct"] == 100)
    mixed = next(r for r in rows if r["pact_pct"] == 50)
    assert pure["pact_tps"] > 0
    assert pure["act_tps"] == 0
    assert mixed["pact_tps"] > 0
    assert "16c" in fig16_hybrid.print_table(rows)


def test_fig17_rows_complete():
    small = fig17_scalability.run_smallbank_scaling(
        TINY, core_counts=(4,), engines=("pact",)
    )
    assert small[0]["pact_tps"] > 0
    tpcc = fig17_scalability.run_tpcc_scaling(
        TINY, core_counts=(4,), engines=("pact",)
    )
    assert tpcc[0]["pact_tps"] > 0
    text = fig17_scalability.print_table(
        {"smallbank": small, "tpcc": tpcc}
    )
    assert "17a" in text and "17b" in text


def test_ablations_rows_complete():
    rows = ablations.run(SMOKE)
    names = {r["ablation"] for r in rows}
    assert {"coordinators", "batching(high skew)", "group commit",
            "incomplete-AS opt", "wait-die", "tpcc order logging"} <= names
    assert "Ablations" in ablations.print_table(rows)

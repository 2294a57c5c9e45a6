"""Hybrid execution: PACTs and ACTs concurrently on the same actors.

Demonstrates the paper's §4.4: a 90%-PACT / 10%-ACT SmallBank mix under
a skewed workload, reporting the two modes' throughput and latency
separately plus the abort-reason breakdown of Fig. 16c — including the
serializability-check aborts unique to hybrid execution.

Run:  python examples/hybrid_workload.py [--quick]

``--quick`` shrinks the bank and the epochs (CI smoke).
"""

import random
import sys

from repro.errors import AbortReason
from repro.experiments.tables import format_table
from repro.workloads.distributions import make_distribution
from repro.workloads.runner import EngineRunner, run_epochs
from repro.workloads.smallbank import (
    ACCOUNT_KIND,
    SmallBankWorkload,
    SnapperAccountActor,
)

REASON_LABELS = {
    AbortReason.ACT_CONFLICT: "(1) ACT-ACT conflict (wait-die)",
    AbortReason.HYBRID_DEADLOCK: "(2) PACT-ACT deadlock (timeout)",
    AbortReason.INCOMPLETE_AFTER_SET: "(3) incomplete AfterSet",
    AbortReason.SERIALIZABILITY: "(4) serializability violation",
    AbortReason.CASCADING: "cascading",
    AbortReason.USER_ABORT: "user abort",
}


def main() -> None:
    quick = "--quick" in sys.argv[1:]
    runner = EngineRunner(
        "hybrid", {"snapper": {ACCOUNT_KIND: SnapperAccountActor}}, seed=11
    )
    distribution = make_distribution(
        "high", 500 if quick else 2_000, runner.loop.rng
    )
    workload = SmallBankWorkload(
        distribution, txn_size=4, pact_fraction=0.9, rng=random.Random(3)
    )
    print("running a 90% PACT / 10% ACT mix under high skew ...")
    result = run_epochs(
        runner, workload.next_txn,
        num_clients=2, pipeline_size=16,
        epochs=2 if quick else 4,
        epoch_duration=0.15 if quick else 0.5, warmup_epochs=1,
    )
    metrics = result.metrics

    print()
    print(format_table(
        ["mode", "tps", "p50 ms", "p90 ms"],
        [
            ["PACT", metrics.throughput_of("pact"),
             f"{metrics.latency_percentiles((50,), 'pact')[50] * 1000:.2f}",
             f"{metrics.latency_percentiles((90,), 'pact')[90] * 1000:.2f}"],
            ["ACT", metrics.throughput_of("act"),
             f"{metrics.latency_percentiles((50,), 'act')[50] * 1000:.2f}",
             f"{metrics.latency_percentiles((90,), 'act')[90] * 1000:.2f}"],
            ["total", metrics.throughput, "", ""],
        ],
    ))

    print("\nabort breakdown (fraction of attempted transactions):")
    breakdown = metrics.abort_breakdown()
    for reason, fraction in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        label = REASON_LABELS.get(reason, reason)
        print(f"  {label:35s} {fraction:6.2%}")
    if not breakdown:
        print("  (none)")
    print(
        "\nPACTs never appear above: deterministic ordering means they "
        "cannot abort on conflicts (§3.1);\nhybrid serializability is "
        "enforced by aborting ACTs only (§4.4.3)."
    )


if __name__ == "__main__":
    main()

"""TPC-C NewOrder on actors (Fig. 18's partitioning).

Builds two warehouses — each a constellation of warehouse / district /
customer / stock-partition / order-partition actors plus shared
read-only item partitions — and runs NewOrder transactions as PACTs
and as ACTs, printing throughput and the order books.

Run:  python examples/tpcc_neworder.py [--quick]

``--quick`` shortens the epochs (CI smoke).
"""

import random
import sys

from repro.experiments.tables import format_table
from repro.workloads.runner import EngineRunner, run_epochs
from repro.workloads.tpcc import TpccLayout, TpccWorkload, tpcc_actor_families


def run_engine(engine: str, layout: TpccLayout, quick: bool = False) -> dict:
    runner = EngineRunner(engine, tpcc_actor_families(), seed=5)
    workload = TpccWorkload(layout, rng=random.Random(9))
    result = run_epochs(
        runner, workload.next_txn,
        num_clients=1, pipeline_size=4 if engine == "act" else 16,
        epochs=2 if quick else 3,
        epoch_duration=0.1 if quick else 0.3, warmup_epochs=1,
    )
    summary = result.metrics.summary()

    # peek into an order actor to show the inserted orders
    orders = 0
    for activation in runner.system.runtime._activations.values():
        actor = activation.actor
        if actor.id.kind == "order":
            orders += len(actor._state["orders"])
    return {
        "engine": engine,
        "tps": summary["throughput"],
        "p50_ms": summary["p50_ms"],
        "abort": summary["abort_rate"],
        "orders_inserted": orders,
    }


def main() -> None:
    quick = "--quick" in sys.argv[1:]
    layout = TpccLayout(num_warehouses=2, order_partitions=10)
    rows = []
    for engine in ("pact", "act", "nt"):
        print(f"running TPC-C NewOrder under {engine} ...")
        rows.append(run_engine(engine, layout, quick=quick))
    print()
    print(format_table(
        ["engine", "tps", "p50 ms", "abort%", "orders inserted"],
        [[r["engine"], r["tps"], f"{r['p50_ms']:.2f}", f"{r['abort']:.1%}",
          r["orders_inserted"]] for r in rows],
    ))
    print(
        "\nEvery NewOrder touches ~15 actors (district, warehouse, "
        "customer, item, stock and\norder partitions); the access set is "
        "computable from the inputs, which is what\nmakes the PACT mode "
        "possible (§5.4.2)."
    )


if __name__ == "__main__":
    main()

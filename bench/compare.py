"""``python -m bench compare A.json B.json``: is B worse than A?

One row per workload and end-to-end metric, judged by the bound and
direction ``BENCHMARK.json`` fixes: ``ok``, ``worse``, or ``unresolved``
when the spread of the measurement itself (repeated runs when the files
hold them, else the five throughput segments) is wider than the bound.
On sim workloads every backend-clock metric and every count must
additionally be *identical* between two files of one seed; those that
moved are listed.  Per-layer metrics have no bound and are listed with
their change.  There is no combined score.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Any, Dict, List, Optional, Tuple

from bench import ROOT
from bench.spec import (
    EXACT_ON_SIM,
    PER_LAYER,
    PER_LAYER_EXACT_ON_SIM,
    WORKLOAD_BY_NAME,
)

Runs = List[Dict[str, Any]]


def load_manifest() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def spread(values: List[float], method: str = "exclusive") -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def _values(runs: Runs, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"] for run in runs
        if metric in run["metrics"]
    ]


def _own_spread(runs: Runs, metric: str) -> float:
    """How far the measurement disagrees with itself."""
    values = _values(runs, metric)
    if len(values) >= 2:
        return spread(values)
    if metric == "host_txn_per_s" and runs:
        # one run: its five segments stand in for repeated runs.  With
        # five points the inclusive quartiles are the second smallest
        # and second largest, so the ramp at either end of a section
        # does not count as noise.
        return spread(
            runs[0]["detail"]["host_txn_per_s_segments"], "inclusive"
        )
    return 0.0


def verdict(a: Runs, b: Runs, metric: str, better: str,
            bound: float) -> Optional[Tuple[float, float, float, str]]:
    """``(median A, median B, share B is worse by, verdict)``."""
    values_a, values_b = _values(a, metric), _values(b, metric)
    if not values_a or not values_b:
        return None
    before = statistics.median(values_a)
    after = statistics.median(values_b)
    worse_by = (before - after if better == "higher" else after - before)
    worse_by = worse_by / abs(before) if before else 0.0
    if max(_own_spread(a, metric), _own_spread(b, metric)) > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    else:
        word = "ok"
    return before, after, worse_by, word


def _same_inputs(a: Runs, b: Runs) -> bool:
    keys = {(r["seed"], r["n"]) for r in a + b}
    return len(keys) == 1


def _moved(a: Runs, b: Runs, names: List[str]) -> List[str]:
    """Exact-on-sim quantities that differ anywhere across the runs."""
    moved = []
    for name in names:
        if name in ("attempted", "committed", "aborted"):
            seen = {run[name] for run in a + b}
        else:
            seen = set(_values(a, name) + _values(b, name))
        if len(seen) > 1:
            moved.append(f"{name} {sorted(seen)}")
    return moved


def _change(before: float, after: float) -> str:
    if before == after:
        return "="
    if not before:
        return "new"
    return f"{(after - before) / abs(before):+.2%}"


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison; exit code 1 when any metric is ``worse``."""
    with open(path_a, encoding="utf-8") as f:
        doc_a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        doc_b = json.load(f)
    manifest = load_manifest()
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    moved: Dict[str, List[str]] = {}

    run_a, run_b = doc_a.get("run", {}), doc_b.get("run", {})
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'B worse by':>11} {'bound':>6}  verdict")
    for workload in manifest["workloads"]:
        name = workload["name"]
        a, b = run_a.get(name), run_b.get(name)
        if not a or not b:
            continue
        for metric in manifest["end_to_end"]:
            row = verdict(a, b, metric["name"], metric["better"],
                          metric["bound"])
            if row is None:
                continue
            before, after, worse_by, word = row
            counts[word] += 1
            print(f"{name:<14} {metric['name']:<18} {before:>12.6g} "
                  f"{after:>12.6g} {worse_by:>+11.2%} "
                  f"{metric['bound']:>6.0%}  {word}")
        if WORKLOAD_BY_NAME[name].backend == "sim" and _same_inputs(a, b):
            moved[f"run/{name}"] = _moved(
                a, b, ["attempted", "committed", "aborted"]
                + sorted(EXACT_ON_SIM),
            )

    trace_a, trace_b = doc_a.get("trace", {}), doc_b.get("trace", {})
    for name in sorted(set(trace_a) & set(trace_b)):
        a, b = trace_a[name], trace_b[name]
        print(f"\nper-layer, {name} (no bounds):")
        for metric, unit, _ in PER_LAYER:
            values_a, values_b = _values(a, metric), _values(b, metric)
            if values_a and values_b:
                before = statistics.median(values_a)
                after = statistics.median(values_b)
                print(f"  {metric:<46} {before:>14.6g} {after:>14.6g} "
                      f"{unit:<5} {_change(before, after)}")
        if WORKLOAD_BY_NAME[name].backend == "sim" and _same_inputs(a, b):
            moved[f"trace/{name}"] = _moved(
                a, b, ["attempted", "committed", "aborted"]
                + sorted(PER_LAYER_EXACT_ON_SIM),
            )

    layers_a, layers_b = doc_a.get("layers"), doc_b.get("layers")
    if layers_a and layers_b:
        print("\nlayer probes (no bounds):")
        for metric, entry in layers_a["metrics"].items():
            if metric in layers_b["metrics"]:
                before = entry["value"]
                after = layers_b["metrics"][metric]["value"]
                print(f"  {metric:<46} {before:>14.6g} {after:>14.6g} "
                      f"{entry['unit']:<5} {_change(before, after)}")

    print("\nexact on sim (backend-clock metrics and counts, same seed):")
    if not moved:
        print("  nothing to diff: no sim workload with equal seed and N "
              "in both files")
    for where, names in moved.items():
        if names:
            print(f"  {where}: MOVED " + "; ".join(names))
        else:
            print(f"  {where}: identical")
    print(f"\n{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] else 0

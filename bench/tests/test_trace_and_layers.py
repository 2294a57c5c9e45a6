"""The traced run and the layer probes at smoke size."""

import json
import os

from bench import ROOT
from bench.__main__ import run_worker
from bench.spec import LAYERS, PER_LAYER_EXACT_ON_SIM, PROBES
from bench.tests.conftest import SMOKE_N


def _traced(seed):
    result, code = run_worker(
        "sb-hybrid", seed=seed, n=SMOKE_N, trace=1, probe_seconds=0.01
    )
    assert result is not None and code == 0, code
    return result


def test_traced_run_emits_every_per_layer_metric_and_checks(manifest):
    result = _traced(1)
    assert result["correct"], result["checks"]
    assert sorted(result["checks"]) == [
        "phase_sums", "serializable", "shares_sum_to_1", "span_partition",
        "tracing_neutral",
    ]
    assert list(result["metrics"]) == [
        m["name"] for m in manifest["per_layer"]
    ]
    for metric in manifest["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    shares = sum(
        result["metrics"][f"{layer}.self_share"]["value"] for layer in LAYERS
    )
    assert abs(shares - 1.0) <= 0.01
    assert "trace.overhead_frac" in result["metrics"]

    with open(os.path.join(ROOT, result["detail"]["span_file"])) as f:
        events = json.load(f)["traceEvents"]
    processes = {e["args"]["name"] for e in events
                 if e["name"] == "process_name"}
    assert processes == {
        "transactions", "actors", "bench phases (host clock)"
    }
    assert any(e.get("cat") == "phase" for e in events)

    again = _traced(1)
    for name in sorted(PER_LAYER_EXACT_ON_SIM):
        assert (again["metrics"][name]["value"]
                == result["metrics"][name]["value"]), name
    assert again["committed"] == result["committed"]


def test_layers_prints_every_probe():
    result, code = run_worker("layers", probe_seconds=0.01)
    assert code == 0 and result["correct"]
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (name, unit) for name, unit, _ in PROBES
    ]

"""``BENCHMARK.json`` and ``bench.spec`` name the same things."""

from bench.spec import END_TO_END, PER_LAYER, WORKLOADS


def test_manifest_has_exactly_the_contract_keys(manifest):
    assert sorted(manifest) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds",
        "workloads",
    ]
    assert manifest["command"] == ["python3", "-m", "bench"]
    assert manifest["paths"] == ["bench"]
    assert 1 <= manifest["run_seconds"] <= 60


def test_workloads_match_spec(manifest):
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def test_end_to_end_metrics_match_spec(manifest):
    listed = [(m["name"], m["unit"], m["better"])
              for m in manifest["end_to_end"]]
    assert listed == list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_per_layer_metrics_match_spec(manifest):
    listed = [(m["name"], m["unit"], m["better"])
              for m in manifest["per_layer"]]
    assert listed == list(PER_LAYER)
    assert len(listed) <= 128
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))

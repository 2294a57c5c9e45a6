"""``python -m bench compare``: verdicts, exact diffs, exit code."""

import copy
import json
import os

from bench import BENCH_DIR
from bench.compare import compare_files, spread


def _write(path, runs):
    path.write_text(json.dumps(
        {"run": {name: [result] for name, result in runs.items()}}
    ))
    return str(path)


def test_committed_baseline_against_itself_is_all_ok(capsys):
    """Also the acceptance check that no baseline metric is unresolved."""
    baseline = os.path.join(BENCH_DIR, "baseline.json")
    assert compare_files(baseline, baseline) == 0
    out = capsys.readouterr().out
    assert " 0 worse, 0 unresolved" in out
    assert "MOVED" not in out
    assert "run/sb-pact: identical" in out and "trace/sb-pact: identical" in out


def test_smoke_file_against_itself_is_never_worse(tmp_path, smoke_runs, capsys):
    path = _write(tmp_path / "a.json", smoke_runs)
    assert compare_files(path, path) == 0
    out = capsys.readouterr().out
    assert " 0 worse" in out and "MOVED" not in out
    # one row per workload x end-to-end metric
    assert sum(line.endswith(("  ok", "  unresolved"))
               for line in out.splitlines()) == 6 * 10


def test_worse_beyond_the_bound_fails_and_moved_counts_are_listed(
        tmp_path, smoke_runs, capsys):
    slower = copy.deepcopy(smoke_runs)
    slower["sb-pact"]["metrics"]["virt_txn_per_s"]["value"] *= 0.5
    slower["sb-pact"]["committed"] -= 1
    a = _write(tmp_path / "a.json", smoke_runs)
    b = _write(tmp_path / "b.json", slower)
    assert compare_files(a, b) == 1
    out = capsys.readouterr().out
    assert "1 worse" in out
    assert "run/sb-pact: MOVED committed" in out
    assert "virt_txn_per_s" in out.split("run/sb-pact: MOVED")[1].splitlines()[0]
    # the improvement direction is not a regression
    assert compare_files(b, a) == 0


def test_spread_is_the_drivers_interquartile_share():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert abs(spread(values) - 5.5 / 14.5) < 1e-12
    assert spread([5.0]) == 0.0

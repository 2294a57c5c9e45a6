"""Each workload at smoke size: metric names, determinism, checks."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import BENCH_DIR, ROOT
from bench import harness, worker
from bench.__main__ import run_worker
from bench.spec import EXACT_ON_SIM, WORKLOADS
from bench.tests.conftest import SMOKE_N

COUNTS = ("attempted", "committed", "aborted", "failed")


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_workload_emits_exactly_the_listed_metrics(name, manifest,
                                                   smoke_runs):
    result = smoke_runs[name]
    assert result["correct"], result["checks"]
    assert list(result["metrics"]) == [
        m["name"] for m in manifest["end_to_end"]
    ]
    for metric in manifest["end_to_end"]:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert emitted["value"] > 0, metric["name"]  # never 0: bounds are shares
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["env"]["hashseed"] == "0"


def test_single_type_workloads_mirror_the_missing_latency(smoke_runs):
    assert smoke_runs["sb-pact"]["detail"]["latency"]["mirrored"] == [
        "act_lat_p50_ms", "act_lat_p99_ms"]
    assert smoke_runs["sb-nt"]["detail"]["latency"]["mirrored"] == [
        "pact_lat_p50_ms", "pact_lat_p99_ms"]
    for name in ("sb-hybrid", "sb-hybrid-aio", "crash-recover"):
        assert smoke_runs[name]["detail"]["latency"]["mirrored"] == []


def _exact(result):
    return (
        [result[count] for count in COUNTS],
        [result["metrics"][name]["value"] for name in sorted(EXACT_ON_SIM)],
    )


def test_same_seed_same_virtual_numbers_other_seed_other_numbers(smoke_runs):
    again, code = run_worker("sb-hybrid", seed=1, n=SMOKE_N, repeats=1)
    assert code == 0
    assert _exact(again) == _exact(smoke_runs["sb-hybrid"])
    other, code = run_worker("sb-hybrid", seed=2, n=SMOKE_N, repeats=1)
    assert code == 0
    assert _exact(other) != _exact(smoke_runs["sb-hybrid"])


def test_hybrid_workloads_share_one_request_list():
    sim, aio = (w for w in WORKLOADS if w.name.startswith("sb-hybrid"))
    assert harness.generate_requests(sim, 7, 300) == \
        harness.generate_requests(aio, 7, 500)[:300]


class LeakyAccount(harness.SnapperAccountActor):
    """Deposits a little more than was withdrawn."""

    async def deposit_checking(self, ctx, amount):
        return await super().deposit_checking(ctx, amount + 0.25)


def test_non_conserving_actor_fails_the_command(monkeypatch, capsys):
    monkeypatch.setitem(harness.ACCOUNT_ACTORS, "snapper", LeakyAccount)
    code = worker.main(
        ["--workload", "sb-pact", "--n", "100", "--repeats", "1"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["checks"]["conservation"] is False


def test_exits_nonzero_without_a_result_when_the_engine_is_missing(tmp_path):
    """The driver also runs the command in a directory holding only
    ``BENCHMARK.json`` and the benchmark's own files."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "sb-nt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_smoke_command_writes_a_result_file(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke",
         "--workloads", "sb-nt,crash-recover", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    document = json.loads(out.read_text())
    assert sorted(document["run"]) == ["crash-recover", "sb-nt"]
    assert document["run"]["sb-nt"][0]["n"] == 500

"""Shared fixtures: every workload once at smoke size.

Run with ``python -m pytest bench/tests`` from the repo root; these are
not part of the tier-1 ``testpaths``.
"""

import json
import os

import pytest

from bench import ROOT
from bench.__main__ import run_worker
from bench.spec import WORKLOADS

SMOKE_N = 200


@pytest.fixture(scope="session")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="session")
def smoke_runs():
    """``{workload: result}`` of one untraced run each, N=200, seed 1."""
    runs = {}
    for w in WORKLOADS:
        result, code = run_worker(w.name, seed=1, n=SMOKE_N, repeats=1)
        assert result is not None and code == 0, (w.name, code)
        runs[w.name] = result
    return runs

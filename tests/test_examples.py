"""Smoke tests: the example scripts run and print what they promise."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, timeout=240, args=()):
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True, text=True, timeout=timeout,
    )


def test_quickstart_example():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "PACT transfer committed" in result.stdout
    assert "ACT transfer committed" in result.stdout
    assert "aborted as expected" in result.stdout


def test_failure_recovery_example():
    result = run_example("failure_recovery.py")
    assert result.returncode == 0, result.stderr
    assert "silo crash" in result.stdout
    assert "committed transactions survived" in result.stdout


def test_crash_recovery_example():
    result = run_example("crash_recovery.py")
    assert result.returncode == 0, result.stderr
    assert "presumed abort" in result.stdout
    assert "transfer preserved on both" in result.stdout
    assert "VERDICT: OK" in result.stdout


def test_multiserver_deployment_example():
    result = run_example("multiserver_deployment.py", args=("--quick",))
    assert result.returncode == 0, result.stderr
    assert "cross-silo msgs" in result.stdout
    # part 2: the pluggable-substrate comparison (docs/runtime.md) —
    # both backends run and commit identical balances
    assert "sim backend:" in result.stdout
    assert "asyncio backend:" in result.stdout
    assert "socket envelope" in result.stdout
    assert "backends agree" in result.stdout


@pytest.mark.slow
def test_hybrid_workload_example():
    result = run_example("hybrid_workload.py", timeout=600,
                         args=("--quick",))
    assert result.returncode == 0, result.stderr
    assert "abort breakdown" in result.stdout


@pytest.mark.slow
def test_tpcc_example():
    result = run_example("tpcc_neworder.py", timeout=900,
                         args=("--quick",))
    assert result.returncode == 0, result.stderr
    assert "orders inserted" in result.stdout


@pytest.mark.slow
def test_smallbank_comparison_example():
    result = run_example("smallbank_comparison.py", timeout=900,
                         args=("--quick",))
    assert result.returncode == 0, result.stderr
    assert "engine" in result.stdout

"""snapper-lint: every rule fires on its fixture, the repo lints clean.

The fixture modules under ``tests/fixtures/lint`` are one-per-rule
proof that each SNAP rule detects its target pattern; ``clean.py``
pins the idioms that must never be flagged, and the sweep over
``src/repro`` + ``examples`` is the no-false-positive guarantee the CI
lint step relies on.
"""

from pathlib import Path

import pytest

from repro.analysis import ALL_RULE_IDS, RULES, lint_paths, lint_source
from repro.analysis.__main__ import main as analysis_main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parent.parent


def lint_fixture(name):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), str(path))


# -- the registry ------------------------------------------------------------

#: IDs of deleted rules: never reassigned, so old noqa comments and
#: docs cannot silently start meaning something else.
RETIRED_RULE_IDS = {"SNAP015"}


def test_registry_ids_are_stable_and_ordered():
    numbers = [int(rule_id[len("SNAP"):]) for rule_id in ALL_RULE_IDS]
    assert all(rule_id == f"SNAP{n:03d}"
               for rule_id, n in zip(ALL_RULE_IDS, numbers))
    assert numbers == sorted(set(numbers))  # ascending and unique
    assert not RETIRED_RULE_IDS & set(ALL_RULE_IDS)
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.scope in (
            "txn-body", "actor-method", "call-site", "module"
        )
        assert rule.summary


def test_every_rule_has_a_fixture():
    for rule_id in ALL_RULE_IDS:
        assert (FIXTURES / f"{rule_id.lower()}.py").exists(), (
            f"missing fixture for {rule_id}"
        )


# -- detection: one fixture per rule -----------------------------------------

@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_fires_on_its_fixture(rule_id):
    findings = lint_fixture(f"{rule_id.lower()}.py")
    fired = {f.rule_id for f in findings}
    assert rule_id in fired, f"{rule_id} did not fire on its fixture"
    # fixtures are minimal: nothing else may fire, or the fixture is
    # proving the wrong thing.
    assert fired == {rule_id}, f"unexpected rules fired: {fired}"


def test_findings_carry_location_and_render():
    findings = lint_fixture("snap003.py")
    finding = findings[0]
    assert finding.line > 0 and finding.col >= 0
    assert "snap003.py" in finding.render()
    assert "SNAP003" in finding.render()


def test_select_restricts_rules():
    path = FIXTURES / "snap004.py"
    source = path.read_text(encoding="utf-8")
    assert lint_source(source, str(path), rules=["SNAP003"]) == []
    assert lint_source(source, str(path), rules=["SNAP004"])


# -- suppression -------------------------------------------------------------

def test_noqa_suppresses_listed_and_bare():
    assert lint_fixture("suppressed.py") == []


def test_noqa_with_other_rule_id_does_not_suppress():
    source = (
        "import time\n"
        "class A:\n"
        "    async def txn(self, ctx, x):\n"
        "        return time.time()  # snapper: noqa SNAP004\n"
    )
    findings = lint_source(source)
    assert [f.rule_id for f in findings] == ["SNAP003"]


# -- no false positives ------------------------------------------------------

def test_clean_fixture_has_no_findings():
    assert lint_fixture("clean.py") == []


def test_repo_sources_lint_clean():
    """The CI gate: ``python -m repro.analysis lint src examples``."""
    findings = lint_paths(
        [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "examples")]
    )
    assert findings == [], "\n".join(f.render() for f in findings)


# -- SNAP014: the runtime-backend seam ---------------------------------------

def test_snap014_exempts_kernel_and_seam_paths():
    source = "from repro.sim.loop import SimLoop\n"
    for exempt in (
        "src/repro/sim/resources.py",
        "src/repro/runtime/kernel.py",
        "src/repro/runtime/sim_backend.py",
    ):
        assert lint_source(source, exempt) == []
    for guarded in (
        "src/repro/core/engine/act.py",
        "src/repro/runtime/sync.py",
        "src/repro/runtime/aio_backend.py",
    ):
        findings = lint_source(source, guarded)
        assert [f.rule_id for f in findings] == ["SNAP014"]


def test_snap014_flags_local_and_plain_imports():
    source = (
        "def helper():\n"
        "    import repro.sim.loop\n"
        "    from repro.sim import spawn\n"
    )
    findings = lint_source(source, "src/repro/workloads/foo.py")
    assert [f.rule_id for f in findings] == ["SNAP014", "SNAP014"]


def test_snap014_noqa_suppression():
    source = "from repro.sim import spawn  # snapper: noqa SNAP014\n"
    assert lint_source(source, "src/repro/core/foo.py") == []


# -- CLI ---------------------------------------------------------------------

def test_cli_lint_exit_codes(capsys):
    assert analysis_main(["lint", str(FIXTURES / "clean.py")]) == 0
    assert "clean" in capsys.readouterr().out
    assert analysis_main(["lint", str(FIXTURES / "snap010.py")]) == 1
    out = capsys.readouterr().out
    assert "SNAP010" in out and "finding" in out


def test_cli_list_rules(capsys):
    assert analysis_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_rejects_unknown_rule(capsys):
    code = analysis_main(
        ["lint", str(FIXTURES / "clean.py"), "--select", "SNAP999"]
    )
    assert code == 2

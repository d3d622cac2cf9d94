"""Rule-family tests over the synthetic fixture package.

Every family has at least one known-bad fixture whose true positives must
fire (and fail the gate) and one known-good twin that must stay clean.
"""

from pathlib import Path

import pytest

from repro.lint.config import LintConfig
from repro.lint.runner import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _fixture_config():
    # Only the det_* fixtures are deterministic, so D103/D104 can be shown
    # firing there and staying quiet everywhere else.
    return LintConfig(root=FIXTURES, paths=("pkg",), deterministic=("pkg.det_*",))


@pytest.fixture(scope="module")
def report():
    return run_lint(_fixture_config())


def _rules_for(report, filename):
    return sorted(f.rule for f in report.new if f.path == f"pkg/{filename}")


class TestTruePositives:
    def test_determinism_family(self, report):
        assert _rules_for(report, "det_bad.py") == ["D101", "D102", "D103", "D104"]

    def test_process_safety_family(self, report):
        assert _rules_for(report, "proc_bad.py") == ["P201", "P201", "P202"]

    def test_pool_lifecycle_rule(self, report):
        assert _rules_for(report, "pool_bad.py") == ["P203", "P203"]

    def test_artifact_family(self, report):
        assert _rules_for(report, "art_bad.py") == ["J401", "J402"]

    def test_registry_family(self, report):
        assert _rules_for(report, "reg_bad.py") == ["R501", "R502"]

    def test_flow_sensitive_taint(self, report):
        assert _rules_for(report, "taint_bad.py") == ["D101"] * 4

    def test_report_is_sorted_and_pinned_by_location(self, report):
        assert [(f.rule, f.path, f.line, f.col) for f in report.new] == [
            ("J402", "pkg/art_bad.py", 4, 1),
            ("J401", "pkg/art_bad.py", 8, 21),
            ("D101", "pkg/det_bad.py", 9, 17),
            ("D102", "pkg/det_bad.py", 13, 12),
            ("D103", "pkg/det_bad.py", 17, 12),
            ("D104", "pkg/det_bad.py", 21, 12),
            ("P203", "pkg/pool_bad.py", 14, 14),
            ("P203", "pkg/pool_bad.py", 20, 10),
            ("P201", "pkg/proc_bad.py", 12, 25),
            ("P201", "pkg/proc_bad.py", 16, 25),
            ("P202", "pkg/proc_bad.py", 20, 5),
            ("R501", "pkg/reg_bad.py", 6, 2),
            ("R502", "pkg/reg_bad.py", 16, 37),
            ("D101", "pkg/taint_bad.py", 11, 17),
            ("D101", "pkg/taint_bad.py", 16, 16),
            ("D101", "pkg/taint_bad.py", 21, 17),
            ("D101", "pkg/taint_bad.py", 28, 20),
        ]

    def test_bad_fixtures_fail_the_gate(self, report):
        assert report.exit_code() == 1

    def test_suppression_moves_finding_out_of_new(self, report):
        assert all(f.path != "pkg/suppressed.py" for f in report.new)
        assert any(
            f.path == "pkg/suppressed.py" and f.rule == "J401"
            for f in report.suppressed
        )


class TestCleanFixtures:
    @pytest.mark.parametrize(
        "filename",
        [
            "det_good.py",
            "proc_good.py",
            "pool_good.py",
            "art_good.py",
            "reg_good.py",
            "taint_good.py",
        ],
    )
    def test_good_twin_is_clean(self, report, filename):
        assert _rules_for(report, filename) == []

    def test_clean_fixtures_alone_pass_the_gate(self):
        clean = run_lint(
            _fixture_config(),
            paths=[
                str(FIXTURES / "pkg" / name)
                for name in (
                    "det_good.py",
                    "proc_good.py",
                    "pool_good.py",
                    "art_good.py",
                    "reg_good.py",
                    "taint_good.py",
                )
            ],
        )
        assert clean.new == [] and clean.exit_code() == 0


class TestDeterministicModules:
    """D103/D104 only fire in modules matching a deterministic pattern."""

    def test_other_modules_skip_the_gated_rules(self, tmp_path):
        source = (FIXTURES / "pkg" / "det_bad.py").read_text()
        target = tmp_path / "untagged.py"
        target.write_text(source)
        report = run_lint(_fixture_config(), paths=[str(target)])
        rules = {finding.rule for finding in report.new}
        # D101/D102 are unconditional; the gated rules must not fire.
        assert "D101" in rules and "D102" in rules
        assert "D103" not in rules and "D104" not in rules

    @pytest.mark.parametrize(
        "module, expected",
        [
            ("repro.core.matching", True),
            ("repro.simulator.engine", True),
            ("repro.core.synthesizer", True),
            ("repro.bench.reference", True),
            ("repro.bench.check", False),
            ("repro.api.runner", False),
            ("repro.lint.runner", False),
        ],
    )
    def test_repo_deterministic_modules(self, module, expected):
        assert LintConfig().is_deterministic(module) is expected

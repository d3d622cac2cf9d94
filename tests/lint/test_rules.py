"""Rule-family tests over the synthetic fixture package.

Every family has at least one known-bad fixture whose true positives must
fire (and fail the gate) and one known-good twin that must stay clean.
"""

from pathlib import Path

import pytest

from repro.lint.config import load_config
from repro.lint.runner import run_lint

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def report():
    return run_lint(load_config(FIXTURES / "pyproject.toml"))


def _rules_for(report, filename):
    return sorted(f.rule for f in report.new if f.path == f"pkg/{filename}")


class TestTruePositives:
    def test_determinism_family(self, report):
        assert _rules_for(report, "det_bad.py") == ["D101", "D102", "D103", "D104"]

    def test_columnar_family(self, report):
        assert _rules_for(report, "hot_bad.py") == ["C301", "C302", "C303"]

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

    def test_bad_fixtures_fail_the_gate(self, report):
        assert report.exit_code(strict=True) == 1


class TestCleanFixtures:
    @pytest.mark.parametrize(
        "filename",
        [
            "det_good.py",
            "hot_good.py",
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
        config = load_config(FIXTURES / "pyproject.toml")
        clean = run_lint(
            config,
            paths=[
                str(FIXTURES / "pkg" / name)
                for name in (
                    "det_good.py",
                    "hot_good.py",
                    "proc_good.py",
                    "pool_good.py",
                    "art_good.py",
                    "reg_good.py",
                            "taint_good.py",
                )
            ],
        )
        assert clean.new == [] and clean.exit_code(strict=True) == 0


class TestTagGating:
    """D103/D104 and the C family only fire in tagged modules."""

    def test_untagged_module_skips_tag_gated_rules(self, tmp_path):
        source = (FIXTURES / "pkg" / "det_bad.py").read_text()
        target = tmp_path / "untagged.py"
        target.write_text(source)
        config = load_config(FIXTURES / "pyproject.toml")
        report = run_lint(config, paths=[str(target)])
        rules = {finding.rule for finding in report.new}
        # D101/D102 are unconditional; the tag-gated rules must not fire.
        assert "D101" in rules and "D102" in rules
        assert "D103" not in rules and "D104" not in rules

    def test_suppression_moves_finding_out_of_new(self, report):
        assert all(f.path != "pkg/suppressed.py" for f in report.new)
        assert any(
            f.path == "pkg/suppressed.py" and f.rule == "J401"
            for f in report.suppressed
        )

"""The repo-level gate: src/repro is clean, and the gate is load-bearing.

Deleting any one baseline entry or inline suppression must flip the strict
run to exit 1 — the acceptance criterion that proves neither layer is
decorative.
"""

import json
import re
from pathlib import Path

import pytest

from repro.lint.baseline import Baseline, load_baseline
from repro.lint.config import load_config
from repro.lint.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
PYPROJECT = REPO_ROOT / "pyproject.toml"

#: Every file under src/repro carrying an inline suppression directive.
SUPPRESSED_FILES = [
    "src/repro/core/transfers.py",
    "src/repro/bench/reference.py",
    "src/repro/core/verification.py",
]


def _repo_config():
    return load_config(PYPROJECT)


class TestRepoSelfCheck:
    def test_src_repro_is_clean_against_the_baseline(self):
        config = _repo_config()
        report = run_lint(config, baseline=load_baseline(config.baseline_path()))
        assert report.new == [], "\n".join(f.render() for f in report.new)
        assert report.stale_baseline == []
        assert report.exit_code(strict=True) == 0

    def test_baseline_only_names_acknowledged_debt(self):
        document = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        paths = {entry["path"] for entry in document["findings"]}
        # The verification checker's deliberate row loops moved to reasoned
        # disable-scope suppressions; the only grandfathered debt left is
        # the simulator's legacy object path — nothing else may hide here.
        assert paths == {"src/repro/simulator/engine.py"}
        assert sum(entry["count"] for entry in document["findings"]) <= 10

    def test_every_deleted_baseline_entry_fails_strict(self):
        config = _repo_config()
        full = load_baseline(config.baseline_path())
        # Removing any single entry leaves a real finding uncovered.
        victim = sorted(full.entries)[0]
        reduced = dict(full.entries)
        if reduced[victim] > 1:
            reduced[victim] -= 1
        else:
            del reduced[victim]
        report = run_lint(config, baseline=Baseline(entries=reduced))
        assert len(report.new) == 1
        assert report.new[0].fingerprint() == victim
        assert report.exit_code(strict=True) == 1


class TestSuppressionsAreLoadBearing:
    @pytest.mark.parametrize("relpath", SUPPRESSED_FILES)
    def test_deleting_the_suppression_fails_the_gate(self, tmp_path, relpath):
        source = (REPO_ROOT / relpath).read_text()
        assert "repro-lint:" in source, f"{relpath} lost its suppression"
        stripped = re.sub(r"\s*# repro-lint:[^\n]*", "", source)
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(stripped)
        config = _repo_config()
        config.root = tmp_path  # preserve module names (repro.bench.reference etc.)
        report = run_lint(config, paths=[str(target)])
        assert report.new, f"stripping the suppression in {relpath} exposed nothing"
        assert report.exit_code(strict=True) == 1

    @pytest.mark.parametrize("relpath", SUPPRESSED_FILES)
    def test_the_suppression_is_intact_and_reasoned(self, tmp_path, relpath):
        source = (REPO_ROOT / relpath).read_text()
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(source)
        config = _repo_config()
        config.root = tmp_path
        report = run_lint(config, paths=[str(target)])
        assert report.new == [], "\n".join(f.render() for f in report.new)
        assert report.suppressed, f"{relpath} suppression matched no finding"

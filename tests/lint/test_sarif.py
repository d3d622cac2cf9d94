"""SARIF 2.1.0 output: structure, suppression kinds, determinism."""

import json

from repro import __version__
from repro.lint.baseline import Baseline
from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig
from repro.lint.runner import run_lint
from repro.lint.sarif import to_sarif


def _report(tmp_path, baseline=None):
    module = tmp_path / "mod.py"
    module.write_text(
        "import json\n"
        "new_finding = json.dumps({})\n"
        "quiet = json.dumps({})  # repro-lint: disable=J401 -- fixture\n"
    )
    config = LintConfig(root=tmp_path, paths=(str(module),))
    return run_lint(config, baseline=baseline)


class TestSarifDocument:
    def test_structure_and_catalog(self, tmp_path):
        document = to_sarif(_report(tmp_path), __version__)
        assert document["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in document["$schema"]
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["tool"]["driver"]["version"] == __version__
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert {"D101", "R501", "J401", "S003"} <= rule_ids

    def test_levels_and_suppression_kinds(self, tmp_path):
        report = _report(tmp_path)
        results = to_sarif(report, __version__)["runs"][0]["results"]
        by_kind = {}
        for result in results:
            kinds = [s["kind"] for s in result.get("suppressions", [])]
            by_kind.setdefault((result["level"], tuple(kinds)), 0)
            by_kind[(result["level"], tuple(kinds))] += 1
        assert by_kind[("error", ())] == 1  # the new finding
        assert by_kind[("note", ("inSource",))] == 1  # the inline-suppressed one

    def test_baselined_findings_carry_external_suppressions(self, tmp_path):
        first = _report(tmp_path)
        baseline = Baseline.from_findings(first.new)
        second = _report(tmp_path, baseline=baseline)
        results = to_sarif(second, __version__)["runs"][0]["results"]
        external = [
            r
            for r in results
            if [s["kind"] for s in r.get("suppressions", [])] == ["external"]
        ]
        assert len(external) == 1 and external[0]["level"] == "note"

    def test_fingerprints_match_the_baseline_identity(self, tmp_path):
        report = _report(tmp_path)
        results = to_sarif(report, __version__)["runs"][0]["results"]
        fingerprints = {r["partialFingerprints"]["reproLint/v1"] for r in results}
        assert len(fingerprints) == len(results)  # distinct per finding here

    def test_output_is_deterministic(self, tmp_path):
        report = _report(tmp_path)
        first = json.dumps(to_sarif(report, __version__), sort_keys=True)
        second = json.dumps(to_sarif(report, __version__), sort_keys=True)
        assert first == second


class TestCliSarif:
    def test_format_sarif_emits_parseable_json(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = ["pkg"]\n'
        )
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("import json\nraw = json.dumps({})\n")
        code = lint_main(
            [
                "--config",
                str(tmp_path / "pyproject.toml"),
                "--format",
                "sarif",
                "--no-baseline",
            ]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["runs"][0]["results"][0]["ruleId"] == "J401"

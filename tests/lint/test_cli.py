"""Exit-code sweep and report contract for ``tacos-repro lint`` /
``python -m repro.lint``.

The contract (PR 1, shared by every subcommand): 0 clean, 1 findings,
2 bad arguments / unreadable inputs.  The CLI takes exactly ``paths``,
``--json`` and ``--list-rules``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as tacos_main
from repro.lint.cli import main as lint_main
from repro.lint.config import LintConfig
from repro.lint.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Flags the single-pass analyzer no longer has, each with a plausible
#: argument.  Every one must be a usage error, not a silent no-op.
REMOVED_FLAGS = {
    "--strict": [],
    "--config": ["pyproject.toml"],
    "--baseline": ["lint-baseline.json"],
    "--no-baseline": [],
    "--update-baseline": [],
    "--disable": ["J401"],
    "--changed": [],
    "--fix": [],
    "--workers": ["2"],
    "--execution": ["serial"],
    "--no-cache": [],
    "--format": ["json"],
}


def _write_package(tmp_path, body="x = 1\n", modules=1):
    package = tmp_path / "pkg"
    package.mkdir()
    for index in range(modules):
        (package / f"mod{index}.py").write_text(body)
    return package


DIRTY = "import json\ny = json.dumps({})\n"


class TestExitCodes:
    def test_clean_package_exits_0(self, tmp_path, capsys):
        package = _write_package(tmp_path)
        assert lint_main([str(package)]) == 0
        assert "1 file(s) checked: 0 finding(s), 0 suppressed" in capsys.readouterr().out

    def test_findings_exit_1(self, tmp_path, capsys):
        package = _write_package(tmp_path, DIRTY)
        assert lint_main([str(package)]) == 1
        assert "J401" in capsys.readouterr().out

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        package = _write_package(tmp_path, "def broken(:\n")
        assert lint_main([str(package)]) == 2
        assert "E000" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "gone")]) == 2
        assert "gone" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert lint_main(["--definitely-not-a-flag"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert lint_main(["--help"]) == 0
        assert "determinism" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", sorted(REMOVED_FLAGS))
    def test_removed_flag_exits_2(self, tmp_path, capsys, flag):
        package = _write_package(tmp_path)
        assert lint_main([flag, *REMOVED_FLAGS[flag], str(package)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_relative_paths_resolve_against_the_working_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        _write_package(tmp_path, DIRTY)
        monkeypatch.chdir(tmp_path)
        assert lint_main(["pkg"]) == 1
        assert "mod0.py" in capsys.readouterr().out


class TestJsonReport:
    def test_json_report_is_strict_json(self, tmp_path, capsys):
        package = _write_package(tmp_path, DIRTY)
        assert lint_main(["--json", str(package)]) == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        document = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert sorted(document) == ["files_checked", "new", "summary", "suppressed"]
        assert document["files_checked"] == 1
        assert document["summary"] == {"new": 1, "suppressed": 0}
        assert document["new"][0]["rule"] == "J401"
        assert sorted(document["new"][0]) == [
            "col",
            "line",
            "message",
            "module",
            "path",
            "rule",
            "snippet",
        ]

    def test_report_is_identical_from_src_and_from_the_repo_root(
        self, monkeypatch, capsys
    ):
        reports = []
        for cwd in (REPO_ROOT / "src", REPO_ROOT):
            monkeypatch.chdir(cwd)
            assert lint_main(["--json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        document = json.loads(reports[0])
        assert document["summary"] == {"new": 0, "suppressed": 0}


class TestPathNormalization:
    def test_paths_are_root_relative_posix_from_any_cwd(self, tmp_path, monkeypatch):
        _write_package(tmp_path, DIRTY, modules=2)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        report = run_lint(LintConfig(root=tmp_path, paths=("pkg",)))
        assert sorted({f.path for f in report.new}) == ["pkg/mod0.py", "pkg/mod1.py"]
        assert sorted({f.module for f in report.new}) == ["pkg.mod0", "pkg.mod1"]


class TestTacosCliIntegration:
    def test_lint_subcommand_forwards(self, tmp_path, capsys):
        package = _write_package(tmp_path, DIRTY)
        assert tacos_main(["lint", str(package)]) == 1
        assert "J401" in capsys.readouterr().out

    def test_lint_subcommand_on_repo_is_clean(self, capsys):
        assert tacos_main(["lint"]) == 0
        assert "0 finding(s), 0 suppressed" in capsys.readouterr().out

    def test_lint_listed_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            tacos_main(["--help"])
        assert excinfo.value.code == 0
        assert "lint" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert tacos_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("D101", "P203", "J401", "R502", "S003", "E000"):
            assert code in out
        assert "C301" not in out

    def test_bad_spec_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{not json")
        assert tacos_main(["simulate", "--spec", str(bad)]) == 2
        assert "invalid RunSpec JSON" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert tacos_main(["simulate", "--spec", str(tmp_path / "gone.json")]) == 2
        capsys.readouterr()

    def test_experiments_bad_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            tacos_main(["experiments", "fig10", "--workers", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_experiments_unknown_id_exits_2(self, capsys):
        assert tacos_main(["experiments", "figZZ"]) == 2
        capsys.readouterr()

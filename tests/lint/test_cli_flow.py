"""CLI workflow features: --changed scoping, fan-out, cwd independence."""

import json
import os
import shutil
import subprocess

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.config import load_config
from repro.lint.runner import run_lint

HAVE_GIT = shutil.which("git") is not None


def _project(tmp_path, modules=2):
    (tmp_path / "pyproject.toml").write_text('[tool.repro-lint]\npaths = ["pkg"]\n')
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    for index in range(modules):
        (pkg / f"mod{index}.py").write_text(f"import json\nx{index} = json.dumps({{}})\n")
    return tmp_path / "pyproject.toml"


def _git(root, *arguments):
    subprocess.run(
        ("git", "-C", str(root), *arguments),
        check=True,
        capture_output=True,
        env={
            **os.environ,
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@example.com",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@example.com",
        },
    )


@pytest.mark.skipif(not HAVE_GIT, reason="git not available")
class TestChanged:
    def _committed_project(self, tmp_path):
        pyproject = _project(tmp_path)
        _git(tmp_path, "init", "-q")
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", "seed")
        return pyproject

    def test_clean_tree_checks_nothing(self, tmp_path, capsys):
        pyproject = self._committed_project(tmp_path)
        assert lint_main(["--config", str(pyproject), "--changed"]) == 0
        assert "no tracked changes" in capsys.readouterr().out

    def test_modified_file_is_scoped(self, tmp_path, capsys):
        pyproject = self._committed_project(tmp_path)
        (tmp_path / "pkg" / "mod0.py").write_text("import json\ny = json.dumps([])\n")
        code = lint_main(
            ["--config", str(pyproject), "--changed", "--no-baseline"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "1 file(s) checked" in captured.out
        assert "mod0.py" in captured.out and "mod1.py" not in captured.out

    def test_untracked_file_is_included(self, tmp_path, capsys):
        pyproject = self._committed_project(tmp_path)
        (tmp_path / "pkg" / "fresh.py").write_text("import pickle\n")
        code = lint_main(
            ["--config", str(pyproject), "--changed", "--no-baseline"]
        )
        assert code == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_scoped_run_never_fails_strict_on_stale_entries(self, tmp_path, capsys):
        pyproject = self._committed_project(tmp_path)
        assert lint_main(["--config", str(pyproject), "--update-baseline"]) == 0
        # Fix mod1's debt, touch only mod0: the scoped run cannot see mod1,
        # so its baseline entry is absent — that must not fail --strict.
        (tmp_path / "pkg" / "mod1.py").write_text("x1 = 1\n")
        (tmp_path / "pkg" / "mod0.py").write_text(
            "import json\nx0 = json.dumps({})\n# touched\n"
        )
        _git(tmp_path, "add", "-A")
        _git(tmp_path, "commit", "-q", "-m", "fix mod1")
        (tmp_path / "pkg" / "mod0.py").write_text(
            "import json\nx0 = json.dumps({})\n# touched again\n"
        )
        assert lint_main(["--config", str(pyproject), "--changed", "--strict"]) == 0
        capsys.readouterr()


class TestChangedFallback:
    def test_without_git_repo_falls_back_to_full_run(self, tmp_path, capsys):
        pyproject = _project(tmp_path)
        code = lint_main(
            ["--config", str(pyproject), "--changed", "--no-baseline"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "2 file(s) checked" in captured.out
        if HAVE_GIT:
            assert "falling back to a full run" in captured.err


class TestFanOut:
    @pytest.mark.parametrize("extra", [["--workers", "2"], ["--execution", "pool"]])
    def test_parallel_report_matches_serial(self, tmp_path, capsys, extra):
        pyproject = _project(tmp_path, modules=4)
        base = ["--config", str(pyproject), "--no-baseline", "--format", "json"]
        assert lint_main(base) == 1
        serial = capsys.readouterr().out
        assert lint_main(base + extra) == 1
        assert capsys.readouterr().out == serial

    def test_pool_backend_report_matches_serial(self, tmp_path, capsys):
        pyproject = _project(tmp_path, modules=3)
        config = load_config(pyproject)
        serial = run_lint(config)
        pool = run_lint(config, workers=2, execution="pool")
        assert json.dumps(pool.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )


class TestPathNormalization:
    def test_paths_are_repo_relative_posix_from_any_cwd(self, tmp_path, monkeypatch):
        pyproject = _project(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        report = run_lint(load_config(pyproject))
        assert sorted({f.path for f in report.new}) == ["pkg/mod0.py", "pkg/mod1.py"]

    def test_update_baseline_is_cwd_independent(self, tmp_path, monkeypatch, capsys):
        pyproject = _project(tmp_path)
        assert lint_main(["--config", str(pyproject), "--update-baseline"]) == 0
        first = (tmp_path / "lint-baseline.json").read_text()
        monkeypatch.chdir(tmp_path / "pkg")
        assert lint_main(["--config", str(pyproject), "--update-baseline"]) == 0
        assert (tmp_path / "lint-baseline.json").read_text() == first
        capsys.readouterr()


class TestWarmRunsThroughCli:
    def test_json_output_is_byte_identical_cold_and_warm(self, tmp_path, capsys):
        pyproject = _project(tmp_path)
        base = ["--config", str(pyproject), "--no-baseline", "--format", "json"]
        assert lint_main(base) == 1
        cold = capsys.readouterr().out
        assert (tmp_path / ".lint-cache.json").is_file()
        assert lint_main(base) == 1
        assert capsys.readouterr().out == cold

"""The repo-level gate: src/repro is clean, and every suppression is
load-bearing.

Stripping any one inline suppression directive must flip the run to exit
1; otherwise the directive is decorative and should go.
"""

import re
import tokenize
from pathlib import Path

import pytest

from repro.lint.config import LintConfig
from repro.lint.runner import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def _files_with_directives():
    """Every file under src/repro whose *comments* carry a directive.

    Directive-shaped text in docstrings (the lint package documents its own
    syntax) is not a directive, so comments are found with tokenize.
    """
    found = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        with path.open() as handle:
            comments = [
                token.string
                for token in tokenize.generate_tokens(handle.readline)
                if token.type == tokenize.COMMENT
            ]
        if any(re.match(r"#\s*repro-lint:", comment) for comment in comments):
            found.append(path.relative_to(REPO_ROOT).as_posix())
    return found


SUPPRESSED_FILES = _files_with_directives()


@pytest.fixture(scope="module")
def repo_report():
    return run_lint(LintConfig())


class TestRepoSelfCheck:
    def test_src_repro_is_clean(self, repo_report):
        assert repo_report.new == [], "\n".join(f.render() for f in repo_report.new)
        assert repo_report.exit_code() == 0

    def test_the_only_exemption_is_the_sorted_store_listing(self, repo_report):
        assert [(f.rule, f.path) for f in repo_report.suppressed] == [
            ("D101", "src/repro/search/portfolio.py")
        ]

    def test_directive_files_are_exactly_the_suppressing_files(self, repo_report):
        assert SUPPRESSED_FILES == sorted({f.path for f in repo_report.suppressed})


class TestSuppressionsAreLoadBearing:
    @pytest.mark.parametrize("relpath", SUPPRESSED_FILES)
    def test_deleting_the_suppression_fails_the_gate(self, tmp_path, relpath):
        source = (REPO_ROOT / relpath).read_text()
        stripped = re.sub(r"\s*# repro-lint:[^\n]*", "", source)
        assert stripped != source
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(stripped)
        # Rooting at tmp_path keeps the module name (repro.search.portfolio),
        # so the deterministic-module patterns still apply.
        report = run_lint(LintConfig(root=tmp_path), paths=[str(target)])
        assert report.new, f"stripping the suppression in {relpath} exposed nothing"
        assert report.exit_code() == 1

    @pytest.mark.parametrize("relpath", SUPPRESSED_FILES)
    def test_the_suppression_is_intact_and_reasoned(self, tmp_path, relpath):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text((REPO_ROOT / relpath).read_text())
        report = run_lint(LintConfig(root=tmp_path), paths=[str(target)])
        assert report.new == [], "\n".join(f.render() for f in report.new)
        assert report.suppressed, f"{relpath} suppression matched no finding"

    def test_stripping_the_portfolio_directive_exposes_d101(self, tmp_path):
        relpath = "src/repro/search/portfolio.py"
        source = (REPO_ROOT / relpath).read_text()
        target = tmp_path / relpath
        target.parent.mkdir(parents=True)
        target.write_text(re.sub(r"\s*# repro-lint:[^\n]*", "", source))
        report = run_lint(LintConfig(root=tmp_path), paths=[str(target)])
        assert [(f.rule, f.path) for f in report.new] == [("D101", relpath)]

"""The repo-level gate: src/repro is clean and carries no suppression, and
any suppression it ever carries must be load-bearing.

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


def _check_directives_are_load_bearing(root, relpath, source):
    """Fail unless ``source``'s directives suppress findings stripping exposes.

    Rooting at ``root`` keeps the module name (``src/repro/core/x.py`` is
    ``repro.core.x``), so the deterministic-module patterns still apply.
    """
    intact = root / "intact" / relpath
    intact.parent.mkdir(parents=True)
    intact.write_text(source)
    report = run_lint(LintConfig(root=root / "intact"), paths=[str(intact)])
    assert report.new == [], "\n".join(f.render() for f in report.new)
    assert report.suppressed, f"{relpath} suppression matched no finding"

    stripped = re.sub(r"\s*# repro-lint:[^\n]*", "", source)
    assert stripped != source
    target = root / "stripped" / relpath
    target.parent.mkdir(parents=True)
    target.write_text(stripped)
    report = run_lint(LintConfig(root=root / "stripped"), paths=[str(target)])
    assert report.new, f"stripping the suppression in {relpath} exposed nothing"
    assert report.exit_code() == 1


@pytest.fixture(scope="module")
def repo_report():
    return run_lint(LintConfig())


class TestRepoSelfCheck:
    def test_src_repro_is_clean(self, repo_report):
        assert repo_report.new == [], "\n".join(f.render() for f in repo_report.new)
        assert repo_report.exit_code() == 0

    def test_there_are_no_suppressions(self, repo_report):
        assert repo_report.suppressed == []
        assert SUPPRESSED_FILES == []

    def test_directive_files_are_exactly_the_suppressing_files(self, repo_report):
        assert SUPPRESSED_FILES == sorted({f.path for f in repo_report.suppressed})


class TestSuppressionsAreLoadBearing:
    def test_every_repo_directive_is_load_bearing(self, tmp_path):
        # A loop rather than a parametrize: the list is empty today, and an
        # empty parametrize would report a skip instead of a pass.
        for index, relpath in enumerate(SUPPRESSED_FILES):
            source = (REPO_ROOT / relpath).read_text()
            _check_directives_are_load_bearing(tmp_path / str(index), relpath, source)

    def test_the_check_accepts_a_load_bearing_directive(self, tmp_path):
        source = (
            "def order(items):\n"
            "    pool = set(items)\n"
            "    return list(pool)  # repro-lint: disable=D101 -- fixture: load-bearing\n"
        )
        _check_directives_are_load_bearing(tmp_path, "src/repro/search/example.py", source)

    def test_the_check_rejects_a_decorative_directive(self, tmp_path):
        source = (
            "def order(items):\n"
            "    return sorted(items)  # repro-lint: disable=D101 -- fixture: decorative\n"
        )
        with pytest.raises(AssertionError, match="matched no finding"):
            _check_directives_are_load_bearing(tmp_path, "src/repro/search/example.py", source)

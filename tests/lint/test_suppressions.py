"""Suppression-directive semantics: parsing, the three scopes on one rule
of every family, and the S checks on malformed directives."""

import pytest

from repro.lint.config import LintConfig
from repro.lint.runner import run_lint
from repro.lint.suppressions import collect_suppressions

KNOWN = ("D101", "J401", "P201")


def _collect(source):
    return collect_suppressions(source, "mod.py", "mod", KNOWN)


class TestSuppressionDirectives:
    def test_line_scope_with_reason(self):
        sup = _collect("x = list(items)  # repro-lint: disable=D101 -- order is the contract\n")
        assert sup.by_line == {"D101": {1}}
        assert not sup.problems

    def test_file_scope_with_reason(self):
        sup = _collect("# repro-lint: disable-file=P201, J401 -- frozen reference\n")
        assert sup.file_wide == {"P201", "J401"}

    def test_missing_reason_is_s001_and_ignored(self):
        sup = _collect("x = 1  # repro-lint: disable=D101\n")
        assert [p.rule for p in sup.problems] == ["S001"]
        assert not sup.by_line and not sup.file_wide

    def test_unknown_code_is_s002_and_ignored(self):
        sup = _collect("x = 1  # repro-lint: disable=D999 -- typo\n")
        assert [p.rule for p in sup.problems] == ["S002"]
        assert not sup.by_line

    def test_directive_in_string_literal_is_not_a_directive(self):
        sup = _collect('text = "# repro-lint: disable=D101 -- not a comment"\n')
        assert not sup.by_line and not sup.problems

    def test_s001_fails_the_gate(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("import json\nx = json.dumps({})  # repro-lint: disable=J401\n")
        report = run_lint(LintConfig(root=tmp_path, paths=(str(bad),)))
        rules = sorted(f.rule for f in report.new)
        assert "S001" in rules and "J401" in rules  # directive did not suppress
        assert report.exit_code() == 1


class TestScopedSuppressions:
    def test_scope_directive_covers_only_its_def(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "import json\n"
            "\n"
            "\n"
            "def covered(x):\n"
            "    # repro-lint: disable-scope=J401 -- parity with the frozen twin\n"
            "    return json.dumps(x)\n"
            "\n"
            "\n"
            "def uncovered(x):\n"
            "    return json.dumps(x)\n"
        )
        report = run_lint(LintConfig(root=tmp_path, paths=(str(module),)))
        assert [f.rule for f in report.new] == ["J401"]
        assert report.new[0].line == 10  # only the uncovered def reports
        assert [f.rule for f in report.suppressed] == ["J401"]

    def test_innermost_scope_wins(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "import json\n"
            "\n"
            "\n"
            "def outer(x):\n"
            "    def inner(y):\n"
            "        # repro-lint: disable-scope=J401 -- inner only\n"
            "        return json.dumps(y)\n"
            "\n"
            "    return json.dumps(x), inner\n"
        )
        report = run_lint(LintConfig(root=tmp_path, paths=(str(module),)))
        assert [f.rule for f in report.new] == ["J401"]
        assert report.new[0].line == 9  # outer's own call is not covered

    def test_scope_directive_outside_any_def_is_s003(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text(
            "# repro-lint: disable-scope=J401 -- floating directive\n"
            "import json\n"
            "x = json.dumps({})\n"
        )
        report = run_lint(LintConfig(root=tmp_path, paths=(str(module),)))
        rules = sorted(f.rule for f in report.new)
        assert rules == ["J401", "S003"]  # ignored directive suppresses nothing


#: One rule per family, firing on the line that carries ``{line}`` inside
#: ``target``.  ``{file}``, ``{scope}`` and ``{line}`` are where the three
#: directive scopes go; unfilled, they leave the finding unsuppressed.
FAMILY_CASES = {
    "D102": (
        "import random\n"
        "{file}\n"
        "\n"
        "def target():\n"
        "{scope}"
        "    return random.random(){line}\n"
    ),
    "P201": (
        "from repro.api.parallel import map_parallel\n"
        "{file}\n"
        "\n"
        "def target(items):\n"
        "{scope}"
        "    return map_parallel(lambda item: item, items){line}\n"
    ),
    "J402": (
        "{file}\n"
        "\n"
        "def target():\n"
        "{scope}"
        "    import pickle{line}\n"
        "    return pickle\n"
    ),
    "R501": (
        "from repro.api.registry import ALGORITHMS\n"
        "{file}\n"
        "\n"
        "def build(topology):\n"
        "    return topology\n"
        "\n"
        "\n"
        "def target():\n"
        "{scope}"
        '    ALGORITHMS.register("family-case", build){line}\n'
    ),
}

SCOPES = ("line", "disable-scope", "disable-file")


def _render(code, scope=None, named=None):
    """``FAMILY_CASES[code]`` with a ``scope`` directive naming ``named``."""
    directive = f"# repro-lint: {{}}={named or code} -- exercising the directive"
    fills = {"file": "", "scope": "", "line": ""}
    if scope == "line":
        fills["line"] = "  " + directive.format("disable")
    elif scope == "disable-scope":
        fills["scope"] = "    " + directive.format("disable-scope") + "\n"
    elif scope == "disable-file":
        fills["file"] = directive.format("disable-file")
    return FAMILY_CASES[code].format(**fills)


def _lint_source(tmp_path, source):
    module = tmp_path / "mod.py"
    module.write_text(source)
    return run_lint(LintConfig(root=tmp_path, paths=(str(module),)))


class TestScopesAcrossFamilies:
    def test_one_case_per_family(self):
        assert sorted(code[0] for code in FAMILY_CASES) == ["D", "J", "P", "R"]

    @pytest.mark.parametrize("code", sorted(FAMILY_CASES))
    def test_undirected_case_fires(self, tmp_path, code):
        report = _lint_source(tmp_path, _render(code))
        assert [f.rule for f in report.new] == [code]
        assert report.suppressed == []

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("code", sorted(FAMILY_CASES))
    def test_each_scope_suppresses(self, tmp_path, code, scope):
        report = _lint_source(tmp_path, _render(code, scope))
        assert report.new == [], "\n".join(f.render() for f in report.new)
        assert [f.rule for f in report.suppressed] == [code]
        assert report.exit_code() == 0

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("code", sorted(FAMILY_CASES))
    def test_directive_for_another_rule_suppresses_nothing(self, tmp_path, code, scope):
        codes = sorted(FAMILY_CASES)
        other = codes[(codes.index(code) + 1) % len(codes)]
        report = _lint_source(tmp_path, _render(code, scope, named=other))
        assert [f.rule for f in report.new] == [code]
        assert report.suppressed == []

"""Inline suppression comments: ``# repro-lint: disable=RULE -- reason``.

Three scopes:

* line scope — a trailing comment on the offending line:
  ``x = list(items)  # repro-lint: disable=D101 -- insertion order is the contract here``
* function/class scope — a standalone comment *inside* a ``def`` or
  ``class`` body suppresses the named rules for that whole definition:
  ``# repro-lint: disable-scope=D104 -- parity with the frozen twin's association``
* file scope — a standalone comment anywhere in the module:
  ``# repro-lint: disable-file=J401 -- fixture: exercising the suppression machinery``

Every suppression **requires** a trailing reason after ``--``.  A
suppression without one does not suppress anything and additionally raises
an ``S001`` finding; naming a rule code the analyzer does not know raises
``S002`` (typo protection — a misspelled code would otherwise silently
suppress nothing while looking authoritative in review).  A ``disable-scope``
directive outside any ``def``/``class`` raises ``S003`` — it would otherwise
read as narrowly scoped while suppressing nothing.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from typing import Dict, Iterable, List, Set, Tuple

from repro.lint.findings import Finding

__all__ = ["Suppressions", "collect_suppressions"]

_PATTERN = re.compile(
    r"#\s*repro-lint:\s*(?P<scope>disable(?:-file|-scope)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass
class Suppressions:
    """Parsed suppression directives for one module."""

    #: rule code -> line numbers carrying a valid line-scoped suppression.
    by_line: Dict[str, Set[int]] = field(default_factory=dict)
    #: rule code -> (start, end) line ranges from resolved scope directives.
    by_range: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    #: rule codes suppressed for the whole file (with a valid reason).
    file_wide: Set[str] = field(default_factory=set)
    #: valid ``disable-scope`` directives awaiting :meth:`resolve_scopes`:
    #: (codes, line, col, snippet).
    pending_scopes: List[Tuple[Tuple[str, ...], int, int, str]] = field(
        default_factory=list
    )
    #: malformed/unknown-code directives, reported as S-findings.
    problems: List[Finding] = field(default_factory=list)

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule in self.file_wide:
            return True
        if finding.line in self.by_line.get(finding.rule, ()):
            return True
        return any(
            start <= finding.line <= end
            for start, end in self.by_range.get(finding.rule, ())
        )

    def resolve_scopes(self, tree: ast.Module, path: str, module: str) -> None:
        """Attach each ``disable-scope`` directive to its enclosing def/class.

        The innermost ``def``/``class`` whose span contains the directive
        line wins; a directive outside any definition raises ``S003``.
        """
        spans: List[Tuple[int, int]] = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                end = getattr(node, "end_lineno", None) or node.lineno
                spans.append((node.lineno, end))
        for codes, line, col, snippet in self.pending_scopes:
            enclosing = [
                span for span in spans if span[0] <= line <= span[1]
            ]
            if not enclosing:
                self.problems.append(
                    Finding(
                        rule="S003",
                        path=path,
                        line=line,
                        col=col,
                        message=(
                            "disable-scope directive is not inside any def/class "
                            "body; use disable-file for module-wide suppression "
                            "(directive ignored)"
                        ),
                        snippet=snippet,
                        module=module,
                    )
                )
                continue
            # Innermost = smallest containing span.
            start, end = min(enclosing, key=lambda span: span[1] - span[0])
            for code in codes:
                self.by_range.setdefault(code, []).append((start, end))
        self.pending_scopes = []


def collect_suppressions(
    source: str, path: str, module: str, known_rules: Iterable[str]
) -> Suppressions:
    """Extract every suppression directive from ``source``.

    Comments are found with :mod:`tokenize` so that directive-looking text
    inside string literals is never treated as a directive.  Scope
    directives are recorded but only take effect after
    :meth:`Suppressions.resolve_scopes` runs with the parsed tree.
    """
    known = set(known_rules)
    suppressions = Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions  # the parse-error path reports separately
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PATTERN.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        codes = [code.strip().upper() for code in match.group("rules").split(",") if code.strip()]
        reason = match.group("reason")
        snippet = token.string.strip()
        if not reason:
            suppressions.problems.append(
                Finding(
                    rule="S001",
                    path=path,
                    line=line,
                    col=token.start[1] + 1,
                    message=(
                        "suppression requires a trailing reason: "
                        "`# repro-lint: disable=RULE -- why this is exempt` "
                        "(directive ignored)"
                    ),
                    snippet=snippet,
                    module=module,
                )
            )
            continue
        unknown = [code for code in codes if code not in known]
        if unknown:
            suppressions.problems.append(
                Finding(
                    rule="S002",
                    path=path,
                    line=line,
                    col=token.start[1] + 1,
                    message=(
                        f"suppression names unknown rule(s) {', '.join(unknown)} "
                        "(directive ignored; see `tacos-repro lint --list-rules`)"
                    ),
                    snippet=snippet,
                    module=module,
                )
            )
            continue
        scope = match.group("scope")
        if scope == "disable-file":
            suppressions.file_wide.update(codes)
        elif scope == "disable-scope":
            suppressions.pending_scopes.append(
                (tuple(codes), line, token.start[1] + 1, snippet)
            )
        else:
            for code in codes:
                suppressions.by_line.setdefault(code, set()).add(line)
    return suppressions

"""J family — artifact hygiene.

Recorded artifacts (bench reports, cached results, exported algorithms) are
the platform's cross-PR evidence chain, so they must be strict,
re-readable JSON: Python's ``json`` module happily writes ``NaN`` /
``Infinity`` literals that no compliant parser (including a fresh
``json.loads`` round-trip through other tools) accepts, unless the call
explicitly decides ``allow_nan``.  And pickle is banned outright under
``src/repro/``: artifacts must be readable by any consumer, safe to load
from untrusted stores, and diffable — the ArtifactStore's raw column
blobs + strict-JSON design exists precisely to avoid it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.context import ModuleContext, ProjectIndex
from repro.lint.findings import Finding, FixEdit

__all__ = ["RULES", "check"]

RULES: Dict[str, str] = {
    "J401": "json.dump(s) without an explicit allow_nan decision",
    "J402": "pickle (or allow_pickle=True) used under src/repro",
}

_PICKLE_MODULES = {"pickle", "cPickle", "_pickle", "dill", "cloudpickle", "shelve", "marshal"}


def check(context: ModuleContext, index: ProjectIndex) -> Iterator[Finding]:
    yield from _check_json_calls(context)
    yield from _check_pickle(context)


def _allow_nan_fix(node: ast.Call) -> Optional[Tuple[FixEdit, ...]]:
    """Insert ``, allow_nan=False`` after the call's last argument."""
    ends = []
    for argument in (*node.args, *node.keywords):
        end_lineno = getattr(argument, "end_lineno", None)
        end_col = getattr(argument, "end_col_offset", None)
        if end_lineno is None or end_col is None:
            return None
        ends.append((end_lineno, end_col))
    if not ends:
        return None
    line, col = max(ends)
    return ((line, col, line, col, ", allow_nan=False"),)


def _check_json_calls(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = context.qualified_name(node.func)
        if qualified not in ("json.dump", "json.dumps"):
            continue
        keywords = {keyword.arg for keyword in node.keywords if keyword.arg is not None}
        has_double_star = any(keyword.arg is None for keyword in node.keywords)
        if "allow_nan" in keywords or has_double_star:
            continue
        yield context.finding(
            "J401",
            node,
            f"{qualified}() without an explicit allow_nan decision emits "
            "non-standard NaN/Infinity literals on non-finite input; pass "
            "allow_nan=False for strict artifacts (or allow_nan=True to "
            "document that the payload may carry non-finite floats)",
            fix=_allow_nan_fix(node),
        )


def _check_pickle(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _PICKLE_MODULES:
                    yield context.finding(
                        "J402",
                        node,
                        f"import of {alias.name!r}: pickle-family serialization is "
                        "banned under src/repro — artifacts must be strict JSON "
                        "or raw column blobs (see repro.api.cache.ArtifactStore)",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root in _PICKLE_MODULES:
                yield context.finding(
                    "J402",
                    node,
                    f"import from {node.module!r}: pickle-family serialization is "
                    "banned under src/repro — artifacts must be strict JSON "
                    "or raw column blobs (see repro.api.cache.ArtifactStore)",
                )
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if (
                    keyword.arg == "allow_pickle"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    yield context.finding(
                        "J402",
                        node,
                        "allow_pickle=True lets numpy unpickle arbitrary objects "
                        "from disk; the artifact store's contract is allow_pickle "
                        "off at both ends",
                    )

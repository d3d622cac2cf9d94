"""Rule-family registry: every rule code, its family, and its checker.

Each family module exposes ``check(context, index)`` yielding
:class:`~repro.lint.findings.Finding` objects, plus a ``RULES`` mapping of
``code -> one-line description`` used by ``--list-rules``, the docs, and
suppression validation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.lint.context import ModuleContext, ProjectIndex
from repro.lint.findings import Finding
from repro.lint.rules import (
    artifacts,
    columnar,
    determinism,
    process_safety,
    registry_contracts,
)

__all__ = ["ALL_RULES", "FAMILIES", "run_rules"]

#: (family letter, family name, module) in reporting order.
FAMILIES: List[Tuple[str, str, object]] = [
    ("D", "determinism", determinism),
    ("P", "process-safety", process_safety),
    ("C", "columnar hot path", columnar),
    ("J", "artifact hygiene", artifacts),
    ("R", "registry contracts", registry_contracts),
]

#: Meta rules emitted by the suppression parser itself.
_META_RULES: Dict[str, str] = {
    "S001": "suppression directive is missing its required `-- reason`",
    "S002": "suppression directive names an unknown rule code",
    "S003": "disable-scope directive outside any def/class body",
    "E000": "file could not be parsed as Python",
}


def _collect_rules() -> Dict[str, str]:
    rules: Dict[str, str] = dict(_META_RULES)
    for _, _, module in FAMILIES:
        rules.update(module.RULES)
    return rules


#: Every known rule code -> description.
ALL_RULES: Dict[str, str] = _collect_rules()


def run_rules(
    context: ModuleContext, index: ProjectIndex, disabled: Iterable[str] = ()
) -> Iterator[Finding]:
    """Run every enabled rule family over one module."""
    off = {code.upper() for code in disabled}
    for _, _, module in FAMILIES:
        if all(code in off for code in module.RULES):
            continue
        for finding in module.check(context, index):
            if finding.rule not in off:
                yield finding

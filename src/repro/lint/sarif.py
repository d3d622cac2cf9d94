"""SARIF 2.1.0 serialization of a :class:`~repro.lint.runner.LintReport`.

One run, one tool (``repro-lint``), every known rule in the driver catalog.
New findings are ``error`` level; baselined findings carry an ``external``
suppression (the checked-in baseline) and inline-suppressed findings an
``inSource`` one, so CI annotation surfaces only the gate-failing results
while the full picture stays in the artifact.  Output is deterministic:
results are sorted the same way as the text report, and the fingerprint
mirrors the baseline's ``(rule, path, snippet)`` identity.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES
from repro.lint.runner import LintReport

__all__ = ["to_sarif"]

_SARIF_SPEC_URI = "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/sarif-schema-2.1.0.json"


def _result(finding: Finding, suppression_kind: str = "") -> Dict[str, Any]:
    fingerprint = hashlib.sha256(
        "\x00".join(finding.fingerprint()).encode("utf-8")
    ).hexdigest()
    result: Dict[str, Any] = {
        "ruleId": finding.rule,
        "level": "error" if not suppression_kind else "note",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": max(1, finding.col),
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": fingerprint},
    }
    if suppression_kind:
        result["suppressions"] = [{"kind": suppression_kind}]
    return result


def to_sarif(report: LintReport, version: str) -> Dict[str, Any]:
    rules = [
        {
            "id": code,
            "shortDescription": {"text": description},
        }
        for code, description in sorted(ALL_RULES.items())
    ]
    ordered = sorted(
        [(finding, "") for finding in report.new]
        + [(finding, "external") for finding in report.baselined]
        + [(finding, "inSource") for finding in report.suppressed],
        key=lambda item: (item[0].path, item[0].line, item[0].rule, item[1]),
    )
    results: List[Dict[str, Any]] = [
        _result(finding, kind) for finding, kind in ordered
    ]
    return {
        "$schema": _SARIF_SPEC_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": version,
                        "rules": rules,
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }

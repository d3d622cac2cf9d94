"""Command-line front end: ``tacos-repro lint`` / ``python -m repro.lint``.

Exit-code contract (the same as ``tacos-repro experiments``):

* ``0`` — clean: no unsuppressed findings;
* ``1`` — findings: the gate fails;
* ``2`` — bad arguments, a missing path, or unparseable input.

The scan is rooted at the checkout holding the imported ``repro`` package,
so the report is the same from any working directory.  Explicit ``paths``
are taken relative to the working directory, as a shell user expects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.lint.config import LintConfig
from repro.lint.rules import ALL_RULES, FAMILIES
from repro.lint.runner import LintReport, run_lint

__all__ = ["build_parser", "main", "run_from_args"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacos-repro lint",
        description=(
            "Flow-sensitive invariant analyzer: determinism (D), process-safety "
            "(P), artifact hygiene (J), registry contracts (R)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src/repro of this checkout)",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report (strict JSON)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def _list_rules() -> int:
    for letter, family_name, module in FAMILIES:
        print(f"{letter} — {family_name}:")
        for code in sorted(module.RULES):
            print(f"  {code}  {module.RULES[code]}")
        print()
    print("meta:")
    for code in ("S001", "S002", "S003", "E000"):
        print(f"  {code}  {ALL_RULES[code]}")
    return 0


def _print_report(report: LintReport) -> None:
    for finding in report.new:
        print(finding.render())
    print(
        f"{report.files_checked} file(s) checked: {len(report.new)} finding(s), "
        f"{len(report.suppressed)} suppressed"
    )


def run_from_args(arguments: argparse.Namespace) -> int:
    if arguments.list_rules:
        return _list_rules()
    paths = [os.path.abspath(path) for path in arguments.paths]
    report = run_lint(LintConfig(), paths=paths or None)
    parse_errors = [finding for finding in report.new if finding.rule == "E000"]
    if parse_errors:
        for finding in parse_errors:
            print(finding.render(), file=sys.stderr)
        return 2
    if arguments.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False))
    else:
        _print_report(report)
    return report.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code (0 clean / 1 findings / 2 usage)."""
    parser = build_parser()
    try:
        arguments = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help; surface it as a
        # return code so embedding callers (the tacos-repro CLI) keep the
        # exit contract without a SystemExit flying through them.
        return int(exc.code or 0)
    try:
        return run_from_args(arguments)
    except BrokenPipeError:
        # Downstream consumer (e.g. `lint --list-rules | head`) closed the
        # pipe; silence the interpreter's flush-on-exit complaint and leave.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

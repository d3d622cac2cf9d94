"""Command-line front end: ``tacos-repro lint`` / ``python -m repro.lint``.

Exit-code contract (matching ``experiments/runner.py`` since PR 1):

* ``0`` — clean: no non-baselined findings (and, under ``--strict``, no
  stale baseline entries);
* ``1`` — findings: the gate fails;
* ``2`` — bad arguments, unreadable config/baseline, or unparseable input.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.api.parallel import BACKENDS
from repro.errors import ReproError
from repro.lint.baseline import Baseline, load_baseline, write_baseline
from repro.lint.config import LintConfig, load_config
from repro.lint.rules import ALL_RULES, FAMILIES
from repro.lint.runner import LintReport, run_lint

__all__ = ["build_parser", "main", "run_from_args"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacos-repro lint",
        description=(
            "Flow-sensitive invariant analyzer: determinism (D), process-safety "
            "(P), columnar hot paths (C), artifact hygiene (J), registry "
            "contracts (R)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: [tool.repro-lint] paths)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail (exit 1) on stale baseline entries, so the baseline "
        "can only ever shrink",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        default=None,
        help="explicit pyproject.toml carrying [tool.repro-lint] "
        "(default: discovered upward from the working directory)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file overriding the configured one",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to exactly the current findings and exit 0",
    )
    parser.add_argument(
        "--disable",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule codes to disable (repeatable)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="analyze only files changed versus git HEAD (plus untracked); "
        "falls back to a full run when git is unavailable",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply the mechanical autofixes findings carry, then re-run",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan per-module analysis out across N workers "
        "(pool backend unless --execution says otherwise)",
    )
    parser.add_argument(
        "--execution",
        choices=sorted(BACKENDS),
        default=None,
        help="execution backend for the per-module fan-out",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the incremental findings cache",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        dest="output_format",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable report (alias for --format json)",
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


def _print_report(report: LintReport, strict: bool) -> None:
    for finding in sorted(
        report.new, key=lambda item: (item.path, item.line, item.rule)
    ):
        print(finding.render())
    for entry in report.stale_baseline:
        marker = "error" if strict else "warning"
        print(
            f"{entry['path']}: {marker}: stale baseline entry for {entry['rule']} "
            f"(snippet no longer found: {entry['snippet']!r}); delete it from the "
            "baseline",
            file=sys.stderr,
        )
    summary = (
        f"{report.files_checked} file(s) checked: {len(report.new)} finding(s), "
        f"{len(report.baselined)} baselined, {len(report.suppressed)} suppressed"
    )
    if report.stale_baseline:
        summary += f", {len(report.stale_baseline)} stale baseline entr(y/ies)"
    print(summary)
    if report.cache_hits or report.cache_misses:
        print(
            f"cache: {report.cache_hits} warm, {report.cache_misses} analyzed",
            file=sys.stderr,
        )


def _changed_paths(config: LintConfig) -> Optional[List[str]]:
    """Changed-vs-HEAD + untracked ``.py`` files under the configured roots.

    Returns ``None`` when git is unavailable or errors (callers fall back to
    a full run) and ``[]`` when git ran fine but nothing relevant changed.
    """
    collected: List[str] = []
    for arguments in (
        ("diff", "--name-only", "HEAD"),
        ("ls-files", "--others", "--exclude-standard"),
    ):
        try:
            completed = subprocess.run(
                ("git", "-C", str(config.root), *arguments),
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        collected.extend(
            line.strip() for line in completed.stdout.splitlines() if line.strip()
        )
    roots = tuple(path.rstrip("/") for path in config.paths)
    changed = sorted(
        {
            path
            for path in collected
            if path.endswith(".py")
            and any(
                path == root or path.startswith(root + "/") for root in roots
            )
            and (config.root / path).is_file()
        }
    )
    return changed


def _emit(report: LintReport, arguments: argparse.Namespace) -> None:
    output_format = arguments.output_format or (
        "json" if arguments.json else "text"
    )
    if output_format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False))
    elif output_format == "sarif":
        from repro import __version__
        from repro.lint.sarif import to_sarif

        print(
            json.dumps(
                to_sarif(report, __version__),
                indent=2,
                sort_keys=True,
                allow_nan=False,
            )
        )
    else:
        _print_report(report, arguments.strict)


def run_from_args(arguments: argparse.Namespace) -> int:
    if arguments.list_rules:
        return _list_rules()

    config_path = Path(arguments.config) if arguments.config else None
    if config_path is not None and not config_path.is_file():
        print(f"error: config {config_path} does not exist", file=sys.stderr)
        return 2
    config: LintConfig = load_config(config_path)

    disable: List[str] = []
    for chunk in arguments.disable:
        disable.extend(code.strip() for code in chunk.split(",") if code.strip())

    baseline_path = (
        Path(arguments.baseline) if arguments.baseline else config.baseline_path()
    )
    baseline: Optional[Baseline]
    if arguments.no_baseline or arguments.update_baseline:
        baseline = Baseline()
    else:
        baseline = load_baseline(baseline_path)

    paths: Optional[Sequence[str]] = arguments.paths or None
    scoped = False
    if arguments.changed and not arguments.paths:
        changed = _changed_paths(config)
        if changed is None:
            print(
                "warning: --changed needs git; falling back to a full run",
                file=sys.stderr,
            )
        elif not changed:
            print("0 file(s) checked: no tracked changes to analyze")
            return 0
        else:
            paths = changed
            scoped = True

    def analyze() -> LintReport:
        return run_lint(
            config,
            paths=paths,
            baseline=baseline,
            disable=disable,
            workers=arguments.workers,
            execution=arguments.execution,
            use_cache=not arguments.no_cache,
        )

    report = analyze()
    if any(finding.rule == "E000" for finding in report.new):
        for finding in report.new:
            if finding.rule == "E000":
                print(finding.render(), file=sys.stderr)
        return 2

    if arguments.fix:
        from repro.lint.fixes import apply_fixes

        applied = apply_fixes(report.fixable_findings(), config.root)
        if applied:
            total = sum(applied.values())
            print(
                f"fixed {total} finding(s) in {len(applied)} file(s)",
                file=sys.stderr,
            )
            report = analyze()

    if arguments.update_baseline:
        write_baseline(Baseline.from_findings(report.new), baseline_path)
        print(
            f"baseline updated: {baseline_path} now grandfathers "
            f"{len(report.new)} finding(s)"
        )
        return 0

    if scoped and report.stale_baseline:
        # A scoped run only saw a slice of the tree, so absent baseline
        # entries are expected — never fail strict mode on them here.
        report.stale_baseline = []
    _emit(report, arguments)
    return report.exit_code(strict=arguments.strict)


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
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""One serial lint pass: discover files, parse them, run every rule family,
apply inline suppressions, and fold the result into a :class:`LintReport`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.lint.config import LintConfig
from repro.lint.context import ModuleContext, ProjectIndex, module_name_for
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES, run_rules
from repro.lint.suppressions import collect_suppressions

__all__ = ["LintPathError", "LintReport", "run_lint"]


class LintPathError(ReproError):
    """Raised when a configured or requested lint path does not exist."""


@dataclass
class LintReport:
    """Everything one analyzer run produced, pre-partitioned for the gate."""

    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    def exit_code(self) -> int:
        """The gate: 1 on any unsuppressed finding."""
        return 1 if self.new else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "new": [finding.to_dict() for finding in self.new],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "summary": {"new": len(self.new), "suppressed": len(self.suppressed)},
        }


def _discover_files(config: LintConfig, paths: Optional[Sequence[str]]) -> List[Path]:
    requested = list(paths) if paths else list(config.paths)
    files: List[Path] = []
    seen = set()
    for entry in requested:
        target = Path(entry)
        if not target.is_absolute():
            target = config.root / target
        if target.is_file() and target.suffix == ".py":
            candidates = [target]
        elif target.is_dir():
            candidates = sorted(target.rglob("*.py"))
        else:
            raise LintPathError(f"lint path {entry!r} is not a file or directory")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _relative_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_modules(
    files: Sequence[Path], config: LintConfig
) -> Tuple[Dict[str, ModuleContext], List[Finding]]:
    contexts: Dict[str, ModuleContext] = {}
    errors: List[Finding] = []
    for path in files:
        relative = _relative_path(path, config.root)
        try:
            source = path.read_text()
        except OSError as exc:
            raise LintPathError(f"cannot read {relative}: {exc}") from exc
        module_name = module_name_for(path, config.root)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule="E000",
                    path=relative,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                    snippet="",
                    module=module_name,
                )
            )
            continue
        contexts[module_name] = ModuleContext(
            path=path,
            relative_path=relative,
            source=source,
            tree=tree,
            module_name=module_name,
            config=config,
        )
    return contexts, errors


def run_lint(config: LintConfig, *, paths: Optional[Sequence[str]] = None) -> LintReport:
    """Lint ``paths`` (default: ``config.paths``) and partition the findings.

    Every module is parsed first, so the project index that cross-module
    rules consult (re-export chains, set-returning functions) sees the whole
    scan before any rule runs.
    """
    files = _discover_files(config, paths)
    contexts, parse_errors = _parse_modules(files, config)
    index = ProjectIndex(contexts)

    new: List[Finding] = list(parse_errors)
    suppressed: List[Finding] = []
    for module_name in sorted(contexts):
        context = contexts[module_name]
        suppressions = collect_suppressions(
            context.source, context.relative_path, module_name, ALL_RULES
        )
        suppressions.resolve_scopes(context.tree, context.relative_path, module_name)
        new.extend(suppressions.problems)
        for finding in run_rules(context, index):
            if suppressions.suppresses(finding):
                suppressed.append(finding)
            else:
                new.append(finding)

    new.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    suppressed.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    return LintReport(new=new, suppressed=suppressed, files_checked=len(files))

"""Analysis orchestration: discover files, run rules (optionally fanned out
across the execution-backend seam, with a warm per-module findings cache),
apply suppressions and the baseline, and fold everything into a
:class:`LintReport`.

The per-module analysis is a module-level task function over a picklable
payload, so ``--workers``/``--execution`` dogfoods the same
:func:`repro.api.parallel.map_parallel` seam the simulator uses — including
the pool backend, which is exactly what rule P201 polices.  Cross-module
facts travel as :class:`~repro.lint.context.ProjectSummaries`; each worker
re-parses its module source (cheap, and the only process-safe option).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.parallel import map_parallel
from repro.errors import ReproError
from repro.lint.baseline import Baseline
from repro.lint.cache import (
    FindingsCache,
    analysis_digest,
    config_digest,
    summaries_digest,
)
from repro.lint.config import LintConfig
from repro.lint.context import (
    ModuleContext,
    ProjectIndex,
    ProjectSummaries,
    module_name_for,
)
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES, run_rules
from repro.lint.suppressions import collect_suppressions

__all__ = ["LintReport", "lint_paths", "run_lint"]


class LintPathError(ReproError):
    """Raised when a configured or requested lint path does not exist."""


@dataclass
class LintReport:
    """Everything one analyzer run produced, pre-partitioned for the gate."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stale_baseline: List[Dict[str, object]] = field(default_factory=list)
    files_checked: int = 0
    #: cache statistics; deliberately excluded from :meth:`to_dict` so warm
    #: and cold runs stay byte-identical on every serialized format.
    cache_hits: int = 0
    cache_misses: int = 0

    def exit_code(self, strict: bool = False) -> int:
        """The gate: 1 on any non-baselined finding (and, under ``--strict``,
        on stale baseline entries so the baseline can only shrink)."""
        if self.new:
            return 1
        if strict and self.stale_baseline:
            return 1
        return 0

    def all_findings(self) -> List[Finding]:
        return sorted(
            self.new + self.baselined + self.suppressed,
            key=lambda finding: (finding.path, finding.line, finding.rule),
        )

    def fixable_findings(self) -> List[Finding]:
        """Findings (new or baselined — not suppressed) carrying a fix."""
        return [
            finding
            for finding in (*self.new, *self.baselined)
            if finding.fix is not None
        ]

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "new": [finding.to_dict() for finding in self.new],
            "baselined": [finding.to_dict() for finding in self.baselined],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
            "stale_baseline": list(self.stale_baseline),
            "summary": {
                "new": len(self.new),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "stale_baseline": len(self.stale_baseline),
            },
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


@dataclass
class _ModuleTask:
    """Picklable per-module analysis payload for the fan-out seam."""

    relative_path: str
    module_name: str
    source: str
    config: LintConfig
    summaries: ProjectSummaries
    disabled: Tuple[str, ...]


def _analyze_module_task(
    task: _ModuleTask,
) -> Tuple[str, List[Finding], List[Finding]]:
    """Run every rule over one module; returns (path, raw, suppressed).

    Module-level by design: this callable crosses the process boundary under
    ``--execution pool`` (rule P201's own requirement).  The source was
    already validated by the parent, so the re-parse cannot fail outside a
    torn write race — which surfaces as E000 on the next run.
    """
    tree = ast.parse(task.source)
    context = ModuleContext(
        path=task.config.root / task.relative_path,
        relative_path=task.relative_path,
        source=task.source,
        tree=tree,
        module_name=task.module_name,
        config=task.config,
    )
    index = ProjectIndex.from_summaries(task.summaries)
    suppressions = collect_suppressions(
        task.source, task.relative_path, task.module_name, ALL_RULES
    )
    suppressions.resolve_scopes(tree, task.relative_path, task.module_name)
    raw: List[Finding] = [
        problem for problem in suppressions.problems if problem.rule not in task.disabled
    ]
    suppressed: List[Finding] = []
    for finding in run_rules(context, index, task.disabled):
        if suppressions.suppresses(finding):
            suppressed.append(finding)
        else:
            raw.append(finding)
    return task.relative_path, raw, suppressed


def run_lint(
    config: LintConfig,
    *,
    paths: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    disable: Sequence[str] = (),
    workers: Optional[int] = None,
    execution: Optional[str] = None,
    use_cache: bool = False,
) -> LintReport:
    """Run the full analysis and partition findings against ``baseline``.

    ``workers``/``execution`` fan the per-module analysis out through
    :func:`repro.api.parallel.map_parallel` (serial when unset);
    ``use_cache`` reuses per-module findings whose analysis digest is
    unchanged and refreshes the cache file afterwards.
    """
    unknown = sorted(
        {code.upper() for code in (*config.disable, *disable)} - set(ALL_RULES)
    )
    if unknown:
        raise ReproError(
            f"unknown rule code(s) in disable list: {', '.join(unknown)}"
        )
    disabled = tuple(sorted({code.upper() for code in (*config.disable, *disable)}))
    files = _discover_files(config, paths)
    contexts, parse_errors = _parse_modules(files, config)
    index = ProjectIndex(contexts)
    summaries = index.summaries()

    cache = FindingsCache(config.cache_path() if use_cache else None)
    config_hash = config_digest(config)
    summaries_hash = summaries_digest(summaries)
    digests: Dict[str, str] = {}
    results: Dict[str, Tuple[List[Finding], List[Finding]]] = {}
    tasks: List[_ModuleTask] = []
    for module_name in sorted(contexts):
        context = contexts[module_name]
        digest = analysis_digest(context.source, config_hash, summaries_hash, disabled)
        digests[context.relative_path] = digest
        cached = cache.get(context.relative_path, digest)
        if cached is not None:
            results[context.relative_path] = cached
            continue
        tasks.append(
            _ModuleTask(
                relative_path=context.relative_path,
                module_name=module_name,
                source=context.source,
                config=config,
                summaries=summaries,
                disabled=disabled,
            )
        )

    for relative_path, raw_found, suppressed_found in map_parallel(
        _analyze_module_task, tasks, max_workers=workers, backend=execution
    ):
        results[relative_path] = (raw_found, suppressed_found)
        cache.put(relative_path, digests[relative_path], raw_found, suppressed_found)
    cache.save()

    raw: List[Finding] = list(parse_errors)
    suppressed: List[Finding] = []
    for relative_path in sorted(results):
        module_raw, module_suppressed = results[relative_path]
        raw.extend(module_raw)
        suppressed.extend(module_suppressed)

    raw.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    suppressed.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    effective_baseline = baseline if baseline is not None else Baseline()
    new, baselined, stale = effective_baseline.partition(raw)
    return LintReport(
        new=new,
        baselined=baselined,
        suppressed=suppressed,
        stale_baseline=stale,
        files_checked=len(files),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def lint_paths(
    paths: Sequence[str],
    *,
    config: Optional[LintConfig] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Convenience API: lint explicit paths with an optional config."""
    return run_lint(config or LintConfig(), paths=paths, baseline=baseline)

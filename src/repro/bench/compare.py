"""Bench trend tracking: compare two ``BENCH_*.json`` reports across PRs.

``tacos-repro bench --compare [PREV]`` runs a grid, writes the new report,
then diffs it per scenario against a previous report (by default the newest
``BENCH_<grid>_*.json`` under ``benchmarks/results/``) and fails loudly when
the median per-scenario wall-clock ratio regresses past a threshold.  This is
the ROADMAP's "bench trend tracking across PRs": CI keeps the artifact chain
honest, and local runs can diff against any recorded baseline.

Reports are parsed strictly: a bare ``NaN`` / ``Infinity`` constant (which
:func:`json.dumps` emits unless ``allow_nan=False``) is rejected instead of
silently round-tripping, so a malformed artifact fails at the comparison
boundary rather than corrupting the trend.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import ReproError

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "DEFAULT_THRESHOLD",
    "ScenarioDelta",
    "compare_reports",
    "find_previous_report",
    "load_history",
    "load_report",
    "speedup_history",
]

#: Where recorded benchmark reports live in the repository.
DEFAULT_RESULTS_DIR = "benchmarks/results"

#: Median per-scenario slowdown beyond which the comparison fails (20%).
DEFAULT_THRESHOLD = 0.20

_SCHEMA_PREFIX = "tacos-repro-bench/"


def _reject_constant(value: str) -> None:
    raise ReproError(
        f"bench report contains the non-finite JSON constant {value!r}; "
        "reports must be strict JSON (regenerate with a current tacos-repro)"
    )


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and validate a ``BENCH_*.json`` report (strict JSON, any schema version)."""
    path = Path(path)
    try:
        report = json.loads(path.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from None
    schema = str(report.get("schema", ""))
    if not schema.startswith(_SCHEMA_PREFIX):
        raise ReproError(
            f"{path} does not look like a bench report (schema {schema!r})"
        )
    return report


def _report_order_key(path: Path) -> tuple:
    """Chronological sort key for ``BENCH_<grid>_<stamp>[-N].json`` names.

    Filenames embed a UTC timestamp, so plain lexicographic order is almost
    chronological — except same-second collision suffixes: ``<stamp>-1.json``
    is *newer* than ``<stamp>.json`` but ``-`` sorts before ``.``.  Splitting
    the numeric suffix out restores the true order.
    """
    stem = path.stem
    base, sep, suffix = stem.rpartition("-")
    if sep and suffix.isdigit():
        return (base, int(suffix))
    return (stem, -1)


def find_previous_report(
    grid: str,
    directory: Union[str, Path] = DEFAULT_RESULTS_DIR,
    *,
    exclude: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Newest recorded ``BENCH_<grid>_*.json``, or ``None`` when none exists.

    ``exclude`` drops the report just written, so comparing into the same
    directory never diffs a report against itself.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob(f"BENCH_{grid}_*.json"), key=_report_order_key)
    if exclude is not None:
        excluded = Path(exclude).resolve()
        candidates = [path for path in candidates if path.resolve() != excluded]
    return candidates[-1] if candidates else None


def load_history(
    directory: Union[str, Path] = DEFAULT_RESULTS_DIR,
    *,
    grid: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Every recorded report under ``directory``, chronological within a grid.

    Returns ``[{"path": Path, "report": dict}, ...]`` ordered by filename —
    which groups reports by grid and, within a grid, sorts them by their
    embedded UTC timestamp (same-second ``-N`` suffixes handled).  Pass
    ``grid`` to restrict to one grid's chain.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    pattern = f"BENCH_{grid}_*.json" if grid else "BENCH_*.json"
    return [
        {"path": path, "report": load_report(path)}
        for path in sorted(directory.glob(pattern), key=_report_order_key)
    ]


def _layer_medians(report: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """Median per-layer wall times across a report's pipeline records.

    Schema v4 pipeline records carry ``layer_seconds`` (synthesize / verify /
    simulate / metrics); older reports return ``None``.
    """
    samples: Dict[str, List[float]] = {}
    for record in report.get("records", []):
        layers = record.get("layer_seconds")
        if not layers:
            continue
        for layer, seconds in layers.items():
            samples.setdefault(layer, []).append(float(seconds))
    if not samples:
        return None
    return {layer: statistics.median(values) for layer, values in samples.items()}


def _kernel_tiers(report: Dict[str, Any]) -> Optional[str]:
    """Distinct per-record kernel tiers of a report, ``None`` for pre-v5 ones.

    v5 records carry a nullable ``kernel`` field (the compiled tier the
    record timed, or ``null``); older schemas have no such key at all, and both cases must
    render as absent rather than KeyError.
    """
    tiers = {
        record.get("kernel")
        for record in report.get("records", [])
        if record.get("kernel") is not None
    }
    return "+".join(sorted(tiers)) if tiers else None


def speedup_history(
    directory: Union[str, Path] = DEFAULT_RESULTS_DIR,
    *,
    grid: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Cross-PR median-speedup trajectory over the recorded artifact chain.

    Walks every ``BENCH_<grid>_*.json`` under ``directory`` (optionally one
    grid) and returns one row per report: the grid, filename, creation time,
    library version, the summary's median (synthesis/pipeline) and simulator
    speedups, the per-layer pipeline attribution medians (schema v4 reports),
    and the ratio of the median speedup against the *previous* report of the
    same grid (> 1 means the recorded speedup grew).  This is the
    ``tacos-repro bench --history`` payload.
    """
    rows: List[Dict[str, Any]] = []
    previous_median: Dict[Optional[str], Optional[float]] = {}
    for entry in load_history(directory, grid=grid):
        report = entry["report"]
        summary = report.get("summary", {})
        report_grid = report.get("grid")
        median = summary.get("median_speedup")
        simulation_median = summary.get("median_simulation_speedup")
        trajectory: Optional[float] = None
        earlier = previous_median.get(report_grid)
        if (
            median is not None
            and earlier is not None
            and earlier > 0
            and math.isfinite(median / earlier)
        ):
            trajectory = median / earlier
        rows.append(
            {
                "grid": report_grid,
                "file": entry["path"].name,
                "created_utc": report.get("created_utc"),
                "version": report.get("version"),
                "schema": report.get("schema"),
                "num_scenarios": summary.get("num_scenarios"),
                "median_speedup": median,
                "median_simulation_speedup": simulation_median,
                "median_speedup_vs_previous": trajectory,
                "median_layer_seconds": _layer_medians(report),
                # Schema v5 envelope fields; None when absent, so v1-v4
                # reports keep round-tripping through every consumer.
                "engine": report.get("engine"),
                "kernel": _kernel_tiers(report),
                "median_native_speedup": summary.get("median_native_speedup"),
                # Schema v7 summary field; None on older reports.
                "median_search_speedup": summary.get("median_search_speedup"),
            }
        )
        if median is not None:
            previous_median[report_grid] = median
    return rows


def _dispatch_throughput(record: Dict[str, Any]) -> Optional[float]:
    """A dispatch record's sustained trials/sec, ``None`` when not measured."""
    if record.get("kind") != "dispatch":
        return None
    metrics = record.get("dispatch_metrics") or {}
    value = metrics.get("trials_per_second")
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) and value > 0 else None


def _search_quality(record: Dict[str, Any]) -> Optional[float]:
    """A search record's quality at the wall-clock budget, ``None`` otherwise.

    Schema v7 search records carry ``search_metrics.guided_quality_at_budget``
    — the collective time the guided tier holds at its own wall-clock budget.
    Lower is better, and it is deterministic for a fixed grid (the winner is
    seed-pinned), so any movement is a real search-quality regression rather
    than timing noise.
    """
    if record.get("kind") != "search":
        return None
    metrics = record.get("search_metrics") or {}
    value = metrics.get("guided_quality_at_budget")
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) and value > 0 else None


def _scenario_delta(
    name: str, record: Dict[str, Any], baseline: Dict[str, Any]
) -> "ScenarioDelta":
    """Kind-aware delta for one matched scenario (see :func:`compare_reports`)."""
    current_throughput = _dispatch_throughput(record)
    previous_throughput = _dispatch_throughput(baseline)
    if current_throughput is not None and previous_throughput is not None:
        # Higher is better: invert so > 1 still reads "worse now".
        ratio = previous_throughput / current_throughput
        return ScenarioDelta(
            scenario=name,
            current_seconds=current_throughput,
            previous_seconds=previous_throughput,
            ratio=ratio if math.isfinite(ratio) else None,
            metric="trials_per_second",
        )
    current_quality = _search_quality(record)
    previous_quality = _search_quality(baseline)
    if current_quality is not None and previous_quality is not None:
        # Lower is better (a collective time), so current/previous keeps
        # the "> 1 means worse now" orientation.
        ratio = current_quality / previous_quality
        return ScenarioDelta(
            scenario=name,
            current_seconds=current_quality,
            previous_seconds=previous_quality,
            ratio=ratio if math.isfinite(ratio) else None,
            metric="guided_quality_at_budget",
        )
    current_seconds = float(record["flat_seconds"])
    previous_seconds = float(baseline["flat_seconds"])
    ratio: Optional[float] = None
    if previous_seconds > 0:
        candidate = current_seconds / previous_seconds
        if math.isfinite(candidate):
            ratio = candidate
    return ScenarioDelta(
        scenario=name,
        current_seconds=current_seconds,
        previous_seconds=previous_seconds,
        ratio=ratio,
    )


@dataclass
class ScenarioDelta:
    """Wall-clock movement of one scenario between two reports.

    ``ratio`` is always oriented so that > 1 means *worse now*: for
    wall-clock metrics that is ``current / previous`` (slower), for
    higher-is-better metrics (a ``dispatch`` record's sustained
    trials/sec) it is ``previous / current`` (throughput fell).  A
    ``search`` record compares its quality at the wall-clock budget
    (``guided_quality_at_budget``, a collective time — lower is better, so
    ``current / previous`` keeps the orientation).  The ``metric`` field
    names what was compared.
    """

    scenario: str
    current_seconds: float
    previous_seconds: float
    ratio: Optional[float]  #: oriented so > 1 always means regression
    metric: str = "flat_seconds"  #: which record field the delta compares

    @property
    def delta_percent(self) -> Optional[float]:
        """Percentage change (positive = regression), ``None`` when undefined."""
        if self.ratio is None:
            return None
        return (self.ratio - 1.0) * 100.0


def compare_reports(
    current: Dict[str, Any],
    previous: Dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> Dict[str, Any]:
    """Per-scenario wall-clock deltas between two reports.

    Scenarios are matched by name, and the compared metric is kind-aware:
    most records compare on ``flat_seconds`` (the timed engine's median wall
    clock — synthesis for synthesis records, the array simulator for
    simulation records), but when *both* sides of a match are ``dispatch``
    records carrying a sustained-throughput measurement the delta compares
    ``dispatch_metrics.trials_per_second`` with the ratio inverted
    (``previous / current``), because throughput is higher-is-better — a
    warm pool getting *faster* must never trip the regression gate the way
    a shrinking wall clock never does.  When both sides are ``search``
    records the delta compares ``search_metrics.guided_quality_at_budget``
    (quality at equal wall clock, lower-is-better, deterministic for a
    fixed grid), so the gate guards search *quality*, not the noisy wall
    clock of a race the guided tier wins by design.  Either way every
    ratio is oriented
    so > 1 means regression.  Returns a dict with the matched deltas, the
    median ratio, and a ``regressed`` verdict
    (``median ratio > 1 + threshold``).  Works across schema versions —
    v1 reports carry the same two fields.
    """
    current_records = {
        record["scenario"]: record for record in current.get("records", [])
    }
    previous_records = {
        record["scenario"]: record for record in previous.get("records", [])
    }
    deltas: List[ScenarioDelta] = []
    for name, record in current_records.items():
        baseline = previous_records.get(name)
        if baseline is None:
            continue
        deltas.append(_scenario_delta(name, record, baseline))
    ratios = [delta.ratio for delta in deltas if delta.ratio is not None]
    median_ratio = statistics.median(ratios) if ratios else None
    return {
        "grid": current.get("grid"),
        "baseline_grid": previous.get("grid"),
        "baseline_created_utc": previous.get("created_utc"),
        "matched": len(deltas),
        "only_current": sorted(set(current_records) - set(previous_records)),
        "only_previous": sorted(set(previous_records) - set(current_records)),
        "median_ratio": median_ratio,
        "threshold": threshold,
        "regressed": median_ratio is not None and median_ratio > 1.0 + threshold,
        "deltas": [asdict(delta) for delta in deltas],
    }

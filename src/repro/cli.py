"""``tacos-repro`` command-line interface, built on the declarative Run API.

Subcommands:

* ``list`` — show registered topologies, collectives, algorithms, and
  experiments;
* ``synthesize`` — synthesize (default: TACOS) and time one collective;
* ``simulate`` — time a baseline algorithm on a topology;
* ``sweep`` — cross topologies x algorithms x sizes through
  :func:`repro.api.run_batch`, with optional parallelism and caching;
* ``bench`` — time the synthesis core against the frozen pre-refactor
  reference engine over a scenario grid, check fixed-seed output
  equivalence, and write a ``BENCH_*.json`` report;
* ``experiments`` — run the paper-reproduction experiments.

Every run-producing subcommand accepts ``--spec FILE`` to execute a
:class:`~repro.api.specs.RunSpec` JSON document directly, and ``--json`` to
emit machine-readable results.  For backward compatibility, unrecognized
leading arguments (e.g. ``tacos-repro fig10``) are forwarded to
``experiments``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    ALGORITHMS,
    BACKENDS,
    COLLECTIVES,
    TOPOLOGIES,
    AlgorithmSpec,
    CollectiveSpec,
    ResultCache,
    RunSpec,
    SimulationSpec,
    parse_size,
    parse_token,
    parse_topology_spec,
    run,
    run_batch,
)
from repro.errors import ReproError

__all__ = ["main", "build_parser"]

_SUBCOMMANDS = ("list", "synthesize", "simulate", "sweep", "bench", "experiments", "lint")


# ----------------------------------------------------------------------
# Parser construction
# ----------------------------------------------------------------------
def _add_run_options(parser: argparse.ArgumentParser, *, default_algorithm: str) -> None:
    parser.add_argument("--topology", "-t", help="topology shorthand, e.g. ring:8 or mesh:4x4")
    parser.add_argument("--collective", "-c", help="collective name, e.g. all_gather")
    parser.add_argument(
        "--algorithm",
        "-a",
        default=default_algorithm,
        help=f"algorithm name (default: {default_algorithm})",
    )
    parser.add_argument(
        "--size", "-s", default="4MB", help="per-NPU collective size, e.g. 64MB (default: 4MB)"
    )
    parser.add_argument(
        "--chunks-per-npu", type=int, default=1, help="sub-chunks per NPU buffer (default: 1)"
    )
    parser.add_argument(
        "--param",
        "-p",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="algorithm parameter (repeatable), e.g. -p trials=5",
    )
    parser.add_argument("--spec", help="execute a RunSpec JSON document instead of flags")
    parser.add_argument("--save-spec", metavar="FILE", help="write the resolved RunSpec JSON here")
    parser.add_argument("--cache-dir", help="cache results as JSON under this directory")
    parser.add_argument("--json", action="store_true", help="print results as JSON")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level ``tacos-repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="tacos-repro",
        description="TACOS reproduction: topology-aware collective algorithm synthesis.",
    )
    from repro import __version__

    parser.add_argument("--version", action="version", version=f"tacos-repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser("list", help="list registered names")
    list_parser.add_argument(
        "what",
        nargs="?",
        default="all",
        choices=("all", "topologies", "collectives", "algorithms", "experiments"),
    )

    synthesize = subparsers.add_parser(
        "synthesize", help="synthesize and time a collective (default algorithm: tacos)"
    )
    _add_run_options(synthesize, default_algorithm="tacos")
    synthesize.add_argument(
        "--synthesizer",
        choices=("tacos", "guided"),
        default=None,
        help="search tier: tacos (uniform best-of-N) or guided (portfolio-primed, "
        "incumbent-pruned, floor-terminated; same winners, fewer full trials). "
        "Travels as the spec's algorithm name, so the two tiers hash and cache "
        "separately.",
    )
    synthesize.add_argument(
        "--workers", "-w", type=int, default=None,
        help="pool size for the synthesizer's randomized-trial fan-out",
    )
    synthesize.add_argument(
        "--execution", choices=sorted(BACKENDS), default=None,
        help="execution backend for the trial fan-out "
        "(pool = persistent multi-core process pool; default: serial, "
        "or pool when --workers is above 1)",
    )
    synthesize.add_argument(
        "--engine", default=None, metavar="NAME",
        help="synthesis engine: flat (default) or reference",
    )

    simulate = subparsers.add_parser(
        "simulate", help="time a baseline algorithm (default algorithm: ring)"
    )
    _add_run_options(simulate, default_algorithm="ring")

    sweep = subparsers.add_parser(
        "sweep", help="run a topology x algorithm x size cross product"
    )
    sweep.add_argument(
        "--topology", "-t", nargs="+", required=True, help="topology shorthands, e.g. ring:8 mesh:3x3"
    )
    sweep.add_argument(
        "--algorithm", "-a", nargs="+", default=["tacos"], help="algorithm names (default: tacos)"
    )
    sweep.add_argument("--collective", "-c", default="all_reduce", help="collective name")
    sweep.add_argument(
        "--sizes", default="4MB", help="comma-separated per-NPU sizes, e.g. 1MB,16MB,256MB"
    )
    sweep.add_argument("--chunks-per-npu", type=int, default=1)
    sweep.add_argument("--workers", "-w", type=int, default=None, help="worker pool size")
    sweep.add_argument(
        "--execution", choices=sorted(BACKENDS), default=None,
        help="execution backend for the batch (--workers alone implies pool; "
        "pool workers share results through the --cache-dir artifact store)",
    )
    sweep.add_argument("--cache-dir", help="cache results as JSON under this directory")
    sweep.add_argument("--json", action="store_true", help="print results as JSON")

    bench = subparsers.add_parser(
        "bench", help="benchmark the synthesis core and simulator against the pre-refactor engines"
    )
    bench.add_argument(
        "--grid",
        choices=(
            "smoke", "fig19", "full", "sim_stress", "pipeline", "dispatch", "search",
        ),
        default="fig19",
        help="scenario grid (default: fig19; sim_stress exercises the simulator, "
        "pipeline the end-to-end synthesize+verify+simulate+metrics chain, "
        "dispatch the warm-pool dispatch overhead and payload-bytes plane, "
        "search the guided-vs-uniform quality-per-wallclock races)",
    )
    bench.add_argument(
        "--smoke", action="store_true", help="shorthand for --grid smoke (CI-sized)"
    )
    bench.add_argument(
        "--repeats", type=int, default=1, help="timing repetitions per engine (median kept)"
    )
    bench.add_argument(
        "--out", default=".", help="directory for the BENCH_*.json report (default: .)"
    )
    bench.add_argument(
        "--no-equivalence", action="store_true",
        help="skip the fixed-seed output-equivalence check",
    )
    bench.add_argument(
        "--no-reference", action="store_true",
        help="skip the frozen object path entirely (no reference timings or "
        "engine-equivalence checks) and include the flat-only scenarios too "
        "large to ever time it on",
    )
    bench.add_argument(
        "--workers", "-w", type=int, default=None,
        help="fan scenarios out across a worker pool (timings then include "
        "scheduling noise from concurrent neighbours)",
    )
    bench.add_argument(
        "--execution", choices=sorted(BACKENDS), default=None,
        help="execution backend for the scenario fan-out "
        "(--workers alone implies pool)",
    )
    bench.add_argument(
        "--engine", default="flat", metavar="NAME",
        help="synthesis engine for the timed (non-reference) side: flat "
        "(default) or reference",
    )
    bench.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero if the median speedup falls below this factor",
    )
    bench.add_argument(
        "--compare", nargs="?", const="auto", default=None, metavar="PREV_JSON",
        help="compare against a previous BENCH report (default: the newest "
        "benchmarks/results/BENCH_<grid>_*.json) and exit non-zero on a "
        "median wall-clock regression beyond the threshold",
    )
    bench.add_argument(
        "--compare-threshold", type=float, default=None, metavar="FRACTION",
        help="median regression tolerance for --compare (default: 0.20 = 20%%)",
    )
    bench.add_argument(
        "--history", action="store_true",
        help="do not run the grid: walk the recorded benchmarks/results chain and "
        "print the cross-PR median-speedup trajectory (with --compare, also diff "
        "the two newest recorded reports of --grid per scenario)",
    )
    bench.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="recorded-report directory for --history (default: benchmarks/results)",
    )
    bench.add_argument("--json", action="store_true", help="print the report as JSON")

    experiments = subparsers.add_parser(
        "experiments", help="run the paper-reproduction experiments"
    )
    experiments.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    experiments.add_argument("--list", action="store_true", help="list available experiments")
    experiments.add_argument(
        "--workers", "-w", type=int, default=None,
        help="worker pool size for the experiments' internal fan-outs "
        "(--workers alone implies the pool backend)",
    )
    experiments.add_argument(
        "--execution", choices=sorted(BACKENDS), default=None,
        help="ambient execution backend while each experiment runs",
    )

    # Listed here only so `tacos-repro --help` shows it; `main` forwards the
    # subcommand to repro.lint.cli before this parser ever sees its flags,
    # keeping the analyzer's own --help and exit contract intact.
    subparsers.add_parser(
        "lint",
        help="run the static invariant analyzer (determinism, process-safety, "
        "columnar hot paths, artifact hygiene, registry contracts)",
        add_help=False,
    )
    return parser


# ----------------------------------------------------------------------
# Spec assembly
# ----------------------------------------------------------------------
def _params_from_flags(pairs: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator:
            raise ReproError(f"--param expects KEY=VALUE, got {pair!r}")
        params[key.strip()] = parse_token(value)
    return params


def _spec_from_args(arguments: argparse.Namespace, *, default_collective: str) -> RunSpec:
    if arguments.spec:
        try:
            return RunSpec.from_json(Path(arguments.spec).read_text())
        except ValueError as exc:
            # json.JSONDecodeError is a ValueError; a malformed document is a
            # usage error (exit 2), not an execution failure.
            raise ReproError(f"--spec {arguments.spec}: invalid RunSpec JSON: {exc}") from exc
    if not arguments.topology:
        raise ReproError("either --topology or --spec is required")
    return RunSpec(
        topology=parse_topology_spec(arguments.topology),
        collective=CollectiveSpec(
            name=COLLECTIVES.canonical_name(arguments.collective or default_collective),
            collective_size=parse_size(arguments.size),
            chunks_per_npu=arguments.chunks_per_npu,
        ),
        algorithm=AlgorithmSpec(
            name=ALGORITHMS.canonical_name(arguments.algorithm),
            params=_params_from_flags(arguments.param),
        ),
        simulation=SimulationSpec(),
    )


def _result_lines(specs: Sequence[RunSpec], results: Sequence[Any]) -> List[str]:
    header = (
        f"{'algorithm':<14} {'topology':<26} {'collective':<14} {'size (MB)':>10} "
        f"{'time (us)':>12} {'BW (GB/s)':>10} {'synth (s)':>10} {'cached':>6}"
    )
    lines = [header, "-" * len(header)]
    for spec, result in zip(specs, results):
        if isinstance(result, Exception):
            lines.append(
                f"{spec.algorithm.name:<14} {spec.topology.name:<26} "
                f"{spec.collective.name:<14} FAILED: {result}"
            )
            continue
        synth = f"{result.synthesis_seconds:.3f}" if result.synthesis_seconds is not None else "-"
        lines.append(
            f"{result.algorithm:<14} {result.topology:<26} {result.collective:<14} "
            f"{result.collective_size / 1e6:>10.1f} {result.collective_time * 1e6:>12.2f} "
            f"{result.bandwidth_gbps:>10.2f} {synth:>10} {'yes' if result.cached else 'no':>6}"
        )
    return lines


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def _cmd_list(arguments: argparse.Namespace) -> int:
    sections = []
    if arguments.what in ("all", "topologies"):
        sections.append(("Topologies", TOPOLOGIES.entries()))
    if arguments.what in ("all", "collectives"):
        sections.append(("Collectives", COLLECTIVES.entries()))
    if arguments.what in ("all", "algorithms"):
        sections.append(("Algorithms", ALGORITHMS.entries()))
    for title, entries in sections:
        print(f"{title}:")
        for entry in entries:
            aliases = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
            description = f" - {entry.description}" if entry.description else ""
            print(f"  {entry.name}{aliases}{description}")
        print()
    if arguments.what in ("all", "experiments"):
        from repro.experiments.runner import EXPERIMENTS

        print("Experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
    return 0


def _cmd_run_one(arguments: argparse.Namespace, *, default_collective: str) -> int:
    spec = _spec_from_args(arguments, default_collective=default_collective)
    synthesizer = getattr(arguments, "synthesizer", None)
    if synthesizer:
        # The search tier *is* the algorithm name (tacos vs guided are both
        # registered builders), so specs, cache keys, and saved documents
        # all distinguish the two searches.
        spec = dataclasses.replace(
            spec,
            algorithm=dataclasses.replace(
                spec.algorithm, name=ALGORITHMS.canonical_name(synthesizer)
            ),
        )
    if getattr(arguments, "engine", None):
        # Sugar for `-p engine=NAME`: the engine choice travels inside the
        # algorithm params, so saved specs and cache keys capture it.
        spec.algorithm.params["engine"] = arguments.engine
    if arguments.save_spec:
        Path(arguments.save_spec).write_text(spec.to_json(indent=2) + "\n")
    cache = ResultCache(arguments.cache_dir) if arguments.cache_dir else None
    workers = getattr(arguments, "workers", None)
    execution = getattr(arguments, "execution", None)
    if workers is not None or execution is not None:
        # Install the ambient execution policy the synthesizer's trial
        # fan-out resolves when its config does not pin one; the spec (and
        # therefore the cache key) stays execution-agnostic.  --workers
        # without --execution selects the pool (the scope's own convention).
        from repro.api.parallel import execution_scope

        with execution_scope(execution=execution, workers=workers):
            result = run(spec, cache=cache)
    else:
        result = run(spec, cache=cache)
    if arguments.json:
        # allow_nan=True is deliberate: measurements taken under the
        # strict=False escape hatch may legally carry Infinity.
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True, allow_nan=True))
    else:
        print(result.summary())
    return 0


def _cmd_sweep(arguments: argparse.Namespace) -> int:
    sizes = [parse_size(token) for token in arguments.sizes.split(",") if token.strip()]
    collective = COLLECTIVES.canonical_name(arguments.collective)
    specs = [
        RunSpec(
            topology=parse_topology_spec(topology),
            collective=CollectiveSpec(
                name=collective, collective_size=size, chunks_per_npu=arguments.chunks_per_npu
            ),
            algorithm=AlgorithmSpec(name=ALGORITHMS.canonical_name(algorithm)),
        )
        for topology in arguments.topology
        for algorithm in arguments.algorithm
        for size in sizes
    ]
    cache = ResultCache(arguments.cache_dir) if arguments.cache_dir else None
    # A sweep crosses algorithms with topology preconditions (RHD wants a
    # power-of-two NPU count, C-Cube wants DGX-1, ...); one incompatible
    # cell must not discard the rest of the cross product.
    results = run_batch(
        specs,
        max_workers=arguments.workers,
        cache=cache,
        return_exceptions=True,
        execution=arguments.execution,
    )
    failed = sum(isinstance(result, Exception) for result in results)
    if arguments.json:
        payload = [
            {"error": str(result), "spec": spec.to_dict()}
            if isinstance(result, Exception)
            else result.to_dict()
            for spec, result in zip(specs, results)
        ]
        # allow_nan=True is deliberate: strict=False sweeps may carry Infinity.
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True))
    else:
        print("\n".join(_result_lines(specs, results)))
        if failed:
            print(f"({failed} of {len(results)} combinations failed)", file=sys.stderr)
    return 1 if failed == len(results) and results else 0


def _format_speedup(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}x"


def _format_ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1e3:.1f}"


def _format_layers(layers: Dict[str, float]) -> str:
    order = ("synthesize", "verify", "simulate", "metrics")
    named = [layer for layer in order if layer in layers]
    named += [layer for layer in sorted(layers) if layer not in order]
    return " | ".join(f"{layer} {layers[layer] * 1e3:.1f}ms" for layer in named)


def _resolve_comparison(
    arguments: argparse.Namespace, grid: str, report: Dict[str, Any], path: Path
) -> Tuple[int, Optional[Dict[str, Any]], Optional[Path]]:
    """Resolve the --compare baseline and diff the fresh report against it.

    Returns ``(exit_code, comparison, previous_path)``; errors are reported
    on stderr with ``comparison`` left as ``None``.
    """
    from repro.bench.compare import (
        DEFAULT_RESULTS_DIR,
        DEFAULT_THRESHOLD,
        compare_reports,
        find_previous_report,
        load_report,
    )

    threshold = (
        arguments.compare_threshold
        if arguments.compare_threshold is not None
        else DEFAULT_THRESHOLD
    )
    if arguments.compare == "auto":
        previous_path = find_previous_report(grid, DEFAULT_RESULTS_DIR, exclude=path)
        if previous_path is None:
            print(
                f"error: no previous BENCH_{grid}_*.json under {DEFAULT_RESULTS_DIR} "
                "to compare against (pass an explicit --compare PREV_JSON)",
                file=sys.stderr,
            )
            return 2, None, None
    else:
        previous_path = Path(arguments.compare)
    comparison = compare_reports(report, load_report(previous_path), threshold=threshold)
    if comparison["baseline_grid"] not in (None, grid):
        print(
            f"warning: comparing grid {grid!r} against a {comparison['baseline_grid']!r} "
            "baseline; only scenarios sharing a name are matched",
            file=sys.stderr,
        )
    median_ratio = comparison["median_ratio"]
    if median_ratio is None:
        print("error: no comparable scenarios between the two reports", file=sys.stderr)
        return 2, comparison, previous_path
    if comparison["regressed"]:
        print(
            f"error: median wall clock regressed {(median_ratio - 1.0) * 100.0:+.1f}% "
            f"(> {threshold * 100.0:.0f}% allowed)",
            file=sys.stderr,
        )
        return 1, comparison, previous_path
    return 0, comparison, previous_path


def _print_comparison(comparison: Dict[str, Any], previous_path: Path) -> None:
    header = f"{'scenario':<26} {'now':>12} {'prev':>12} {'delta':>8}"
    print(f"\ncompare vs {previous_path}:")
    print(header)
    print("-" * len(header))
    for delta in comparison["deltas"]:
        ratio = delta["ratio"]
        # Every ratio is oriented so > 1 means regression; dispatch records
        # compare throughput (trials/sec, higher is better), everything else
        # wall clock in ms.
        change = "-" if ratio is None else f"{(ratio - 1.0) * 100.0:+.1f}%"
        if delta.get("metric") == "trials_per_second":
            now = f"{delta['current_seconds']:.1f}/s"
            prev = f"{delta['previous_seconds']:.1f}/s"
        elif delta.get("metric") == "guided_quality_at_budget":
            # Search records compare synthesized collective time (a simulated
            # quantity, microseconds scale), not bench wall clock.
            now = f"{delta['current_seconds'] * 1e6:.2f}us"
            prev = f"{delta['previous_seconds'] * 1e6:.2f}us"
        else:
            now = f"{delta['current_seconds'] * 1e3:.1f}ms"
            prev = f"{delta['previous_seconds'] * 1e3:.1f}ms"
        print(f"{delta['scenario']:<26} {now:>12} {prev:>12} {change:>8}")
    for name in comparison["only_current"]:
        print(f"{name:<26} (new scenario, no baseline)")
    median_ratio = comparison["median_ratio"]
    if median_ratio is not None:
        print(
            f"median wall-clock ratio {median_ratio:.3f} "
            f"(threshold {1.0 + comparison['threshold']:.2f})"
        )


def _cmd_bench_history(arguments: argparse.Namespace) -> int:
    """Walk the recorded report chain and print the speedup trajectory."""
    from repro.bench.compare import (
        DEFAULT_RESULTS_DIR,
        DEFAULT_THRESHOLD,
        compare_reports,
        load_history,
        load_report,
        speedup_history,
    )

    directory = arguments.results_dir or DEFAULT_RESULTS_DIR
    rows = speedup_history(directory)
    if not rows:
        print(f"error: no BENCH_*.json reports under {directory}", file=sys.stderr)
        return 2

    comparison: Optional[Dict[str, Any]] = None
    previous_path: Optional[Path] = None
    if arguments.compare is not None:
        grid = "smoke" if arguments.smoke else arguments.grid
        chain = load_history(directory, grid=grid)
        if not chain:
            print(
                f"error: --history --compare found no recorded "
                f"BENCH_{grid}_*.json reports under {directory}",
                file=sys.stderr,
            )
            return 2
        if arguments.compare == "auto":
            # Diff the two newest recorded reports of the grid.
            if len(chain) < 2:
                print(
                    f"error: --history --compare needs at least two recorded "
                    f"BENCH_{grid}_*.json reports under {directory}",
                    file=sys.stderr,
                )
                return 2
            previous_path = chain[-2]["path"]
            previous_report = chain[-2]["report"]
        else:
            # An explicit baseline: diff the newest recorded report against it.
            previous_path = Path(arguments.compare)
            previous_report = load_report(previous_path)
        threshold = (
            arguments.compare_threshold
            if arguments.compare_threshold is not None
            else DEFAULT_THRESHOLD
        )
        comparison = compare_reports(
            chain[-1]["report"], previous_report, threshold=threshold
        )

    if arguments.json:
        payload: Dict[str, Any] = {"history": rows}
        if comparison is not None:
            payload["comparison"] = comparison
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        header = (
            f"{'grid':<12} {'report':<38} {'version':>8} {'engine':>7} {'kernel':>7} "
            f"{'median x':>9} {'sim x':>7} {'vs prev':>8}"
        )
        print(header)
        print("-" * len(header))
        for row in rows:
            trajectory = row["median_speedup_vs_previous"]
            # engine/kernel are v5 envelope fields; pre-v5 rows carry None.
            print(
                f"{row['grid'] or '-':<12} {row['file']:<38} {row['version'] or '-':>8} "
                f"{row.get('engine') or '-':>7} {row.get('kernel') or '-':>7} "
                f"{_format_speedup(row['median_speedup']):>9} "
                f"{_format_speedup(row['median_simulation_speedup']):>7} "
                f"{'-' if trajectory is None else f'{trajectory:.2f}x':>8}"
            )
        # Per-layer attribution (schema v4 pipeline records): the newest
        # report of each grid that carries it.
        newest_layers: Dict[str, Any] = {}
        for row in rows:
            if row.get("median_layer_seconds"):
                newest_layers[row["grid"]] = row
        for row in newest_layers.values():
            print(
                f"\nlayers ({row['grid']}, {row['file']}): "
                f"{_format_layers(row['median_layer_seconds'])}"
            )
        if comparison is not None and previous_path is not None:
            _print_comparison(comparison, previous_path)
    if comparison is not None and comparison["regressed"]:
        print("error: newest recorded report regressed against its predecessor", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(arguments: argparse.Namespace) -> int:
    from repro.bench import run_bench, write_report

    if arguments.history:
        return _cmd_bench_history(arguments)

    grid = "smoke" if arguments.smoke else arguments.grid
    # Resolve the effective backend through the one shared promotion rule
    # (--workers alone implies the pool) so the report envelope records
    # exactly what run_bench executes — parallel scheduling noise is never
    # attributed to a serial run.
    from repro.api.parallel import effective_backend

    backend = effective_backend(arguments.execution, arguments.workers)
    execution = backend.name if backend is not None else None
    records = run_bench(
        grid,
        repeats=arguments.repeats,
        check_equivalence=not arguments.no_equivalence,
        workers=arguments.workers,
        execution=execution,
        include_reference=not arguments.no_reference,
        engine=arguments.engine,
    )
    path, report = write_report(
        records,
        grid=grid,
        repeats=arguments.repeats,
        out_dir=arguments.out,
        execution=execution,
        workers=arguments.workers,
        engine=arguments.engine,
    )
    summary = report["summary"]
    compare_code = 0
    comparison: Optional[Dict[str, Any]] = None
    previous_path: Optional[Path] = None
    if arguments.compare is not None:
        compare_code, comparison, previous_path = _resolve_comparison(
            arguments, grid, report, path
        )
    if arguments.json:
        # Keep stdout a single JSON document: the comparison is embedded in
        # the payload instead of printed as a table.
        payload = dict(report)
        if comparison is not None:
            payload["comparison"] = comparison
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        header = (
            f"{'scenario':<26} {'npus':>5} {'engine':>7} {'flat (ms)':>10} "
            f"{'reference (ms)':>14} {'speedup':>8} {'sim x':>7} {'equal':>6}"
        )
        print(header)
        print("-" * len(header))
        for record in records:
            checks = [
                check
                for check in (record.equivalent, record.simulation_equivalent)
                if check is not None
            ]
            equal = "-" if not checks else ("yes" if all(checks) else "NO")
            print(
                f"{record.scenario:<26} {record.num_npus:>5} {record.engine:>7} "
                f"{record.flat_seconds * 1e3:>10.1f} "
                f"{_format_ms(record.reference_seconds):>14} {_format_speedup(record.speedup):>8} "
                f"{_format_speedup(record.simulation_speedup):>7} {equal:>6}"
            )
        if summary["median_speedup"] is not None:
            print(
                f"\nmedian speedup {summary['median_speedup']:.2f}x "
                f"(min {summary['min_speedup']:.2f}x, max {summary['max_speedup']:.2f}x); "
                f"report: {path}"
            )
        else:
            print(f"\nno finite speedups measured; report: {path}")
        if summary["median_simulation_speedup"] is not None:
            print(
                f"median simulator speedup {summary['median_simulation_speedup']:.2f}x "
                f"(min {summary['min_simulation_speedup']:.2f}x, "
                f"max {summary['max_simulation_speedup']:.2f}x)"
            )
        if summary.get("median_dispatch_speedup") is not None:
            reduction = summary.get("median_payload_bytes_reduction")
            reduction_text = (
                f"; payload bytes/trial down {reduction:.1f}x via broadcast"
                if reduction is not None
                else ""
            )
            print(
                f"median warm/cold dispatch speedup "
                f"{summary['median_dispatch_speedup']:.2f}x "
                f"(min {summary['min_dispatch_speedup']:.2f}x, "
                f"max {summary['max_dispatch_speedup']:.2f}x)"
                f"{reduction_text}"
            )
        if summary.get("median_search_speedup") is not None:
            pruned = summary.get("median_pruned_fraction")
            pruned_text = (
                f"; median pruned fraction {pruned * 100.0:.0f}%"
                if pruned is not None
                else ""
            )
            print(
                f"median guided-search speedup "
                f"{summary['median_search_speedup']:.2f}x "
                f"(min {summary['min_search_speedup']:.2f}x, "
                f"max {summary['max_search_speedup']:.2f}x)"
                f"{pruned_text}"
            )
        if comparison is not None and previous_path is not None:
            _print_comparison(comparison, previous_path)
    if summary["all_equivalent"] is False:
        print("error: synthesis engines disagree on fixed-seed outputs", file=sys.stderr)
        return 1
    if summary["all_simulation_equivalent"] is False:
        print("error: simulator engines disagree on fixed-seed outputs", file=sys.stderr)
        return 1
    if summary.get("all_dispatch_equivalent") is False:
        print(
            "error: pool backend disagrees with serial on fixed-seed outputs",
            file=sys.stderr,
        )
        return 1
    if summary.get("all_search_equivalent") is False:
        print(
            "error: guided search disagrees with uniform search on fixed-seed winners",
            file=sys.stderr,
        )
        return 1
    if (
        arguments.min_speedup is not None
        and summary["median_speedup"] is not None
        and summary["median_speedup"] < arguments.min_speedup
    ):
        print(
            f"error: median speedup {summary['median_speedup']:.2f}x is below "
            f"the required {arguments.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return compare_code


def _cmd_experiments(arguments: argparse.Namespace) -> int:
    from repro.experiments.runner import main as experiments_main

    argv = list(arguments.ids)
    if arguments.list:
        argv.append("--list")
    if arguments.workers is not None:
        argv.extend(["--workers", str(arguments.workers)])
    if arguments.execution is not None:
        argv.extend(["--execution", arguments.execution])
    return experiments_main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility with the pre-API CLI, which took experiment ids
    # (and --list) directly: forward anything that is not a subcommand.
    if argv and argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help", "--version"):
        argv = ["experiments"] + argv
    if argv and argv[0] == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command is None:
        parser.print_help()
        return 0
    try:
        if arguments.command == "list":
            return _cmd_list(arguments)
        if arguments.command == "synthesize":
            return _cmd_run_one(arguments, default_collective="all_gather")
        if arguments.command == "simulate":
            return _cmd_run_one(arguments, default_collective="all_reduce")
        if arguments.command == "sweep":
            return _cmd_sweep(arguments)
        if arguments.command == "bench":
            return _cmd_bench(arguments)
        return _cmd_experiments(arguments)
    except BrokenPipeError:
        # Downstream consumer (e.g. `tacos-repro list | head`) closed the
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

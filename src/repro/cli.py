"""``tacos-repro`` command-line interface, built on the declarative Run API.

Subcommands:

* ``list`` — show registered topologies, collectives, algorithms, and
  experiments;
* ``synthesize`` — synthesize (default: TACOS) and time one collective;
* ``simulate`` — time a baseline algorithm on a topology;
* ``sweep`` — cross topologies x algorithms x sizes through
  :func:`repro.api.run_batch`, with optional parallelism and caching;
* ``bench`` — check over a scenario grid that fixed-seed outputs are
  byte-identical to the frozen reference engines, across the serial and
  pool backends, and between guided and uniform search (exit 1 when any
  check disagrees);
* ``experiments`` — run the paper-reproduction experiments.

Every run-producing subcommand accepts ``--spec FILE`` to execute a
:class:`~repro.api.specs.RunSpec` JSON document directly, and ``--json`` to
emit machine-readable results.  For backward compatibility, unrecognized
leading arguments (e.g. ``tacos-repro fig10``) are forwarded to
``experiments``.

Exit codes: 0 on success; 1 when execution fails (a
:class:`~repro.errors.SynthesisError`, :class:`~repro.errors.SimulationError`
or :class:`~repro.errors.VerificationError`, or a ``bench`` check that
disagrees); 2 for a usage error (an unknown name, bad parameters or a
malformed ``--spec`` document).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

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
from repro.bench import GRIDS, run_bench
from repro.errors import ReproError, SimulationError, SynthesisError, VerificationError

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
        "bench",
        help="check the production paths byte for byte against the frozen reference "
        "engines, the serial backend and the uniform search (times nothing)",
    )
    bench.add_argument(
        "--grid", choices=sorted(GRIDS), default="smoke",
        help="scenario grid (default: smoke, one scenario per check kind; search: the "
        "guided-vs-uniform races; full: every scenario the references are affordable on)",
    )
    bench.add_argument(
        "--workers", "-w", type=int, default=None,
        help="fan scenarios out across a worker pool",
    )
    bench.add_argument(
        "--execution", choices=sorted(BACKENDS), default=None,
        help="execution backend for the scenario fan-out "
        "(--workers alone implies pool)",
    )
    bench.add_argument("--json", action="store_true", help="print the records as JSON")

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


def _cmd_bench(arguments: argparse.Namespace) -> int:
    records = run_bench(arguments.grid, workers=arguments.workers, execution=arguments.execution)
    if arguments.json:
        print(json.dumps([record.to_dict() for record in records], indent=2, allow_nan=False))
    else:
        header = f"{'scenario':<32} {'kind':<10} {'npus':>5} {'equal':>6}"
        print(header)
        print("-" * len(header))
        for record in records:
            equal = "yes" if record.equivalent else "NO: " + ", ".join(record.failed_checks())
            print(f"{record.scenario:<32} {record.kind:<10} {record.num_npus:>5} {equal:>6}")
    failed = [record.scenario for record in records if not record.equivalent]
    if failed:
        print(
            f"error: {len(failed)} of {len(records)} scenarios disagree: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


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


#: Errors of a run that was well specified but failed (exit 1); every other
#: :class:`~repro.errors.ReproError` is a usage error (exit 2).
_EXECUTION_ERRORS = (SynthesisError, SimulationError, VerificationError)


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
    except _EXECUTION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""Run every paper-reproduction experiment and collect its headline numbers.

This is the module behind the ``tacos-repro`` command line tool; it runs
scaled-down versions of every experiment (suitable for a laptop) and prints a
summary that mirrors the structure of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time as _time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.api.parallel import BACKENDS, execution_scope
from repro.experiments import (
    fig01_heatmap,
    fig02_motivation,
    fig10_topologies,
    fig14_mesh_synthesis,
    fig15_heterogeneous,
    fig16_themis,
    fig17_multitree_ccube,
    fig18_asymmetric_utilization,
    fig19_scalability,
    fig20_end_to_end,
    fig21_breakdown,
    table05_multinode,
)

__all__ = ["EXPERIMENTS", "run_experiment", "main"]

#: Mapping from experiment id to a zero-argument callable producing its data.
EXPERIMENTS: Dict[str, Callable[[], object]] = {
    "fig01": lambda: fig01_heatmap.run(num_npus=16),
    "fig02a": lambda: fig02_motivation.run_topology_sweep(num_npus=16),
    "fig02b": lambda: fig02_motivation.run_size_sweep(num_npus=32),
    "fig10": fig10_topologies.run,
    "fig14": fig14_mesh_synthesis.run,
    "fig15": fig15_heterogeneous.run,
    "table05": table05_multinode.run,
    "fig16a": lambda: fig16_themis.run_bandwidth_sweep(collective_sizes=(64e6, 1e9)),
    "fig16b": fig16_themis.run_utilization,
    "fig17a": fig17_multitree_ccube.run_multitree_comparison,
    "fig17b": fig17_multitree_ccube.run_ccube_comparison,
    "fig18": fig18_asymmetric_utilization.run,
    "fig19": fig19_scalability.run,
    "fig20": fig20_end_to_end.run,
    "fig21": fig21_breakdown.run,
}


def run_experiment(name: str) -> object:
    """Run a single experiment by id (e.g. ``"fig15"``) and return its data."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name]()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: run one or all experiments and print timings.

    Exit codes: 0 on success, 1 when any selected experiment raised, 2 when
    an unknown experiment id was requested.
    """
    parser = argparse.ArgumentParser(description="TACOS reproduction experiment runner")
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help="experiment ids to run (default: all)",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--workers", "-w", type=int, default=None,
        help="worker pool size for the experiments' internal fan-outs "
        "(--workers alone implies the pool backend)",
    )
    parser.add_argument(
        "--execution", choices=sorted(BACKENDS), default=None,
        help="execution backend installed as the ambient policy while each "
        "experiment runs; experiment data is byte-identical across backends",
    )
    arguments = parser.parse_args(argv if argv is None else list(argv))
    if arguments.workers is not None and arguments.workers < 1:
        parser.error(f"--workers must be >= 1, got {arguments.workers}")

    if arguments.list:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    selected = list(arguments.experiments) or sorted(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; available: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2

    if arguments.workers is not None or arguments.execution is not None:
        # Install the ambient execution policy (same convention as the
        # synthesize/sweep/bench subcommands): experiments take no explicit
        # backend knobs, so their internal trial fan-outs resolve it through
        # current_execution() inside this scope.
        scope = execution_scope(
            execution=arguments.execution, workers=arguments.workers
        )
    else:
        scope = contextlib.nullcontext()

    failed: List[str] = []
    with scope:
        for name in selected:
            started = _time.perf_counter()
            print(f"== {name} ==")
            try:
                run_experiment(name)
            except Exception:
                traceback.print_exc()
                print(f"   FAILED after {_time.perf_counter() - started:.1f}s", file=sys.stderr)
                failed.append(name)
            else:
                print(f"   completed in {_time.perf_counter() - started:.1f}s")
    if failed:
        print(f"{len(failed)} experiment(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

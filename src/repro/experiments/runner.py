"""Run the paper-reproduction experiments and print each one's wall time.

This is the module behind ``tacos-repro experiments``: it runs scaled-down
versions of every experiment (suitable for a laptop) and prints how long
each took — not the experiments' numbers, which the ``run()`` functions of
the figure modules return and ``benchmarks/test_bench_*.py`` check.
"""

from __future__ import annotations

import sys
import time as _time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from repro.api.parallel import execution_scope
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

__all__ = ["EXPERIMENTS", "run_experiment", "run_experiments"]

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


def run_experiments(
    names: Sequence[str] = (),
    *,
    workers: Optional[int] = None,
) -> int:
    """Run the named experiments (all of them when ``names`` is empty).

    ``workers`` becomes the ambient :func:`execution_scope` while the
    experiments run, so only their internal trial fan-outs use it.  Returns the exit code: 0 on success, 1 when any selected
    experiment raised, 2 when an unknown experiment id was requested (the
    available ids are listed on stderr).
    """
    selected = list(names) or sorted(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; available: {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2

    failed: List[str] = []
    with execution_scope(workers):
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

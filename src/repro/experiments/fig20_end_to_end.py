"""Fig. 20 — end-to-end training time of GNMT, ResNet-50, and Turing-NLG.

Each model is trained data-parallel on a 3D-RFS cluster (GNMT on the small
8-node system, ResNet-50 and Turing-NLG on the larger one), with the exposed
gradient All-Reduce executed by Ring, Direct, Themis, TACOS, or the
theoretical ideal.  Training time is reported normalized over the TACOS
result, split into compute and exposed communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.specs import RunSpec
from repro.core.config import SynthesisConfig
from repro.experiments.common import experiment_spec, measure
from repro.topology.builders.multidim import build_3d_rfs
from repro.topology.topology import Topology
from repro.workloads.models import ModelConfig, get_model
from repro.workloads.parallelism import ParallelismStrategy
from repro.workloads.training import TrainingBreakdown, training_iteration_time

__all__ = ["Fig20Row", "run", "training_breakdowns"]


@dataclass
class Fig20Row:
    """Training-time breakdown of one (model, collective algorithm) pair."""

    model: str
    algorithm: str
    topology: str
    breakdown: TrainingBreakdown

    @property
    def total_time(self) -> float:
        return self.breakdown.total


def _all_reduce_spec(
    algorithm: str,
    topology: Topology,
    dims: Sequence[int],
    size: float,
    chunks_per_npu: int,
    synthesis_config: Optional[SynthesisConfig],
) -> RunSpec:
    """The spec of one ``size``-byte All-Reduce by ``algorithm`` on ``topology``."""
    chunks, params, config = chunks_per_npu, None, None
    if algorithm == "TACOS":
        config = synthesis_config
    elif algorithm == "Themis":
        chunks, params = max(chunks_per_npu, 4), {"dims": list(dims)}
    return experiment_spec(
        algorithm, topology, size, chunks_per_npu=chunks, params=params, config=config
    )


#: One training breakdown to compute: model, strategy, algorithm, topology, dims.
Cell = Tuple[ModelConfig, ParallelismStrategy, str, Topology, Sequence[int]]


def training_breakdowns(
    cells: Sequence[Cell],
    *,
    chunks_per_npu: int = 2,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[TrainingBreakdown]:
    """The training breakdown of each cell, its collectives run as one batch.

    Only All-Reduce is run: the data-parallel workloads of Fig. 20/21 need
    no other, and All-Gather / Reduce-Scatter requests are served as half an
    All-Reduce, matching their traffic volume.  Every cell's All-Reduces go
    through one :func:`measure` call, so the cells on one topology build it
    once (:func:`~repro.api.run_batch` shares a topology between the specs
    that need it).
    """
    sized = [
        {
            requirement.size: _all_reduce_spec(
                algorithm, topology, dims, requirement.size, chunks_per_npu, synthesis_config
            )
            for requirement in strategy.collectives(model)
        }
        for model, strategy, algorithm, topology, dims in cells
    ]
    measured = iter(measure([spec for specs in sized for spec in specs.values()]))
    breakdowns: List[TrainingBreakdown] = []
    for (model, strategy, _, _, _), specs in zip(cells, sized):
        timed = {size: next(measured).collective_time for size in specs}

        def provider(pattern: str, size: float, timed: Dict[float, float] = timed) -> float:
            return timed[size] if pattern == "AllReduce" else timed[size] / 2.0

        breakdowns.append(training_iteration_time(model, strategy, provider))
    return breakdowns


def run(
    *,
    algorithms: Sequence[str] = ("Ring", "Direct", "Themis", "TACOS", "Ideal"),
    small_nodes: int = 4,
    large_nodes: int = 8,
    chunks_per_npu: int = 2,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[Fig20Row]:
    """Reproduce Fig. 20 (scaled-down node counts by default).

    GNMT runs on the small 3D-RFS system and ResNet-50 / Turing-NLG on the
    larger one, mirroring the paper's split (8 vs. 32 nodes there).
    """
    systems: Dict[str, Tuple[Topology, Tuple[int, int, int]]] = {
        "GNMT": (build_3d_rfs(2, 4, small_nodes), (2, 4, small_nodes)),
        "ResNet-50": (build_3d_rfs(2, 4, large_nodes), (2, 4, large_nodes)),
        "Turing-NLG": (build_3d_rfs(2, 4, large_nodes), (2, 4, large_nodes)),
    }
    cells: List[Cell] = [
        (get_model(name), ParallelismStrategy("data", topology.num_npus), algorithm, topology, dims)
        for name, (topology, dims) in systems.items()
        for algorithm in algorithms
    ]
    breakdowns = training_breakdowns(
        cells, chunks_per_npu=chunks_per_npu, synthesis_config=synthesis_config
    )
    return [
        Fig20Row(model.name, algorithm, topology.name, breakdown)
        for (model, _, algorithm, topology, _), breakdown in zip(cells, breakdowns)
    ]


def normalized_over_tacos(rows: Sequence[Fig20Row]) -> Dict[str, Dict[str, float]]:
    """Total training times normalized over the TACOS row, grouped per model."""
    grouped: Dict[str, Dict[str, float]] = {}
    for row in rows:
        grouped.setdefault(row.model, {})[row.algorithm] = row.total_time
    normalized: Dict[str, Dict[str, float]] = {}
    for model, times in grouped.items():
        reference = times["TACOS"]
        normalized[model] = {algorithm: duration / reference for algorithm, duration in times.items()}
    return normalized


def main() -> None:  # pragma: no cover - convenience CLI
    rows = run()
    for model, times in normalized_over_tacos(rows).items():
        summary = ", ".join(f"{algorithm}={value:.2f}" for algorithm, value in times.items())
        print(f"{model}: {summary} (normalized over TACOS)")


if __name__ == "__main__":  # pragma: no cover
    main()

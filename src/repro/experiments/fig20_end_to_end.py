"""Fig. 20 — end-to-end training time of GNMT, ResNet-50, and Turing-NLG.

Each model is trained data-parallel on a 3D-RFS cluster (GNMT on the small
8-node system, ResNet-50 and Turing-NLG on the larger one), with the exposed
gradient All-Reduce executed by Ring, Direct, Themis, TACOS, or the
theoretical ideal.  Training time is reported normalized over the TACOS
result, split into compute and exposed communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.experiments.common import experiment_spec, measure
from repro.topology.builders.multidim import build_3d_rfs
from repro.topology.topology import Topology
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismStrategy
from repro.workloads.training import TrainingBreakdown, training_iteration_time

__all__ = ["Fig20Row", "run", "collective_time_provider"]


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


def collective_time_provider(
    algorithm: str,
    topology: Topology,
    dims: Sequence[int],
    *,
    chunks_per_npu: int = 2,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Callable[[str, float], float]:
    """Build a ``(pattern, size) -> seconds`` provider for one algorithm.

    Only All-Reduce is needed by the data-parallel workloads of Fig. 20/21;
    All-Gather / Reduce-Scatter requests are served as half an All-Reduce,
    matching their traffic volume.
    """
    chunks, params, config = chunks_per_npu, None, None
    if algorithm == "TACOS":
        config = synthesis_config
    elif algorithm == "Themis":
        chunks, params = max(chunks_per_npu, 4), {"dims": list(dims)}

    def all_reduce_time(size: float) -> float:
        spec = experiment_spec(
            algorithm, topology, size, chunks_per_npu=chunks, params=params, config=config
        )
        return measure([spec])[0].collective_time

    def provider(pattern: str, size: float) -> float:
        if pattern == "AllReduce":
            return all_reduce_time(size)
        # All-Gather / Reduce-Scatter move half the All-Reduce volume.
        return all_reduce_time(size) / 2.0

    return provider


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
    rows: List[Fig20Row] = []
    for model_name, (topology, dims) in systems.items():
        model = get_model(model_name)
        strategy = ParallelismStrategy("data", topology.num_npus)
        for algorithm in algorithms:
            provider = collective_time_provider(
                algorithm,
                topology,
                dims,
                chunks_per_npu=chunks_per_npu,
                synthesis_config=synthesis_config,
            )
            breakdown = training_iteration_time(model, strategy, provider)
            rows.append(
                Fig20Row(
                    model=model_name,
                    algorithm=algorithm,
                    topology=topology.name,
                    breakdown=breakdown,
                )
            )
    return rows


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

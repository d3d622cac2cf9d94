"""Fig. 21 — training-time breakdown of ResNet-50 and MSFT-1T on a 3D Torus.

For each model and collective algorithm (Ring, Themis, TACOS, Ideal) the
per-iteration training time is broken into forward compute, backward compute,
and the exposed weight-gradient (and, for the hybrid-parallel MSFT-1T, input
gradient) communication — all normalized over the Ring result, matching the
paper's presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SynthesisConfig
from repro.experiments.fig20_end_to_end import Cell, training_breakdowns
from repro.topology.builders.torus import build_torus
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismStrategy
from repro.workloads.training import TrainingBreakdown

__all__ = ["Fig21Row", "run", "normalized_over_ring"]


@dataclass
class Fig21Row:
    """Breakdown of one (model, algorithm) pair on the 3D Torus."""

    model: str
    algorithm: str
    breakdown: TrainingBreakdown

    @property
    def total_time(self) -> float:
        return self.breakdown.total


def run(
    *,
    torus_dims: Tuple[int, int, int] = (4, 4, 4),
    algorithms: Sequence[str] = ("Ring", "Themis", "TACOS", "Ideal"),
    chunks_per_npu: int = 2,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[Fig21Row]:
    """Reproduce Fig. 21 on a scaled-down 3D Torus (the paper uses 1,024 NPUs)."""
    topology = build_torus(torus_dims)
    model_strategies = {
        "ResNet-50": ParallelismStrategy("data", topology.num_npus),
        "MSFT-1T": ParallelismStrategy("hybrid", topology.num_npus),
    }
    cells: List[Cell] = [
        (get_model(model_name), strategy, algorithm, topology, torus_dims)
        for model_name, strategy in model_strategies.items()
        for algorithm in algorithms
    ]
    breakdowns = training_breakdowns(
        cells, chunks_per_npu=chunks_per_npu, synthesis_config=synthesis_config
    )
    return [
        Fig21Row(model=model.name, algorithm=algorithm, breakdown=breakdown)
        for (model, _, algorithm, _, _), breakdown in zip(cells, breakdowns)
    ]


def normalized_over_ring(rows: Sequence[Fig21Row]) -> Dict[str, Dict[str, TrainingBreakdown]]:
    """Breakdowns normalized over the Ring total, grouped per model (the figure's bars)."""
    grouped: Dict[str, Dict[str, Fig21Row]] = {}
    for row in rows:
        grouped.setdefault(row.model, {})[row.algorithm] = row
    normalized: Dict[str, Dict[str, TrainingBreakdown]] = {}
    for model, per_algorithm in grouped.items():
        reference = per_algorithm["Ring"].total_time
        normalized[model] = {
            algorithm: row.breakdown.normalized_by(reference)
            for algorithm, row in per_algorithm.items()
        }
    return normalized


def main() -> None:  # pragma: no cover - convenience CLI
    rows = run()
    for model, per_algorithm in normalized_over_ring(rows).items():
        for algorithm, breakdown in per_algorithm.items():
            print(
                f"{model:<10} {algorithm:<8} total={breakdown.total:.3f} "
                f"(compute={breakdown.compute:.3f}, exposed comm={breakdown.exposed_communication:.3f})"
            )


if __name__ == "__main__":  # pragma: no cover
    main()

"""Fig. 1 — link-load heat maps of basic algorithms vs. TACOS.

For every topology (FullyConnected, Ring, 2D Mesh, 3D Hypercube) a 1 GB
All-Reduce is executed with the Direct, RHD, and Ring basic algorithms and
with the TACOS-synthesized algorithm.  The per-link total message size,
normalized per topology, forms the heat map; topology-aware algorithms show
balanced (cool) maps while mismatched algorithms oversubscribe a few links
and leave others idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.heatmap import link_load_matrix, link_load_statistics
from repro.core.config import SynthesisConfig
from repro.experiments.common import experiment_spec, resolve_spec
from repro.topology.builders.fully_connected import build_fully_connected
from repro.topology.builders.hypercube import build_hypercube_3d
from repro.topology.builders.mesh import build_mesh_2d
from repro.topology.builders.ring import build_ring
from repro.topology.topology import Topology

__all__ = ["HeatmapCell", "run", "default_topologies"]

#: Algorithms shown in the figure, in the paper's order.
ALGORITHMS = ("Direct", "RHD", "Ring", "TACOS")


@dataclass
class HeatmapCell:
    """Heat map and load statistics for one (topology, algorithm) pair."""

    topology: str
    algorithm: str
    matrix: np.ndarray
    statistics: Dict[str, float]


def default_topologies(num_npus: int = 16) -> List[Topology]:
    """The four topologies of Fig. 1, scaled to ``num_npus`` endpoints.

    ``num_npus`` must be a perfect square (for the 2D mesh); the 3D hypercube
    uses a near-cubic factorization.
    """
    side = int(round(num_npus ** 0.5))
    if side * side != num_npus:
        raise ValueError(f"num_npus must be a perfect square for the 2D mesh, got {num_npus}")
    depth = max(2, int(round(num_npus ** (1.0 / 3.0))))
    while num_npus % depth != 0:
        depth -= 1
    rest = num_npus // depth
    width = int(round(rest ** 0.5))
    while rest % width != 0:
        width -= 1
    return [
        build_fully_connected(num_npus),
        build_ring(num_npus),
        build_mesh_2d(side, side),
        build_hypercube_3d(width, rest // width, depth),
    ]


def run(
    *,
    num_npus: int = 16,
    collective_size: float = 1e9,
    topologies: Optional[List[Topology]] = None,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[HeatmapCell]:
    """Reproduce Fig. 1: per-link load heat maps for each algorithm and topology."""
    topologies = topologies if topologies is not None else default_topologies(num_npus)
    cells: List[HeatmapCell] = []
    for topology in topologies:
        for algorithm in ALGORITHMS:
            config = synthesis_config if algorithm == "TACOS" else None
            result = resolve_spec(
                experiment_spec(algorithm, topology, collective_size, config=config)
            ).simulation
            cells.append(
                HeatmapCell(
                    topology=topology.name,
                    algorithm=algorithm,
                    matrix=link_load_matrix(result, topology),
                    statistics=link_load_statistics(result, topology),
                )
            )
    return cells


def main() -> None:  # pragma: no cover - convenience CLI
    for cell in run():
        stats = cell.statistics
        print(
            f"{cell.topology:<22} {cell.algorithm:<8} "
            f"imbalance={stats['imbalance']:.2f} idle_fraction={stats['idle_fraction']:.2f}"
        )


if __name__ == "__main__":  # pragma: no cover
    main()

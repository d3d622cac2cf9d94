"""Fig. 18 — link utilization on symmetric vs. asymmetric topologies.

The link-utilization timeline of TACOS and Ring All-Reduce is recorded on a
symmetric 3D Torus and on two asymmetric topologies (2D Mesh and 3D
Hypercube).  On the torus TACOS sustains ~100% utilization; on the asymmetric
topologies the start/end ramps are unavoidable but TACOS still saturates the
links in between, unlike Ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.ideal import ideal_all_reduce_bandwidth
from repro.analysis.utilization import normalized_timeline
from repro.core.config import SynthesisConfig
from repro.experiments.common import experiment_spec, resolve_spec
from repro.topology.builders.hypercube import build_hypercube_3d
from repro.topology.builders.mesh import build_mesh_2d
from repro.topology.builders.torus import build_torus
from repro.topology.topology import Topology

__all__ = ["Fig18Trace", "run", "default_topologies"]


@dataclass
class Fig18Trace:
    """Utilization trace and efficiency summary for one (topology, algorithm)."""

    topology: str
    algorithm: str
    normalized_times: np.ndarray
    utilization: np.ndarray
    average_utilization: float
    efficiency_vs_ideal: float


def default_topologies(*, torus_side: int = 4, mesh_side: int = 6, hypercube_side: int = 4) -> List[Topology]:
    """Scaled-down versions of the paper's 3D Torus (5^3), 2D Mesh (10x10), 3D HC (5^3)."""
    return [
        build_torus((torus_side, torus_side, torus_side)),
        build_mesh_2d(mesh_side, mesh_side),
        build_hypercube_3d(hypercube_side, hypercube_side, hypercube_side),
    ]


def run(
    *,
    collective_size: float = 1e9,
    chunks_per_npu: int = 2,
    num_samples: int = 100,
    topologies: Optional[List[Topology]] = None,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[Fig18Trace]:
    """Reproduce Fig. 18: utilization timelines of TACOS and Ring per topology."""
    topologies = topologies if topologies is not None else default_topologies()
    traces: List[Fig18Trace] = []
    for topology in topologies:
        ideal_bandwidth = ideal_all_reduce_bandwidth(topology, collective_size)
        tacos_result = resolve_spec(
            experiment_spec(
                "tacos", topology, collective_size,
                chunks_per_npu=chunks_per_npu, config=synthesis_config,
            )
        ).simulation
        ring_result = resolve_spec(
            experiment_spec("ring", topology, collective_size, chunks_per_npu=chunks_per_npu)
        ).simulation
        reference = tacos_result.completion_time
        for algorithm, result in (("TACOS", tacos_result), ("Ring", ring_result)):
            times, utilization = normalized_timeline(result, reference, num_samples=num_samples)
            traces.append(
                Fig18Trace(
                    topology=topology.name,
                    algorithm=algorithm,
                    normalized_times=times,
                    utilization=utilization,
                    average_utilization=result.average_link_utilization(),
                    efficiency_vs_ideal=result.collective_bandwidth() / ideal_bandwidth,
                )
            )
    return traces


def main() -> None:  # pragma: no cover - convenience CLI
    for trace in run():
        print(
            f"{trace.topology:<22} {trace.algorithm:<6} "
            f"avg util={trace.average_utilization * 100:.1f}% "
            f"efficiency={trace.efficiency_vs_ideal * 100:.1f}%"
        )


if __name__ == "__main__":  # pragma: no cover
    main()

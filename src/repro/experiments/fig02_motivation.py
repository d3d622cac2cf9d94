"""Fig. 2 — motivation: All-Reduce bandwidth of basic algorithms.

Part (a) measures the All-Reduce bandwidth of Ring, Direct, RHD, and DBT on
four 64-NPU topologies (Ring, FullyConnected, 2D Mesh, 3D Hypercube), plus
the TACOS-synthesized algorithm on the two asymmetric topologies.  Part (b)
sweeps the collective size on a 128-NPU Ring (alpha = 30 ns,
1/beta = 150 GB/s) to show that the best algorithm also depends on the
collective size (Direct wins for latency-bound 1 KB collectives).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import SynthesisConfig
from repro.experiments.common import Measurement, experiment_spec, measure
from repro.topology.builders.fully_connected import build_fully_connected
from repro.topology.builders.hypercube import build_hypercube_3d
from repro.topology.builders.mesh import build_mesh_2d
from repro.topology.builders.ring import build_ring
from repro.topology.topology import Topology

__all__ = ["run_topology_sweep", "run_size_sweep"]

#: Basic algorithms of Fig. 2 (RHD/DBT need power-of-two NPU counts).
BASIC_ALGORITHMS = ("Ring", "Direct", "RHD", "DBT")


def _fig2a_topologies(num_npus: int) -> List[Topology]:
    side = int(round(num_npus ** 0.5))
    if side * side != num_npus:
        raise ValueError(f"num_npus must be a perfect square, got {num_npus}")
    depth = int(round(num_npus ** (1.0 / 3.0)))
    while num_npus % depth != 0:
        depth -= 1
    rest = num_npus // depth
    width = int(round(rest ** 0.5))
    while rest % width != 0:
        width -= 1
    return [
        build_ring(num_npus),
        build_fully_connected(num_npus),
        build_mesh_2d(side, side),
        build_hypercube_3d(width, rest // width, depth),
    ]


def run_topology_sweep(
    *,
    num_npus: int = 64,
    collective_size: float = 1e9,
    tacos_chunks_per_npu: int = 2,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Dict[str, List[Measurement]]:
    """Fig. 2(a): basic algorithms across topologies, plus TACOS on Mesh / Hypercube."""
    results: Dict[str, List[Measurement]] = {}
    for topology in _fig2a_topologies(num_npus):
        specs = [
            experiment_spec(algorithm, topology, collective_size, label=algorithm)
            for algorithm in BASIC_ALGORITHMS
        ]
        if "Mesh" in topology.name or "Hypercube" in topology.name:
            specs.append(
                experiment_spec(
                    "tacos",
                    topology,
                    collective_size,
                    chunks_per_npu=tacos_chunks_per_npu,
                    config=synthesis_config,
                    label="TACOS",
                )
            )
        specs.append(experiment_spec("ideal", topology, collective_size, label="Ideal"))
        results[topology.name] = measure(specs)
    return results


def run_size_sweep(
    *,
    num_npus: int = 128,
    collective_sizes: Optional[List[float]] = None,
    alpha: float = 30e-9,
    bandwidth_gbps: float = 150.0,
) -> Dict[float, List[Measurement]]:
    """Fig. 2(b): basic algorithms on a Ring for varying collective sizes."""
    sizes = collective_sizes if collective_sizes is not None else [1e3, 512e3, 1e6, 1e9]
    topology = build_ring(num_npus, alpha=alpha, bandwidth_gbps=bandwidth_gbps)
    return {
        size: measure(
            [
                experiment_spec(algorithm, topology, size, label=algorithm)
                for algorithm in BASIC_ALGORITHMS
            ]
        )
        for size in sizes
    }


def main() -> None:  # pragma: no cover - convenience CLI
    from repro.experiments.common import format_table

    for topology_name, rows in run_topology_sweep(num_npus=16).items():
        print(format_table(rows, title=f"Fig. 2(a) — {topology_name}"))
        print()
    for size, rows in run_size_sweep(num_npus=32).items():
        print(format_table(rows, title=f"Fig. 2(b) — {size / 1e6:.3f} MB"))
        print()


if __name__ == "__main__":  # pragma: no cover
    main()

"""Fig. 15 — All-Reduce on heterogeneous/asymmetric topologies.

Three systems are evaluated: a DragonFly (4 x 5, [400, 200] GB/s), a 2D
Switch (8 x 4, [300, 25] GB/s), and a 3D-RFS (2 x 4 x 8, [200, 100, 50] GB/s).
For each, the All-Reduce bandwidth of Ring, Direct, the TACCL-like
synthesizer, TACOS, and the theoretical ideal is reported (part a), along
with the average link utilization of each algorithm (part b).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import SynthesisConfig
from repro.experiments.common import Measurement, experiment_spec, measure
from repro.topology.builders.dragonfly import build_dragonfly
from repro.topology.builders.multidim import build_2d_switch, build_3d_rfs
from repro.topology.topology import Topology

__all__ = ["default_topologies", "run"]


def default_topologies() -> List[Topology]:
    """The three heterogeneous systems of Fig. 15 with the paper's bandwidths."""
    return [
        build_dragonfly(4, 5, local_bandwidth_gbps=400.0, global_bandwidth_gbps=200.0),
        build_2d_switch(8, 4, bandwidths_gbps=(300.0, 25.0)),
        build_3d_rfs(2, 4, 8, bandwidths_gbps=(200.0, 100.0, 50.0)),
    ]


def run(
    *,
    collective_size: float = 1e9,
    tacos_chunks_per_npu: int = 2,
    taccl_restarts: int = 5,
    topologies: Optional[List[Topology]] = None,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Dict[str, List[Measurement]]:
    """Reproduce Fig. 15(a)/(b): bandwidth and link utilization per algorithm."""
    topologies = topologies if topologies is not None else default_topologies()
    if synthesis_config is None:
        # The paper's randomized search keeps the best of several trials; a
        # single trial leaves the heterogeneous comparisons hostage to one
        # RNG draw.
        synthesis_config = SynthesisConfig(trials=8)
    return {
        topology.name: measure(
            [
                experiment_spec("Ring", topology, collective_size, label="Ring"),
                experiment_spec("Direct", topology, collective_size, label="Direct"),
                experiment_spec(
                    "taccl_like",
                    topology,
                    collective_size,
                    params={"restarts": taccl_restarts},
                    label="TACCL-like",
                ),
                experiment_spec(
                    "tacos",
                    topology,
                    collective_size,
                    chunks_per_npu=tacos_chunks_per_npu,
                    config=synthesis_config,
                    label="TACOS",
                ),
                experiment_spec("ideal", topology, collective_size, label="Ideal"),
            ]
        )
        for topology in topologies
    }


def main() -> None:  # pragma: no cover - convenience CLI
    from repro.experiments.common import format_table

    for topology_name, rows in run().items():
        print(format_table(rows, title=f"Fig. 15 — {topology_name}"))
        ideal = rows[-1].bandwidth_gbps
        tacos = next(row for row in rows if row.algorithm == "TACOS")
        print(f"TACOS efficiency vs ideal: {tacos.bandwidth_gbps / ideal * 100:.1f}%")
        print()


if __name__ == "__main__":  # pragma: no cover
    main()

"""Table V — multi-node 3D-RFS scaling (16 to 128 NPUs).

The 3D-RFS system (Ring x FC x Switch) is scaled by growing the last
(switch / node) dimension.  For each size the All-Reduce collective time of
TACOS, the TACCL-like synthesizer, Ring, RHD, and Direct is measured and
normalized over TACOS, together with the synthesis times of the two
synthesizers — reproducing the structure of Table V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.experiments.common import Measurement, experiment_spec, measure
from repro.topology.builders.multidim import build_3d_rfs

__all__ = ["Table5Row", "run"]


@dataclass
class Table5Row:
    """One row of Table V (one system size)."""

    num_nodes: int
    num_npus: int
    measurements: List[Measurement]

    def normalized_times(self) -> Dict[str, float]:
        """Collective times normalized over the TACOS time (the table's format)."""
        tacos = next(m for m in self.measurements if m.algorithm == "TACOS")
        return {
            m.algorithm: m.collective_time / tacos.collective_time for m in self.measurements
        }

    def synthesis_times(self) -> Dict[str, float]:
        """Synthesis wall-clock seconds for the synthesizers in this row."""
        return {
            m.algorithm: m.synthesis_seconds
            for m in self.measurements
            if m.synthesis_seconds is not None
        }


def run(
    *,
    node_counts: Sequence[int] = (2, 4, 8),
    collective_size: float = 256e6,
    tacos_chunks_per_npu: int = 1,
    taccl_restarts: int = 5,
    taccl_max_npus: int = 64,
    bandwidths_gbps: Sequence[float] = (200.0, 100.0, 50.0),
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[Table5Row]:
    """Reproduce Table V for the given node counts (each node adds 8 NPUs).

    ``taccl_max_npus`` mirrors the paper: beyond that size the TACCL-like
    synthesis is skipped (the real TACCL became intractable at 128 NPUs).
    """
    rows: List[Table5Row] = []
    for nodes in node_counts:
        topology = build_3d_rfs(2, 4, nodes, bandwidths_gbps=bandwidths_gbps)
        specs = [
            experiment_spec(
                "tacos",
                topology,
                collective_size,
                chunks_per_npu=tacos_chunks_per_npu,
                config=synthesis_config,
                label="TACOS",
            )
        ]
        if topology.num_npus <= taccl_max_npus:
            specs.append(
                experiment_spec(
                    "taccl_like",
                    topology,
                    collective_size,
                    params={"restarts": taccl_restarts},
                    label="TACCL-like",
                )
            )
        baselines = ["Ring", "RHD", "Direct"]
        if topology.num_npus & (topology.num_npus - 1) != 0:
            baselines.remove("RHD")
        specs.extend(
            experiment_spec(name, topology, collective_size, label=name)
            for name in baselines
        )
        specs.append(experiment_spec("ideal", topology, collective_size, label="Ideal"))
        rows.append(
            Table5Row(num_nodes=nodes, num_npus=topology.num_npus, measurements=measure(specs))
        )
    return rows


def main() -> None:  # pragma: no cover - convenience CLI
    for row in run():
        print(f"# {row.num_npus} NPUs ({row.num_nodes} nodes)")
        for algorithm, normalized in row.normalized_times().items():
            print(f"  {algorithm:<12} {normalized:.2f}x TACOS")
        for algorithm, seconds in row.synthesis_times().items():
            print(f"  {algorithm:<12} synthesis {seconds:.3f}s")
        print()


if __name__ == "__main__":  # pragma: no cover
    main()

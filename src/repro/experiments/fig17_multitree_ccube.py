"""Fig. 17 — TACOS vs. MultiTree (2D Torus / Mesh) and vs. C-Cube (DGX-1).

Part (a) sweeps the All-Reduce size on a 2D Torus and a 2D Mesh
(alpha = 0.15 us, 1/beta = 16 GB/s) comparing MultiTree, Themis, TACOS and
the ideal bound — MultiTree saturates once the collective outgrows a single
chunk because it cannot overlap chunks.  Part (b) compares C-Cube, Ring, and
TACOS on a DGX-1 (alpha = 0.7 us, 1/beta = 25 GB/s).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.experiments.common import Measurement, experiment_spec, measure
from repro.topology.builders.dgx1 import build_dgx1
from repro.topology.builders.mesh import build_mesh_2d
from repro.topology.builders.torus import build_torus_2d

__all__ = ["run_multitree_comparison", "run_ccube_comparison"]

#: Link parameters of the MultiTree comparison (Fig. 17a).
FIG17A_ALPHA = 0.15e-6
FIG17A_BANDWIDTH_GBPS = 16.0

#: Link parameters of the C-Cube comparison (Fig. 17b).
FIG17B_ALPHA = 0.7e-6
FIG17B_BANDWIDTH_GBPS = 25.0


def run_multitree_comparison(
    *,
    side: int = 4,
    collective_sizes: Sequence[float] = (1e6, 4e6, 32e6),
    chunks_per_npu: int = 4,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Dict[str, Dict[float, List[Measurement]]]:
    """Fig. 17(a): MultiTree vs. Themis vs. TACOS on a 2D Torus and a 2D Mesh."""
    topologies = {
        "2D Torus": build_torus_2d(
            side, side, alpha=FIG17A_ALPHA, bandwidth_gbps=FIG17A_BANDWIDTH_GBPS
        ),
        "2D Mesh": build_mesh_2d(
            side, side, alpha=FIG17A_ALPHA, bandwidth_gbps=FIG17A_BANDWIDTH_GBPS
        ),
    }
    results: Dict[str, Dict[float, List[Measurement]]] = {}
    for label, topology in topologies.items():
        results[label] = {
            size: measure(
                [
                    experiment_spec(
                        "multitree", topology, size, chunks_per_npu=chunks_per_npu,
                        label="MultiTree",
                    ),
                    experiment_spec(
                        "themis", topology, size, chunks_per_npu=chunks_per_npu,
                        params={"dims": [side, side]}, label="Themis",
                    ),
                    experiment_spec(
                        "tacos", topology, size, chunks_per_npu=chunks_per_npu,
                        config=synthesis_config, label="TACOS",
                    ),
                    experiment_spec("ideal", topology, size, label="Ideal"),
                ]
            )
            for size in collective_sizes
        }
    return results


def run_ccube_comparison(
    *,
    collective_sizes: Sequence[float] = (512e6, 1e9, 2e9),
    chunks_per_npu: int = 2,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Dict[float, List[Measurement]]:
    """Fig. 17(b): C-Cube vs. Ring vs. TACOS on the DGX-1 topology."""
    topology = build_dgx1(alpha=FIG17B_ALPHA, bandwidth_gbps=FIG17B_BANDWIDTH_GBPS)
    return {
        size: measure(
            [
                experiment_spec(
                    "ccube", topology, size, chunks_per_npu=chunks_per_npu, label="C-Cube"
                ),
                experiment_spec(
                    "Ring", topology, size, chunks_per_npu=chunks_per_npu, label="Ring"
                ),
                experiment_spec(
                    "tacos", topology, size, chunks_per_npu=chunks_per_npu,
                    config=synthesis_config, label="TACOS",
                ),
                experiment_spec("ideal", topology, size, label="Ideal"),
            ]
        )
        for size in collective_sizes
    }


def main() -> None:  # pragma: no cover - convenience CLI
    for label, per_size in run_multitree_comparison().items():
        for size, rows in per_size.items():
            summary = ", ".join(f"{r.algorithm}={r.bandwidth_gbps:.1f}" for r in rows)
            print(f"{label} {size / 1e6:.0f}MB: {summary}")
    for size, rows in run_ccube_comparison().items():
        summary = ", ".join(f"{r.algorithm}={r.bandwidth_gbps:.1f}" for r in rows)
        print(f"DGX-1 {size / 1e6:.0f}MB: {summary}")


if __name__ == "__main__":  # pragma: no cover
    main()

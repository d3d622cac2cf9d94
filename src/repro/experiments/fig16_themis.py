"""Fig. 16 — TACOS vs. BlueConnect and Themis on 3D Torus / 3D Hypercube.

Part (a) sweeps the All-Reduce size on both topologies and compares the
bandwidth of BlueConnect (4 chunks), Themis (4 and a higher chunk count),
TACOS (4 chunks), and the ideal bound.  Part (b) records the link-utilization
timeline of TACOS and Themis on both topologies (normalized by the TACOS
collective time), exposing Themis' utilization collapse on the asymmetric
hypercube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.utilization import normalized_timeline
from repro.core.config import SynthesisConfig
from repro.experiments.common import Measurement, experiment_spec, measure, resolve_spec
from repro.topology.builders.hypercube import build_hypercube_3d
from repro.topology.builders.torus import build_torus
from repro.topology.topology import Topology

__all__ = ["UtilizationTrace", "run_bandwidth_sweep", "run_utilization"]

#: Default link parameters of the Fig. 16 experiments.
FIG16_ALPHA = 0.7e-6
FIG16_BANDWIDTH_GBPS = 25.0


def default_topologies(side: int = 4) -> Dict[str, Tuple[Topology, Tuple[int, int, int]]]:
    """The symmetric 3D Torus and asymmetric 3D Hypercube, with their dims."""
    dims = (side, side, side)
    return {
        "3D Torus": (build_torus(dims, alpha=FIG16_ALPHA, bandwidth_gbps=FIG16_BANDWIDTH_GBPS), dims),
        "3D Hypercube": (
            build_hypercube_3d(*dims, alpha=FIG16_ALPHA, bandwidth_gbps=FIG16_BANDWIDTH_GBPS),
            dims,
        ),
    }


def run_bandwidth_sweep(
    *,
    side: int = 4,
    collective_sizes: Sequence[float] = (64e6, 512e6, 1e9, 2e9),
    themis_high_chunks: int = 16,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Dict[str, Dict[float, List[Measurement]]]:
    """Fig. 16(a): All-Reduce bandwidth vs. collective size on both topologies."""
    results: Dict[str, Dict[float, List[Measurement]]] = {}
    for label, (topology, dims) in default_topologies(side).items():
        hierarchical = {"dims": list(dims)}
        results[label] = {
            size: measure(
                [
                    experiment_spec(
                        "blueconnect", topology, size, chunks_per_npu=4,
                        params=hierarchical, label="BlueConnect (4 chunks)",
                    ),
                    experiment_spec(
                        "themis", topology, size, chunks_per_npu=4,
                        params=hierarchical, label="Themis (4 chunks)",
                    ),
                    experiment_spec(
                        "themis", topology, size, chunks_per_npu=themis_high_chunks,
                        params=hierarchical, label=f"Themis ({themis_high_chunks} chunks)",
                    ),
                    experiment_spec(
                        "tacos", topology, size, chunks_per_npu=4,
                        config=synthesis_config, label="TACOS (4 chunks)",
                    ),
                    experiment_spec("ideal", topology, size, label="Ideal"),
                ]
            )
            for size in collective_sizes
        }
    return results


@dataclass
class UtilizationTrace:
    """Normalized-time utilization series for one algorithm on one topology."""

    topology: str
    algorithm: str
    normalized_times: np.ndarray
    utilization: np.ndarray
    average_utilization: float


def run_utilization(
    *,
    side: int = 4,
    collective_size: float = 1e9,
    num_samples: int = 100,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> List[UtilizationTrace]:
    """Fig. 16(b): link utilization over the collective duration (TACOS vs. Themis)."""
    traces: List[UtilizationTrace] = []
    for label, (topology, dims) in default_topologies(side).items():
        tacos_result = resolve_spec(
            experiment_spec(
                "tacos", topology, collective_size, chunks_per_npu=4, config=synthesis_config
            )
        ).simulation
        themis_result = resolve_spec(
            experiment_spec(
                "themis", topology, collective_size, chunks_per_npu=4, params={"dims": list(dims)}
            )
        ).simulation
        reference = tacos_result.completion_time
        for algorithm, result in (("TACOS", tacos_result), ("Themis", themis_result)):
            times, utilization = normalized_timeline(
                result, reference, num_samples=num_samples
            )
            traces.append(
                UtilizationTrace(
                    topology=label,
                    algorithm=algorithm,
                    normalized_times=times,
                    utilization=utilization,
                    average_utilization=result.average_link_utilization(),
                )
            )
    return traces


def main() -> None:  # pragma: no cover - convenience CLI
    sweep = run_bandwidth_sweep(collective_sizes=(64e6, 1e9))
    for topology, per_size in sweep.items():
        for size, rows in per_size.items():
            ideal = rows[-1].bandwidth_gbps
            summary = ", ".join(
                f"{row.algorithm}={row.bandwidth_gbps:.1f}GB/s" for row in rows[:-1]
            )
            print(f"{topology} {size / 1e6:.0f}MB: {summary} (ideal {ideal:.1f})")


if __name__ == "__main__":  # pragma: no cover
    main()

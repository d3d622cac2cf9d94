"""Fig. 14 — All-Gather algorithm synthesized for a 3x3 2D Mesh.

The experiment synthesizes the All-Gather, verifies it is contention-free,
and reports the per-time-span transfer counts — the quantity the figure
visualizes as chunks moving over the mesh at t = 0 .. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.algorithm import CollectiveAlgorithm
from repro.core.config import SynthesisConfig
from repro.core.verification import verify_algorithm
from repro.experiments.common import experiment_spec, resolve_spec
from repro.topology.builders.mesh import build_mesh_2d

__all__ = ["Fig14Result", "run"]


@dataclass
class Fig14Result:
    """Synthesis summary for the 3x3 mesh All-Gather."""

    algorithm: CollectiveAlgorithm
    transfers_per_span: Dict[int, int]
    num_time_spans: int
    link_utilization_per_span: Dict[int, float]
    verified: bool


def run(
    *,
    rows: int = 3,
    cols: int = 3,
    collective_size: float = 9e6,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Fig14Result:
    """Reproduce Fig. 14: synthesize and analyse the mesh All-Gather."""
    topology, pattern, artifact, _ = resolve_spec(
        experiment_spec(
            "tacos",
            build_mesh_2d(rows, cols),
            collective_size,
            collective="all_gather",
            config=synthesis_config,
            simulate=False,
        )
    )
    algorithm = artifact.algorithm
    verified = verify_algorithm(algorithm, topology, pattern)

    span_cost = topology.link(*next(iter(topology.link_keys()))).cost(
        pattern.chunk_size(collective_size)
    )
    # One vectorized pass over the start column instead of a per-transfer loop.
    spans = np.rint(algorithm.table.starts / span_cost).astype(np.int64)
    span_ids, counts = np.unique(spans, return_counts=True)
    transfers_per_span: Dict[int, int] = dict(
        zip(span_ids.tolist(), counts.tolist())
    )
    utilization = {
        span: count / topology.num_links for span, count in transfers_per_span.items()
    }
    return Fig14Result(
        algorithm=algorithm,
        transfers_per_span=dict(sorted(transfers_per_span.items())),
        num_time_spans=len(transfers_per_span),
        link_utilization_per_span=dict(sorted(utilization.items())),
        verified=verified,
    )


def main() -> None:  # pragma: no cover - convenience CLI
    result = run()
    print(f"time spans: {result.num_time_spans}, verified: {result.verified}")
    for span, count in result.transfers_per_span.items():
        print(f"  t={span}: {count} transfers ({result.link_utilization_per_span[span] * 100:.0f}% of links busy)")


if __name__ == "__main__":  # pragma: no cover
    main()

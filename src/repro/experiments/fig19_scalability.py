"""Fig. 19 — synthesis-time scalability of TACOS (and the TACCL-like baseline).

The paper synthesizes All-Reduce algorithms for 2D Mesh and 3D Hypercube
topologies of growing size and shows that TACOS' synthesis time grows as
O(n^2) in the number of NPUs (linear in the search space of O(n) chunks times
Theta(n) links), while the ILP-based TACCL blows up after a few tens of NPUs.

The reproduction keeps the same code path and fits the same quadratic model;
the absolute sizes are scaled down (pure-Python synthesis is slower per
step), which does not affect the complexity-trend conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.runner import run_batch
from repro.core.config import SynthesisConfig
from repro.experiments.common import experiment_spec
from repro.topology.builders.hypercube import build_hypercube_3d
from repro.topology.builders.mesh import build_mesh_2d

__all__ = ["ScalabilityPoint", "run", "fit_quadratic"]


@dataclass
class ScalabilityPoint:
    """Synthesis time measured for one topology size."""

    family: str
    num_npus: int
    synthesis_seconds: float
    synthesizer: str


def fit_quadratic(points: Sequence[ScalabilityPoint]) -> Tuple[np.ndarray, float]:
    """Least-squares fit of ``time = a * n^2 + b * n + c``; returns (coefficients, R^2)."""
    sizes = np.array([point.num_npus for point in points], dtype=float)
    times = np.array([point.synthesis_seconds for point in points], dtype=float)
    design = np.vstack([sizes ** 2, sizes, np.ones_like(sizes)]).T
    coefficients, _, _, _ = np.linalg.lstsq(design, times, rcond=None)
    predictions = design @ coefficients
    residual = float(np.sum((times - predictions) ** 2))
    total = float(np.sum((times - times.mean()) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return coefficients, r_squared


def run(
    *,
    mesh_sides: Sequence[int] = (3, 4, 5, 6, 8),
    hypercube_sides: Sequence[int] = (2, 3, 4),
    collective_size: float = 64e6,
    include_taccl: bool = True,
    taccl_max_npus: int = 36,
    taccl_restarts: int = 5,
    synthesis_config: Optional[SynthesisConfig] = None,
) -> Dict[str, List[ScalabilityPoint]]:
    """Measure synthesis wall-clock time across topology sizes.

    Returns points grouped by family: ``"2D Mesh"``, ``"3D Hypercube"`` for
    TACOS, and ``"2D Mesh (TACCL-like)"`` for the baseline synthesizer on
    small meshes (mirroring the paper's left-hand plot of Fig. 19).
    """
    # (family, synthesizer, spec) per point.  TACOS points report the
    # synthesized time without simulating; the TACCL-like schedules can only
    # be timed by the simulator.
    meshes = [build_mesh_2d(side, side) for side in mesh_sides]
    tacos_targets = [("2D Mesh", topology) for topology in meshes] + [
        ("3D Hypercube", build_hypercube_3d(side, side, side)) for side in hypercube_sides
    ]
    points = [
        (
            family,
            "TACOS",
            experiment_spec(
                "tacos", topology, collective_size, config=synthesis_config, simulate=False
            ),
        )
        for family, topology in tacos_targets
    ]
    results: Dict[str, List[ScalabilityPoint]] = {"2D Mesh": [], "3D Hypercube": []}
    if include_taccl:
        results["2D Mesh (TACCL-like)"] = []
        points.extend(
            (
                "2D Mesh (TACCL-like)",
                "TACCL-like",
                experiment_spec(
                    "taccl_like", topology, collective_size, params={"restarts": taccl_restarts}
                ),
            )
            for topology in meshes
            if topology.num_npus <= taccl_max_npus
        )
    for (family, synthesizer, _), result in zip(
        points, run_batch([spec for _, _, spec in points])
    ):
        results[family].append(
            ScalabilityPoint(
                family=family,
                num_npus=result.num_npus,
                synthesis_seconds=result.synthesis_seconds,
                synthesizer=synthesizer,
            )
        )
    return results


def main() -> None:  # pragma: no cover - convenience CLI
    results = run()
    for family, points in results.items():
        for point in points:
            print(f"{family:<22} n={point.num_npus:<5} {point.synthesis_seconds * 1e3:.1f} ms")
        if len(points) >= 3 and "TACCL" not in family:
            _, r_squared = fit_quadratic(points)
            print(f"{family:<22} quadratic fit R^2 = {r_squared:.4f}")


if __name__ == "__main__":  # pragma: no cover
    main()

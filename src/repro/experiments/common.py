"""Shared helpers for the paper-reproduction experiments.

Every ``figXX_*`` / ``tableXX_*`` module describes its data points as
:class:`~repro.api.specs.RunSpec` documents and executes them through the
Run API — the same path the CLI and batch sweeps use — so every algorithm,
baseline or synthesized, is timed by the same congestion-aware simulator and
every data point is reproducible from a JSON document:

* figures that report scalar data points pass their specs to
  :func:`measure`, which runs them with :func:`repro.api.run_batch` and
  returns one :class:`Measurement` row per spec;
* figures that read the algorithm or the simulation itself resolve one spec
  with :func:`resolve_spec`.

The ideal bound is the registered ``ideal`` algorithm
(:mod:`repro.analysis.ideal`).  Neither path verifies the synthesized
algorithms, as :func:`repro.api.run` does not; fig10 and fig14 call
:func:`~repro.core.verification.verify_algorithm` themselves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.api.registry import AlgorithmArtifact
from repro.api.runner import (
    build_algorithm_artifact,
    build_collective,
    build_topology,
    run_batch,
    simulate_artifact,
)
from repro.api.specs import (
    AlgorithmSpec,
    CollectiveSpec,
    RunSpec,
    SimulationSpec,
    topology_to_spec,
)
from repro.collectives.pattern import CollectivePattern
from repro.core.config import SynthesisConfig
from repro.errors import ReproError
from repro.simulator.result import SimulationResult
from repro.topology.topology import Topology

__all__ = [
    "Measurement",
    "ResolvedSpec",
    "experiment_spec",
    "format_table",
    "measure",
    "resolve_spec",
]


@dataclass
class Measurement:
    """One (algorithm, topology, collective size) data point.

    Attributes
    ----------
    algorithm:
        Algorithm label (e.g. ``"Ring"``, ``"TACOS"``, ``"Ideal"``).
    topology:
        Topology name.
    collective_size:
        Per-NPU collective size in bytes.
    collective_time:
        Simulated (or bound) collective completion time in seconds.
    bandwidth_gbps:
        Collective bandwidth in GB/s.
    synthesis_seconds:
        Synthesis wall-clock time, when the algorithm was synthesized.
    extras:
        Additional metrics (e.g. average link utilization).
    """

    algorithm: str
    topology: str
    collective_size: float
    collective_time: float
    bandwidth_gbps: float
    synthesis_seconds: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def efficiency_vs(self, ideal_bandwidth_gbps: float) -> float:
        """Fraction of the ideal bandwidth achieved."""
        if ideal_bandwidth_gbps <= 0:
            raise ReproError("ideal bandwidth must be positive")
        return self.bandwidth_gbps / ideal_bandwidth_gbps


def experiment_spec(
    algorithm: str,
    topology: Topology,
    collective_size: float,
    *,
    collective: str = "all_reduce",
    chunks_per_npu: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    config: Optional[SynthesisConfig] = None,
    label: str = "",
    simulate: bool = True,
) -> RunSpec:
    """Express one experiment data point (an All-Reduce by default) as a spec.

    ``config`` adds the :class:`SynthesisConfig` fields that differ from
    their defaults to ``params``, so a spec's store key names only the
    settings that change the search.
    """
    params = dict(params or {})
    if config is not None:
        default = SynthesisConfig()
        for item in dataclasses.fields(config):
            value = getattr(config, item.name)
            if value != getattr(default, item.name):
                params[item.name] = value
    return RunSpec(
        topology=topology_to_spec(topology),
        collective=CollectiveSpec(
            name=collective,
            collective_size=collective_size,
            chunks_per_npu=chunks_per_npu,
        ),
        algorithm=AlgorithmSpec(name=algorithm, params=params),
        simulation=SimulationSpec(simulate=simulate),
        label=label,
    )


def measure(specs: Sequence[RunSpec]) -> List[Measurement]:
    """Run ``specs`` as one batch: one row per spec, named by the spec's label."""
    return [
        Measurement(
            algorithm=spec.label or result.algorithm,
            topology=result.topology,
            collective_size=result.collective_size,
            collective_time=result.collective_time,
            bandwidth_gbps=result.bandwidth_gbps,
            synthesis_seconds=result.synthesis_seconds,
            extras=dict(result.extras),
        )
        for spec, result in zip(specs, run_batch(specs))
    ]


class ResolvedSpec(NamedTuple):
    """A spec's built inputs, its algorithm and (when simulated) its simulation."""

    topology: Topology
    pattern: CollectivePattern
    artifact: AlgorithmArtifact
    simulation: Optional[SimulationResult]


def resolve_spec(spec: RunSpec) -> ResolvedSpec:
    """Build, synthesize and simulate ``spec`` the way :func:`repro.api.run` does."""
    topology = build_topology(spec.topology)
    pattern = build_collective(spec.collective, topology.num_npus)
    artifact = build_algorithm_artifact(
        spec.algorithm, topology, pattern, spec.collective.collective_size
    )
    return ResolvedSpec(
        topology, pattern, artifact, simulate_artifact(artifact, topology, spec.simulation)
    )


def format_table(measurements: Sequence[Measurement], *, title: str = "") -> str:
    """Render measurements as a plain-text table, one row per measurement."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    header = (
        f"{'algorithm':<16} {'topology':<26} {'size (MB)':>10} "
        f"{'time (ms)':>10} {'BW (GB/s)':>10} {'synth (s)':>10}"
    )
    lines.append(header)
    for row in measurements:
        synth = f"{row.synthesis_seconds:.3f}" if row.synthesis_seconds is not None else "-"
        lines.append(
            f"{row.algorithm:<16} {row.topology:<26} {row.collective_size / 1e6:>10.1f} "
            f"{row.collective_time * 1e3:>10.3f} {row.bandwidth_gbps:>10.2f} {synth:>10}"
        )
    return "\n".join(lines)

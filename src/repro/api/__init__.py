"""Unified declarative Run API: specs, registries, runner, and caching.

This package is the single front door for executing collective-communication
scenarios.  Describe a run as data, then execute it::

    from repro.api import RunSpec, TopologySpec, CollectiveSpec, AlgorithmSpec, run

    spec = RunSpec(
        topology=TopologySpec(name="mesh", params={"dims": [3, 3]}),
        collective=CollectiveSpec(name="all_reduce", collective_size=64e6),
        algorithm=AlgorithmSpec(name="tacos"),
    )
    result = run(spec)
    print(result.summary())

Specs round-trip through JSON (``spec.to_json()`` / ``RunSpec.from_json``),
so the same document drives the CLI, batch sweeps (:func:`run_batch`, with
optional process-pool parallelism and :class:`ResultCache`), and future services.
New topologies, collectives, and algorithms plug in through the registries'
``register`` decorator hook.
"""

from repro.api.builtins import build_custom_topology, parse_token, parse_topology_spec
from repro.api.cache import ArtifactStore, ResultCache
from repro.api.parallel import execution_scope, map_parallel
from repro.api.registry import (
    ALGORITHMS,
    COLLECTIVES,
    TOPOLOGIES,
    AlgorithmArtifact,
    Registry,
    RegistryEntry,
    normalize_name,
)
from repro.api.runner import (
    RunResult,
    build_algorithm_artifact,
    build_collective,
    build_topology,
    run,
    run_batch,
    simulate_artifact,
)
from repro.api.specs import (
    AlgorithmSpec,
    CollectiveSpec,
    RunSpec,
    SimulationSpec,
    TopologySpec,
    parse_size,
    topology_to_spec,
)

__all__ = [
    "ALGORITHMS",
    "COLLECTIVES",
    "TOPOLOGIES",
    "AlgorithmArtifact",
    "AlgorithmSpec",
    "ArtifactStore",
    "CollectiveSpec",
    "Registry",
    "RegistryEntry",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "SimulationSpec",
    "TopologySpec",
    "build_algorithm_artifact",
    "build_collective",
    "build_custom_topology",
    "build_topology",
    "execution_scope",
    "map_parallel",
    "normalize_name",
    "parse_size",
    "parse_token",
    "parse_topology_spec",
    "run",
    "run_batch",
    "simulate_artifact",
    "topology_to_spec",
]

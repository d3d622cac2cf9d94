"""Execute declarative :class:`RunSpec` documents and return uniform results.

:func:`run` is the single execution path behind the CLI, the paper-figure
experiments, and any future service front end: it resolves the spec against
the registries, builds or synthesizes the algorithm, times it with the
congestion-aware simulator, and returns a :class:`RunResult`.
:func:`run_batch` runs many specs with de-duplication, optional
process-pool parallelism, and optional result caching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import repro.api.builtins  # noqa: F401  (populates the registries on import)
from repro.api.cache import ResultCache
from repro.api.parallel import chunk_items, map_parallel
from repro.api.registry import ALGORITHMS, COLLECTIVES, TOPOLOGIES, AlgorithmArtifact
from repro.api.specs import (
    AlgorithmSpec,
    CollectiveSpec,
    RunSpec,
    SimulationSpec,
    TopologySpec,
)
from repro.collectives.pattern import CollectivePattern
from repro.errors import ReproError, SpecError
from repro.simulator.adapters import simulate_algorithm, simulate_schedule
from repro.simulator.result import SimulationResult
from repro.topology.link import GIGABYTE
from repro.topology.topology import Topology

__all__ = [
    "RunResult",
    "run",
    "run_batch",
    "build_topology",
    "build_collective",
    "build_algorithm_artifact",
    "simulate_artifact",
]


@dataclass
class RunResult:
    """Uniform outcome of executing one :class:`RunSpec`.

    Attributes
    ----------
    spec:
        The spec that produced this result.
    algorithm / topology / collective:
        Resolved human-readable names (canonical algorithm name, the built
        topology's display name, the pattern name).
    num_npus:
        Number of NPUs in the resolved topology.
    collective_size:
        Per-NPU collective size in bytes.
    collective_time:
        Simulated (or analytic) collective completion time in seconds.
    bandwidth_gbps:
        Collective bandwidth in GB/s (size / time).
    synthesis_seconds:
        Synthesis wall-clock time when the algorithm was synthesized.
    extras:
        Additional numeric metrics (e.g. average link utilization).
    trial_stats:
        Per-trial synthesis bookkeeping (seed, rounds, collective time,
        pruned-at-round, wall seconds) when the algorithm builder reports
        it — the tacos and guided tiers always do.  ``None`` otherwise.
    cached:
        True when the result was served from a :class:`ResultCache`
        (excluded from equality comparisons).
    """

    spec: RunSpec
    algorithm: str
    topology: str
    collective: str
    num_npus: int
    collective_size: float
    collective_time: float
    bandwidth_gbps: float
    synthesis_seconds: Optional[float] = None
    extras: Dict[str, float] = field(default_factory=dict)
    trial_stats: Optional[List[Dict[str, Any]]] = None
    cached: bool = field(default=False, compare=False)

    def to_dict(self, *, with_spec: bool = True) -> Dict[str, Any]:
        """JSON-serializable representation (used by the disk cache and CLI).

        ``with_spec=False`` leaves out the ``spec`` section: the artifact
        store files a result under its spec's hash, so the key names the spec.
        """
        data = {"spec": self.spec.to_dict()} if with_spec else {}
        data.update(
            algorithm=self.algorithm,
            topology=self.topology,
            collective=self.collective,
            num_npus=self.num_npus,
            collective_size=self.collective_size,
            collective_time=self.collective_time,
            bandwidth_gbps=self.bandwidth_gbps,
            synthesis_seconds=self.synthesis_seconds,
            extras=dict(self.extras),
        )
        if self.trial_stats is not None:
            data["trial_stats"] = [dict(stats) for stats in self.trial_stats]
        return data

    def copy(self, *, cached: bool = False) -> "RunResult":
        """A copy flagged ``cached`` that shares no mutable container with this one.

        ``extras`` and every ``trial_stats`` entry are copied, so mutating
        the copy never changes this result (a cache hands one out per hit).
        The other fields are taken over from the instance ``__dict__`` in
        one copy: no ``__init__`` runs and no field list is spelled out.
        """
        clone = object.__new__(type(self))
        state = clone.__dict__
        state.update(self.__dict__)
        state["extras"] = dict(self.extras)
        trial_stats = self.trial_stats
        if trial_stats is not None:
            state["trial_stats"] = [dict(stats) for stats in trial_stats]
        state["cached"] = cached
        return clone

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, spec: Optional[RunSpec] = None) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output.

        ``spec`` replaces the stored spec when the caller already holds an
        equal one (a cache hit is addressed by its spec's hash), and then
        ``data`` needs no ``spec`` section.
        """
        return cls(
            spec=RunSpec.from_dict(data["spec"]) if spec is None else spec,
            algorithm=data["algorithm"],
            topology=data["topology"],
            collective=data["collective"],
            num_npus=int(data["num_npus"]),
            collective_size=float(data["collective_size"]),
            collective_time=float(data["collective_time"]),
            bandwidth_gbps=float(data["bandwidth_gbps"]),
            synthesis_seconds=data.get("synthesis_seconds"),
            extras=dict(data.get("extras", {})),
            trial_stats=data.get("trial_stats"),
        )

    def summary(self) -> str:
        """One-line human summary of the result."""
        synth = (
            f", synthesized in {self.synthesis_seconds:.3f}s"
            if self.synthesis_seconds is not None
            else ""
        )
        return (
            f"{self.algorithm} {self.collective} on {self.topology} "
            f"({self.collective_size / 1e6:.1f} MB/NPU): "
            f"{self.collective_time * 1e6:.2f} us, {self.bandwidth_gbps:.2f} GB/s{synth}"
        )


# ----------------------------------------------------------------------
# Spec resolution
# ----------------------------------------------------------------------
def build_topology(spec: TopologySpec) -> Topology:
    """Resolve and build the topology described by ``spec``."""
    builder = TOPOLOGIES.get(spec.name)
    try:
        return builder(**spec.params)
    except TypeError as exc:
        raise SpecError(f"bad parameters for topology {spec.name!r}: {exc}") from None


def build_collective(spec: CollectiveSpec, num_npus: int) -> CollectivePattern:
    """Resolve and instantiate the collective pattern described by ``spec``."""
    factory = COLLECTIVES.get(spec.name)
    try:
        return factory(num_npus, spec.chunks_per_npu, **spec.params)
    except TypeError as exc:
        raise SpecError(f"bad parameters for collective {spec.name!r}: {exc}") from None


def build_algorithm_artifact(
    spec: AlgorithmSpec,
    topology: Topology,
    pattern: CollectivePattern,
    collective_size: float,
) -> AlgorithmArtifact:
    """Resolve and invoke the algorithm builder described by ``spec``."""
    builder = ALGORITHMS.get(spec.name)
    try:
        return builder(topology, pattern, collective_size, **spec.params)
    except TypeError as exc:
        raise SpecError(f"bad parameters for algorithm {spec.name!r}: {exc}") from None


def simulate_artifact(
    artifact: AlgorithmArtifact,
    topology: Topology,
    simulation: SimulationSpec,
) -> Optional[SimulationResult]:
    """Simulate the artifact's payload under ``simulation`` on ``topology``.

    Returns ``None`` when the artifact is timed without the simulator: an
    analytic bound, or a synthesized algorithm with ``simulate=False``.  A
    logical schedule always needs the simulator.
    """
    if artifact.collective_time is not None:
        return None
    if artifact.algorithm is not None:
        if not simulation.simulate:
            return None
        return simulate_algorithm(
            topology, artifact.algorithm, routing_message_size=simulation.routing_message_size
        )
    if artifact.schedule is not None:
        if not simulation.simulate:
            raise SpecError(
                "logical schedules carry no intrinsic timing; "
                "simulation cannot be disabled for this algorithm"
            )
        return simulate_schedule(
            topology, artifact.schedule, routing_message_size=simulation.routing_message_size
        )
    # unreachable: AlgorithmArtifact enforces exactly one payload
    raise SpecError("algorithm artifact carries no payload")


def _time_artifact(
    artifact: AlgorithmArtifact,
    topology: Topology,
    simulation: SimulationSpec,
) -> Tuple[float, Dict[str, float]]:
    """Return ``(collective_time, extras)`` for the artifact under ``simulation``."""
    extras = dict(artifact.extras)
    result = simulate_artifact(artifact, topology, simulation)
    if result is None:
        if artifact.collective_time is not None:
            return artifact.collective_time, extras
        return artifact.algorithm.collective_time, extras
    extras["avg_link_utilization"] = result.average_link_utilization()
    return result.completion_time, extras


def run(spec: RunSpec, *, cache: Optional[ResultCache] = None) -> RunResult:
    """Execute one spec end-to-end; optionally consult/populate ``cache``.

    With a disk-backed cache, a synthesized algorithm's transfer columns are
    persisted alongside the result (``ResultCache.put_algorithm``), so later
    sessions — and concurrent sweep workers sharing the cache directory —
    can reload the actual algorithm, not just its timing summary.  The
    lookup, the result and the algorithm share one key: the cache hashes
    the spec once.
    """
    return _run(spec, cache)


def _run(
    spec: RunSpec,
    cache: Optional[ResultCache],
    topologies: Optional[Dict[TopologySpec, Topology]] = None,
) -> RunResult:
    """:func:`run`, with ``topologies`` a batch's memo of built topologies.

    The memo is keyed by topology spec and holds the last topology built:
    a miss reuses it when its topology spec is equal, a hit never builds.
    """
    if cache is not None:
        hit = cache.get(spec)
        if hit is not None:
            return hit

    if topologies is None:
        topology = build_topology(spec.topology)
    else:
        topology = topologies.get(spec.topology)
        if topology is None:
            # One topology at a time: its derived tables grow with each
            # message size the batch asks for, so a batch keeps no more of
            # them alive than one run does.
            topologies.clear()
            topology = topologies[spec.topology] = build_topology(spec.topology)
    pattern = build_collective(spec.collective, topology.num_npus)
    collective_size = spec.collective.collective_size
    artifact = build_algorithm_artifact(spec.algorithm, topology, pattern, collective_size)
    collective_time, extras = _time_artifact(artifact, topology, spec.simulation)

    if collective_time > 0:
        bandwidth_gbps = collective_size / collective_time / GIGABYTE
    else:
        bandwidth_gbps = float("inf")
    result = RunResult(
        spec=spec,
        algorithm=ALGORITHMS.canonical_name(spec.algorithm.name),
        topology=topology.name,
        collective=pattern.name,
        num_npus=topology.num_npus,
        collective_size=collective_size,
        collective_time=collective_time,
        bandwidth_gbps=bandwidth_gbps,
        synthesis_seconds=artifact.synthesis_seconds,
        extras=extras,
        trial_stats=artifact.trial_stats,
    )
    if cache is not None:
        cache.put(result)
        if artifact.algorithm is not None:
            cache.put_algorithm(spec, artifact.algorithm)
    return result


def _run_one(
    spec: RunSpec,
    cache: Optional[ResultCache],
    return_exceptions: bool,
    topologies: Dict[TopologySpec, Topology],
) -> Any:
    """Run one batch spec; a :class:`ReproError` becomes the result on request."""
    if not return_exceptions:
        return _run(spec, cache, topologies)
    try:
        return _run(spec, cache, topologies)
    except ReproError as exc:
        return exc


def _run_spec_chunk(
    cache_directory: Optional[str], return_exceptions: bool, specs: List[RunSpec]
) -> List[Any]:
    """Chunked batch work item: one task pickle per spec *chunk*, not per spec.

    The worker opens one :class:`ResultCache` for the whole chunk (which
    hashes each unpickled spec once, as any cache does), so a
    chunk's specs share the in-memory layer on top of the shared on-disk
    store, and one topology memo, so consecutive specs on one topology
    build it once.
    Results come back as a list in chunk order — concatenation in the
    parent reproduces the per-spec order exactly.
    """
    cache = ResultCache(cache_directory) if cache_directory is not None else None
    topologies: Dict[TopologySpec, Topology] = {}
    return [_run_one(spec, cache, return_exceptions, topologies) for spec in specs]


def run_batch(
    specs: Iterable[RunSpec],
    *,
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    return_exceptions: bool = False,
) -> List[RunResult]:
    """Execute many specs, preserving input order in the returned list.

    Duplicate specs (same content hash) are executed once and share a
    result.  ``workers`` greater than 1 runs the distinct specs on a
    process pool of that width, kept warm across batches
    (:func:`~repro.api.parallel.map_parallel`); otherwise they run in a
    plain loop.  Results are identical either way: specs are deterministic
    and order is restored from the input.  Consecutive specs that miss the
    cache and share a topology spec share one built :class:`Topology` (and
    its derived tables), built when the first of them needs it; the batch
    holds only the last topology it built.

    With the pool, worker processes share the cache through
    its on-disk artifact store (the in-memory layer is per-process); specs
    are submitted in contiguous chunks to amortize per-task IPC, and results
    computed by workers are folded back into the calling cache afterwards.

    With ``return_exceptions=True``, a spec whose execution raises a
    :class:`~repro.errors.ReproError` contributes the exception object to
    the result list instead of aborting the whole batch (mirroring
    ``asyncio.gather``); other exceptions always propagate.
    """
    specs = list(specs)
    index_of: Dict[str, int] = {}
    unique: List[Tuple[str, RunSpec]] = []
    positions: List[int] = []
    for spec in specs:
        if not isinstance(spec, RunSpec):
            raise SpecError(f"run_batch expects RunSpec items, got {type(spec).__name__}")
        # The dedupe key is the store key; the cache remembers it for this
        # spec object, so its reads and writes do not hash the spec again.
        key = spec.spec_hash() if cache is None else cache._key_of(spec)
        if key not in index_of:
            index_of[key] = len(unique)
            unique.append((key, spec))
        positions.append(index_of[key])

    if workers is None or workers <= 1:
        topologies: Dict[TopologySpec, Topology] = {}
        results: List[Any] = [
            _run_one(spec, cache, return_exceptions, topologies) for _, spec in unique
        ]
    else:
        # Serve what the calling cache already holds (its in-memory layer is
        # invisible to worker processes) and ship only the misses out.
        results = [None] * len(unique)
        pending = list(range(len(unique)))
        if cache is not None:
            pending = []
            for index, (_, spec) in enumerate(unique):
                hit = cache.get(spec)
                if hit is not None:
                    results[index] = hit
                else:
                    pending.append(index)
        if pending:
            directory = (
                str(cache.directory)
                if cache is not None and cache.directory is not None
                else None
            )
            # Chunked submission (order-preserving, see chunk_items): the
            # per-task IPC overhead is amortized over each chunk, which is
            # what makes the warm pool's dispatch cost thin.
            chunks = chunk_items([unique[index][1] for index in pending], workers)
            computed_chunks = map_parallel(
                partial(_run_spec_chunk, directory, return_exceptions),
                chunks,
                workers=workers,
            )
            computed = [result for chunk in computed_chunks for result in chunk]
            for index, result in zip(pending, computed):
                results[index] = result
                # Fold worker results into the calling cache's memory layer
                # so subsequent same-process lookups hit without re-reading
                # disk; the workers' own caches already persisted the disk
                # entries (when a directory exists).  A worker's result holds
                # an unpickled copy of the spec: give it the caller's, whose
                # key the cache already holds.
                if cache is not None and isinstance(result, RunResult):
                    result.spec = unique[index][1]
                    if cache.directory is None:
                        cache.put(result)
                    else:
                        cache.absorb(result)
    return [results[position] for position in positions]

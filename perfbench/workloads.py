"""The benchmark's workloads: inputs made from the seed, one timed operation, checks.

Each workload object is built from ``(seed, workdir)`` and offers

* ``prepare()`` — the set-up: build the inputs (and, for ``sweep-store``,
  populate the artifact store);
* ``op(index)`` — one timed operation, as a user issues it;
* ``check(index, output, span)`` — untimed: return an error message (or
  ``None``) and the operation's work counts.  ``span(name)`` times a layer
  the check itself calls (verification).

All three go through the public :mod:`repro.api` surface with a disk-backed
:class:`~repro.api.cache.ResultCache`, as ``tacos-repro --cache-dir`` does.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

from repro import verify_algorithm
from repro.analysis import ideal_all_reduce_time
from repro.api import (
    AlgorithmSpec,
    CollectiveSpec,
    ResultCache,
    RunSpec,
    TopologySpec,
    build_algorithm_artifact,
    build_collective,
    build_topology,
    run,
    run_batch,
)

MB = 1e6

#: Relative slack when comparing a simulated time with an analytic bound.
TIME_TOLERANCE = 1e-9

Span = Callable[[str], ContextManager[None]]
Check = Tuple[Optional[str], Dict[str, float]]


def _counts(result, hits: int, misses: int, transfers: int) -> Dict[str, float]:
    """Work counts of one operation, from what the program reported."""
    counts = {
        "cache_hits": float(hits),
        "cache_misses": float(misses),
        "transfers": float(transfers),
        "trials": 0.0,
        "trials_pruned": 0.0,
        "matching_rounds": 0.0,
        "trial_loop_ms": 0.0,
    }
    if result is None or result.cached:
        return counts
    trial_stats = result.trial_stats or []
    counts["trials"] = float(result.extras.get("trials", 0.0))
    counts["trials_pruned"] = float(result.extras.get("pruned_trials", 0.0))
    if trial_stats:
        counts["matching_rounds"] = float(sum(entry["rounds"] for entry in trial_stats))
        counts["trial_loop_ms"] = 1e3 * sum(entry["wall_seconds"] for entry in trial_stats)
    else:
        counts["matching_rounds"] = float(result.extras.get("rounds", 0.0))
    return counts


class _SynthesisWorkload:
    """One ``run()`` per operation, each with its own synthesis seed.

    Every operation's spec differs from all earlier ones, so its cache
    lookup misses and the result and algorithm are written to the store.
    Subclasses name the topology, collective, algorithm and its parameters.
    """

    topology: TopologySpec
    collective: CollectiveSpec
    algorithm = "tacos"
    params: Dict[str, Any] = {}

    def __init__(self, seed: int, workdir: Path) -> None:
        self.base_seed = seed * 100_000
        self.cache = ResultCache(workdir / "store")

    def prepare(self) -> None:
        self.built_topology = build_topology(self.topology)
        self.pattern = build_collective(self.collective, self.built_topology.num_npus)

    def spec(self, index: int, algorithm: Optional[str] = None) -> RunSpec:
        params = dict(self.params, seed=self.base_seed + index)
        return RunSpec(
            topology=self.topology,
            collective=self.collective,
            algorithm=AlgorithmSpec(algorithm or self.algorithm, params),
        )

    def op(self, index: int):
        spec = self.spec(index)
        hits, misses = self.cache.hits, self.cache.misses
        result = run(spec, cache=self.cache)
        return spec, result, self.cache.hits - hits, self.cache.misses - misses

    def check(self, index: int, output, span: Span) -> Check:
        spec, result, hits, misses = output
        algorithm = self.cache.load_algorithm(spec)
        counts = _counts(result, hits, misses, algorithm.num_transfers if algorithm else 0)
        if result.cached or misses != 1:
            return "a fresh spec was served from the cache", counts
        if algorithm is None:
            return "the synthesized algorithm was not stored", counts
        with span("verify"):
            valid = verify_algorithm(algorithm, self.built_topology, self.pattern)
        if not valid:
            return "the synthesized algorithm does not implement the collective", counts
        if not result.collective_time > 0:
            return f"simulated time {result.collective_time!r} is not positive", counts
        return self.check_more(index, spec, result, algorithm), counts

    def check_more(self, index, spec, result, algorithm) -> Optional[str]:
        return None


class Rfs128AllReduce(_SynthesisWorkload):
    """TACOS All-Reduce on the paper's largest Table V system, 3D-RFS 2x4x16."""

    topology = TopologySpec("rfs_3d", {"ring_size": 2, "fc_size": 4, "switch_size": 16})
    collective = CollectiveSpec("all_reduce", collective_size=256 * MB)

    def prepare(self) -> None:
        super().prepare()
        self.ideal = ideal_all_reduce_time(self.built_topology, self.collective.collective_size)

    def check_more(self, index, spec, result, algorithm) -> Optional[str]:
        if result.collective_time < self.ideal * (1 - TIME_TOLERANCE):
            return f"All-Reduce time {result.collective_time!r} beats the ideal bound {self.ideal!r}"
        return None


class SearchGather(_SynthesisWorkload):
    """Guided 32-trial search for Gather on a 6x6 mesh (pruning on, no portfolio)."""

    topology = TopologySpec("mesh_2d", {"rows": 6, "cols": 6})
    collective = CollectiveSpec("gather", collective_size=4 * MB)
    algorithm = "guided"
    params = {"trials": 32}

    def check_more(self, index, spec, result, algorithm) -> Optional[str]:
        uniform = build_algorithm_artifact(
            self.spec(index, "tacos").algorithm,
            self.built_topology,
            self.pattern,
            self.collective.collective_size,
        ).algorithm
        if uniform.table.to_bytes() != algorithm.table.to_bytes():
            return "the guided winner differs from the uniform best-of-N winner"
        return None


class SweepStore:
    """A topology x algorithm x size sweep re-run against a populated store.

    The set-up runs the sweep once, cold, into a fresh artifact store.  Each
    operation then re-runs it as a new session would: a fresh
    :class:`ResultCache` over the same directory serves every result from
    disk, and the synthesized algorithms are loaded back from their columns.
    """

    TOPOLOGIES = (
        TopologySpec("ring", {"num_npus": 8}),
        TopologySpec("mesh_2d", {"rows": 4, "cols": 4}),
        TopologySpec("rfs_3d", {"ring_size": 2, "fc_size": 2, "switch_size": 2}),
    )
    ALGORITHMS = ("tacos", "ring", "rhd", "ideal")
    SIZES_MB = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    SIZES_PER_SWEEP = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        sizes = sorted(rng.sample(self.SIZES_MB, self.SIZES_PER_SWEEP))
        self.directory = workdir / "store"
        self.specs = [
            RunSpec(
                topology=topology,
                collective=CollectiveSpec("all_reduce", collective_size=size * MB),
                algorithm=AlgorithmSpec(name, {"seed": seed} if name == "tacos" else {}),
            )
            for topology in self.TOPOLOGIES
            for name in self.ALGORITHMS
            for size in sizes
        ]
        self.synthesized = [spec for spec in self.specs if spec.algorithm.name == "tacos"]
        self._tables: Optional[List[Optional[bytes]]] = None

    def prepare(self) -> None:
        self.reference = [
            result.to_dict() for result in run_batch(self.specs, cache=ResultCache(self.directory))
        ]

    def op(self, index: int):
        cache = ResultCache(self.directory)
        results = run_batch(self.specs, cache=cache)
        algorithms = [cache.load_algorithm(spec) for spec in self.synthesized]
        return results, algorithms, cache.hits, cache.misses

    def check(self, index: int, output, span: Span) -> Check:
        results, algorithms, hits, misses = output
        transfers = sum(algorithm.num_transfers for algorithm in algorithms if algorithm)
        counts = _counts(None, hits, misses, transfers)
        if misses or not all(result.cached for result in results):
            return f"{misses} of {len(results)} sweep results missed the store", counts
        if [result.to_dict() for result in results] != self.reference:
            return "a stored result differs from the one computed cold", counts
        if self._tables is None:
            self._tables = self._fresh_tables(span)
        if not all(self._tables):
            return "a fresh synthesis does not implement the collective", counts
        loaded = [algorithm.table.to_bytes() if algorithm else None for algorithm in algorithms]
        if loaded != self._tables:
            return "a stored algorithm differs from a fresh synthesis", counts
        return None, counts

    def _fresh_tables(self, span: Span) -> List[Optional[bytes]]:
        """Transfer tables synthesized outside the store; ``None`` where invalid."""
        tables: List[Optional[bytes]] = []
        for spec in self.synthesized:
            topology = build_topology(spec.topology)
            pattern = build_collective(spec.collective, topology.num_npus)
            algorithm = build_algorithm_artifact(
                spec.algorithm, topology, pattern, spec.collective.collective_size
            ).algorithm
            with span("verify"):
                valid = verify_algorithm(algorithm, topology, pattern)
            tables.append(algorithm.table.to_bytes() if valid else None)
        return tables


WORKLOADS = {
    "rfs128-ar": Rfs128AllReduce,
    "search-gather": SearchGather,
    "sweep-store": SweepStore,
}

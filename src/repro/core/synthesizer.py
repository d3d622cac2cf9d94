"""TACOS end-to-end collective algorithm synthesis (Alg. 2 of the paper).

The synthesizer starts from the TEN at ``t = 0``, runs the utilization
maximizing matching algorithm for the current time span, expands the TEN to
the next time span, and repeats until every postcondition is satisfied.
Reduction collectives are handled by reversal (Fig. 11): a Reduce-Scatter is
synthesized as an All-Gather over the link-reversed topology and reversed in
time; an All-Reduce is a Reduce-Scatter followed by an All-Gather.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.collectives.all_reduce import AllReduce
from repro.collectives.pattern import ChunkOwnership, CollectivePattern, FrozenPattern
from repro.core.algorithm import CollectiveAlgorithm
from repro.core.config import SynthesisConfig
from repro.core.matching import MatchingState, TrialBound, run_matching_round
from repro.errors import SynthesisError
from repro.ten.network import TimeExpandedNetwork
from repro.topology.topology import Topology

__all__ = [
    "SynthesisEngine",
    "ENGINES",
    "FLAT_ENGINE",
    "SynthesisResult",
    "TacosSynthesizer",
    "TrialPayload",
    "register_engine",
    "resolve_engine",
    "synthesize",
]


@dataclass(frozen=True)
class SynthesisEngine:
    """The pluggable chunk-state core driven by :class:`TacosSynthesizer`.

    An engine bundles the three ingredients of one synthesis trial: the TEN
    factory, the matching-state factory, and the per-span matching round.
    The default :data:`FLAT_ENGINE` is the array-backed implementation; the
    benchmark subsystem plugs in the frozen pre-refactor dict/set engine
    (:data:`repro.bench.reference.REFERENCE_ENGINE`) to prove the two produce
    identical algorithms on fixed seeds.
    """

    name: str
    ten_factory: Callable = TimeExpandedNetwork
    state_factory: Callable = MatchingState
    matching_round: Callable = run_matching_round


#: Default engine: flat array-backed state, CSR-indexed TEN.
FLAT_ENGINE = SynthesisEngine(name="flat")

#: By-name registry of synthesis engines (the ``--engine`` CLI/bench seam).
#: The frozen reference engine registers itself on import of
#: :mod:`repro.bench.reference`.
ENGINES: Dict[str, SynthesisEngine] = {}


def register_engine(engine: SynthesisEngine) -> SynthesisEngine:
    """Add ``engine`` to :data:`ENGINES` under its name; returns it."""
    ENGINES[engine.name] = engine
    return engine


register_engine(FLAT_ENGINE)


def resolve_engine(name: str) -> SynthesisEngine:
    """Look up an engine by name; unknown names raise :class:`SynthesisError`."""
    if name == "reference" and name not in ENGINES:
        # The frozen baseline lives in the bench subsystem; pull it in on
        # demand so `--engine reference` works from any entry point.
        import repro.bench.reference  # noqa: F401

    try:
        return ENGINES[name]
    except KeyError:
        known = ", ".join(sorted(ENGINES))
        raise SynthesisError(f"unknown synthesis engine {name!r} (known: {known})") from None


@dataclass(frozen=True)
class TrialPayload:
    """Everything one randomized synthesis trial needs, minus its seed.

    Built once per :meth:`TacosSynthesizer._synthesize_direct` call and shared
    by every trial of the fan-out.  Serial loops use the object directly;
    process pools receive it as :meth:`to_bytes` and decode it once per
    worker (see :func:`_run_trial_chunk`).
    """

    topology: Topology
    pattern: CollectivePattern
    collective_size: float
    chunk_size: float
    hop_distances: Optional[List[List[int]]]
    cheap_regions: Optional[dict]
    engine: SynthesisEngine
    prefer_lowest_cost: bool
    max_rounds: int

    def to_bytes(self) -> bytes:
        """Serialize to the columnar wire format pool workers decode.

        Everything a trial consumes crosses as validated LE64 columns: the
        topology via :meth:`~repro.topology.topology.Topology.to_bytes`, the
        pattern as its pre/postcondition CSR columns (rebuilt as a
        :class:`~repro.collectives.pattern.FrozenPattern`), hop distances and
        cheaper-reachability regions as flat integer/float columns, and the
        engine *by registry name*.  Chunk sets are emitted sorted, so equal
        payloads always produce identical bytes — the blob's content hash is
        a payload identity the worker cache keys on.

        Raises :class:`~repro.errors.SynthesisError` when the engine is not
        the registered engine of its name: an anonymous or shadowed engine
        cannot be resolved on the worker side, so it can only run serially.
        """
        if ENGINES.get(self.engine.name) is not self.engine:
            raise SynthesisError(
                f"engine {self.engine.name!r} is not the registered engine of that "
                "name; pool workers receive engines by registry name"
            )
        topology_blob = self.topology.to_bytes()
        pattern = self.pattern
        name_bytes = pattern.name.encode("utf-8")
        num_npus = pattern.num_npus
        engine_bytes = self.engine.name.encode("utf-8")
        parts = [
            _PAYLOAD_MAGIC,
            struct.pack("<Q", len(topology_blob)),
            topology_blob,
            struct.pack("<Q", len(name_bytes)),
            name_bytes,
            struct.pack("<QQQ", num_npus, pattern.chunks_per_npu, pattern.num_chunks),
            _pack_ownership(pattern.precondition(), num_npus),
            _pack_ownership(pattern.postcondition(), num_npus),
            struct.pack("<dd", float(self.collective_size), float(self.chunk_size)),
        ]
        if self.hop_distances is None:
            parts.append(struct.pack("<B", 0))
        else:
            parts.append(struct.pack("<B", 1))
            flat = np.ascontiguousarray(self.hop_distances, dtype="<i8")
            parts.append(flat.tobytes())
        if self.cheap_regions is None:
            parts.append(struct.pack("<B", 0))
        else:
            parts.append(struct.pack("<BQ", 1, len(self.cheap_regions)))
            for cost, per_dest in self.cheap_regions.items():
                parts.append(struct.pack("<d", float(cost)))
                parts.append(_pack_region_columns(per_dest, self.topology.num_npus))
        parts.append(struct.pack("<Q", len(engine_bytes)))
        parts.append(engine_bytes)
        parts.append(struct.pack("<BQ", 1 if self.prefer_lowest_cost else 0, self.max_rounds))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TrialPayload":
        """Rebuild a payload serialized by :meth:`to_bytes`, validating loudly.

        The pattern comes back as a
        :class:`~repro.collectives.pattern.FrozenPattern` (same observable
        conditions, no size rule — the chunk size travels precomputed) and
        the engine resolves through the registry by name, so a worker runs
        exactly the engine the parent selected.
        """
        reader = _PayloadReader(data)
        reader.expect_magic(_PAYLOAD_MAGIC)
        topology = Topology.from_bytes(reader.read_sized())
        pattern_name = reader.read_sized().decode("utf-8")
        num_npus, chunks_per_npu, num_chunks = reader.unpack("<QQQ")
        precondition = reader.read_ownership(num_npus)
        postcondition = reader.read_ownership(num_npus)
        collective_size, chunk_size = reader.unpack("<dd")
        hop_distances: Optional[List[List[int]]] = None
        (has_hops,) = reader.unpack("<B")
        if has_hops:
            flat = reader.read_int_column(topology.num_npus * topology.num_npus)
            width = topology.num_npus
            hop_distances = [
                [int(value) for value in flat[row * width : (row + 1) * width]]
                for row in range(width)
            ]
        cheap_regions: Optional[dict] = None
        (has_cheap,) = reader.unpack("<B")
        if has_cheap:
            (tiers,) = reader.unpack("<Q")
            cheap_regions = {}
            for _ in range(tiers):
                (cost,) = reader.unpack("<d")
                cheap_regions[cost] = reader.read_region_columns(topology.num_npus)
        engine_name = reader.read_sized().decode("utf-8")
        prefer_lowest_cost, max_rounds = reader.unpack("<BQ")
        reader.expect_exhausted()
        engine = ENGINES.get(engine_name)
        if engine is None:
            engine = resolve_engine(engine_name)
        pattern = FrozenPattern(
            pattern_name,
            int(num_npus),
            int(chunks_per_npu),
            int(num_chunks),
            precondition,
            postcondition,
        )
        return cls(
            topology=topology,
            pattern=pattern,
            collective_size=float(collective_size),
            chunk_size=float(chunk_size),
            hop_distances=hop_distances,
            cheap_regions=cheap_regions,
            engine=engine,
            prefer_lowest_cost=bool(prefer_lowest_cost),
            max_rounds=int(max_rounds),
        )


#: Magic prefix of the :meth:`TrialPayload.to_bytes` wire format.
_PAYLOAD_MAGIC = b"TACOSPL1"


def _pack_ownership(ownership: ChunkOwnership, num_npus: int) -> bytes:
    """CSR-encode an ownership map: ``<q`` indptr row, then sorted chunk ids."""
    indptr = [0]
    members: List[int] = []
    for npu in range(num_npus):
        members.extend(sorted(ownership.get(npu, frozenset())))
        indptr.append(len(members))
    return (
        np.ascontiguousarray(indptr, dtype="<i8").tobytes()
        + np.ascontiguousarray(members, dtype="<i8").tobytes()
    )


def _pack_region_columns(per_dest: List[frozenset], num_npus: int) -> bytes:
    """CSR-encode one cheaper-reachability tier (per-dest NPU sets)."""
    if len(per_dest) != num_npus:
        raise SynthesisError(
            f"cheap-region tier has {len(per_dest)} destinations, expected {num_npus}"
        )
    indptr = [0]
    members: List[int] = []
    for region in per_dest:
        members.extend(sorted(region))
        indptr.append(len(members))
    return (
        np.ascontiguousarray(indptr, dtype="<i8").tobytes()
        + np.ascontiguousarray(members, dtype="<i8").tobytes()
    )


class _PayloadReader:
    """Sequential validated reader over a :meth:`TrialPayload.to_bytes` blob."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def expect_magic(self, magic: bytes) -> None:
        if self._data[: len(magic)] != magic:
            raise SynthesisError("not a serialized TrialPayload (bad magic)")
        self._offset = len(magic)

    def unpack(self, fmt: str) -> tuple:
        size = struct.calcsize(fmt)
        self._require(size)
        values = struct.unpack_from(fmt, self._data, self._offset)
        self._offset += size
        return values

    def read_sized(self) -> bytes:
        (length,) = self.unpack("<Q")
        self._require(length)
        blob = self._data[self._offset : self._offset + length]
        self._offset += length
        return blob

    def read_int_column(self, count: int) -> np.ndarray:
        self._require(count * 8)
        column = np.frombuffer(self._data, dtype="<i8", count=count, offset=self._offset)
        self._offset += count * 8
        return column

    def read_ownership(self, num_npus: int) -> ChunkOwnership:
        indptr = self.read_int_column(int(num_npus) + 1)
        self._check_indptr(indptr)
        members = self.read_int_column(int(indptr[-1]))
        return {
            npu: frozenset(int(chunk) for chunk in members[indptr[npu] : indptr[npu + 1]])
            for npu in range(int(num_npus))
        }

    def read_region_columns(self, num_npus: int) -> List[frozenset]:
        indptr = self.read_int_column(num_npus + 1)
        self._check_indptr(indptr)
        members = self.read_int_column(int(indptr[-1]))
        return [
            frozenset(int(npu) for npu in members[indptr[dest] : indptr[dest + 1]])
            for dest in range(num_npus)
        ]

    def expect_exhausted(self) -> None:
        if self._offset != len(self._data):
            raise SynthesisError(
                f"serialized TrialPayload has {len(self._data) - self._offset} trailing bytes"
            )

    def _check_indptr(self, indptr: np.ndarray) -> None:
        if len(indptr) == 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise SynthesisError("serialized TrialPayload has a corrupt CSR index")

    def _require(self, size: int) -> None:
        if self._offset + size > len(self._data):
            raise SynthesisError("serialized TrialPayload is truncated")


#: Relative slack on the prune comparison: a trial aborts only when its lower
#: bound exceeds the incumbent by more than one part in 1e9.  The slack keeps
#: the comparison robust to the few-ulp difference between the bound's
#: arithmetic and the schedule's own time accumulation; pruning *less* than
#: the strict threshold allows is always exact (see docs/determinism.md).
_PRUNE_REL_EPS = 1e-9


def _execute_trial(
    payload: TrialPayload, seed: int, incumbent: Optional[float] = None
) -> Tuple[Optional[CollectiveAlgorithm], Dict[str, Any]]:
    """One randomized synthesis run (Alg. 2) with per-trial bookkeeping.

    When ``incumbent`` is given, a :class:`TrialBound` is evaluated after
    every round and the trial aborts — returning ``(None, stats)`` — the
    moment the bound strictly exceeds the incumbent.  A pruned trial provably
    cannot beat the incumbent, so best-of selection over the surviving trials
    picks the same winner as the unpruned search.  Without an incumbent the
    loop does no bound bookkeeping at all.

    The returned stats dict carries ``seed``, ``rounds``, ``collective_time``
    (``None`` when pruned), ``pruned_at_round`` (``None`` when completed),
    and ``wall_seconds`` — the bookkeeping the seed portfolio consumes and
    ``synthesize --json`` reports.
    """
    started = _time.perf_counter()
    engine = payload.engine
    topology = payload.topology
    pattern = payload.pattern
    ten = engine.ten_factory(topology, payload.chunk_size)
    state = engine.state_factory(
        topology.num_npus, pattern.precondition(), pattern.postcondition()
    )
    matching_round = engine.matching_round
    rng = random.Random(seed)

    prune_limit = 0.0
    bound = None
    if incumbent is not None:
        prune_limit = incumbent + abs(incumbent) * _PRUNE_REL_EPS
        bound = TrialBound(ten, state, payload.hop_distances)

    transfers = []
    committed_end = 0.0
    current_time = 0.0
    rounds = 0
    while not state.done:
        rounds += 1
        if rounds > payload.max_rounds:
            raise SynthesisError(
                f"synthesis of {pattern.name} on {topology.name} exceeded "
                f"{payload.max_rounds} time spans"
            )
        new_transfers = matching_round(
            ten,
            state,
            current_time,
            rng,
            prefer_lowest_cost=payload.prefer_lowest_cost,
            enable_forwarding=payload.hop_distances is not None,
            hop_distances=payload.hop_distances,
            cheap_regions=payload.cheap_regions,
        )
        transfers.extend(new_transfers)
        if state.done:
            break
        if bound is not None:
            if new_transfers:
                for transfer in new_transfers:
                    if transfer.end > committed_end:
                        committed_end = transfer.end
                bound.update(new_transfers)
            if bound.value(current_time, committed_end) > prune_limit:
                return None, {
                    "seed": seed,
                    "rounds": rounds,
                    "collective_time": None,
                    "pruned_at_round": rounds,
                    "wall_seconds": _time.perf_counter() - started,
                }
        next_time = ten.next_event_after(current_time)
        if next_time is None:
            if not topology.is_connected():
                raise SynthesisError(
                    f"synthesis of {pattern.name} on {topology.name} stalled at "
                    f"t={current_time:.3e}s: the topology is not strongly connected"
                )
            raise SynthesisError(
                f"synthesis of {pattern.name} on {topology.name} stalled at "
                f"t={current_time:.3e}s with chunks still undelivered"
            )
        current_time = next_time

    algorithm = CollectiveAlgorithm(
        transfers=transfers,
        num_npus=topology.num_npus,
        chunk_size=payload.chunk_size,
        collective_size=float(payload.collective_size),
        pattern_name=pattern.name,
        topology_name=topology.name,
        metadata={"seed": seed, "rounds": rounds},
    )
    return algorithm, {
        "seed": seed,
        "rounds": rounds,
        "collective_time": algorithm.collective_time,
        "pruned_at_round": None,
        "wall_seconds": _time.perf_counter() - started,
    }


# Worker-side decoded-payload cache, keyed by the blob's SHA-256.  A warm
# PoolBackend worker decodes each distinct payload once and then serves every
# later chunk of the same fan-out — and of *later* fan-outs over the same
# inputs — from here.  Content addressing makes this safe: equal key implies
# equal bytes implies an identical payload.  Bounded so long-lived workers do
# not accumulate every payload they ever saw.
_PAYLOAD_CACHE: "OrderedDict[str, TrialPayload]" = OrderedDict()
_PAYLOAD_CACHE_LIMIT = 8


def _run_trial_chunk(
    key: str, blob: bytes, incumbent: Optional[float], seeds: List[int]
) -> List[Tuple[Optional[Tuple[bytes, dict]], Dict[str, Any]]]:
    """Chunked pool trial task: the payload blob, its key, the incumbent, seeds.

    The blob is decoded only when ``key`` is not yet in the worker's
    :data:`_PAYLOAD_CACHE`, so a warm worker reuses one decoded payload (and
    its topology caches) across chunks, waves and fan-outs.  A completed
    algorithm crosses back as ``TransferTable.to_bytes()`` rather than an
    object graph, compact and bit-exact; the parent rebuilds it with
    :func:`_decode_trial_outcome`.
    """
    payload = _PAYLOAD_CACHE.get(key)
    if payload is None:
        payload = _PAYLOAD_CACHE[key] = TrialPayload.from_bytes(blob)
        while len(_PAYLOAD_CACHE) > _PAYLOAD_CACHE_LIMIT:
            _PAYLOAD_CACHE.popitem(last=False)
    else:
        _PAYLOAD_CACHE.move_to_end(key)
    outcomes = []
    for seed in seeds:
        algorithm, stats = _execute_trial(payload, seed, incumbent)
        packed = None
        if algorithm is not None:
            packed = (algorithm.table.to_bytes(), dict(algorithm.metadata))
        outcomes.append((packed, stats))
    return outcomes


def _decode_trial_outcome(
    payload: TrialPayload,
    outcome: Tuple[Optional[Tuple[bytes, dict]], Dict[str, Any]],
) -> Tuple[Optional[CollectiveAlgorithm], Dict[str, Any]]:
    """Rebuild a trial's algorithm (if it completed) from worker bytes."""
    from repro.core.transfers import TransferTable

    packed, stats = outcome
    if packed is None:
        return None, stats
    table_bytes, metadata = packed
    algorithm = CollectiveAlgorithm.from_table(
        TransferTable.from_bytes(table_bytes),
        num_npus=payload.topology.num_npus,
        chunk_size=payload.chunk_size,
        collective_size=float(payload.collective_size),
        pattern_name=payload.pattern.name,
        topology_name=payload.topology.name,
        metadata=metadata,
    )
    return algorithm, stats


def _floor_skip_stats(seed: int) -> Tuple[None, Dict[str, Any]]:
    """Stats entry for a trial skipped outright by floor termination.

    A skipped trial never starts, so it is recorded as pruned at round 0
    with zero wall clock — distinguishable from a mid-trial prune (positive
    ``pruned_at_round``) and from a completed trial (``collective_time``).
    """
    return None, {
        "seed": seed,
        "rounds": 0,
        "collective_time": None,
        "pruned_at_round": 0,
        "wall_seconds": 0.0,
    }


def _search_floor(payload: TrialPayload) -> Optional[float]:
    """The round-0 :class:`~repro.core.matching.TrialBound` of ``payload``.

    Evaluated before any transfer commits, the bound depends only on the
    topology and the collective — not on a trial's random choices — so it is
    a valid lower bound on *every* trial's final collective time.  Returns
    ``None`` when the bound degenerates to zero (no owed chunks), in which
    case floor termination can never fire.
    """
    engine = payload.engine
    ten = engine.ten_factory(payload.topology, payload.chunk_size)
    state = engine.state_factory(
        payload.topology.num_npus,
        payload.pattern.precondition(),
        payload.pattern.postcondition(),
    )
    floor = TrialBound(ten, state, payload.hop_distances).value(0.0, 0.0)
    return floor if floor > 0.0 else None


def _run_trials(
    payload: TrialPayload,
    seeds: List[int],
    backend,
    workers: Optional[int],
    *,
    prune: bool,
    floor: Optional[float] = None,
) -> List[Tuple[Optional[CollectiveAlgorithm], Dict[str, Any]]]:
    """Seed-ordered trial fan-out with per-trial stats and incumbent sharing.

    Serial execution threads the incumbent through every trial (maximal
    pruning).  Parallel backends run the seeds in consecutive *waves* and
    re-share the best completed time between waves of twice the worker
    count — a wave only ever sees an incumbent at least as large as the
    final one, so sharing it late prunes less but never differently (any
    pruned trial is provably worse than some completed trial).  Without
    pruning there is no incumbent to share, so every seed runs in a single
    wave.  The pool tier serializes the payload once per fan-out
    (:meth:`TrialPayload.to_bytes`, so an unregistered engine raises
    :class:`~repro.errors.SynthesisError` here), ships it with every
    ``(key, blob, incumbent, seeds)`` chunk task, and gets completed
    algorithms back as columnar bytes.

    When ``floor`` is given (the round-0 bound, see :func:`_search_floor`)
    and the incumbent reaches it, every remaining seed is skipped outright:
    no trial can be *strictly* better than the floor, and the strict-``<``
    best-of selection never replaces the incumbent on a tie, so the winner
    is unchanged.
    """
    outcomes: List[Tuple[Optional[CollectiveAlgorithm], Dict[str, Any]]] = []
    incumbent: Optional[float] = None

    def absorb(wave_outcomes) -> None:
        nonlocal incumbent
        for algorithm, stats in wave_outcomes:
            if algorithm is not None:
                finished = algorithm.collective_time
                if incumbent is None or finished < incumbent:
                    incumbent = finished
        outcomes.extend(wave_outcomes)

    def at_floor() -> bool:
        return floor is not None and incumbent is not None and incumbent <= floor

    if backend is None or len(seeds) <= 1:
        for index, seed in enumerate(seeds):
            absorb([_execute_trial(payload, seed, incumbent if prune else None)])
            if at_floor() and index + 1 < len(seeds):
                outcomes.extend(_floor_skip_stats(s) for s in seeds[index + 1 :])
                break
        return outcomes

    from repro.api.parallel import chunk_items, default_worker_count

    width = len(seeds)
    if prune:
        width = 2 * (workers if workers else default_worker_count())

    blob = payload.to_bytes()
    key = hashlib.sha256(blob).hexdigest()
    for start in range(0, len(seeds), width):
        wave = seeds[start : start + width]
        packed_chunks = backend.map(
            partial(_run_trial_chunk, key, blob, incumbent if prune else None),
            chunk_items(wave, workers),
            max_workers=workers,
        )
        absorb([_decode_trial_outcome(payload, item) for chunk in packed_chunks for item in chunk])
        if at_floor() and start + width < len(seeds):
            outcomes.extend(_floor_skip_stats(s) for s in seeds[start + width :])
            break
    return outcomes


@dataclass
class SynthesisResult:
    """Outcome of a synthesis call.

    Attributes
    ----------
    algorithm:
        The best collective algorithm found across all trials.
    wall_clock_seconds:
        Total synthesis time across all trials (the Fig. 19 / Table V metric).
    trials:
        Number of randomized trials that were run.
    rounds:
        Number of TEN time spans processed by the winning trial (0 when the
        algorithm was composed from sub-syntheses, e.g. All-Reduce).
    trial_stats:
        Per-trial bookkeeping (one dict per trial, in seed order: ``seed``,
        ``rounds``, ``collective_time``, ``pruned_at_round``,
        ``wall_seconds``; composed syntheses add a ``phase`` key).
    """

    algorithm: CollectiveAlgorithm
    wall_clock_seconds: float
    trials: int
    rounds: int = 0
    trial_stats: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def full_trials(self) -> int:
        """Trials that ran to completion."""
        return sum(1 for stats in self.trial_stats if stats["pruned_at_round"] is None)

    @property
    def pruned_trials(self) -> int:
        """Trials aborted by incumbent pruning or skipped by floor termination."""
        return sum(1 for stats in self.trial_stats if stats["pruned_at_round"] is not None)


class TacosSynthesizer:
    """Autonomous topology-aware collective algorithm synthesizer.

    Parameters
    ----------
    config:
        Search configuration; defaults to a single deterministic trial with
        lowest-cost-link prioritization enabled.
    engine:
        The chunk-state core to drive; defaults to :data:`FLAT_ENGINE`.

    Examples
    --------
    >>> from repro.topology import build_ring
    >>> from repro.collectives import AllGather
    >>> synthesizer = TacosSynthesizer()
    >>> algorithm = synthesizer.synthesize(build_ring(4), AllGather(4), collective_size=4e6)
    >>> algorithm.num_transfers > 0
    True
    """

    def __init__(
        self,
        config: Optional[SynthesisConfig] = None,
        engine: Optional[SynthesisEngine] = None,
    ) -> None:
        self.config = config or SynthesisConfig()
        self.engine = engine or FLAT_ENGINE

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def synthesize(
        self,
        topology: Topology,
        pattern: CollectivePattern,
        collective_size: float,
    ) -> CollectiveAlgorithm:
        """Synthesize a collective algorithm; convenience wrapper returning only the algorithm."""
        return self.synthesize_with_stats(topology, pattern, collective_size).algorithm

    def synthesize_with_stats(
        self,
        topology: Topology,
        pattern: CollectivePattern,
        collective_size: float,
    ) -> SynthesisResult:
        """Synthesize a collective algorithm and report synthesis statistics."""
        if collective_size <= 0:
            raise SynthesisError(f"collective size must be positive, got {collective_size}")
        if pattern.num_npus != topology.num_npus:
            raise SynthesisError(
                f"pattern spans {pattern.num_npus} NPUs but topology {topology.name} has {topology.num_npus}"
            )
        started = _time.perf_counter()

        if isinstance(pattern, AllReduce):
            result = self._synthesize_all_reduce(topology, pattern, collective_size)
        elif pattern.requires_reduction:
            result = self._synthesize_by_reversal(topology, pattern, collective_size)
        else:
            result = self._synthesize_direct(topology, pattern, collective_size)

        result.wall_clock_seconds = _time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # Pattern dispatch
    # ------------------------------------------------------------------
    def _synthesize_all_reduce(
        self,
        topology: Topology,
        pattern: AllReduce,
        collective_size: float,
    ) -> SynthesisResult:
        """All-Reduce = Reduce-Scatter followed by All-Gather (Sec. IV-E)."""
        reduce_scatter = self._synthesize_by_reversal(
            topology, pattern.reduce_scatter_phase(), collective_size
        )
        all_gather = self._synthesize_direct(
            topology, pattern.all_gather_phase(), collective_size
        )
        combined = reduce_scatter.algorithm.concatenated(
            all_gather.algorithm, pattern_name=pattern.name
        )
        combined.topology_name = topology.name
        combined.metadata["reduce_scatter_time"] = reduce_scatter.algorithm.collective_time
        combined.metadata["all_gather_time"] = all_gather.algorithm.collective_time
        trial_stats = [
            dict(stats, phase=phase_name)
            for phase_name, phase in (
                ("reduce_scatter", reduce_scatter),
                ("all_gather", all_gather),
            )
            for stats in phase.trial_stats
        ]
        return SynthesisResult(
            algorithm=combined,
            wall_clock_seconds=0.0,
            trials=self.config.trials,
            rounds=reduce_scatter.rounds + all_gather.rounds,
            trial_stats=trial_stats,
        )

    def _synthesize_by_reversal(
        self,
        topology: Topology,
        pattern: CollectivePattern,
        collective_size: float,
    ) -> SynthesisResult:
        """Synthesize a reduction collective via its non-reducing dual (Fig. 11)."""
        dual = pattern.non_reducing_dual()
        if dual is None:
            raise SynthesisError(
                f"{pattern.name} requires reduction but provides no non-reducing dual"
            )
        reversed_topology = topology.reversed()
        dual_result = self._synthesize_direct(reversed_topology, dual, collective_size)
        reversed_algorithm = dual_result.algorithm.reversed_in_time()
        reversed_algorithm.pattern_name = pattern.name
        reversed_algorithm.topology_name = topology.name
        reversed_algorithm.metadata["synthesized_via"] = f"reversal of {dual.name}"
        return SynthesisResult(
            algorithm=reversed_algorithm,
            wall_clock_seconds=0.0,
            trials=dual_result.trials,
            rounds=dual_result.rounds,
            trial_stats=dual_result.trial_stats,
        )

    # ------------------------------------------------------------------
    # Direct synthesis (non-reducing patterns)
    # ------------------------------------------------------------------
    def _synthesize_direct(
        self,
        topology: Topology,
        pattern: CollectivePattern,
        collective_size: float,
    ) -> SynthesisResult:
        """Run the randomized search directly on ``pattern`` and keep the best trial.

        Topology-level structures (adjacency, hop distances, cheaper-link
        reachability regions) are resolved once here — cached on the topology
        — and shared read-only by every trial.  Independent trials fan out
        through the pluggable execution backends (:mod:`repro.api.parallel`):
        serial or pool, per the config or the ambient
        :func:`~repro.api.parallel.execution_scope`.  Every trial is seeded
        deterministically (:meth:`SynthesisConfig.trial_seed`) and the
        best-of-trials selection below is order-independent, so the chosen
        algorithm is byte-identical regardless of backend.
        """
        chunk_size = pattern.chunk_size(collective_size)

        hop_distances = None
        if self.config.enable_forwarding and self._needs_forwarding(pattern):
            hop_distances = topology.hop_distances()

        cheap_regions = None
        if self.config.prefer_lowest_cost_links and not topology.is_homogeneous():
            cheap_regions = topology.cheaper_reachability_regions(chunk_size)

        # Warm the adjacency caches before fanning out so concurrent trials
        # only ever read them (process workers inherit them via the payload).
        topology.in_adjacency()
        topology.out_adjacency()

        payload = TrialPayload(
            topology=topology,
            pattern=pattern,
            collective_size=float(collective_size),
            chunk_size=chunk_size,
            hop_distances=hop_distances,
            cheap_regions=cheap_regions,
            engine=self.engine,
            prefer_lowest_cost=self.config.prefer_lowest_cost_links,
            max_rounds=self.config.max_rounds,
        )
        seeds = self._trial_seeds(topology)
        backend, workers = self._trial_execution()
        floor = None
        if self.config.floor_termination:
            floor = _search_floor(payload)
        outcomes = _run_trials(
            payload,
            seeds,
            backend,
            workers,
            prune=self.config.incumbent_pruning,
            floor=floor,
        )

        # First-strictly-better selection over the seed-ordered outcomes: the
        # winner does not depend on scheduling, so parallel and serial runs
        # pick the same algorithm.
        best_algorithm: Optional[CollectiveAlgorithm] = None
        best_rounds = 0
        for algorithm, stats in outcomes:
            if algorithm is None:
                continue
            if best_algorithm is None or algorithm.collective_time < best_algorithm.collective_time:
                best_algorithm = algorithm
                best_rounds = stats["rounds"]
        if best_algorithm is None:  # unreachable: the first trial of the
            # first wave runs with no incumbent and therefore completes
            raise SynthesisError("every synthesis trial was pruned")
        return SynthesisResult(
            algorithm=best_algorithm,
            wall_clock_seconds=0.0,
            trials=len(seeds),
            rounds=best_rounds,
            trial_stats=[stats for _, stats in outcomes],
        )

    def _trial_seeds(self, topology: Topology) -> List[int]:
        """The per-trial seed list, in selection (tie-break) order.

        The uniform search runs ``seed + i`` for ``i in range(trials)``.
        Subclasses may reorder or substitute seeds — the guided tier
        (:class:`repro.search.GuidedSynthesizer`) front-loads winning seeds of
        previously synthesized specs on the same topology family — but the
        list length is the trial budget and earlier entries win ties.
        """
        return [self.config.trial_seed(trial) for trial in range(self.config.trials)]

    def _trial_execution(self):
        """Resolve the ``(backend, workers)`` pair governing the trial fan-out.

        Explicit config fields win; with neither set, the ambient
        :func:`~repro.api.parallel.execution_scope` policy applies (serial
        when none is installed).  ``trial_workers`` alone selects the pool
        backend, like every other fan-out site.
        """
        from repro.api.parallel import (  # deferred: avoids an import cycle
            current_execution,
            resolve_backend,
        )

        config = self.config
        if config.execution is not None:
            backend = resolve_backend(config.execution)
            workers = config.trial_workers
            if backend.name == "serial":
                return None, None
            return backend, workers
        if config.trial_workers is not None:
            if config.trial_workers <= 1:
                return None, None
            return resolve_backend("pool"), config.trial_workers
        backend, workers = current_execution()
        if backend is not None and backend.name == "serial":
            return None, None
        return backend, workers

    @staticmethod
    def _needs_forwarding(pattern: CollectivePattern) -> bool:
        """Whether some chunk must traverse NPUs that never request it.

        This is the case exactly when a chunk is absent from some NPU's
        postcondition — then that NPU can only ever act as a relay, which the
        plain Alg. 1 matching never schedules.
        """
        post = pattern.postcondition()
        all_chunks = pattern.all_chunks()
        return any(post.get(npu, frozenset()) != all_chunks for npu in range(pattern.num_npus))


def synthesize(
    topology: Topology,
    pattern: CollectivePattern,
    collective_size: float,
    *,
    config: Optional[SynthesisConfig] = None,
) -> CollectiveAlgorithm:
    """Module-level convenience wrapper around :class:`TacosSynthesizer`."""
    return TacosSynthesizer(config).synthesize(topology, pattern, collective_size)

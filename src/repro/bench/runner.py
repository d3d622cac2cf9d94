"""Benchmark execution: time both engines, check equivalence, emit JSON.

Six scenario kinds are executed (see :mod:`repro.bench.grid`); the two
fundamental ones:

* **synthesis** scenarios time the array-backed flat synthesis engine
  against the frozen pre-refactor reference engine (``repeats`` times,
  median wall clock), assert the two algorithms are identical, then time
  *both* simulator engines on the synthesized algorithm's messages and
  assert byte-identical ``message_completion`` / ``completion_time``;
* **simulation** scenarios build a logical Ring / Direct / RHD schedule,
  convert it to messages once, and time one *backend pipeline run* —
  simulate, then derive the utilization timeline and per-link busy times,
  i.e. what every Fig. 16(b)/18-style consumer does — for the array-backed
  :class:`~repro.simulator.engine.CongestionAwareSimulator` (vectorized
  sweeps) against the frozen
  :class:`~repro.bench.reference.ReferenceSimulator` (dict engine + nested
  O(links x intervals x samples) metric scans) on the same message list,
  with the same byte-identical ``message_completion`` assertion.

A fresh simulator instance is used for every timed repeat, so per-simulator
route caches never carry over; the topology-level shortest-path-tree cache
*does* persist, because sharing trees across runs is precisely the
array engine's design (the reference engine, frozen before trees existed,
re-runs its per-pair Dijkstra every repeat).

The report is written as ``BENCH_<grid>_<timestamp>.json`` with a stable
schema so CI can track the perf trajectory per PR; it is strict JSON
(``allow_nan=False`` — a non-finite value fails the write loudly instead of
silently emitting a bare ``Infinity`` the consumer cannot parse).
"""

from __future__ import annotations

import json
import math
import os
import pickle  # repro-lint: disable=J402 -- dispatch bench measures the legacy per-trial pickle transport's bytes; nothing is persisted
import statistics
import threading
import time as _time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import __version__
from repro.api import broadcast
from repro.api.builtins import parse_topology_spec
from repro.api.parallel import (
    BackendSpec,
    PoolBackend,
    chunk_items,
    default_worker_count,
    effective_backend,
)
from repro.api.registry import COLLECTIVES
from repro.api.runner import build_topology
from repro.baselines import direct_all_reduce, rhd_all_reduce, ring_all_reduce
from repro.bench.grid import (
    BenchScenario,
    DispatchScenario,
    PipelineScenario,
    Scenario,
    SearchScenario,
    SimScenario,
    get_grid,
)
from repro.collectives import AllReduce
from repro.bench.reference import (
    REFERENCE_ENGINE,
    ReferenceSimulator,
    reference_algorithm_to_messages,
    reference_link_busy_time,
    reference_utilization_timeline,
    reference_verify_algorithm,
)
from repro.core.config import SynthesisConfig
from repro.core.synthesizer import (
    FLAT_ENGINE,
    TacosSynthesizer,
    TrialPayload,
    resolve_engine,
)
from repro.core.verification import verify_algorithm
from repro.errors import ReproError, VerificationError
from repro.simulator.adapters import (
    algorithm_to_messages,
    schedule_to_messages,
    simulate_algorithm,
)
from repro.simulator.engine import CongestionAwareSimulator
from repro.simulator.messages import Message
from repro.simulator.result import SimulationResult
from repro.topology.topology import Topology

__all__ = ["BenchRecord", "run_bench", "summarize", "write_report"]

#: Report schema identifier (bump on breaking changes).  v2 added the
#: simulator-engine fields and replaced non-finite speedups with ``null``;
#: v3 added the ``pipeline`` scenario kind and the ``verified`` field;
#: v4 added the ``parallel`` scenario kind (``backend_seconds`` / ``workers``),
#: per-layer wall-time attribution for pipeline records (``layer_seconds`` /
#: ``reference_layer_seconds``), nullable reference timings (``--no-reference``
#: runs), and host/execution metadata on the report envelope;
#: v5 adds the ``native`` scenario kind, per-record ``engine`` / ``kernel``
#: fields (the synthesis-engine tier each record timed), the envelope's
#: ``engine`` and ``native`` (compiled-tier availability/version) blocks, and
#: per-scenario ``skip_reference`` synthesis records with null reference
#: timings inside otherwise-referenced runs;
#: v6 adds the ``dispatch`` scenario kind (warm-vs-cold pool dispatch as the
#: primary triple, per-trial submitted-payload-bytes and throughput in the new
#: ``dispatch_metrics`` field) and the envelope's ``pool`` block (shared-memory
#: broadcast availability/transport);
#: v7 adds the ``search`` scenario kind (guided-vs-uniform search race:
#: uniform wall as the reference side of the triple, guided wall as the flat
#: side, quality-at-equal-wallclock / time-to-target / pruned-fraction /
#: effective-trials-per-second in the new ``search_metrics`` field).
SCHEMA = "tacos-repro-bench/v7"

#: Logical schedule builders available to :class:`SimScenario`.
_SCHEDULE_BUILDERS: Dict[str, Callable] = {
    "ring": ring_all_reduce,
    "direct": direct_all_reduce,
    "rhd": rhd_all_reduce,
}


@dataclass
class BenchRecord:
    """Measured outcome of one benchmark scenario.

    For ``kind == "synthesis"`` the ``flat_seconds`` / ``reference_seconds``
    / ``speedup`` triple measures the synthesis engines and the
    ``simulation_*`` fields measure the simulator engines on the synthesized
    algorithm.  For ``kind == "simulation"`` the primary triple *is* the
    simulator measurement (mirrored into the ``simulation_*`` fields), so
    grid-level summaries report the simulator speedup directly.  For
    ``kind == "pipeline"`` the primary triple measures the *end-to-end*
    chain and no simulator-only timing exists, so the ``simulation_*``
    fields are ``None`` — a pipeline record never inflates the grid's
    simulator-speedup summary; ``layer_seconds`` /
    ``reference_layer_seconds`` attribute the pipeline wall clock to the
    synthesize / verify / simulate / metrics layers.  For
    ``kind == "dispatch"`` the triple measures *dispatch overhead*, not
    synthesis: ``reference_seconds`` is the cold path (spin up a fresh
    process pool, run one fan-out, shut it down), ``flat_seconds`` the same
    fan-out through an already-warm persistent pool, ``speedup`` the
    cold/warm ratio; the ``dispatch_metrics`` dict carries the per-trial
    submitted payload bytes of a per-trial pickle transport vs the
    broadcast plane (and their reduction ratio), the broadcast blob size
    and transport, and the sustained trials/sec through the warm pool,
    while ``backend_seconds`` holds full-synthesis medians for the
    serial/pool race whose byte-identical winners back the ``equivalent``
    flag.  For
    ``kind == "search"`` the triple races *search tiers* of the same
    best-of-N problem — ``reference_seconds`` is the uniform tier's median
    wall clock, ``flat_seconds`` the guided tier's (incumbent pruning +
    floor termination), ``speedup`` the uniform/guided ratio — with the
    quality-per-wallclock bookkeeping in ``search_metrics`` and the
    ``equivalent`` flag asserting byte-identical winners.

    Reference timings are ``None`` when the run skipped the frozen object
    path (``--no-reference``).
    """

    scenario: str
    #: ``"synthesis"``, ``"simulation"``, ``"pipeline"``, ``"dispatch"``,
    #: or ``"search"``.
    kind: str
    topology: str
    collective: str
    collective_size: float
    num_npus: int
    num_links: int
    seed: int
    trials: int
    flat_seconds: float
    reference_seconds: Optional[float]  #: None when the reference path was skipped
    speedup: Optional[float]  #: None when undefined (zero/non-finite ratio)
    equivalent: Optional[bool]  #: None when the equivalence check was skipped
    num_transfers: int
    collective_time: float
    rounds: int
    num_messages: int
    simulation_seconds: Optional[float]  #: array-backed simulator, median wall clock
    reference_simulation_seconds: Optional[float]
    simulation_speedup: Optional[float]
    simulation_equivalent: Optional[bool]
    simulated_collective_time: float
    verified: Optional[bool] = None  #: verification verdict (pipeline scenarios)
    #: Pipeline wall clock per layer (synthesize/verify/simulate/metrics).
    layer_seconds: Optional[Dict[str, float]] = None
    reference_layer_seconds: Optional[Dict[str, float]] = None
    #: Per-backend median wall clocks (dispatch scenarios).
    backend_seconds: Optional[Dict[str, float]] = None
    workers: Optional[int] = None  #: pool width (dispatch scenarios)
    #: Dispatch-overhead measurements (dispatch scenarios): per-trial
    #: submitted payload bytes on the legacy pickle vs broadcast transports,
    #: their reduction ratio, blob size/transport, and warm-pool throughput.
    dispatch_metrics: Optional[Dict[str, Any]] = None
    #: Guided-vs-uniform search measurements (search scenarios): wall
    #: clocks, quality at the guided tier's wall-clock budget, time to the
    #: target (winning) quality, full/pruned trial counts, and effective
    #: trials/sec for both tiers.
    search_metrics: Optional[Dict[str, Any]] = None
    #: Synthesis-engine tier the record's primary timing ran under
    #: (``"flat"``, ``"reference"``; simulation records report the array
    #: simulator as ``"flat"``).
    engine: str = "flat"
    #: Schema v5 field naming a compiled kernel tier; always ``None`` now
    #: that every record times the Python engines.
    kernel: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _safe_speedup(
    reference_seconds: Optional[float], flat_seconds: float
) -> Optional[float]:
    """Reference/flat ratio, or ``None`` when unmeasured or not finite.

    ``float("inf")`` would serialize as bare ``Infinity`` — invalid strict
    JSON that breaks the CI artifact and any trend tooling downstream; a
    ``--no-reference`` run has no numerator at all.
    """
    if reference_seconds is None or flat_seconds <= 0:
        return None
    value = reference_seconds / flat_seconds
    return value if math.isfinite(value) else None


def _median_wall_clock(synthesizer: TacosSynthesizer, topology, pattern, size, repeats: int):
    """Run ``repeats`` syntheses; return (result_of_first, median wall clock)."""
    first = None
    samples = []
    for _ in range(max(1, repeats)):
        result = synthesizer.synthesize_with_stats(topology, pattern, size)
        samples.append(result.wall_clock_seconds)
        if first is None:
            first = result
    return first, statistics.median(samples)


#: Sample count used for the timed utilization-timeline derivation.
_TIMELINE_SAMPLES = 100


def _flat_sim_pipeline(
    topology: Topology, messages: Sequence[Message], collective_size: float
) -> SimulationResult:
    """One array-backed simulator backend run: simulate + derive metrics."""
    result = CongestionAwareSimulator(topology).run(
        messages, collective_size=collective_size
    )
    result.utilization_timeline(_TIMELINE_SAMPLES)
    result.link_busy_time()
    return result


def _reference_sim_pipeline(
    topology: Topology, messages: Sequence[Message], collective_size: float
) -> SimulationResult:
    """One frozen-reference backend run: dict engine + nested metric scans."""
    result = ReferenceSimulator(topology).run(messages, collective_size=collective_size)
    reference_utilization_timeline(result, _TIMELINE_SAMPLES)
    reference_link_busy_time(result)
    return result


def _time_simulator(
    pipeline: Callable[[Topology, Sequence[Message], float], SimulationResult],
    topology: Topology,
    messages: Sequence[Message],
    collective_size: float,
    repeats: int,
) -> Tuple[SimulationResult, float]:
    """Time ``repeats`` backend pipeline runs; return (first result, median seconds).

    A backend "run" is what every figure pipeline does with the simulator:
    simulate the workload, then derive the utilization timeline and per-link
    busy times.  Each repeat constructs a fresh simulator (per-simulator
    route caches never carry over); the topology-level shortest-path-tree
    cache does persist, because sharing trees is the array engine's design —
    the reference engine, frozen before trees existed, re-runs its per-pair
    Dijkstra and nested metric scans every repeat, exactly as the historical
    code did.
    """
    first: Optional[SimulationResult] = None
    samples = []
    for _ in range(max(1, repeats)):
        started = _time.perf_counter()
        result = pipeline(topology, messages, collective_size)
        samples.append(_time.perf_counter() - started)
        if first is None:
            first = result
    return first, statistics.median(samples)


def _simulators_agree(flat: SimulationResult, reference: SimulationResult) -> bool:
    """Byte-identical delivery schedule: exact float equality, no tolerance."""
    return (
        flat.message_completion == reference.message_completion
        and flat.completion_time == reference.completion_time
    )


_WARMUP_LOCK = threading.Lock()
_WARMED = False


def _warmup_once() -> None:
    """Run one tiny synthesis + simulation per engine so imports, registry
    resolution, and lazy RNG setup are not billed to the first timed scenario.

    Idempotent per process (and thread-safe), so worker processes of a
    parallel bench each warm up exactly once, before their first timing.
    """
    global _WARMED
    with _WARMUP_LOCK:
        if _WARMED:
            return
        from repro.collectives.all_gather import AllGather
        from repro.topology.builders.ring import build_ring

        topology = build_ring(4)
        pattern = AllGather(4)
        algorithm = None
        for engine in (FLAT_ENGINE, REFERENCE_ENGINE):
            algorithm = TacosSynthesizer(engine=engine).synthesize(topology, pattern, 1e6)
        messages = algorithm_to_messages(algorithm)
        CongestionAwareSimulator(topology).run(messages)
        ReferenceSimulator(topology).run(messages)
        _WARMED = True


def _run_synthesis_scenario(
    scenario: BenchScenario,
    repeats: int,
    check_equivalence: bool,
    include_reference: bool,
    engine_name: str = "flat",
) -> BenchRecord:
    engine = resolve_engine(engine_name)
    topology = build_topology(parse_topology_spec(scenario.topology))
    factory = COLLECTIVES.get(scenario.collective)
    pattern = factory(topology.num_npus, scenario.chunks_per_npu)
    config = SynthesisConfig(seed=scenario.seed, trials=scenario.trials)
    include_reference = include_reference and not scenario.skip_reference

    flat = TacosSynthesizer(config, engine=engine)
    flat_result, flat_seconds = _median_wall_clock(
        flat, topology, pattern, scenario.collective_size, repeats
    )

    reference_seconds: Optional[float] = None
    equivalent: Optional[bool] = None
    if include_reference:
        reference = TacosSynthesizer(config, engine=REFERENCE_ENGINE)
        reference_result, reference_seconds = _median_wall_clock(
            reference, topology, pattern, scenario.collective_size, repeats
        )
        if check_equivalence:
            equivalent = (
                flat_result.algorithm.transfers == reference_result.algorithm.transfers
                and flat_result.algorithm.collective_time
                == reference_result.algorithm.collective_time
            )

    messages = algorithm_to_messages(flat_result.algorithm)
    collective_size = flat_result.algorithm.collective_size
    sim_result, simulation_seconds = _time_simulator(
        _flat_sim_pipeline, topology, messages, collective_size, repeats
    )
    reference_simulation_seconds: Optional[float] = None
    simulation_equivalent: Optional[bool] = None
    if include_reference:
        ref_sim_result, reference_simulation_seconds = _time_simulator(
            _reference_sim_pipeline, topology, messages, collective_size, repeats
        )
        if check_equivalence:
            simulation_equivalent = _simulators_agree(sim_result, ref_sim_result)

    return BenchRecord(
        scenario=scenario.name,
        kind="synthesis",
        topology=scenario.topology,
        collective=scenario.collective,
        collective_size=scenario.collective_size,
        num_npus=topology.num_npus,
        num_links=topology.num_links,
        seed=scenario.seed,
        trials=scenario.trials,
        flat_seconds=flat_seconds,
        reference_seconds=reference_seconds,
        speedup=_safe_speedup(reference_seconds, flat_seconds),
        equivalent=equivalent,
        num_transfers=flat_result.algorithm.num_transfers,
        collective_time=flat_result.algorithm.collective_time,
        rounds=flat_result.rounds,
        num_messages=len(messages),
        simulation_seconds=simulation_seconds,
        reference_simulation_seconds=reference_simulation_seconds,
        simulation_speedup=_safe_speedup(reference_simulation_seconds, simulation_seconds),
        simulation_equivalent=simulation_equivalent,
        simulated_collective_time=sim_result.completion_time,
        engine=engine.name,
    )


def _run_sim_scenario(
    scenario: SimScenario, repeats: int, check_equivalence: bool, include_reference: bool
) -> BenchRecord:
    try:
        builder = _SCHEDULE_BUILDERS[scenario.schedule]
    except KeyError:
        raise ReproError(
            f"unknown logical schedule {scenario.schedule!r}; "
            f"available: {', '.join(sorted(_SCHEDULE_BUILDERS))}"
        ) from None
    topology = build_topology(parse_topology_spec(scenario.topology))
    schedule = builder(
        topology.num_npus, scenario.collective_size, chunks_per_npu=scenario.chunks_per_npu
    )
    # Convert once and share the exact message objects between engines: both
    # iterate the same frozensets, which pins down dependency fan-out order.
    messages = schedule_to_messages(schedule)

    flat_result, flat_seconds = _time_simulator(
        _flat_sim_pipeline, topology, messages, schedule.collective_size, repeats
    )
    reference_seconds: Optional[float] = None
    equivalent: Optional[bool] = None
    if include_reference:
        ref_result, reference_seconds = _time_simulator(
            _reference_sim_pipeline, topology, messages, schedule.collective_size, repeats
        )
        if check_equivalence:
            equivalent = _simulators_agree(flat_result, ref_result)

    speedup = _safe_speedup(reference_seconds, flat_seconds)
    return BenchRecord(
        scenario=scenario.name,
        kind="simulation",
        topology=scenario.topology,
        collective=f"{scenario.schedule}-all_reduce",
        collective_size=scenario.collective_size,
        num_npus=topology.num_npus,
        num_links=topology.num_links,
        seed=scenario.seed,
        trials=1,
        flat_seconds=flat_seconds,
        reference_seconds=reference_seconds,
        speedup=speedup,
        equivalent=equivalent,
        num_transfers=len(messages),
        collective_time=flat_result.completion_time,
        rounds=schedule.num_steps,
        num_messages=len(messages),
        simulation_seconds=flat_seconds,
        reference_simulation_seconds=reference_seconds,
        simulation_speedup=speedup,
        simulation_equivalent=equivalent,
        simulated_collective_time=flat_result.completion_time,
    )


def _pipeline_verdict(verifier, algorithm, topology, pattern) -> Tuple[bool, str]:
    """(passed, error-class) verdict of one verifier run — never raises."""
    try:
        verifier(algorithm, topology, pattern)
        return True, ""
    except VerificationError as exc:
        return False, type(exc).__name__


def _time_pipeline(
    pipeline: Callable[[], Tuple], repeats: int
) -> Tuple[Tuple, float, Dict[str, float]]:
    """Time ``repeats`` full pipeline runs.

    Returns ``(first outcome, median seconds, median per-layer seconds)``;
    each pipeline call returns its per-layer wall-clock dict as the last
    element of its outcome tuple.
    """
    first = None
    samples = []
    layer_samples: Dict[str, List[float]] = {}
    for _ in range(max(1, repeats)):
        started = _time.perf_counter()
        outcome = pipeline()
        samples.append(_time.perf_counter() - started)
        for layer, seconds in outcome[-1].items():
            layer_samples.setdefault(layer, []).append(seconds)
        if first is None:
            first = outcome
    layers = {layer: statistics.median(values) for layer, values in layer_samples.items()}
    return first, statistics.median(samples), layers


def _run_pipeline_scenario(
    scenario: PipelineScenario,
    repeats: int,
    check_equivalence: bool,
    include_reference: bool,
    engine_name: str = "flat",
) -> BenchRecord:
    """Time the whole synthesize → verify → simulate → metrics chain per path.

    The columnar path is the production code: flat synthesis engine,
    vectorized verification, CSR adapters feeding
    :meth:`~repro.simulator.engine.CongestionAwareSimulator.run_flat`, and
    the vectorized metric sweeps.  The reference path is the frozen object
    pipeline across every layer boundary: reference synthesis engine,
    object-path verifier, per-transfer ``Message`` adapters, dict-keyed
    :class:`~repro.bench.reference.ReferenceSimulator`, and the nested
    O(links x intervals x samples) metric scans.  Both paths share the
    topology object (and therefore its cached derived structures), exactly
    like the synthesis scenarios do.  Each run records per-layer wall times
    (synthesize / verify / simulate / metrics), medians of which land in the
    record's ``layer_seconds`` columns for ``--json`` / ``--history``
    consumers.
    """
    engine = resolve_engine(engine_name)
    topology = build_topology(parse_topology_spec(scenario.topology))
    factory = COLLECTIVES.get(scenario.collective)
    pattern = factory(topology.num_npus, scenario.chunks_per_npu)
    config = SynthesisConfig(seed=scenario.seed, trials=scenario.trials)

    def flat_pipeline() -> Tuple:
        layers: Dict[str, float] = {}
        started = _time.perf_counter()
        algorithm = TacosSynthesizer(config, engine=engine).synthesize(
            topology, pattern, scenario.collective_size
        )
        layers["synthesize"] = _time.perf_counter() - started
        started = _time.perf_counter()
        verdict = _pipeline_verdict(verify_algorithm, algorithm, topology, pattern)
        layers["verify"] = _time.perf_counter() - started
        started = _time.perf_counter()
        result = simulate_algorithm(topology, algorithm)
        layers["simulate"] = _time.perf_counter() - started
        started = _time.perf_counter()
        result.utilization_timeline(_TIMELINE_SAMPLES)
        result.link_busy_time()
        layers["metrics"] = _time.perf_counter() - started
        return algorithm, verdict, result, layers

    def reference_pipeline() -> Tuple:
        layers: Dict[str, float] = {}
        started = _time.perf_counter()
        algorithm = TacosSynthesizer(config, engine=REFERENCE_ENGINE).synthesize(
            topology, pattern, scenario.collective_size
        )
        layers["synthesize"] = _time.perf_counter() - started
        started = _time.perf_counter()
        verdict = _pipeline_verdict(reference_verify_algorithm, algorithm, topology, pattern)
        layers["verify"] = _time.perf_counter() - started
        started = _time.perf_counter()
        messages = reference_algorithm_to_messages(algorithm)
        result = ReferenceSimulator(topology).run(
            messages, collective_size=algorithm.collective_size
        )
        layers["simulate"] = _time.perf_counter() - started
        started = _time.perf_counter()
        reference_utilization_timeline(result, _TIMELINE_SAMPLES)
        reference_link_busy_time(result)
        layers["metrics"] = _time.perf_counter() - started
        return algorithm, verdict, result, layers

    (flat_algorithm, flat_verdict, flat_result, _), flat_seconds, flat_layers = _time_pipeline(
        flat_pipeline, repeats
    )
    reference_seconds: Optional[float] = None
    reference_layers: Optional[Dict[str, float]] = None
    equivalent: Optional[bool] = None
    if include_reference:
        (ref_algorithm, ref_verdict, ref_result, _), reference_seconds, reference_layers = (
            _time_pipeline(reference_pipeline, repeats)
        )
        if check_equivalence:
            equivalent = (
                flat_algorithm.transfers == ref_algorithm.transfers
                and flat_algorithm.collective_time == ref_algorithm.collective_time
                and flat_verdict == ref_verdict
                and _simulators_agree(flat_result, ref_result)
            )

    speedup = _safe_speedup(reference_seconds, flat_seconds)
    return BenchRecord(
        scenario=scenario.name,
        kind="pipeline",
        topology=scenario.topology,
        collective=scenario.collective,
        collective_size=scenario.collective_size,
        num_npus=topology.num_npus,
        num_links=topology.num_links,
        seed=scenario.seed,
        trials=scenario.trials,
        flat_seconds=flat_seconds,
        reference_seconds=reference_seconds,
        speedup=speedup,
        equivalent=equivalent,
        num_transfers=flat_algorithm.num_transfers,
        collective_time=flat_algorithm.collective_time,
        rounds=0,
        num_messages=len(flat_result.message_completion),
        # No simulator-only timing exists for an end-to-end pipeline run;
        # leaving these None keeps the grid's simulator-speedup summary
        # honest (summarize() skips None entries).
        simulation_seconds=None,
        reference_simulation_seconds=None,
        simulation_speedup=None,
        simulation_equivalent=None,
        simulated_collective_time=flat_result.completion_time,
        verified=flat_verdict[0],
        layer_seconds=flat_layers,
        reference_layer_seconds=reference_layers,
        engine=engine.name,
    )


def _dispatch_probe(index: int) -> int:
    """No-op fan-out task: measures dispatch machinery, not work (picklable)."""
    return index


def _direct_phase(pattern):
    """The non-reducing pattern one direct synthesis trial of ``pattern`` runs.

    This is what actually crosses the process boundary during a fan-out:
    All-Reduce decomposes into Reduce-Scatter + All-Gather and reduction
    patterns synthesize via their non-reducing dual, so the payload-bytes
    measurement mirrors :meth:`TacosSynthesizer._synthesize_direct`'s inputs.
    """
    if isinstance(pattern, AllReduce):
        return pattern.all_gather_phase()
    if pattern.requires_reduction:
        return pattern.non_reducing_dual() or pattern
    return pattern


def _run_dispatch_scenario(
    scenario: DispatchScenario, repeats: int, check_equivalence: bool
) -> BenchRecord:
    """Measure what the persistent execution plane changes, honestly on 1 CPU.

    Three independent measurements, none of which needs spare cores to be
    meaningful:

    * **per-trial submitted payload bytes** — the pickle a per-trial
      transport would ship for every trial (the full
      :class:`~repro.core.synthesizer.TrialPayload` object graph) vs what the
      broadcast plane actually submits (thin ``(BlobRef, seeds)`` chunks,
      with the columnar blob published once per fan-out); the reduction
      ratio is the headline payload metric;
    * **cold vs warm dispatch latency** — the same no-op fan-out timed
      through a fresh :class:`~repro.api.parallel.PoolBackend` (spin up,
      map, shut down) and through an already-warm
      :class:`~repro.api.parallel.PoolBackend` (the primary triple:
      ``reference_seconds`` cold, ``flat_seconds`` warm);
    * **sustained throughput** — full best-of-N syntheses through the warm
      pool, reported as trials/sec in ``dispatch_metrics``.

    The equivalence check races the identical synthesis under the serial and
    pool backends and asserts byte-identical winners via
    :meth:`~repro.core.transfers.TransferTable.to_bytes`.
    """
    topology = build_topology(parse_topology_spec(scenario.topology))
    factory = COLLECTIVES.get(scenario.collective)
    pattern = factory(topology.num_npus, 1)

    # --- payload bytes: legacy pickle transport vs broadcast plane --------
    measured = _direct_phase(pattern)
    chunk_size = measured.chunk_size(scenario.collective_size)
    hop_distances = None
    if TacosSynthesizer._needs_forwarding(measured):
        hop_distances = topology.hop_distances()
    cheap_regions = None
    if not topology.is_homogeneous():
        cheap_regions = topology.cheaper_reachability_regions(chunk_size)
    payload = TrialPayload(
        topology=topology,
        pattern=measured,
        collective_size=float(scenario.collective_size),
        chunk_size=chunk_size,
        hop_distances=hop_distances,
        cheap_regions=cheap_regions,
        engine=FLAT_ENGINE,
        prefer_lowest_cost=True,
        max_rounds=SynthesisConfig().max_rounds,
    )
    seeds = [scenario.seed + trial for trial in range(scenario.trials)]
    legacy_bytes_per_trial = float(
        len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    )
    blob = payload.to_bytes()
    ref = broadcast.publish(blob)
    try:
        shared_memory = ref.segment is not None
        chunks = chunk_items(seeds, scenario.workers)
        submitted = sum(
            len(pickle.dumps((ref, chunk), protocol=pickle.HIGHEST_PROTOCOL))
            for chunk in chunks
        )
    finally:
        broadcast.release(ref)
    pool_bytes_per_trial = submitted / len(seeds)
    bytes_reduction = _safe_speedup(legacy_bytes_per_trial, pool_bytes_per_trial)

    # --- cold vs warm dispatch latency ------------------------------------
    probe_items = list(range(scenario.workers * 4))
    cold_samples = []
    for _ in range(max(1, repeats)):
        started = _time.perf_counter()
        cold_pool = PoolBackend()
        try:
            cold_pool.map(_dispatch_probe, probe_items, max_workers=scenario.workers)
        finally:
            cold_pool.shutdown()
        cold_samples.append(_time.perf_counter() - started)
    cold_seconds = statistics.median(cold_samples)

    warm_pool = PoolBackend()
    try:
        warm_pool.warm(scenario.workers)
        warm_samples = []
        for _ in range(max(3, repeats)):
            started = _time.perf_counter()
            warm_pool.map(_dispatch_probe, probe_items, max_workers=scenario.workers)
            warm_samples.append(_time.perf_counter() - started)
        warm_seconds = statistics.median(warm_samples)
    finally:
        warm_pool.shutdown()

    # --- sustained throughput + serial/pool race --------------------------
    outcomes: Dict[str, Tuple[Any, float]] = {}
    for execution in ("serial", "pool"):
        config = SynthesisConfig(
            seed=scenario.seed,
            trials=scenario.trials,
            trial_workers=None if execution == "serial" else scenario.workers,
            execution=execution,
        )
        synthesizer = TacosSynthesizer(config, engine=FLAT_ENGINE)
        if execution == "pool":
            # One unmeasured synthesis forks the persistent pool so the
            # timed repeats measure sustained warm throughput, not spin-up.
            synthesizer.synthesize_with_stats(
                topology, pattern, scenario.collective_size
            )
        result, seconds = _median_wall_clock(
            synthesizer, topology, pattern, scenario.collective_size, repeats
        )
        outcomes[execution] = (result, seconds)

    equivalent: Optional[bool] = None
    if check_equivalence:
        payloads = {
            execution: result.algorithm.table.to_bytes()
            for execution, (result, _) in outcomes.items()
        }
        equivalent = payloads["serial"] == payloads["pool"]

    serial_result, _ = outcomes["serial"]
    _, pool_seconds = outcomes["pool"]
    trials_per_second = scenario.trials / pool_seconds if pool_seconds > 0 else None
    return BenchRecord(
        scenario=scenario.name,
        kind="dispatch",
        topology=scenario.topology,
        collective=scenario.collective,
        collective_size=scenario.collective_size,
        num_npus=topology.num_npus,
        num_links=topology.num_links,
        seed=scenario.seed,
        trials=scenario.trials,
        flat_seconds=warm_seconds,
        reference_seconds=cold_seconds,
        speedup=_safe_speedup(cold_seconds, warm_seconds),
        equivalent=equivalent,
        num_transfers=serial_result.algorithm.num_transfers,
        collective_time=serial_result.algorithm.collective_time,
        rounds=serial_result.rounds,
        num_messages=0,
        simulation_seconds=None,
        reference_simulation_seconds=None,
        simulation_speedup=None,
        simulation_equivalent=None,
        simulated_collective_time=0.0,
        backend_seconds={
            execution: seconds for execution, (_, seconds) in outcomes.items()
        },
        workers=scenario.workers,
        dispatch_metrics={
            "payload_bytes_per_trial_process": legacy_bytes_per_trial,
            "payload_bytes_per_trial_pool": pool_bytes_per_trial,
            "payload_bytes_reduction": bytes_reduction,
            "broadcast_blob_bytes": float(len(blob)),
            "broadcast_shared_memory": shared_memory,
            "cold_dispatch_seconds": cold_seconds,
            "warm_dispatch_seconds": warm_seconds,
            "trials_per_second": trials_per_second,
        },
    )


def _quality_trajectory(
    trial_stats: List[Dict[str, Any]],
) -> List[Tuple[float, Optional[float]]]:
    """Best-so-far collective time against cumulative trial wall clock.

    One point per trial, in the synthesizer's seed order (composed
    All-Reduce stats concatenate the two phases, which is exactly the order
    a serial search spends its wall clock in).  Pruned and floor-skipped
    trials advance the clock by their recorded wall without improving the
    quality.

    For composed syntheses (entries carrying a ``phase`` key) the quality
    at a point is the *sum* of the per-phase bests — the collective time of
    the algorithm the search could assemble right now — and is undefined
    (``None``) until every phase of the schedule has completed at least one
    trial.  A single per-phase best is never comparable to the combined
    algorithm's time, so summing is the only honest trajectory.
    """
    phases = [stats.get("phase") for stats in trial_stats]
    # dict preserves first-seen phase order; a phase-less search is the
    # single-phase special case of the same bookkeeping.
    phase_order = list(dict.fromkeys(phases))
    best_per_phase: Dict[Any, Optional[float]] = {phase: None for phase in phase_order}
    points: List[Tuple[float, Optional[float]]] = []
    elapsed = 0.0
    for stats, phase in zip(trial_stats, phases):
        elapsed += stats["wall_seconds"]
        finished = stats.get("collective_time")
        best = best_per_phase[phase]
        if finished is not None and (best is None or finished < best):
            best_per_phase[phase] = finished
        bests = list(best_per_phase.values())
        combined = None if any(b is None for b in bests) else sum(bests)
        points.append((elapsed, combined))
    return points


def _quality_at(
    points: List[Tuple[float, Optional[float]]], budget: float
) -> Optional[float]:
    """Best quality reached within ``budget`` seconds, or ``None`` if none."""
    best: Optional[float] = None
    for elapsed, quality in points:
        if elapsed > budget:
            break
        best = quality
    return best


def _time_to_target(
    points: List[Tuple[float, Optional[float]]], target: float
) -> Optional[float]:
    """Cumulative seconds until the trajectory first reaches ``target``."""
    for elapsed, quality in points:
        if quality is not None and quality <= target:
            return elapsed
    return None


def _run_search_scenario(
    scenario: SearchScenario, repeats: int, check_equivalence: bool
) -> BenchRecord:
    """Race the guided search tier against the uniform best-of-N search.

    Both tiers run the identical seed list (the guided tier gets no
    portfolio store here), so the winning algorithms must be byte-identical
    — incumbent pruning and floor termination are exact.  The primary triple
    compares wall clocks (``reference_seconds`` uniform, ``flat_seconds``
    guided); ``search_metrics`` adds the quality-per-wallclock view: the
    quality each tier holds at the guided tier's wall-clock budget, the time
    each needs to first reach the winning quality, the pruned-trial
    fraction, and effective trials/sec (budgeted trials over wall clock).
    """
    from repro.search import GuidedSynthesizer  # deferred: keeps bench import light

    topology = build_topology(parse_topology_spec(scenario.topology))
    factory = COLLECTIVES.get(scenario.collective)
    pattern = factory(topology.num_npus, scenario.chunks_per_npu)

    uniform = TacosSynthesizer(
        SynthesisConfig(seed=scenario.seed, trials=scenario.trials),
        engine=FLAT_ENGINE,
    )
    guided = GuidedSynthesizer(
        SynthesisConfig(
            seed=scenario.seed,
            trials=scenario.trials,
            incumbent_pruning=True,
            floor_termination=True,
        ),
        FLAT_ENGINE,
    )
    uniform_result, uniform_seconds = _median_wall_clock(
        uniform, topology, pattern, scenario.collective_size, repeats
    )
    guided_result, guided_seconds = _median_wall_clock(
        guided, topology, pattern, scenario.collective_size, repeats
    )

    equivalent: Optional[bool] = None
    if check_equivalence:
        equivalent = (
            uniform_result.algorithm.table.to_bytes()
            == guided_result.algorithm.table.to_bytes()
            and uniform_result.algorithm.collective_time
            == guided_result.algorithm.collective_time
        )

    uniform_stats = uniform_result.trial_stats
    guided_stats = guided_result.trial_stats
    target = uniform_result.algorithm.collective_time
    uniform_points = _quality_trajectory(uniform_stats)
    guided_points = _quality_trajectory(guided_stats)
    # Equal-wallclock budget: what the guided tier actually spent.  The
    # uniform tier's quality at that budget is read off its own trajectory
    # (None when it had not completed a single trial yet).
    budget = guided_seconds
    uniform_quality_at_budget = _quality_at(uniform_points, budget)
    guided_quality_at_budget = guided_result.algorithm.collective_time

    full_uniform = sum(
        1 for stats in uniform_stats if stats.get("pruned_at_round") is None
    )
    full_guided = sum(1 for stats in guided_stats if stats.get("pruned_at_round") is None)
    floor_skipped = sum(1 for stats in guided_stats if stats.get("pruned_at_round") == 0)
    budgeted = len(guided_stats) or scenario.trials
    quality_ratio = None
    if uniform_quality_at_budget is not None and uniform_quality_at_budget > 0:
        quality_ratio = guided_quality_at_budget / uniform_quality_at_budget
    search_metrics: Dict[str, Any] = {
        "uniform_seconds": uniform_seconds,
        "guided_seconds": guided_seconds,
        "quality": target,
        "budget_seconds": budget,
        "uniform_quality_at_budget": uniform_quality_at_budget,
        "guided_quality_at_budget": guided_quality_at_budget,
        #: guided/uniform quality at the budget; <= 1 means the guided tier
        #: is at least as good at equal wall clock (> 1 would mean worse).
        "quality_at_budget_ratio": quality_ratio,
        "time_to_target_uniform": _time_to_target(uniform_points, target),
        "time_to_target_guided": _time_to_target(guided_points, target),
        "full_trials_uniform": full_uniform,
        "full_trials_guided": full_guided,
        "pruned_trials_guided": len(guided_stats) - full_guided,
        "floor_skipped_trials_guided": floor_skipped,
        "pruned_fraction": (
            (len(guided_stats) - full_guided) / len(guided_stats) if guided_stats else 0.0
        ),
        "effective_trials_per_second_uniform": (
            budgeted / uniform_seconds if uniform_seconds > 0 else None
        ),
        "effective_trials_per_second_guided": (
            budgeted / guided_seconds if guided_seconds > 0 else None
        ),
        "effective_trials_speedup": _safe_speedup(uniform_seconds, guided_seconds),
    }
    return BenchRecord(
        scenario=scenario.name,
        kind="search",
        topology=scenario.topology,
        collective=scenario.collective,
        collective_size=scenario.collective_size,
        num_npus=topology.num_npus,
        num_links=topology.num_links,
        seed=scenario.seed,
        trials=scenario.trials,
        flat_seconds=guided_seconds,
        reference_seconds=uniform_seconds,
        speedup=_safe_speedup(uniform_seconds, guided_seconds),
        equivalent=equivalent,
        num_transfers=uniform_result.algorithm.num_transfers,
        collective_time=uniform_result.algorithm.collective_time,
        rounds=uniform_result.rounds,
        num_messages=0,
        simulation_seconds=None,
        reference_simulation_seconds=None,
        simulation_speedup=None,
        simulation_equivalent=None,
        simulated_collective_time=0.0,
        search_metrics=search_metrics,
    )


def _scenario_task(task: Tuple[Scenario, int, bool, bool, str]) -> BenchRecord:
    """Execute one scenario (module-level and picklable for the pool backend).

    Warms the executing process up lazily — once per process, before its
    first timed scenario — so parallel bench workers pay imports and lazy
    setup outside the measured windows, exactly like the serial path.
    """
    scenario, repeats, check_equivalence, include_reference, engine_name = task
    _warmup_once()
    if isinstance(scenario, DispatchScenario):
        return _run_dispatch_scenario(scenario, repeats, check_equivalence)
    if isinstance(scenario, SearchScenario):
        return _run_search_scenario(scenario, repeats, check_equivalence)
    if isinstance(scenario, PipelineScenario):
        return _run_pipeline_scenario(
            scenario, repeats, check_equivalence, include_reference, engine_name
        )
    if isinstance(scenario, SimScenario):
        return _run_sim_scenario(scenario, repeats, check_equivalence, include_reference)
    return _run_synthesis_scenario(
        scenario, repeats, check_equivalence, include_reference, engine_name
    )


def run_bench(
    grid: str = "fig19",
    *,
    repeats: int = 1,
    check_equivalence: bool = True,
    scenarios: Optional[List[Scenario]] = None,
    workers: Optional[int] = None,
    execution: BackendSpec = None,
    include_reference: bool = True,
    engine: str = "flat",
) -> List[BenchRecord]:
    """Execute a benchmark grid and return one record per scenario.

    ``execution`` / ``workers`` fan the *scenarios* out across an execution
    backend (``workers`` alone implies the pool, matching the other fan-out
    sites); per-scenario wall clocks then include scheduling noise from
    neighbours sharing the machine, so parallel runs suit equivalence
    sweeps and throughput, serial runs suit recorded timings.

    ``include_reference=False`` skips the frozen object path entirely: no
    reference timings, no engine-equivalence checks, and scenarios flagged
    ``flat_only`` (too large to ever time the object path on) join the
    grid.

    ``engine`` selects the synthesis-engine tier the synthesis and pipeline
    scenarios time on their primary (non-reference) side, resolved through
    :func:`repro.core.synthesizer.resolve_engine`.
    """
    # Resolve once up front: an unknown name fails before any scenario runs.
    engine_name = resolve_engine(engine).name
    selected = list(scenarios) if scenarios is not None else get_grid(grid)
    if include_reference:
        selected = [
            scenario for scenario in selected if not getattr(scenario, "flat_only", False)
        ]
    tasks = [
        (scenario, repeats, check_equivalence, include_reference, engine_name)
        for scenario in selected
    ]
    backend = effective_backend(execution, workers)
    if backend is None:
        return [_scenario_task(task) for task in tasks]
    return backend.map(_scenario_task, tasks, max_workers=workers)


def _finite(values: List[Optional[float]]) -> List[float]:
    """Drop ``None`` and non-finite entries before aggregating."""
    return [value for value in values if value is not None and math.isfinite(value)]


def summarize(records: List[BenchRecord]) -> Dict[str, Any]:
    """Aggregate per-grid summary statistics (non-finite speedups skipped).

    ``dispatch`` records measure pool *dispatch overhead* (cold/warm spin-up
    ratio, submitted bytes), not engine speedup — an incomparable
    population — so every engine aggregate (speedups, wall-clock totals,
    equivalence counts) is computed over the other records, and dispatch
    records get their own ``*_dispatch_speedup`` /
    ``dispatch_equivalence_checked`` / ``median_payload_bytes_reduction``
    keys.  ``search`` records race search *tiers* (guided vs uniform wall
    clock at a fixed trial budget) and get ``*_search_speedup`` /
    ``median_pruned_fraction`` / ``search_equivalence_checked`` keys.  Only
    when the grid contains nothing else (the ``dispatch`` / ``search``
    grids themselves) do those records
    feed the headline fields, so ``--history`` still shows their
    trajectories.  A mixed grid's engine summary (and the ``--min-speedup``
    gate / cross-report trend built on it) therefore never moves because a
    dispatch scenario ran on a host with fewer cores.
    """
    engine_records = [
        record
        for record in records
        if record.kind not in ("dispatch", "search")
    ]
    dispatch_records = [record for record in records if record.kind == "dispatch"]
    search_records = [record for record in records if record.kind == "search"]
    base = engine_records if engine_records else records
    sim_base = engine_records if engine_records else records
    dispatch_speedups = _finite([record.speedup for record in dispatch_records])
    payload_reductions = _finite(
        [
            (record.dispatch_metrics or {}).get("payload_bytes_reduction")
            for record in dispatch_records
        ]
    )
    speedups = _finite([record.speedup for record in base])
    sim_speedups = _finite([record.simulation_speedup for record in sim_base])
    checked = [record.equivalent for record in base if record.equivalent is not None]
    sim_checked = [
        record.simulation_equivalent
        for record in sim_base
        if record.simulation_equivalent is not None
    ]
    dispatch_checked = [
        record.equivalent for record in dispatch_records if record.equivalent is not None
    ]
    search_speedups = _finite([record.speedup for record in search_records])
    pruned_fractions = _finite(
        [
            (record.search_metrics or {}).get("pruned_fraction")
            for record in search_records
        ]
    )
    search_checked = [
        record.equivalent for record in search_records if record.equivalent is not None
    ]
    return {
        "num_scenarios": len(records),
        "median_speedup": statistics.median(speedups) if speedups else None,
        "min_speedup": min(speedups) if speedups else None,
        "max_speedup": max(speedups) if speedups else None,
        "total_flat_seconds": sum(record.flat_seconds for record in base),
        "total_reference_seconds": sum(
            record.reference_seconds
            for record in base
            if record.reference_seconds is not None
        ),
        "equivalence_checked": len(checked),
        "all_equivalent": all(checked) if checked else None,
        "median_simulation_speedup": statistics.median(sim_speedups) if sim_speedups else None,
        "min_simulation_speedup": min(sim_speedups) if sim_speedups else None,
        "max_simulation_speedup": max(sim_speedups) if sim_speedups else None,
        "simulation_equivalence_checked": len(sim_checked),
        "all_simulation_equivalent": all(sim_checked) if sim_checked else None,
        "median_dispatch_speedup": (
            statistics.median(dispatch_speedups) if dispatch_speedups else None
        ),
        "min_dispatch_speedup": min(dispatch_speedups) if dispatch_speedups else None,
        "max_dispatch_speedup": max(dispatch_speedups) if dispatch_speedups else None,
        "median_payload_bytes_reduction": (
            statistics.median(payload_reductions) if payload_reductions else None
        ),
        "dispatch_equivalence_checked": len(dispatch_checked),
        "all_dispatch_equivalent": all(dispatch_checked) if dispatch_checked else None,
        "median_search_speedup": (
            statistics.median(search_speedups) if search_speedups else None
        ),
        "min_search_speedup": min(search_speedups) if search_speedups else None,
        "max_search_speedup": max(search_speedups) if search_speedups else None,
        "median_pruned_fraction": (
            statistics.median(pruned_fractions) if pruned_fractions else None
        ),
        "search_equivalence_checked": len(search_checked),
        "all_search_equivalent": all(search_checked) if search_checked else None,
    }


def write_report(
    records: List[BenchRecord],
    *,
    grid: str,
    repeats: int,
    out_dir: str = ".",
    execution: Optional[str] = None,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
) -> Tuple[Path, Dict[str, Any]]:
    """Serialize records to ``BENCH_<grid>_<timestamp>.json``; return (path, report).

    The report is strict JSON: ``allow_nan=False`` makes a stray NaN or
    Infinity fail the write loudly instead of producing a file that
    ``json.loads`` with a strict ``parse_constant`` rejects.  The envelope
    records the executing host's usable core count (and any scenario-level
    execution backend), without which a ``dispatch`` grid's pool numbers
    cannot be interpreted — and, since schema v5, the synthesis-engine tier
    the run timed.  The v5 ``native`` block is kept at its no-compiler
    values, since no compiled tier exists any more.
    Schema v6 adds the ``pool`` block: whether the broadcast plane had
    POSIX shared memory or fell back to inline bytes, without which a
    ``dispatch`` grid's payload-bytes numbers cannot be interpreted.
    """
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "grid": grid,
        "repeats": repeats,
        "created_utc": _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime()),
        "host": {
            "usable_cpus": default_worker_count(),
            "cpu_count": os.cpu_count(),
        },
        "execution": {"backend": execution or "serial", "workers": workers},
        "engine": engine or "flat",
        "native": {"numba_available": False, "numba_version": None},
        "pool": {
            "shared_memory_available": broadcast.shared_memory_available(),
            "broadcast_transport": (
                "shared_memory" if broadcast.shared_memory_available() else "inline"
            ),
        },
        "summary": summarize(records),
        "records": [record.to_dict() for record in records],
    }
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = _time.strftime("%Y%m%d_%H%M%S", _time.gmtime())
    path = directory / f"BENCH_{grid}_{stamp}.json"
    # Timestamps are second-granular; never clobber an earlier report from
    # the same second (the smoke grid finishes well under a second).
    suffix = 0
    while path.exists():
        suffix += 1
        path = directory / f"BENCH_{grid}_{stamp}-{suffix}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path, report

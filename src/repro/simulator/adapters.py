"""Adapters that turn collective algorithms and schedules into simulator workloads.

Two kinds of collective descriptions are simulated:

* :class:`~repro.core.algorithm.CollectiveAlgorithm` — physically routed,
  timed link-chunk matches (the TACOS output and the spanning-tree baselines);
* :class:`~repro.simulator.schedule.LogicalSchedule` — topology-unaware step
  schedules (Ring, Direct, RHD, ... executed on arbitrary topologies).

In both cases the dependency rule is the same: a send of chunk ``c`` out of
NPU ``s`` depends on every earlier send of chunk ``c`` *into* ``s``.  For
non-reducing collectives that expresses forwarding order; for reduction
collectives it expresses that all partials routed through ``s`` must have
arrived before ``s`` forwards its accumulated partial.

The dependency structure is derived as a CSR directly from the algorithm's
:class:`~repro.core.transfers.TransferTable` columns (or the schedule's send
columns) with one grouped merge sweep, and handed with the endpoint columns
to :meth:`~repro.simulator.engine.CongestionAwareSimulator.run_flat`, the
simulator's only entry point.  ``tacos-repro bench`` asserts that the
simulated ``message_completion`` is byte-identical to the frozen object-path
adapters and simulator in :mod:`repro.bench.reference`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.core.algorithm import CollectiveAlgorithm
from repro.simulator.engine import CongestionAwareSimulator
from repro.simulator.result import SimulationResult
from repro.simulator.schedule import LogicalSchedule
from repro.topology.topology import Topology

__all__ = [
    "FlatWorkload",
    "algorithm_to_flat_workload",
    "schedule_to_flat_workload",
    "simulate_algorithm",
    "simulate_schedule",
]

#: Tolerance used when comparing floating-point times.
_TIME_EPS = 1e-9

_EMPTY_INT = np.zeros(0, dtype=np.int64)


class FlatWorkload(NamedTuple):
    """Columnar simulator workload: message endpoints plus a dependency CSR.

    Message *positions* (row indices) double as message ids; ``size`` is the
    uniform payload of every message.  ``dep_indices[dep_indptr[i]:
    dep_indptr[i + 1]]`` are the positions message ``i`` depends on.
    """

    sources: np.ndarray
    dests: np.ndarray
    size: float
    dep_indptr: np.ndarray
    dep_indices: np.ndarray

    @property
    def num_messages(self) -> int:
        return int(self.sources.shape[0])


def _grouped_prefix_bounds(
    provider_keys: np.ndarray,
    provider_vals: np.ndarray,
    query_keys: np.ndarray,
    query_vals: np.ndarray,
    *,
    strict: bool,
) -> tuple:
    """Per query, the slice of matching providers in ``(key, val)`` order.

    Providers sorted stably by ``(key, val)`` form one array; for every query
    this returns ``(lo, hi)`` such that providers ``lo..hi-1`` of that array
    share the query's key and have ``val <= query_val`` (``<`` when
    ``strict``).  One merged lexsort + segmented cumulative count — no
    per-group Python loop.
    """
    num_providers = provider_keys.shape[0]
    num_queries = query_keys.shape[0]
    provider_kind, query_kind = (0, 1) if not strict else (1, 0)
    keys = np.concatenate((provider_keys, query_keys))
    vals = np.concatenate((provider_vals, query_vals))
    kinds = np.concatenate(
        (
            np.full(num_providers, provider_kind, dtype=np.int8),
            np.full(num_queries, query_kind, dtype=np.int8),
        )
    )
    order = np.lexsort((kinds, vals, keys))
    is_provider = order < num_providers
    provider_running = np.cumsum(is_provider)
    sorted_keys = keys[order]
    segment_start = np.ones(order.shape[0], dtype=bool)
    segment_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    segment_id = np.cumsum(segment_start) - 1
    base_per_segment = (provider_running - is_provider)[segment_start]
    base = base_per_segment[segment_id]

    query_mask = ~is_provider
    query_index = order[query_mask] - num_providers
    hi = np.empty(num_queries, dtype=np.int64)
    lo = np.empty(num_queries, dtype=np.int64)
    hi[query_index] = provider_running[query_mask]
    lo[query_index] = base[query_mask]
    return lo, hi


def _dependency_csr(
    provider_keys: np.ndarray,
    provider_vals: np.ndarray,
    query_keys: np.ndarray,
    query_vals: np.ndarray,
    link_predecessor: np.ndarray,
    *,
    strict: bool,
) -> tuple:
    """Assemble the per-message dependency CSR from providers + predecessors."""
    provider_order = np.lexsort((provider_vals, provider_keys))
    lo, hi = _grouped_prefix_bounds(
        provider_keys, provider_vals, query_keys, query_vals, strict=strict
    )
    counts = hi - lo
    has_predecessor = link_predecessor >= 0
    dep_counts = counts + has_predecessor
    dep_indptr = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(dep_counts))
    )
    dep_indices = np.empty(int(dep_indptr[-1]), dtype=np.int64)
    total_providers = int(counts.sum())
    if total_providers:
        offsets = np.cumsum(counts) - counts
        intra = np.arange(total_providers, dtype=np.int64) - np.repeat(offsets, counts)
        dep_indices[np.repeat(dep_indptr[:-1], counts) + intra] = provider_order[
            np.repeat(lo, counts) + intra
        ]
    dep_indices[dep_indptr[1:][has_predecessor] - 1] = link_predecessor[has_predecessor]
    return dep_indptr, dep_indices


def _link_predecessors(link_codes: np.ndarray) -> np.ndarray:
    """Per row, the previous row using the same link (``-1`` for the first)."""
    count = link_codes.shape[0]
    order = np.argsort(link_codes, kind="stable")
    same = link_codes[order][1:] == link_codes[order][:-1]
    predecessor = np.full(count, -1, dtype=np.int64)
    predecessor[order[1:][same]] = order[:-1][same]
    return predecessor


def algorithm_to_flat_workload(algorithm: CollectiveAlgorithm) -> FlatWorkload:
    """Derive the simulator workload columns from a timed collective algorithm.

    The synthesized timing is used only to derive the dependency structure
    (which inbound transfer enables which outbound transfer); the simulator
    re-times everything according to link availability, so the same
    structure simulated on a slower network stretches accordingly.  On its
    own topology a TACOS algorithm never simulates slower than its
    synthesized ``collective_time`` (within 1e-9 relative): re-timing starts
    each transfer once its dependencies and its link predecessor are done,
    which can only remove slack.  All-Gather, Reduce-Scatter, All-Reduce,
    Broadcast and Reduce have none, and the two times agree to float
    rounding.  Gather, Scatter and All-to-All can simulate faster: over
    seeds 0-15 at 4 MB on mesh 4x4, torus 4x4, ring 8 and hypercube 2x2x3,
    the lowest simulated / synthesized ratio was 0.50 (torus 4x4 Gather).

    Messages follow the transfers sorted by ``(start, end)`` (stable); a
    message depends on every inbound transfer of its chunk into its source
    that completes by its start time, plus — because a static collective
    algorithm also prescribes the order in which each physical link transmits
    its chunks — its predecessor on the same link.
    """
    table = algorithm.table
    count = len(table)
    if count == 0:
        return FlatWorkload(
            _EMPTY_INT,
            _EMPTY_INT,
            algorithm.chunk_size,
            np.zeros(1, dtype=np.int64),
            _EMPTY_INT,
        )
    order = table.time_sorted_order()
    starts = table.starts[order]
    ends = table.ends[order]
    chunks = table.chunks[order]
    sources = table.sources[order]
    dests = table.dests[order]

    chunk_stride = max(1, table.num_chunks)
    npu_stride = int(max(sources.max(), dests.max())) + 1
    dep_indptr, dep_indices = _dependency_csr(
        dests * chunk_stride + chunks,
        ends,
        sources * chunk_stride + chunks,
        starts + _TIME_EPS,
        _link_predecessors(sources * npu_stride + dests),
        strict=False,
    )
    return FlatWorkload(sources, dests, algorithm.chunk_size, dep_indptr, dep_indices)


def schedule_to_flat_workload(schedule: LogicalSchedule) -> FlatWorkload:
    """Derive the simulator workload columns from a logical step schedule.

    Messages follow the sends ordered by ``(step, source, dest, chunk)``
    (stable); a message depends on every send of its chunk into its source at
    a strictly earlier step.
    """
    schedule.validate()
    count = len(schedule.sends)
    if count == 0:
        return FlatWorkload(
            _EMPTY_INT,
            _EMPTY_INT,
            schedule.chunk_size,
            np.zeros(1, dtype=np.int64),
            _EMPTY_INT,
        )
    steps, chunks, sources, dests = (
        np.asarray(column, dtype=np.int64) for column in zip(*schedule.sends)
    )
    order = np.lexsort((chunks, dests, sources, steps))
    steps = steps[order]
    chunks = chunks[order]
    sources = sources[order]
    dests = dests[order]

    chunk_stride = int(chunks.max()) + 1
    dep_indptr, dep_indices = _dependency_csr(
        dests * chunk_stride + chunks,
        steps,
        sources * chunk_stride + chunks,
        steps,
        np.full(count, -1, dtype=np.int64),
        strict=True,
    )
    return FlatWorkload(sources, dests, schedule.chunk_size, dep_indptr, dep_indices)


def simulate_algorithm(
    topology: Topology,
    algorithm: CollectiveAlgorithm,
    *,
    routing_message_size: Optional[float] = None,
) -> SimulationResult:
    """Simulate a physically routed collective algorithm on ``topology``."""
    simulator = CongestionAwareSimulator(topology, routing_message_size=routing_message_size)
    workload = algorithm_to_flat_workload(algorithm)
    return simulator.run_flat(
        workload.sources,
        workload.dests,
        workload.size,
        workload.dep_indptr,
        workload.dep_indices,
        collective_size=algorithm.collective_size,
    )


def simulate_schedule(
    topology: Topology,
    schedule: LogicalSchedule,
    *,
    routing_message_size: Optional[float] = None,
) -> SimulationResult:
    """Simulate a topology-unaware logical schedule on ``topology``."""
    simulator = CongestionAwareSimulator(topology, routing_message_size=routing_message_size)
    workload = schedule_to_flat_workload(schedule)
    return simulator.run_flat(
        workload.sources,
        workload.dests,
        workload.size,
        workload.dep_indptr,
        workload.dep_indices,
        collective_size=schedule.collective_size,
    )

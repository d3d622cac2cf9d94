"""Ring collective algorithms (the default algorithm of today's CCLs).

The Ring All-Reduce performs a Reduce-Scatter followed by an All-Gather, each
taking ``N - 1`` steps in which every NPU forwards one block to its logical
ring neighbour.  The *bidirectional* variant (the paper's default baseline,
footnote 3) splits every block into two halves and runs two counter-rotating
rings concurrently, one per half, so both link directions of a bidirectional
ring topology are used.

These schedules are *logical* — they reference NPU ranks, not physical links —
so they can be simulated on any topology, where non-adjacent ring neighbours
cause multi-hop routing and congestion (Fig. 1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulator.schedule import LogicalSchedule, LogicalSend, sends_from_columns

__all__ = ["ring_all_reduce", "ring_all_gather", "ring_reduce_scatter"]


def _chunk_assignments(
    num_npus: int, chunks_per_npu: int, bidirectional: bool
) -> List[Tuple[int, int, int]]:
    """Enumerate ``(block, chunk_id, direction)`` for every chunk of the collective.

    In the bidirectional variant every block is split into ``2 *
    chunks_per_npu`` sub-chunks, alternating between the two ring directions;
    in the unidirectional variant all sub-chunks travel in the +1 direction.
    """
    subs = chunks_per_npu * (2 if bidirectional else 1)
    assignments = []
    for block in range(num_npus):
        for sub in range(subs):
            direction = -1 if (bidirectional and sub % 2 == 1) else 1
            assignments.append((block, block * subs + sub, direction))
    return assignments


def _ring_phase_sends(
    num_npus: int,
    assignments: Sequence[Tuple[int, int, int]],
    step_offset: int,
    start_of: "np.ndarray",
    directions: "np.ndarray",
    chunks: "np.ndarray",
) -> List[LogicalSend]:
    """Circulate every chunk ``num_npus - 1`` hops from its start rank.

    The send columns are computed with vectorized modular arithmetic
    (assignment-major, step-inner — the historical append order) and
    materialized through the :func:`sends_from_columns` fast path.
    """
    hops = num_npus - 1
    count = len(assignments)
    steps = np.tile(np.arange(hops, dtype=np.int64), count)
    starts = np.repeat(start_of, hops)
    dirs = np.repeat(directions, hops)
    sources = (starts + dirs * steps) % num_npus
    dests = (sources + dirs) % num_npus
    return sends_from_columns(step_offset + steps, np.repeat(chunks, hops), sources, dests)


def _assignment_columns(assignments: Sequence[Tuple[int, int, int]]):
    blocks, chunks, directions = zip(*assignments)
    return (
        np.asarray(blocks, dtype=np.int64),
        np.asarray(chunks, dtype=np.int64),
        np.asarray(directions, dtype=np.int64),
    )


def _reduce_scatter_sends(
    num_npus: int,
    assignments: Sequence[Tuple[int, int, int]],
    step_offset: int,
) -> List[LogicalSend]:
    """Reduce-Scatter ring sends: block ``b`` circulates and rests at rank ``b - direction``."""
    blocks, chunks, directions = _assignment_columns(assignments)
    return _ring_phase_sends(num_npus, assignments, step_offset, blocks, directions, chunks)


def _all_gather_sends(
    num_npus: int,
    assignments: Sequence[Tuple[int, int, int]],
    step_offset: int,
    start_at_owner: bool,
) -> List[LogicalSend]:
    """All-Gather ring sends.

    When ``start_at_owner`` is True block ``b`` starts at rank ``b`` (plain
    All-Gather); otherwise it starts at rank ``b - direction``, where the
    Reduce-Scatter phase of a Ring All-Reduce left it.
    """
    blocks, chunks, directions = _assignment_columns(assignments)
    starts = blocks if start_at_owner else (blocks - directions) % num_npus
    return _ring_phase_sends(num_npus, assignments, step_offset, starts, directions, chunks)


def _build_schedule(
    sends: List[LogicalSend],
    num_npus: int,
    collective_size: float,
    chunks_per_npu: int,
    bidirectional: bool,
    pattern_name: str,
) -> LogicalSchedule:
    subs = chunks_per_npu * (2 if bidirectional else 1)
    chunk_size = collective_size / (num_npus * subs)
    return LogicalSchedule(
        sends=sends,
        num_npus=num_npus,
        chunk_size=chunk_size,
        collective_size=collective_size,
        name="Ring" if bidirectional else "UniRing",
        pattern_name=pattern_name,
        metadata={"bidirectional": bidirectional, "chunks_per_npu": chunks_per_npu},
    )


def ring_all_reduce(
    num_npus: int,
    collective_size: float,
    *,
    chunks_per_npu: int = 1,
    bidirectional: bool = True,
) -> LogicalSchedule:
    """Build the Ring All-Reduce schedule (Reduce-Scatter + All-Gather)."""
    if num_npus < 2:
        raise SimulationError(f"Ring All-Reduce needs at least 2 NPUs, got {num_npus}")
    assignments = _chunk_assignments(num_npus, chunks_per_npu, bidirectional)
    sends = _reduce_scatter_sends(num_npus, assignments, step_offset=0)
    sends.extend(
        _all_gather_sends(num_npus, assignments, step_offset=num_npus - 1, start_at_owner=False)
    )
    return _build_schedule(sends, num_npus, collective_size, chunks_per_npu, bidirectional, "AllReduce")


def ring_all_gather(
    num_npus: int,
    collective_size: float,
    *,
    chunks_per_npu: int = 1,
    bidirectional: bool = True,
) -> LogicalSchedule:
    """Build the Ring All-Gather schedule."""
    if num_npus < 2:
        raise SimulationError(f"Ring All-Gather needs at least 2 NPUs, got {num_npus}")
    assignments = _chunk_assignments(num_npus, chunks_per_npu, bidirectional)
    sends = _all_gather_sends(num_npus, assignments, step_offset=0, start_at_owner=True)
    return _build_schedule(sends, num_npus, collective_size, chunks_per_npu, bidirectional, "AllGather")


def ring_reduce_scatter(
    num_npus: int,
    collective_size: float,
    *,
    chunks_per_npu: int = 1,
    bidirectional: bool = True,
) -> LogicalSchedule:
    """Build the Ring Reduce-Scatter schedule."""
    if num_npus < 2:
        raise SimulationError(f"Ring Reduce-Scatter needs at least 2 NPUs, got {num_npus}")
    assignments = _chunk_assignments(num_npus, chunks_per_npu, bidirectional)
    sends = _reduce_scatter_sends(num_npus, assignments, step_offset=0)
    return _build_schedule(sends, num_npus, collective_size, chunks_per_npu, bidirectional, "ReduceScatter")

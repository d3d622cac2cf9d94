"""Semantic checking of logical collective schedules: the baseline tests' oracle.

A :class:`~repro.simulator.schedule.LogicalSchedule` describes *which* chunk
moves *where* at every step, but its correctness as a collective (does every
NPU end with the fully reduced buffer?) is a dataflow property.  This module
replays a schedule symbolically, tracking for every (NPU, chunk) the set of
NPUs whose partial contributions are folded into that copy:

* initially every NPU's copy of every chunk contains only its own partial;
* a send transmits the sender's current contribution set;
* a receive either *accumulates* (if the received set is disjoint from the
  local one — a reduction) or *replaces* (if the received set is a superset —
  forwarding an already-reduced value).  Any other overlap would double-count
  a contribution and is rejected.

The baseline tests use these checkers to prove that every baseline (Ring,
Direct, RHD, DBT, BlueConnect, Themis, MultiTree, C-Cube, TACCL-like)
implements its collective correctly, independent of timing.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import VerificationError
from repro.simulator.schedule import LogicalSchedule

__all__ = [
    "check_all_reduce_schedule",
    "check_all_gather_schedule",
    "replay_contributions",
]


def replay_contributions(schedule: LogicalSchedule) -> Dict[Tuple[int, int], Set[int]]:
    """Replay a schedule and return the final contribution set per (NPU, chunk).

    Chunks are grouped into buffer *blocks* of ``chunks_per_npu`` sub-chunks
    (the convention every schedule builder in this library follows); each
    NPU's initial copy of every chunk contains only its own contribution.

    Raises
    ------
    VerificationError
        If a receive would double-count a contribution (overlapping,
        non-superset merge), which indicates an incorrect reduction schedule.
    """
    schedule.validate()
    chunks = sorted({send.chunk for send in schedule.sends})
    contributions: Dict[Tuple[int, int], Set[int]] = {}
    for npu in range(schedule.num_npus):
        for chunk in chunks:
            contributions[(npu, chunk)] = {npu}

    for step, step_sends in schedule.steps():
        # Sends at a step observe the state before any receive of that step.
        transmitted = [
            (send, frozenset(contributions[(send.source, send.chunk)])) for send in step_sends
        ]
        for send, payload in transmitted:
            local = contributions[(send.dest, send.chunk)]
            if payload >= local:
                contributions[(send.dest, send.chunk)] = set(payload)
            elif payload.isdisjoint(local):
                contributions[(send.dest, send.chunk)] = local | payload
            else:
                raise VerificationError(
                    f"step {step}: NPU {send.dest} would double-count contributions "
                    f"{sorted(payload & local)} of chunk {send.chunk} received from {send.source}"
                )
    return contributions


def check_all_reduce_schedule(schedule: LogicalSchedule) -> bool:
    """Check that a schedule implements a correct All-Reduce.

    Every NPU must end with every chunk's contribution set equal to the full
    NPU set (i.e. the fully reduced value of every buffer block).
    """
    contributions = replay_contributions(schedule)
    everyone = set(range(schedule.num_npus))
    chunks = sorted({send.chunk for send in schedule.sends})
    for npu in range(schedule.num_npus):
        for chunk in chunks:
            final = contributions[(npu, chunk)]
            if final != everyone:
                raise VerificationError(
                    f"All-Reduce incomplete: NPU {npu} ends with contributions {sorted(final)} "
                    f"of chunk {chunk} instead of all {schedule.num_npus} NPUs"
                )
    return True


def check_all_gather_schedule(schedule: LogicalSchedule, chunks_per_npu: int = 1) -> bool:
    """Check that a schedule implements a correct All-Gather.

    Every NPU must receive every other NPU's blocks, and a chunk may only be
    forwarded by an NPU that already holds it (its owner, or a prior
    receiver at an earlier step).
    """
    schedule.validate()
    holdings: List[Set[int]] = [set() for _ in range(schedule.num_npus)]
    total_chunks = schedule.num_npus * chunks_per_npu
    for npu in range(schedule.num_npus):
        for sub in range(chunks_per_npu):
            holdings[npu].add(npu * chunks_per_npu + sub)

    for step, step_sends in schedule.steps():
        for send in step_sends:
            if send.chunk not in holdings[send.source]:
                raise VerificationError(
                    f"step {step}: NPU {send.source} forwards chunk {send.chunk} before holding it"
                )
        for send in step_sends:
            holdings[send.dest].add(send.chunk)

    expected = set(range(total_chunks))
    for npu in range(schedule.num_npus):
        missing = expected - holdings[npu]
        if missing:
            raise VerificationError(
                f"All-Gather incomplete: NPU {npu} is missing chunks {sorted(missing)}"
            )
    return True

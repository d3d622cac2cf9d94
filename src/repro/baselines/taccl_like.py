"""TACCL-like step-synchronous, congestion-oblivious collective synthesizer.

TACCL (Shah et al., NSDI 2023) casts collective synthesis as an integer
linear program over step-synchronous rounds.  The two properties the paper
contrasts against TACOS are reproduced here without requiring an MILP solver:

* **congestion-obliviousness** — the formulation does not model per-link
  serialization, so several chunks may be scheduled over the same link in the
  same round.  The schedules therefore look short on paper but stretch once
  the congestion-aware simulator serializes the contending transfers.
* **expensive search** — TACCL explores a combinatorial space.  We emulate
  that with randomized restarts plus per-round exhaustive candidate scoring,
  which is markedly slower than TACOS' single greedy matching pass and grows
  quickly with topology size (the qualitative trend of Fig. 19 / Table V);
  the absolute NP-hard blow-up of a real MILP is *not* reproduced.

The synthesizer produces a step-based :class:`LogicalSchedule`, mirroring
TACCL's round-based output.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.collectives.all_gather import AllGather
from repro.collectives.all_reduce import AllReduce
from repro.collectives.pattern import CollectivePattern
from repro.errors import SynthesisError
from repro.simulator.schedule import LogicalSchedule, LogicalSend
from repro.topology.topology import Topology

__all__ = ["TacclLikeSynthesizer", "TacclLikeResult"]


@dataclass
class TacclLikeResult:
    """A synthesized schedule plus the wall-clock time the search took."""

    schedule: LogicalSchedule
    wall_clock_seconds: float
    restarts: int


class TacclLikeSynthesizer:
    """Step-synchronous congestion-oblivious synthesizer (TACCL stand-in).

    Parameters
    ----------
    restarts:
        Number of randomized search restarts; the schedule with the fewest
        rounds (TACCL's latency objective) is kept.
    seed:
        Base random seed.
    """

    def __init__(self, restarts: int = 20, seed: int = 0) -> None:
        if restarts < 1:
            raise SynthesisError(f"restarts must be at least 1, got {restarts}")
        self.restarts = restarts
        self.seed = seed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def synthesize_all_gather(
        self, topology: Topology, collective_size: float, *, chunks_per_npu: int = 1
    ) -> TacclLikeResult:
        """Synthesize a step-based All-Gather schedule."""
        pattern = AllGather(topology.num_npus, chunks_per_npu)
        started = _time.perf_counter()
        best: Optional[List[LogicalSend]] = None
        best_steps = None
        for restart in range(self.restarts):
            rng = random.Random(self.seed + restart)
            sends, steps = self._search_all_gather(topology, pattern, rng)
            if best is None or steps < best_steps:
                best, best_steps = sends, steps
        elapsed = _time.perf_counter() - started
        chunk_size = pattern.chunk_size(collective_size)
        schedule = LogicalSchedule(
            sends=best,
            num_npus=topology.num_npus,
            chunk_size=chunk_size,
            collective_size=collective_size,
            name="TACCL-like",
            pattern_name="AllGather",
            metadata={"steps": best_steps, "chunks_per_npu": chunks_per_npu},
        )
        return TacclLikeResult(schedule=schedule, wall_clock_seconds=elapsed, restarts=self.restarts)

    def synthesize_all_reduce(
        self, topology: Topology, collective_size: float, *, chunks_per_npu: int = 1
    ) -> TacclLikeResult:
        """Synthesize an All-Reduce as a mirrored Reduce-Scatter plus the All-Gather."""
        all_gather = self.synthesize_all_gather(
            topology, collective_size, chunks_per_npu=chunks_per_npu
        )
        ag_sends = all_gather.schedule.sends
        ag_steps = all_gather.schedule.num_steps
        # Reduce-Scatter = the All-Gather mirrored in time with reversed
        # directions (the same reversal trick TACOS uses, Fig. 11).
        rs_sends = [
            LogicalSend(
                step=ag_steps - 1 - send.step,
                chunk=send.chunk,
                source=send.dest,
                dest=send.source,
            )
            for send in ag_sends
        ]
        combined = rs_sends + [
            LogicalSend(step=send.step + ag_steps, chunk=send.chunk, source=send.source, dest=send.dest)
            for send in ag_sends
        ]
        schedule = LogicalSchedule(
            sends=combined,
            num_npus=topology.num_npus,
            chunk_size=all_gather.schedule.chunk_size,
            collective_size=collective_size,
            name="TACCL-like",
            pattern_name="AllReduce",
            metadata={"steps": 2 * ag_steps, "chunks_per_npu": chunks_per_npu},
        )
        return TacclLikeResult(
            schedule=schedule,
            wall_clock_seconds=all_gather.wall_clock_seconds,
            restarts=self.restarts,
        )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _search_all_gather(
        self, topology: Topology, pattern: CollectivePattern, rng: random.Random
    ) -> Tuple[List[LogicalSend], int]:
        """One randomized step-synchronous search run.

        Every round, each (destination, chunk) demand greedily picks a source
        neighbour that holds the chunk; all selected transfers execute in the
        same round with no per-link exclusivity (congestion is ignored).
        """
        num_npus = topology.num_npus
        holdings: List[Set[int]] = [set(chunks) for chunks in
                                    (pattern.precondition().get(npu, frozenset()) for npu in range(num_npus))]
        unsatisfied: Set[Tuple[int, int]] = set()
        postcondition = pattern.postcondition()
        for npu in range(num_npus):
            for chunk in sorted(postcondition.get(npu, frozenset()) - frozenset(holdings[npu])):
                unsatisfied.add((npu, chunk))

        sends: List[LogicalSend] = []
        step = 0
        max_steps = 4 * num_npus * max(1, pattern.chunks_per_npu) + 16
        while unsatisfied:
            if step > max_steps:
                raise SynthesisError(
                    f"TACCL-like synthesis did not converge on {topology.name} after {max_steps} rounds"
                )
            arrivals: List[Tuple[int, int]] = []
            # Sort before the seeded shuffle: the permutation rng.shuffle
            # produces is a function of the input order, so shuffling a raw
            # set-iteration snapshot would leak hash-table layout into the
            # synthesized schedule.
            demands = sorted(unsatisfied)
            rng.shuffle(demands)
            for dest, chunk in demands:
                # Exhaustively score every in-neighbour holding the chunk
                # (this per-round scoring loop is the expensive part that makes
                # the search slower than TACOS' single matching pass).
                candidates = [
                    source
                    for source in topology.in_neighbors(dest)
                    if chunk in holdings[source]
                ]
                if not candidates:
                    continue
                scored = sorted(
                    candidates,
                    key=lambda source: (topology.link(source, dest).beta, rng.random()),
                )
                source = scored[0]
                sends.append(LogicalSend(step=step, chunk=chunk, source=source, dest=dest))
                arrivals.append((dest, chunk))
            if not arrivals:
                raise SynthesisError(
                    f"TACCL-like synthesis stalled on {topology.name}; is the topology strongly connected?"
                )
            for dest, chunk in arrivals:
                holdings[dest].add(chunk)
                unsatisfied.discard((dest, chunk))
            step += 1
        return sends, step

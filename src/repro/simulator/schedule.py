"""Logical collective schedules (topology-unaware algorithm descriptions).

Basic collective algorithms such as Ring, Direct, or Recursive
Halving-Doubling are defined as *logical* schedules over NPU ranks: ordered
steps of chunk sends that do not reference physical links at all.  When such
a schedule is executed on a physical topology whose connectivity does not
match (the Fig. 1 scenario), sends between non-adjacent NPUs are routed over
multiple hops and contend for links — which is exactly what the
congestion-aware simulator models.

Dependency semantics: a send of chunk ``c`` out of NPU ``s`` at step ``k``
implicitly depends on every send of chunk ``c`` *into* ``s`` at a step smaller
than ``k``.  This captures both forwarding (the chunk must have arrived) and
reduction (all partials routed through ``s`` must have arrived) without the
schedule having to enumerate dependencies explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.errors import SimulationError

__all__ = ["LogicalSend", "LogicalSchedule", "sends_from_columns"]

_tuple_new = tuple.__new__


class _LogicalSendFields(NamedTuple):
    step: int
    chunk: int
    source: int
    dest: int


class LogicalSend(_LogicalSendFields):
    """One logical chunk send at a given algorithm step.

    A named tuple (ordered and compared field-by-field, hashable, immutable)
    — the same treatment :class:`~repro.core.algorithm.ChunkTransfer` got:
    the public constructor validates, while bulk construction from
    already-validated columns goes through ``LogicalSend._make`` at C speed
    (see :func:`sends_from_columns`).
    """

    __slots__ = ()

    def __new__(cls, step: int, chunk: int, source: int, dest: int):
        self = _tuple_new(cls, (step, chunk, source, dest))
        if step < 0:
            raise SimulationError(f"step must be non-negative, got {step}")
        if source == dest:
            raise SimulationError(f"send {self} has identical source and dest")
        return self


def sends_from_columns(
    steps: Sequence[int],
    chunks: Sequence[int],
    sources: Sequence[int],
    dests: Sequence[int],
) -> List[LogicalSend]:
    """Materialize a send list from four parallel columns (the fast path).

    Validates the columns wholesale — the checks the :class:`LogicalSend`
    constructor performs per instance — then builds the tuples through
    ``LogicalSend._make`` without per-send Python-level ``__new__`` calls.
    Columns may be numpy arrays or plain sequences.
    """
    import numpy as np

    steps_arr = np.asarray(steps, dtype=np.int64)
    sources_arr = np.asarray(sources, dtype=np.int64)
    dests_arr = np.asarray(dests, dtype=np.int64)
    if (steps_arr < 0).any():
        raise SimulationError(
            f"step must be non-negative, got {int(steps_arr.min())}"
        )
    degenerate = sources_arr == dests_arr
    if degenerate.any():
        index = int(np.flatnonzero(degenerate)[0])
        raise SimulationError(
            f"send (step={int(steps_arr[index])}, source={int(sources_arr[index])}) "
            "has identical source and dest"
        )
    chunks_arr = np.asarray(chunks, dtype=np.int64)
    return list(
        map(
            LogicalSend._make,
            zip(
                steps_arr.tolist(),
                chunks_arr.tolist(),
                sources_arr.tolist(),
                dests_arr.tolist(),
            ),
        )
    )


@dataclass
class LogicalSchedule:
    """A topology-unaware collective algorithm: steps of logical chunk sends.

    Attributes
    ----------
    sends:
        All logical sends.
    num_npus:
        Number of participating NPUs.
    chunk_size:
        Size of each chunk in bytes.
    collective_size:
        Per-NPU collective buffer size in bytes.
    name:
        Algorithm name, e.g. ``"Ring"`` or ``"Direct"``.
    pattern_name:
        Collective pattern implemented, e.g. ``"AllReduce"``.
    """

    sends: List[LogicalSend]
    num_npus: int
    chunk_size: float
    collective_size: float
    name: str
    pattern_name: str = "AllReduce"
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_steps(self) -> int:
        """Number of algorithm steps: the highest step plus one (0 when empty)."""
        return max(send.step for send in self.sends) + 1 if self.sends else 0

    @property
    def num_sends(self) -> int:
        """Total number of logical sends."""
        return len(self.sends)

    def steps(self) -> Iterator[Tuple[int, List[LogicalSend]]]:
        """Iterate ``(step, sends)`` pairs in ascending step order.

        Each step's sends keep their order in :attr:`sends`.
        """
        by_step: Dict[int, List[LogicalSend]] = {}
        for send in self.sends:
            by_step.setdefault(send.step, []).append(send)
        for step in sorted(by_step):
            yield step, by_step[step]

    def validate(self) -> None:
        """Check every endpoint is a valid NPU index."""
        for send in self.sends:
            for endpoint in (send.source, send.dest):
                if not 0 <= endpoint < self.num_npus:
                    raise SimulationError(
                        f"send {send} references NPU {endpoint} outside 0..{self.num_npus - 1}"
                    )

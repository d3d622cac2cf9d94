"""Collective communication patterns expressed as pre/postconditions.

Following Sec. IV-B of the paper, a collective pattern is fully described by

* a **precondition**: which chunks each NPU holds before the collective, and
* a **postcondition**: which chunks each NPU must hold afterwards.

Chunks are the atomic scheduling unit.  A pattern with ``chunks_per_npu > 1``
splits each NPU's buffer into multiple chunks that can travel the network
concurrently (the paper's chunking optimization, Sec. II-A).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Optional

from repro.errors import CollectiveError

__all__ = ["ChunkOwnership", "CollectivePattern", "FrozenPattern"]

#: Mapping from NPU index to the (frozen) set of chunk ids it holds.
ChunkOwnership = Dict[int, FrozenSet[int]]


class CollectivePattern(ABC):
    """Base class for collective communication patterns.

    Parameters
    ----------
    num_npus:
        Number of participating NPUs.
    chunks_per_npu:
        Number of chunks each NPU's buffer is split into.
    """

    #: Human-readable pattern name (e.g. ``"AllGather"``).
    name: str = "Collective"

    #: Whether the pattern reduces (sums) chunks rather than copying them.
    requires_reduction: bool = False

    def __init__(self, num_npus: int, chunks_per_npu: int = 1) -> None:
        if num_npus < 2:
            raise CollectiveError(f"a collective needs at least 2 NPUs, got {num_npus}")
        if chunks_per_npu < 1:
            raise CollectiveError(f"chunks_per_npu must be at least 1, got {chunks_per_npu}")
        self.num_npus = int(num_npus)
        self.chunks_per_npu = int(chunks_per_npu)

    # ------------------------------------------------------------------
    # Contract
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def num_chunks(self) -> int:
        """Total number of distinct chunks that flow through the network."""

    @abstractmethod
    def precondition(self) -> ChunkOwnership:
        """Chunks held by each NPU before the collective starts."""

    @abstractmethod
    def postcondition(self) -> ChunkOwnership:
        """Chunks each NPU must hold when the collective completes."""

    @abstractmethod
    def chunk_size(self, collective_size: float) -> float:
        """Size in bytes of one chunk for a collective of ``collective_size`` bytes.

        ``collective_size`` is the per-NPU buffer size, matching how the paper
        reports collective sizes (e.g. "1 GB All-Reduce").
        """

    # ------------------------------------------------------------------
    # Helpers shared by subclasses
    # ------------------------------------------------------------------
    def owned_chunks(self, npu: int) -> FrozenSet[int]:
        """Chunk ids natively associated with ``npu`` (its buffer shard)."""
        self._check_npu(npu)
        start = npu * self.chunks_per_npu
        return frozenset(range(start, start + self.chunks_per_npu))

    def chunk_owner(self, chunk: int) -> int:
        """The NPU whose buffer shard chunk ``chunk`` belongs to."""
        if not 0 <= chunk < self.num_npus * self.chunks_per_npu:
            raise CollectiveError(f"chunk {chunk} out of range for {self!r}")
        return chunk // self.chunks_per_npu

    def all_chunks(self) -> FrozenSet[int]:
        """All chunk ids of the pattern."""
        return frozenset(range(self.num_chunks))

    def _check_npu(self, npu: int) -> None:
        if not 0 <= npu < self.num_npus:
            raise CollectiveError(f"NPU {npu} out of range for {self!r}")

    def unsatisfied(self) -> Dict[int, FrozenSet[int]]:
        """Chunks each NPU still needs (postcondition minus precondition)."""
        pre = self.precondition()
        post = self.postcondition()
        return {
            npu: frozenset(post.get(npu, frozenset()) - pre.get(npu, frozenset()))
            for npu in range(self.num_npus)
        }

    def total_transfers_lower_bound(self) -> int:
        """Minimum number of chunk deliveries any algorithm must perform."""
        return sum(len(chunks) for chunks in self.unsatisfied().values())

    # ------------------------------------------------------------------
    # Duals for reduction collectives
    # ------------------------------------------------------------------
    def non_reducing_dual(self) -> Optional["CollectivePattern"]:
        """The non-reducing pattern whose reversal implements this collective.

        Returns ``None`` for patterns that are already non-reducing (they are
        synthesized directly) and for composite patterns such as All-Reduce
        (which is synthesized as Reduce-Scatter followed by All-Gather).
        """
        return None

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_npus={self.num_npus}, "
            f"chunks_per_npu={self.chunks_per_npu})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectivePattern):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.num_npus == other.num_npus
            and self.chunks_per_npu == other.chunks_per_npu
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_npus, self.chunks_per_npu))


class FrozenPattern(CollectivePattern):
    """A pattern reconstituted from serialized pre/postcondition columns.

    The pool's trial payload (:meth:`repro.core.synthesizer.TrialPayload.to_bytes`)
    ships patterns as their observable *conditions* — exactly what one direct
    synthesis trial consumes: the name, the dimensions, and the two ownership
    maps.  A :class:`FrozenPattern` carries those verbatim and nothing else;
    in particular it has no chunk-size rule (:meth:`chunk_size` raises),
    because the trial payload ships the precomputed chunk size alongside it.

    Equality is by conditions, not by type: a frozen pattern equals the
    pattern it was frozen from whenever name, dimensions, and both ownership
    maps match — that is what the payload round-trip suites assert.
    """

    requires_reduction = False

    def __init__(
        self,
        name: str,
        num_npus: int,
        chunks_per_npu: int,
        num_chunks: int,
        precondition: ChunkOwnership,
        postcondition: ChunkOwnership,
    ) -> None:
        super().__init__(num_npus, chunks_per_npu)
        if num_chunks < 1:
            raise CollectiveError(f"num_chunks must be at least 1, got {num_chunks}")
        self.name = str(name)
        self._num_chunks = int(num_chunks)
        self._precondition = {
            npu: frozenset(chunks) for npu, chunks in precondition.items()
        }
        self._postcondition = {
            npu: frozenset(chunks) for npu, chunks in postcondition.items()
        }

    @property
    def num_chunks(self) -> int:
        return self._num_chunks

    def precondition(self) -> ChunkOwnership:
        return dict(self._precondition)

    def postcondition(self) -> ChunkOwnership:
        return dict(self._postcondition)

    def chunk_size(self, collective_size: float) -> float:
        raise CollectiveError(
            f"{self.name}: a frozen pattern carries no chunk-size rule; the "
            "trial payload ships the precomputed chunk size instead"
        )

    def conditions_equal(self, other: "CollectivePattern") -> bool:
        """Whether ``other`` exposes the same observable conditions.

        Ownership maps are compared with absent NPUs normalized to empty
        chunk sets — patterns are free to omit empty rows, the serialized
        columns always materialize them.
        """

        def normalized(ownership: ChunkOwnership, num_npus: int) -> ChunkOwnership:
            return {
                npu: frozenset(ownership.get(npu, frozenset())) for npu in range(num_npus)
            }

        return (
            self.name == other.name
            and self.num_npus == other.num_npus
            and self.chunks_per_npu == other.chunks_per_npu
            and self.num_chunks == other.num_chunks
            and normalized(self._precondition, self.num_npus)
            == normalized(other.precondition(), other.num_npus)
            and normalized(self._postcondition, self.num_npus)
            == normalized(other.postcondition(), other.num_npus)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectivePattern):
            return NotImplemented
        return self.conditions_equal(other)

    def __hash__(self) -> int:
        return hash((self.name, self.num_npus, self.chunks_per_npu, self._num_chunks))

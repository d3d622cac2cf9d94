"""Columnar transfer IR: the struct-of-arrays interchange format of the pipeline.

A :class:`TransferTable` holds every link-chunk match of a collective
algorithm as five parallel numpy columns (``starts``, ``ends``, ``chunks``,
``sources``, ``dests``) instead of a list of per-transfer Python objects.
It is the single in-memory representation every layer of the pipeline
consumes:

* the synthesizer composes phases (``shifted`` / ``reversed_in_time`` /
  ``concatenated``) as column arithmetic;
* :mod:`repro.core.verification` runs its causality / overlap /
  postcondition / reduction checks as vectorized sweeps over the columns;
* :mod:`repro.simulator.adapters` derives the simulator's dependency CSR
  with vectorized grouping and feeds the engine's flat hop columns directly;
* the exporters (:mod:`repro.export.algorithm_json`,
  :mod:`repro.export.msccl_xml`) and the analysis metrics read the columns
  without materializing tuples.

The tuple view (:class:`~repro.core.algorithm.ChunkTransfer` lists) remains
available through :meth:`to_transfers` for API compatibility; it is built
lazily and only when a caller actually asks for objects.

Tables are immutable by convention: every transformation returns a new
table, integer/float columns are shared between derived tables, and the
cached groupings (:meth:`by_link`, :meth:`by_dest_chunk`,
:meth:`lexsorted_order`) are computed at most once per table.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["TransferTable", "grouped_order"]

_EMPTY_FLOAT = np.zeros(0, dtype=np.float64)
_EMPTY_INT = np.zeros(0, dtype=np.int64)

#: Magic prefix + version byte of the :meth:`TransferTable.to_bytes` format.
_BYTES_MAGIC = b"TACOSTT1"
#: Bytes per row: five 8-byte little-endian columns.
_BYTES_PER_ROW = 40


def grouped_order(
    codes: np.ndarray, secondary: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping of ``codes``: ``(order, indptr, unique_codes)``.

    ``order`` sorts the rows by ``codes`` (then by ``secondary`` within a
    group when given), keeping the original order for full ties — the
    columnar equivalent of building a dict of lists and sorting each.
    ``indptr`` delimits the groups in ``order`` CSR-style, and
    ``unique_codes[g]`` is the code of group ``g``.
    """
    count = codes.shape[0]
    if count == 0:
        return _EMPTY_INT, np.zeros(1, dtype=np.int64), codes[:0]
    if secondary is None:
        order = np.argsort(codes, kind="stable")
    else:
        order = np.lexsort((secondary, codes))
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
    indptr = np.concatenate((np.zeros(1, dtype=np.int64), boundaries, np.asarray([count], dtype=np.int64)))
    return order, indptr, sorted_codes[indptr[:-1]]


class TransferTable:
    """Struct-of-arrays view of a set of timed link-chunk matches.

    Attributes
    ----------
    starts, ends:
        ``float64`` transmission windows in seconds.
    chunks, sources, dests:
        ``int64`` chunk ids and endpoint NPUs.
    """

    __slots__ = ("starts", "ends", "chunks", "sources", "dests", "_cache")

    def __init__(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        chunks: np.ndarray,
        sources: np.ndarray,
        dests: np.ndarray,
        *,
        validate: bool = False,
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.chunks = chunks
        self.sources = sources
        self.dests = dests
        self._cache: Dict[str, object] = {}
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        starts: Sequence[float],
        ends: Sequence[float],
        chunks: Sequence[int],
        sources: Sequence[int],
        dests: Sequence[int],
        *,
        validate: bool = True,
    ) -> "TransferTable":
        """Build a table from five parallel columns (the fast path).

        ``validate=True`` checks column lengths agree and no transfer ends
        before it starts, raising :class:`ValueError` like the
        :class:`~repro.core.algorithm.ChunkTransfer` constructor would.
        """
        return cls(
            np.asarray(starts, dtype=np.float64),
            np.asarray(ends, dtype=np.float64),
            np.asarray(chunks, dtype=np.int64),
            np.asarray(sources, dtype=np.int64),
            np.asarray(dests, dtype=np.int64),
            validate=validate,
        )

    @classmethod
    def from_transfers(cls, transfers: Iterable[Tuple[float, float, int, int, int]]) -> "TransferTable":
        """Build a table from ``(start, end, chunk, source, dest)`` tuples.

        The tuples are assumed already validated (they are
        :class:`~repro.core.algorithm.ChunkTransfer` instances on every
        internal path).
        """
        transfers = transfers if isinstance(transfers, (list, tuple)) else list(transfers)
        count = len(transfers)
        if count == 0:
            return cls.empty()
        starts, ends, chunks, sources, dests = zip(*transfers)
        return cls(
            np.fromiter(starts, dtype=np.float64, count=count),
            np.fromiter(ends, dtype=np.float64, count=count),
            np.fromiter(chunks, dtype=np.int64, count=count),
            np.fromiter(sources, dtype=np.int64, count=count),
            np.fromiter(dests, dtype=np.int64, count=count),
        )

    @classmethod
    def empty(cls) -> "TransferTable":
        return cls(_EMPTY_FLOAT, _EMPTY_FLOAT, _EMPTY_INT, _EMPTY_INT, _EMPTY_INT)

    # ------------------------------------------------------------------
    # Binary round-trip (the cheap cross-process transport)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Compact binary encoding: a header plus the five raw columns.

        The format is a fixed 16-byte header (magic + row count) followed by
        the ``starts``/``ends``/``chunks``/``sources``/``dests`` columns as
        little-endian 8-byte values.  It is the transport used to move tables
        across process boundaries (the process execution backend) and into
        the artifact store without pickling per-transfer objects; the float
        payload is bit-exact, so a round-trip preserves outputs byte for byte.
        """
        count = len(self)
        parts = [_BYTES_MAGIC, struct.pack("<Q", count)]
        parts.append(np.ascontiguousarray(self.starts, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(self.ends, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(self.chunks, dtype="<i8").tobytes())
        parts.append(np.ascontiguousarray(self.sources, dtype="<i8").tobytes())
        parts.append(np.ascontiguousarray(self.dests, dtype="<i8").tobytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "TransferTable":
        """Decode :meth:`to_bytes` output, validating structure and invariants.

        Raises :class:`ValueError` on a bad magic, a truncated or oversized
        payload, or columns violating the table invariant (a transfer ending
        before it starts) — a corrupt or foreign buffer never produces a
        silently wrong table.  ``data`` may be any byte buffer, such as a
        ``memoryview`` slice of a larger blob: each column is read straight
        from it into an array of its own, so the table never aliases it.
        """
        data = memoryview(data).cast("B")
        header = len(_BYTES_MAGIC) + 8
        if len(data) < header or data[: len(_BYTES_MAGIC)] != _BYTES_MAGIC:
            raise ValueError("not a TransferTable byte payload (bad magic)")
        (count,) = struct.unpack_from("<Q", data, len(_BYTES_MAGIC))
        expected = header + count * _BYTES_PER_ROW
        if len(data) != expected:
            raise ValueError(
                f"TransferTable byte payload declares {count} rows "
                f"({expected} bytes) but carries {len(data)} bytes"
            )

        def column(index: int, dtype: str, native: type) -> np.ndarray:
            offset = header + index * count * 8
            raw = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            return raw.astype(native, copy=True)

        table = cls(
            column(0, "<f8", np.float64),
            column(1, "<f8", np.float64),
            column(2, "<i8", np.int64),
            column(3, "<i8", np.int64),
            column(4, "<i8", np.int64),
        )
        table._validate()
        return table

    def _validate(self) -> None:
        count = self.starts.shape[0]
        for column in (self.ends, self.chunks, self.sources, self.dests):
            if column.shape[0] != count:
                raise ValueError(
                    f"transfer columns disagree in length: {count} vs {column.shape[0]}"
                )
        bad = self.ends < self.starts
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            raise ValueError(f"transfer ends before it starts: {self.transfer_at(index)}")

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def to_transfers(self) -> list:
        """Materialize the :class:`ChunkTransfer` object view (API compat)."""
        from repro.core.algorithm import ChunkTransfer

        return list(
            map(  # repro-lint: disable=C303 -- this IS the documented compat view; callers opt out of the columnar hot path on purpose
                ChunkTransfer._make,
                zip(
                    self.starts.tolist(),
                    self.ends.tolist(),
                    self.chunks.tolist(),
                    self.sources.tolist(),
                    self.dests.tolist(),
                ),
            )
        )

    def transfer_at(self, index: int):
        """One row as a :class:`ChunkTransfer` (used for error messages)."""
        from repro.core.algorithm import ChunkTransfer

        return ChunkTransfer._make(
            (
                float(self.starts[index]),
                float(self.ends[index]),
                int(self.chunks[index]),
                int(self.sources[index]),
                int(self.dests[index]),
            )
        )

    # ------------------------------------------------------------------
    # Scalar reductions
    # ------------------------------------------------------------------
    @property
    def max_end(self) -> float:
        """Completion time of the last transfer; 0 for empty tables."""
        if not len(self):
            return 0.0
        return float(self.ends.max())

    @property
    def min_start(self) -> float:
        """Start time of the earliest transfer; 0 for empty tables."""
        if not len(self):
            return 0.0
        return float(self.starts.min())

    @property
    def num_chunks(self) -> int:
        """``max(chunk) + 1`` — the chunk-id space of the table (0 if empty)."""
        if not len(self):
            return 0
        return int(self.chunks.max()) + 1

    # ------------------------------------------------------------------
    # Transformations (column ops; no per-transfer objects)
    # ------------------------------------------------------------------
    def shifted(self, offset: float) -> "TransferTable":
        """Every transfer moved later by ``offset`` seconds."""
        return TransferTable(
            self.starts + offset, self.ends + offset, self.chunks, self.sources, self.dests
        )

    def reversed_in_time(self, total: float) -> "TransferTable":
        """Time-mirror around ``total`` with flipped transfer directions."""
        return TransferTable(
            total - self.ends, total - self.starts, self.chunks, self.dests, self.sources
        )

    def concatenated(self, other: "TransferTable") -> "TransferTable":
        """Rows of ``self`` followed by rows of ``other``."""
        return TransferTable(
            np.concatenate((self.starts, other.starts)),
            np.concatenate((self.ends, other.ends)),
            np.concatenate((self.chunks, other.chunks)),
            np.concatenate((self.sources, other.sources)),
            np.concatenate((self.dests, other.dests)),
        )

    def select(self, mask_or_indices: np.ndarray) -> "TransferTable":
        """Row subset (boolean mask or index array), order preserved."""
        picker = mask_or_indices
        return TransferTable(
            self.starts[picker],
            self.ends[picker],
            self.chunks[picker],
            self.sources[picker],
            self.dests[picker],
        )

    # ------------------------------------------------------------------
    # Cached groupings
    # ------------------------------------------------------------------
    def _cached(self, key: str, builder):
        value = self._cache.get(key)
        if value is None:
            value = builder()
            self._cache[key] = value
        return value

    def _npu_stride(self) -> int:
        """Encoding stride covering every NPU index appearing in the table."""
        if not len(self):
            return 1
        return int(max(self.sources.max(), self.dests.max())) + 1

    def link_codes(self) -> np.ndarray:
        """Per-row ``source * stride + dest`` codes identifying the link used."""
        return self._cached(
            "link_codes", lambda: self.sources * self._npu_stride() + self.dests
        )

    def by_link(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rows grouped by link, each group sorted by start time (stable).

        Returns ``(order, indptr, group_sources, group_dests)``: the CSR
        grouping over ``order`` plus the decoded ``(source, dest)`` key of
        each group.  Matches the pre-refactor
        ``CollectiveAlgorithm.link_occupancy`` semantics (per-link lists
        sorted by start, ties in original order).
        """

        def build():
            order, indptr, codes = grouped_order(self.link_codes(), self.starts)
            stride = self._npu_stride()
            return order, indptr, codes // stride, codes % stride

        return self._cached("by_link", build)

    def link_group_of_rows(self) -> np.ndarray:
        """Per-row index of its :meth:`by_link` group."""

        def build():
            order, indptr, _, _ = self.by_link()
            groups = np.empty(len(self), dtype=np.int64)
            groups[order] = np.repeat(
                np.arange(indptr.shape[0] - 1, dtype=np.int64), np.diff(indptr)
            )
            return groups

        return self._cached("link_group_of_rows", build)

    def by_dest_chunk(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows grouped by ``(dest, chunk)``: ``(order, indptr, codes)``.

        Codes are ``dest * num_chunks + chunk``; within a group rows keep
        their original order.
        """

        def build():
            stride = max(1, self.num_chunks)
            return grouped_order(self.dests * stride + self.chunks)

        return self._cached("by_dest_chunk", build)

    def first_overlap(self, eps: float) -> Optional[Tuple[int, int]]:
        """First pair of same-link transfers overlapping in time, or ``None``.

        Scans the :meth:`by_link` order (per link, sorted by start) for an
        entry starting more than ``eps`` before its predecessor ends, and
        returns the two row indices ``(earlier, later)``.  The single
        overlap predicate shared by
        :meth:`~repro.core.algorithm.CollectiveAlgorithm.has_link_overlap`
        and the verification layer's congestion-freedom check.
        """
        if len(self) < 2:
            return None
        order, indptr, _, _ = self.by_link()
        starts = self.starts[order]
        ends = self.ends[order]
        overlap = starts[1:] < ends[:-1] - eps
        # Successive rows belonging to different links never overlap.
        overlap[indptr[1:-1] - 1] = False
        if not overlap.any():
            return None
        position = int(np.flatnonzero(overlap)[0])
        return int(order[position]), int(order[position + 1])

    def lexsorted_order(self) -> np.ndarray:
        """Full lexicographic order over ``(start, end, chunk, source, dest)``.

        The order ``sorted(transfers)`` produces on the tuple view; used by
        the exporters.
        """
        return self._cached(
            "lexsorted_order",
            lambda: np.lexsort((self.dests, self.sources, self.chunks, self.ends, self.starts)),
        )

    def time_sorted_order(self) -> np.ndarray:
        """Stable order by ``(start, end)`` — the adapters' message order."""
        return self._cached(
            "time_sorted_order", lambda: np.lexsort((self.ends, self.starts))
        )

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def link_totals(self, per_row_values) -> Dict[Tuple[int, int], float]:
        """Accumulate ``per_row_values`` per link, in row order.

        ``per_row_values`` may be a scalar (the same addend per row — e.g. a
        chunk size) or a per-row array.  Accumulation happens left-to-right
        in original row order, reproducing the float results of the
        pre-refactor per-transfer dict updates exactly.
        """
        order, indptr, group_sources, group_dests = self.by_link()
        groups = self.link_group_of_rows()
        totals = np.zeros(indptr.shape[0] - 1, dtype=np.float64)
        if np.isscalar(per_row_values):
            addends = np.full(len(self), float(per_row_values))
        else:
            addends = np.asarray(per_row_values, dtype=np.float64)
        # ufunc.at is unbuffered and applies the adds in index order — the
        # same left-to-right accumulation as the historical dict loop.
        np.add.at(totals, groups, addends)
        return {
            (int(source), int(dest)): float(total)
            for source, dest, total in zip(group_sources.tolist(), group_dests.tolist(), totals.tolist())
        }

    def delivered_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Unique ``(dest, chunk)`` pairs receiving a transfer."""
        if not len(self):
            return _EMPTY_INT, _EMPTY_INT
        _, indptr, codes = self.by_dest_chunk()
        stride = max(1, self.num_chunks)
        return codes // stride, codes % stride

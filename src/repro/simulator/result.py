"""Simulation results and derived network metrics.

Busy intervals are stored *columnar*: per link, one array of interval start
times and one of end times, in transmission order.  All time-series metrics
(:meth:`SimulationResult.utilization_timeline`, :meth:`link_busy_time`,
:meth:`busy_link_count_at`) run as vectorized event sweeps over those columns
instead of nested Python loops, which keeps them cheap even for the 100k+
message workloads of the ``full`` check grid's simulation scenarios.

Zero-width intervals (``start == end``, produced by pure-latency ``beta == 0``
links) are *instantaneous transmissions*: they carry bytes but occupy the link
for zero time.  They are counted at their sample point by the sweeps rather
than silently dropped.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["SimulationResult", "sweep_busy_link_counts"]

#: Magic prefix + version byte of the :meth:`SimulationResult.to_bytes` format.
_BYTES_MAGIC = b"TACOSSR1"
#: Fixed header layout after the magic: completion time, link count,
#: collective size, then the four array counts.
_HEADER = struct.Struct("<dqdQQQQ")

_LinkKey = Tuple[int, int]
#: Columnar busy intervals: per link, parallel (starts, ends) sequences.
_Columns = Dict[_LinkKey, Tuple[np.ndarray, np.ndarray]]


def sweep_busy_link_counts(times: np.ndarray, columns: _Columns) -> np.ndarray:
    """Number of links busy at each sample time (vectorized event sweep).

    ``times`` must be sorted ascending; ``columns`` maps each link to its
    parallel ``(starts, ends)`` interval arrays.  An interval ``[start, end)``
    covers a sample ``t`` when ``start <= t < end`` (the historical
    semantics); because a link's intervals never overlap, at most one of its
    positive-width intervals covers any sample, so a flat additive sweep over
    all links yields the per-sample *link* count directly.

    A zero-width interval (``start == end``) covers no half-open range; its
    link is instead counted busy at the interval's sample point — the last
    sample ``<= start`` (clamped to the first sample) — so instantaneous
    transmissions over pure-latency links remain visible in Fig. 16(b)-style
    plots.  Instants are deduplicated per (link, sample) and skipped where
    the same link already has positive-width coverage, so a link never
    counts more than once per sample and the busy fraction stays <= 1.
    """
    times = np.asarray(times, dtype=float)
    counts = np.zeros(times.shape, dtype=float)
    if not columns:
        return counts
    num_samples = len(times)
    all_starts = np.concatenate([pair[0] for pair in columns.values()])
    all_ends = np.concatenate([pair[1] for pair in columns.values()])
    if all_starts.size == 0:
        return counts
    # #{start <= t} - #{end <= t} == #{start <= t < end}: zero-width
    # intervals cancel out of the difference, which is exactly why the naive
    # sweep dropped them — their links are re-counted per sample below.
    counts += np.searchsorted(np.sort(all_starts), times, side="right")
    counts -= np.searchsorted(np.sort(all_ends), times, side="right")
    if not np.any(all_starts == all_ends):
        return counts
    for starts, ends in columns.values():
        zero_width = starts == ends
        if not zero_width.any():
            continue
        bins = np.searchsorted(times, starts[zero_width], side="right") - 1
        np.clip(bins, 0, num_samples - 1, out=bins)
        bins = np.unique(bins)
        wide_starts = starts[~zero_width]
        if wide_starts.size:
            # Drop bins where this link is already counted via a
            # positive-width interval covering the sample.
            wide_ends = ends[~zero_width]
            covered = (
                np.searchsorted(np.sort(wide_starts), times[bins], side="right")
                - np.searchsorted(np.sort(wide_ends), times[bins], side="right")
            ) > 0
            bins = bins[~covered]
        counts[bins] += 1.0
    return counts


class SimulationResult:
    """Outcome of one network simulation run.

    Attributes
    ----------
    completion_time:
        Time at which the last message was fully delivered (seconds).
    message_completion:
        Per-message delivery time, keyed by message id.
    link_busy_intervals:
        Per-link list of (start, end) busy windows, in start order
        (materialized lazily from the columnar storage).
    link_bytes:
        Total payload bytes that crossed each link.
    num_links:
        Number of directed links in the simulated topology.
    collective_size:
        Per-NPU collective size in bytes (0 when simulating raw messages),
        used to report collective bandwidth.

    Constructors may pass busy windows either as ``link_busy_intervals``
    (dict of (start, end) tuple lists — the historical shape, used by the
    frozen reference simulator) or as ``busy_columns`` (dict of parallel
    ``(starts, ends)`` sequences — the array engine's native shape).
    """

    def __init__(
        self,
        completion_time: float,
        message_completion: Dict[int, float],
        link_busy_intervals: Optional[Dict[_LinkKey, List[Tuple[float, float]]]] = None,
        link_bytes: Optional[Dict[_LinkKey, float]] = None,
        num_links: int = 0,
        collective_size: float = 0.0,
        *,
        busy_columns: Optional[
            Dict[_LinkKey, Tuple[Sequence[float], Sequence[float]]]
        ] = None,
    ) -> None:
        if link_busy_intervals is not None and busy_columns is not None:
            raise SimulationError(
                "pass either link_busy_intervals or busy_columns, not both"
            )
        self.completion_time = completion_time
        self.message_completion = message_completion
        self.link_bytes = dict(link_bytes) if link_bytes else {}
        self.num_links = num_links
        self.collective_size = collective_size
        self._intervals = link_busy_intervals
        self._raw_columns = busy_columns
        if link_busy_intervals is None and busy_columns is None:
            self._intervals = {}
        self._columns_cache: Optional[_Columns] = None
        self._flat_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __repr__(self) -> str:
        return (
            f"SimulationResult(completion_time={self.completion_time!r}, "
            f"messages={len(self.message_completion)}, num_links={self.num_links})"
        )

    # ------------------------------------------------------------------
    # Busy-interval storage
    # ------------------------------------------------------------------
    @property
    def link_busy_intervals(self) -> Dict[_LinkKey, List[Tuple[float, float]]]:
        """Per-link (start, end) tuple lists, materialized lazily."""
        if self._intervals is None:
            self._intervals = {
                key: list(zip(starts, ends))
                for key, (starts, ends) in self._raw_columns.items()
            }
        return self._intervals

    def busy_columns(self) -> _Columns:
        """Per-link columnar ``(starts, ends)`` busy-interval arrays (cached).

        The native storage of the vectorized metric sweeps; treat the
        returned arrays as read-only.
        """
        return self._link_columns()

    def _link_columns(self) -> _Columns:
        """Per-link columnar ``(starts, ends)`` float arrays (cached)."""
        if self._columns_cache is None:
            columns: _Columns = {}
            if self._raw_columns is not None:
                for key, (starts, ends) in self._raw_columns.items():
                    columns[key] = (
                        np.asarray(starts, dtype=float),
                        np.asarray(ends, dtype=float),
                    )
            else:
                for key, intervals in self._intervals.items():
                    starts = [start for start, _ in intervals]
                    ends = [end for _, end in intervals]
                    columns[key] = (
                        np.asarray(starts, dtype=float),
                        np.asarray(ends, dtype=float),
                    )
            self._columns_cache = columns
        return self._columns_cache

    def _all_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """All busy intervals of all links, concatenated (cached)."""
        if self._flat_cache is None:
            columns = self._link_columns()
            if columns:
                starts = np.concatenate([pair[0] for pair in columns.values()])
                ends = np.concatenate([pair[1] for pair in columns.values()])
            else:
                starts = np.zeros(0)
                ends = np.zeros(0)
            self._flat_cache = (starts, ends)
        return self._flat_cache

    # ------------------------------------------------------------------
    # Binary round-trip (cross-process / artifact-store transport)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Compact binary encoding over the raw numpy columns.

        Serializes the delivery schedule (message ids and completion times),
        the per-link byte totals, and the busy-interval columns as raw
        little-endian arrays behind a fixed header — no pickling, bit-exact
        floats.  The counterpart of
        :meth:`repro.core.transfers.TransferTable.to_bytes` for simulation
        outcomes crossing process boundaries or resting in the artifact store.
        """
        columns = self._link_columns()
        link_keys = list(columns)
        interval_counts = [columns[key][0].shape[0] for key in link_keys]
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(interval_counts, dtype=np.int64))
        )
        message_ids = np.fromiter(
            self.message_completion.keys(), dtype=np.int64, count=len(self.message_completion)
        )
        message_times = np.fromiter(
            self.message_completion.values(),
            dtype=np.float64,
            count=len(self.message_completion),
        )
        byte_keys = list(self.link_bytes)
        parts = [
            _BYTES_MAGIC,
            _HEADER.pack(
                self.completion_time,
                self.num_links,
                self.collective_size,
                message_ids.shape[0],
                len(link_keys),
                int(indptr[-1]),
                len(byte_keys),
            ),
            np.ascontiguousarray(message_ids, dtype="<i8").tobytes(),
            np.ascontiguousarray(message_times, dtype="<f8").tobytes(),
            np.asarray([key[0] for key in link_keys], dtype="<i8").tobytes(),
            np.asarray([key[1] for key in link_keys], dtype="<i8").tobytes(),
            np.ascontiguousarray(indptr, dtype="<i8").tobytes(),
        ]
        if link_keys:
            parts.append(
                np.ascontiguousarray(
                    np.concatenate([columns[key][0] for key in link_keys]), dtype="<f8"
                ).tobytes()
            )
            parts.append(
                np.ascontiguousarray(
                    np.concatenate([columns[key][1] for key in link_keys]), dtype="<f8"
                ).tobytes()
            )
        parts.append(np.asarray([key[0] for key in byte_keys], dtype="<i8").tobytes())
        parts.append(np.asarray([key[1] for key in byte_keys], dtype="<i8").tobytes())
        parts.append(
            np.fromiter(
                self.link_bytes.values(), dtype=np.float64, count=len(byte_keys)
            ).astype("<f8").tobytes()
        )
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SimulationResult":
        """Decode :meth:`to_bytes` output, validating structure on load.

        Raises :class:`ValueError` on a bad magic, a truncated payload, or an
        inconsistent busy-interval index — corrupt buffers fail loudly.
        """
        data = bytes(data)
        magic_len = len(_BYTES_MAGIC)
        if len(data) < magic_len + _HEADER.size or data[:magic_len] != _BYTES_MAGIC:
            raise ValueError("not a SimulationResult byte payload (bad magic)")
        (
            completion_time,
            num_links,
            collective_size,
            num_messages,
            num_busy_links,
            num_intervals,
            num_byte_links,
        ) = _HEADER.unpack_from(data, magic_len)
        expected = (
            magic_len
            + _HEADER.size
            + num_messages * 16
            + num_busy_links * 16
            + (num_busy_links + 1) * 8
            + num_intervals * 16
            + num_byte_links * 24
        )
        if len(data) != expected:
            raise ValueError(
                f"SimulationResult byte payload should be {expected} bytes, got {len(data)}"
            )

        offset = magic_len + _HEADER.size

        def column(count: int, dtype: str, native: type) -> np.ndarray:
            nonlocal offset
            raw = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            offset += count * 8
            return raw.astype(native, copy=True)

        message_ids = column(num_messages, "<i8", np.int64)
        message_times = column(num_messages, "<f8", np.float64)
        busy_sources = column(num_busy_links, "<i8", np.int64)
        busy_dests = column(num_busy_links, "<i8", np.int64)
        indptr = column(num_busy_links + 1, "<i8", np.int64)
        busy_starts = column(num_intervals, "<f8", np.float64)
        busy_ends = column(num_intervals, "<f8", np.float64)
        bytes_sources = column(num_byte_links, "<i8", np.int64)
        bytes_dests = column(num_byte_links, "<i8", np.int64)
        bytes_values = column(num_byte_links, "<f8", np.float64)

        if (
            indptr.shape[0] == 0
            or indptr[0] != 0
            or indptr[-1] != num_intervals
            or (np.diff(indptr) < 0).any()
        ):
            raise ValueError("SimulationResult byte payload has a corrupt busy-interval index")

        busy_columns = {
            (int(source), int(dest)): (busy_starts[lo:hi], busy_ends[lo:hi])
            for source, dest, lo, hi in zip(
                busy_sources.tolist(), busy_dests.tolist(), indptr[:-1].tolist(), indptr[1:].tolist()
            )
        }
        return cls(
            completion_time=float(completion_time),
            message_completion=dict(zip(message_ids.tolist(), message_times.tolist())),
            link_bytes={
                (int(source), int(dest)): value
                for source, dest, value in zip(
                    bytes_sources.tolist(), bytes_dests.tolist(), bytes_values.tolist()
                )
            },
            num_links=int(num_links),
            collective_size=float(collective_size),
            busy_columns=busy_columns,
        )

    # ------------------------------------------------------------------
    # Collective-level metrics
    # ------------------------------------------------------------------
    def collective_bandwidth(self) -> float:
        """All-Reduce-style bandwidth: collective size divided by completion time."""
        if self.collective_size <= 0:
            raise SimulationError("collective_size was not set on this result")
        if self.completion_time <= 0:
            return float("inf")
        return self.collective_size / self.completion_time

    # ------------------------------------------------------------------
    # Per-link metrics
    # ------------------------------------------------------------------
    def link_busy_time(self) -> Dict[_LinkKey, float]:
        """Total busy seconds per link (vectorized column sums)."""
        return {
            key: float(np.sum(ends) - np.sum(starts))
            for key, (starts, ends) in self._link_columns().items()
        }

    def per_link_utilization(self) -> Dict[_LinkKey, float]:
        """Busy fraction of each link over the whole run."""
        if self.completion_time <= 0:
            return {key: 0.0 for key in self._link_columns()}
        return {
            key: busy / self.completion_time
            for key, busy in self.link_busy_time().items()
        }

    def average_link_utilization(self) -> float:
        """Mean busy fraction across all links (the Fig. 15(b) quantity)."""
        if self.num_links == 0 or self.completion_time <= 0:
            return 0.0
        starts, ends = self._all_columns()
        total_busy = float(np.sum(ends) - np.sum(starts))
        return total_busy / (self.num_links * self.completion_time)

    def normalized_link_loads(self) -> Dict[_LinkKey, float]:
        """Per-link bytes normalized by the maximum (the Fig. 1 heat-map values)."""
        if not self.link_bytes:
            return {}
        peak = max(self.link_bytes.values())
        if peak <= 0:
            return {link: 0.0 for link in self.link_bytes}
        return {link: load / peak for link, load in self.link_bytes.items()}

    # ------------------------------------------------------------------
    # Time series
    # ------------------------------------------------------------------
    def utilization_timeline(self, num_samples: int = 100) -> Tuple[np.ndarray, np.ndarray]:
        """Fraction of links busy over time (the Fig. 16(b) / Fig. 18 series).

        Returns ``(times, utilization)`` arrays of length ``num_samples``.
        Instantaneous (zero-width) transmissions count at their sample point;
        see :func:`sweep_busy_link_counts`.
        """
        if num_samples < 1:
            raise SimulationError(f"num_samples must be positive, got {num_samples}")
        horizon = self.completion_time
        times = np.linspace(0.0, horizon, num_samples) if horizon > 0 else np.zeros(num_samples)
        if self.num_links == 0 or horizon <= 0:
            return times, np.zeros(num_samples)
        return times, sweep_busy_link_counts(times, self._link_columns()) / self.num_links

    def busy_link_count_at(self, time: float) -> int:
        """Number of links transmitting at ``time``.

        A link with a zero-width (pure-latency) transmission counts exactly
        at that transmission's instant.
        """
        count = 0
        for starts, ends in self._link_columns().values():
            busy = (starts <= time) & (time < ends)
            if busy.any() or bool(np.any((starts == ends) & (starts == time))):
                count += 1
        return count

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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["SimulationResult", "sweep_busy_link_counts"]

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
        # Distinct bins, ascending: sort, then keep each run's first entry.
        # (A bare ``np.unique`` gives the same values but imports
        # ``numpy.ma`` on its first call in a process.)
        bins.sort()
        bins = bins[np.concatenate(([True], bins[1:] != bins[:-1]))]
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

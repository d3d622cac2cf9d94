"""Time-expanded network (TEN) state used during synthesis.

The TEN (Sec. IV-A) integrates the spatial topology with a time axis.  For
homogeneous topologies the time axis is a sequence of uniform spans; for
heterogeneous topologies (Sec. IV-F) the spans are the union of link
completion events (Fig. 12).  Rather than materializing every vertex of the
expanded graph, this class keeps the equivalent sparse state:

* per directed link, the time at which it next becomes idle, and
* a heap of future event times (transfer completions) at which the
  synthesizer should re-run the matching algorithm.

A link-chunk match occupies one link for one time span (``alpha + beta *
chunk_size`` seconds), which is exactly one edge of the conceptual TEN.

Storage is array-backed: links are numbered ``0 .. num_links - 1`` in
topology insertion order, and per-link state lives in flat parallel lists
(:attr:`link_sources`, :attr:`link_dests`, :attr:`link_costs`,
:attr:`free_times`) with CSR-style per-NPU in/out link-id adjacency built
once at construction.  The matching hot path works on integer link ids; the
``(source, dest)`` key-tuple API is kept for callers and tests.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as _np

from repro.errors import SynthesisError
from repro.topology.topology import Topology

__all__ = ["TimeExpandedNetwork"]

#: Tolerance used when comparing floating-point event times.
_TIME_EPS = 1e-12


class TimeExpandedNetwork:
    """Sparse time-expanded view of a topology for a fixed chunk size.

    Parameters
    ----------
    topology:
        The physical network.
    chunk_size:
        Size of each chunk in bytes; fixes the per-link span length
        ``alpha + beta * chunk_size``.

    Attributes
    ----------
    link_sources, link_dests, link_costs, free_times:
        Flat per-link arrays indexed by link id (insertion order).  The hot
        path reads them directly; ``free_times`` must only be written through
        :meth:`occupy` / :meth:`occupy_id`.
    """

    def __init__(self, topology: Topology, chunk_size: float) -> None:
        if chunk_size <= 0:
            raise SynthesisError(f"chunk size must be positive, got {chunk_size}")
        self.topology = topology
        self.chunk_size = float(chunk_size)

        # The chunk-size-independent link numbering and CSR adjacency are
        # cached on the topology (shared with the array-backed simulator) so
        # per-trial TEN construction only has to compute the cost table.
        arrays = topology.link_arrays()
        self._id_of: Dict[Tuple[int, int], int] = arrays.id_of
        self.link_sources: List[int] = arrays.sources
        self.link_dests: List[int] = arrays.dests
        # CSR-style adjacency: per NPU, the ids of its incoming / outgoing
        # links in neighbour insertion order (the order idle_in_links /
        # idle_out_links have always reported and the matching relies on).
        self._in_ids: List[List[int]] = arrays.in_ids
        self._out_ids: List[List[int]] = arrays.out_ids
        #: Per-NPU outgoing neighbour lists (shared with the topology cache,
        #: read-only); used by the matching state's pair-activation step.
        self.out_adjacency: List[List[int]] = topology.out_adjacency()

        self.link_costs: List[float] = [
            link.cost(self.chunk_size) for link in topology.links()
        ]
        #: True when every link has the same span length (homogeneous case):
        #: the lowest-cost restriction then never excludes a candidate.
        self.uniform_cost: bool = len(set(self.link_costs)) <= 1
        #: Shortest span length over all links; the matching prefilter uses it
        #: to prove that no transfer committed at ``time`` can come due within
        #: the same span (``time + min_link_cost > time + eps``).
        self.min_link_cost: float = min(self.link_costs) if self.link_costs else 0.0
        self.free_times: List[float] = [0.0] * len(self.link_costs)

        self._event_heap: List[float] = []
        self._event_times: set = set()
        self._in_csr = None
        self._out_csr = None
        self._cost_array = None

    # ------------------------------------------------------------------
    # Link ids (hot path)
    # ------------------------------------------------------------------
    def link_id(self, key: Tuple[int, int]) -> int:
        """Integer id of the link ``key`` (its topology insertion index)."""
        return self._id_of[key]

    def in_link_ids(self, dest: int) -> List[int]:
        """Ids of all links into ``dest`` (read-only, in-neighbour order)."""
        return self._in_ids[dest]

    def out_link_ids(self, source: int) -> List[int]:
        """Ids of all links out of ``source`` (read-only, out-neighbour order)."""
        return self._out_ids[source]

    def in_link_csr(self):
        """Numpy CSR view of the incoming-link adjacency, built lazily per TEN.

        Returns ``(in_flat, in_indptr, link_sources)`` where the incoming link
        ids of NPU ``d`` are ``in_flat[in_indptr[d]:in_indptr[d + 1]]`` in the
        same in-neighbour order as :meth:`in_link_ids`, and ``link_sources``
        is the per-link source-NPU array.  Used by the matching round's
        vectorized candidate prefilter.
        """
        csr = self._in_csr
        if csr is None:
            in_ids = self._in_ids
            in_indptr = _np.zeros(len(in_ids) + 1, dtype=_np.intp)
            for npu, ids in enumerate(in_ids):
                in_indptr[npu + 1] = in_indptr[npu] + len(ids)
            in_flat = _np.fromiter(
                (link_id for ids in in_ids for link_id in ids),
                dtype=_np.intp,
                count=int(in_indptr[-1]),
            )
            sources = _np.fromiter(
                self.link_sources, dtype=_np.intp, count=len(self.link_sources)
            )
            csr = (in_flat, in_indptr, sources)
            self._in_csr = csr
        return csr

    def link_cost_array(self):
        """:attr:`link_costs` as a float64 numpy array, built lazily per TEN.

        The matching round's block prefilter gathers candidate costs from it.
        """
        if self._cost_array is None:
            self._cost_array = _np.array(self.link_costs, dtype=_np.float64)
        return self._cost_array

    def out_neighbour_csr(self):
        """Numpy CSR view of :attr:`out_adjacency`, built lazily per TEN.

        Returns ``(out_flat, out_indptr)`` where the out-neighbours of NPU
        ``s`` are ``out_flat[out_indptr[s]:out_indptr[s + 1]]`` in the order
        of ``out_adjacency[s]``.  Used by the matching state's batched pair
        activation.
        """
        csr = self._out_csr
        if csr is None:
            adjacency = self.out_adjacency
            out_indptr = _np.zeros(len(adjacency) + 1, dtype=_np.intp)
            _np.cumsum([len(neighbours) for neighbours in adjacency], out=out_indptr[1:])
            out_flat = _np.fromiter(
                (neighbour for neighbours in adjacency for neighbour in neighbours),
                dtype=_np.intp,
                count=int(out_indptr[-1]),
            )
            csr = (out_flat, out_indptr)
            self._out_csr = csr
        return csr

    def occupy_id(self, link_id: int, time: float) -> float:
        """Mark link ``link_id`` busy starting at ``time``; return the completion time.

        Id-based equivalent of :meth:`occupy`; the completion time is pushed
        onto the event heap as a future time-span boundary.
        """
        if self.free_times[link_id] > time + _TIME_EPS:
            key = (self.link_sources[link_id], self.link_dests[link_id])
            raise SynthesisError(
                f"link {key} is busy until {self.free_times[link_id]:.3e}s, "
                f"cannot occupy at {time:.3e}s"
            )
        end = time + self.link_costs[link_id]
        self.free_times[link_id] = end
        self.push_event(end)
        return end

    # ------------------------------------------------------------------
    # Link state (key-tuple API)
    # ------------------------------------------------------------------
    def link_cost(self, key: Tuple[int, int]) -> float:
        """Span length (transmission time) of the link ``key`` for one chunk."""
        return self.link_costs[self._id_of[key]]

    def is_link_idle(self, key: Tuple[int, int], time: float) -> bool:
        """Whether the link can start a new transmission at ``time``."""
        return self.free_times[self._id_of[key]] <= time + _TIME_EPS

    def idle_in_links(self, dest: int, time: float) -> List[Tuple[int, int]]:
        """All links into ``dest`` that are idle at ``time``.

        This is the backtracking step of the matching algorithm (Fig. 8b):
        from an unsatisfied postcondition at ``dest``, walk the TEN backwards
        over the incoming edges of the current time span.
        """
        free = self.free_times
        threshold = time + _TIME_EPS
        sources = self.link_sources
        return [
            (sources[link_id], dest)
            for link_id in self._in_ids[dest]
            if free[link_id] <= threshold
        ]

    def idle_out_links(self, source: int, time: float) -> List[Tuple[int, int]]:
        """All links out of ``source`` that are idle at ``time``."""
        free = self.free_times
        threshold = time + _TIME_EPS
        dests = self.link_dests
        return [
            (source, dests[link_id])
            for link_id in self._out_ids[source]
            if free[link_id] <= threshold
        ]

    def occupy(self, key: Tuple[int, int], time: float) -> float:
        """Mark ``key`` busy starting at ``time``; return the completion time.

        The completion time is also pushed onto the event heap so the
        synthesizer revisits it as a future time span boundary.
        """
        return self.occupy_id(self._id_of[key], time)

    def idle_link_count(self, time: float) -> int:
        """Number of links that can start a new transmission at ``time``."""
        # ``threshold >= free`` per link, counted at C speed.
        return sum(map((time + _TIME_EPS).__ge__, self.free_times))

    # ------------------------------------------------------------------
    # Event management (time-span expansion)
    # ------------------------------------------------------------------
    def push_event(self, time: float) -> None:
        """Register a future time at which the network state changes.

        Duplicate event times are coalesced: on homogeneous topologies every
        transfer of a span completes at the same instant, so deduplication
        keeps the heap at O(distinct times) instead of O(matches).
        """
        if time not in self._event_times:
            self._event_times.add(time)
            heapq.heappush(self._event_heap, time)

    def next_event_after(self, time: float) -> Optional[float]:
        """Pop and return the earliest event strictly after ``time``.

        Returns ``None`` when no future events exist, which means the
        synthesis is stuck (no in-flight transfer will ever free a link or
        deliver a chunk).
        """
        heap = self._event_heap
        threshold = time + _TIME_EPS
        while heap:
            candidate = heapq.heappop(heap)
            self._event_times.discard(candidate)
            if candidate > threshold:
                return candidate
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        """Number of directed links (TEN edges per time span)."""
        return len(self.link_costs)

    def busy_links_at(self, time: float) -> int:
        """Number of links still transmitting at ``time``."""
        threshold = time + _TIME_EPS
        return sum(1 for free in self.free_times if free > threshold)

    def utilization_at(self, time: float) -> float:
        """Fraction of links busy at ``time``."""
        if not self.link_costs:
            return 0.0
        return self.busy_links_at(time) / self.num_links

    def link_next_free(self, key: Tuple[int, int]) -> float:
        """Time at which link ``key`` next becomes idle."""
        return self.free_times[self._id_of[key]]

    def snapshot_free_times(self) -> Dict[Tuple[int, int], float]:
        """Copy of the per-link next-free times (used by tests and analysis)."""
        return {key: self.free_times[link_id] for key, link_id in self._id_of.items()}

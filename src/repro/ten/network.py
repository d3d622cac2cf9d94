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
:attr:`free_times`) with per-NPU in-link ids and out-neighbour lists taken
from the topology's cache at construction.  Links are named by their integer ids only; the
matching round commits a transfer by writing :attr:`free_times` and the
event heap itself (see :meth:`TimeExpandedNetwork.push_event`).
"""

from __future__ import annotations

import heapq
from typing import List, Optional

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
        Flat per-link arrays indexed by link id (insertion order).  The
        matching round reads them directly and writes ``free_times`` when it
        commits a transfer.
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
        self.link_sources: List[int] = arrays.sources
        self.link_dests: List[int] = arrays.dests
        # CSR-style adjacency: per NPU, the ids of its incoming links in
        # neighbour insertion order (the order the matching relies on).
        self._in_ids: List[List[int]] = arrays.in_ids
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

    def copy(self) -> "TimeExpandedNetwork":
        """An independent TEN over the same topology and chunk size.

        The link numbering, adjacency, costs and numpy CSR views are static
        and shared (both CSRs are built here first, so every copy reuses
        them); the free times and the event heap are copied, so committing a
        transfer in either TEN leaves the other as it was.
        """
        self.in_link_csr()
        self.out_neighbour_csr()
        clone = TimeExpandedNetwork.__new__(TimeExpandedNetwork)
        clone.__dict__.update(self.__dict__)
        clone.free_times = self.free_times.copy()
        clone._event_heap = self._event_heap.copy()
        clone._event_times = self._event_times.copy()
        return clone

    # ------------------------------------------------------------------
    # Link ids
    # ------------------------------------------------------------------
    def in_link_ids(self, dest: int) -> List[int]:
        """Ids of all links into ``dest`` (read-only, in-neighbour order)."""
        return self._in_ids[dest]

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

    def idle_link_count(self, time: float) -> int:
        """Number of links that can start a new transmission at ``time``.

        A census over every link.  The matching round takes it only where
        some link is shorter than the time epsilon; elsewhere the link count
        limits its scan (see docs/determinism.md, "The saturation limit").
        """
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

"""Directed network topology with alpha-beta link costs.

A :class:`Topology` is the spatial half of the time-expanded network used by
TACOS.  It is a directed multigraph restricted to at most one link per
``(source, dest)`` pair; heterogeneity is expressed through per-link alpha and
beta values, and asymmetry through the absence of links or through NPUs with
different degrees.
"""

from __future__ import annotations

import heapq
import math
import struct
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.errors import TopologyError
from repro.topology.link import Link, bandwidth_to_beta

__all__ = ["DownhillLinks", "LinkArrays", "Topology"]

#: Magic prefix of the :meth:`Topology.to_bytes` wire format.
_BYTES_MAGIC = b"TACOSTP1"


class LinkArrays(NamedTuple):
    """Flat array view of a topology's links, indexed by integer link id.

    Link ids number the links ``0 .. num_links - 1`` in topology insertion
    order — the numbering shared by the synthesis TEN
    (:class:`repro.ten.network.TimeExpandedNetwork`) and the array-backed
    simulator (:class:`repro.simulator.engine.CongestionAwareSimulator`).
    All members are cached on the topology and shared; treat them as
    read-only.
    """

    id_of: Dict[Tuple[int, int], int]  #: ``(source, dest)`` key -> link id
    sources: List[int]  #: per-link source NPU
    dests: List[int]  #: per-link destination NPU
    alphas: List[float]  #: per-link latency (seconds)
    betas: List[float]  #: per-link serialization delay (seconds/byte)
    in_ids: List[List[int]]  #: per-NPU incoming link ids, in-neighbour order
    out_ids: List[List[int]]  #: per-NPU outgoing link ids, out-neighbour order


class DownhillLinks:
    """Per destination, each NPU's out-links that step strictly closer to it.

    ``rows[dest][npu]`` lists the ids (:meth:`Topology.link_arrays`
    numbering) of the links out of ``npu`` whose far end is strictly closer
    to ``dest`` than ``npu`` by ``hop_distances``, in out-link order.  Rows
    are filled lazily: ``rows[dest]`` is ``None`` until :meth:`row` builds
    it, so a rooted pattern (one destination) pays for one row only.  The
    table is static — it depends on the topology and the distance matrix
    alone — and is shared read-only by every trial; concurrent fills build
    equal rows, so a lost race is harmless.
    """

    __slots__ = ("hop_distances", "rows", "_out_ids", "_dests")

    def __init__(self, hop_distances: List[List[int]], arrays: LinkArrays) -> None:
        #: The distance matrix the rows were derived from (held, so a cache
        #: keyed on its identity can never match a recycled object).
        self.hop_distances = hop_distances
        self.rows: List[Optional[List[List[int]]]] = [None] * len(arrays.out_ids)
        self._out_ids = arrays.out_ids
        self._dests = arrays.dests

    def row(self, dest: int) -> List[List[int]]:
        """The downhill out-links of every NPU towards ``dest`` (built once)."""
        row = self.rows[dest]
        if row is None:
            dests = self._dests
            distances = self.hop_distances
            row = []
            for npu, link_ids in enumerate(self._out_ids):
                distance = distances[npu][dest]
                row.append(
                    [link_id for link_id in link_ids if distances[dests[link_id]][dest] < distance]
                )
            self.rows[dest] = row
        return row


class Topology:
    """A directed network of NPUs connected by alpha-beta links.

    Parameters
    ----------
    num_npus:
        Number of NPUs (endpoints).  NPUs are identified by integers
        ``0 .. num_npus - 1``.
    name:
        Optional human-readable name (e.g. ``"Ring(8)"``), used in reports.
    """

    def __init__(self, num_npus: int, name: str = "") -> None:
        if num_npus <= 0:
            raise TopologyError(f"topology needs at least one NPU, got {num_npus}")
        self._num_npus = int(num_npus)
        self.name = name or f"Topology({num_npus})"
        self._links: Dict[Tuple[int, int], Link] = {}
        self._out: Dict[int, List[int]] = {npu: [] for npu in range(num_npus)}
        self._in: Dict[int, List[int]] = {npu: [] for npu in range(num_npus)}
        #: Derived-structure cache (adjacency, hop distances, reachability
        #: regions, reversed view); invalidated whenever a link is added.
        self._derived_cache: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(
        self,
        source: int,
        dest: int,
        *,
        alpha: float,
        beta: Optional[float] = None,
        bandwidth_gbps: Optional[float] = None,
        bidirectional: bool = False,
    ) -> None:
        """Add a directed link (and optionally its reverse).

        Exactly one of ``beta`` (seconds per byte) or ``bandwidth_gbps`` must
        be provided.  Adding a link that already exists raises
        :class:`TopologyError` to catch accidental double-definitions in
        topology builders.
        """
        self._check_npu(source)
        self._check_npu(dest)
        if (beta is None) == (bandwidth_gbps is None):
            raise TopologyError("provide exactly one of beta or bandwidth_gbps")
        if beta is None:
            beta = bandwidth_to_beta(bandwidth_gbps)
        key = (source, dest)
        if key in self._links:
            raise TopologyError(f"link {source}->{dest} already exists in {self.name}")
        link = Link(source=source, dest=dest, alpha=alpha, beta=beta)
        self._links[key] = link
        self._out[source].append(dest)
        self._in[dest].append(source)
        self._derived_cache.clear()
        if bidirectional:
            self.add_link(dest, source, alpha=alpha, beta=beta, bidirectional=False)

    def _check_npu(self, npu: int) -> None:
        if not 0 <= npu < self._num_npus:
            raise TopologyError(f"NPU {npu} out of range for {self.name} with {self._num_npus} NPUs")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_npus(self) -> int:
        """Number of NPUs in the topology."""
        return self._num_npus

    @property
    def num_links(self) -> int:
        """Number of directed links."""
        return len(self._links)

    @property
    def npus(self) -> range:
        """Iterable over all NPU indices."""
        return range(self._num_npus)

    def links(self) -> Iterator[Link]:
        """Iterate over all directed links."""
        return iter(self._links.values())

    def link_keys(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``(source, dest)`` link keys."""
        return iter(self._links.keys())

    def has_link(self, source: int, dest: int) -> bool:
        """Whether a directed link ``source -> dest`` exists."""
        return (source, dest) in self._links

    def link(self, source: int, dest: int) -> Link:
        """Return the link ``source -> dest`` or raise :class:`TopologyError`."""
        try:
            return self._links[(source, dest)]
        except KeyError:
            raise TopologyError(f"no link {source}->{dest} in {self.name}") from None

    def out_neighbors(self, npu: int) -> Sequence[int]:
        """NPUs reachable from ``npu`` over a single link."""
        self._check_npu(npu)
        return tuple(self._out[npu])

    def in_neighbors(self, npu: int) -> Sequence[int]:
        """NPUs with a direct link into ``npu``."""
        self._check_npu(npu)
        return tuple(self._in[npu])

    def out_degree(self, npu: int) -> int:
        """Number of outgoing links of ``npu``."""
        return len(self.out_neighbors(npu))

    def in_degree(self, npu: int) -> int:
        """Number of incoming links of ``npu``."""
        return len(self.in_neighbors(npu))

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether every NPU can reach every other NPU over directed links."""
        graph = self.to_networkx()
        return nx.is_strongly_connected(graph) if self._num_npus > 1 else True

    def is_homogeneous(self) -> bool:
        """Whether every link has identical alpha and beta (Sec. I, footnote 2)."""
        links = list(self._links.values())
        if not links:
            return True
        first = links[0]
        return all(
            math.isclose(link.alpha, first.alpha) and math.isclose(link.beta, first.beta)
            for link in links
        )

    def is_symmetric(self) -> bool:
        """Whether every NPU has identical in- and out-degree profiles.

        This is the degree-regularity notion of symmetry used informally by
        the paper (NPUs at the centre vs. the edge of a mesh have different
        degrees, making the mesh asymmetric).
        """
        degrees = {(self.out_degree(npu), self.in_degree(npu)) for npu in self.npus}
        return len(degrees) <= 1

    def npu_egress_bandwidth(self, npu: int) -> float:
        """Aggregate outgoing bandwidth of ``npu`` in bytes per second.

        A pure-latency link (``beta == 0``) contributes infinite bandwidth.
        """
        return sum(
            self._links[(npu, dest)].bytes_per_second for dest in self.out_neighbors(npu)
        )

    def npu_ingress_bandwidth(self, npu: int) -> float:
        """Aggregate incoming bandwidth of ``npu`` in bytes per second."""
        return sum(
            self._links[(src, npu)].bytes_per_second for src in self.in_neighbors(npu)
        )

    def min_npu_bandwidth(self) -> float:
        """Bottleneck NPU bandwidth (bytes/s), used by the ideal bound (Sec. V-A).

        The bottleneck is the smallest of all per-NPU ingress and egress
        aggregate bandwidths; injection and ejection both constrain an
        All-Reduce.
        """
        values = []
        for npu in self.npus:
            values.append(self.npu_egress_bandwidth(npu))
            values.append(self.npu_ingress_bandwidth(npu))
        if not values or min(values) == 0:
            raise TopologyError(f"{self.name} has an NPU with no links")
        return min(values)

    def diameter_hops(self) -> int:
        """Longest shortest-path length in hops between any NPU pair."""
        graph = self.to_networkx()
        lengths = dict(nx.all_pairs_shortest_path_length(graph))
        diameter = 0
        for src in self.npus:
            for dest in self.npus:
                if src == dest:
                    continue
                if dest not in lengths.get(src, {}):
                    raise TopologyError(f"{self.name} is not strongly connected")
                diameter = max(diameter, lengths[src][dest])
        return diameter

    def diameter_latency(self) -> float:
        """Minimum latency (alpha-only) for the farthest NPU pair to communicate.

        This is the alpha term of the theoretical ideal collective time in
        Sec. V-A: the time for the two most distant NPUs to exchange a
        zero-sized message along their cheapest path.
        """
        worst = 0.0
        for src in self.npus:
            distances, _ = self.shortest_path_tree(src, 0.0)
            for dest in self.npus:
                if src == dest:
                    continue
                if math.isinf(distances[dest]):
                    raise TopologyError(f"{self.name} is not strongly connected")
                worst = max(worst, distances[dest])
        return worst

    def total_link_bandwidth(self) -> float:
        """Sum of all link bandwidths in bytes per second."""
        return sum(link.bytes_per_second for link in self._links.values())

    # ------------------------------------------------------------------
    # Routing helpers
    # ------------------------------------------------------------------
    def shortest_path_tree(
        self, source: int, message_size: float = 0.0
    ) -> Tuple[List[float], List[int]]:
        """Single-source shortest-path tree for ``message_size``-byte hops.

        Returns ``(distances, parent_links)``: the cheapest transmission-cost
        distance from ``source`` to every NPU, and for each NPU the link id
        (see :meth:`link_arrays`) of the final hop on that cheapest path
        (``-1`` for the source itself and for unreachable NPUs).

        One tree answers every ``(source, *)`` routing query, replacing the
        per-destination Dijkstra the simulator used to run; trees are cached
        per ``(source, message_size)`` and invalidated when a link is added.
        Ties between equal-cost paths break identically to the historical
        per-destination search (heap pops ordered by ``(distance, node)``,
        strict-improvement relaxation in link insertion order), so cached
        trees yield byte-identical routes.
        """
        self._check_npu(source)
        if message_size < 0:
            raise TopologyError(f"message size must be non-negative, got {message_size}")
        key = ("sp_tree", source, float(message_size))
        return self._derived(
            key, lambda: self._compute_shortest_path_tree(source, float(message_size))
        )

    def _compute_shortest_path_tree(
        self, source: int, message_size: float
    ) -> Tuple[List[float], List[int]]:
        arrays = self.link_arrays()
        out_ids = arrays.out_ids
        dests = arrays.dests
        # Per-link hop cost, grouped exactly like Link.cost (alpha + beta *
        # size) before being added to the running distance.  The grouping is
        # load-bearing: `dist + alpha + beta * size` associates the other way
        # and can land one ulp away, silently flipping which of two
        # equal-cost routes wins a tie against the historical per-destination
        # Dijkstra.
        costs = [
            alpha + beta * message_size
            for alpha, beta in zip(arrays.alphas, arrays.betas)
        ]
        distances = [math.inf] * self._num_npus
        parent_links = [-1] * self._num_npus
        distances[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        pop = heapq.heappop
        push = heapq.heappush
        while heap:
            dist, node = pop(heap)
            if dist > distances[node]:
                continue
            for link_id in out_ids[node]:
                candidate = dist + costs[link_id]
                dest = dests[link_id]
                if candidate < distances[dest]:
                    distances[dest] = candidate
                    parent_links[dest] = link_id
                    push(heap, (candidate, dest))
        return distances, parent_links

    def shortest_path(self, source: int, dest: int, message_size: float = 0.0) -> List[int]:
        """Cheapest path (list of NPU indices) from ``source`` to ``dest``.

        The path cost of each hop is the alpha-beta transmission time of
        ``message_size`` bytes, so large messages prefer high-bandwidth links
        while small messages prefer low-latency links.  Resolved through the
        cached :meth:`shortest_path_tree` for ``source``.
        """
        self._check_npu(source)
        self._check_npu(dest)
        if source == dest:
            return [source]
        distances, parent_links = self.shortest_path_tree(source, message_size)
        if math.isinf(distances[dest]):
            raise TopologyError(f"no path from {source} to {dest} in {self.name}")
        sources = self.link_arrays().sources
        path = [dest]
        node = dest
        while node != source:
            node = sources[parent_links[node]]
            path.append(node)
        path.reverse()
        return path

    def shortest_path_links(
        self, source: int, dest: int, message_size: float = 0.0
    ) -> List[int]:
        """Cheapest path from ``source`` to ``dest`` as a list of link ids.

        The hop sequence the array-backed simulator consumes directly; same
        tree (and therefore the same path) as :meth:`shortest_path`.
        """
        self._check_npu(source)
        self._check_npu(dest)
        if source == dest:
            return []
        distances, parent_links = self.shortest_path_tree(source, message_size)
        if math.isinf(distances[dest]):
            raise TopologyError(f"no path from {source} to {dest} in {self.name}")
        sources = self.link_arrays().sources
        hops = []
        node = dest
        while node != source:
            link_id = parent_links[node]
            hops.append(link_id)
            node = sources[link_id]
        hops.reverse()
        return hops

    def all_shortest_paths_from(self, source: int, message_size: float = 0.0) -> Dict[int, List[int]]:
        """Cheapest paths from ``source`` to every other NPU.

        Resolved from one cached shortest-path tree rather than one Dijkstra
        run per destination.
        """
        return {dest: self.shortest_path(source, dest, message_size) for dest in self.npus if dest != source}

    # ------------------------------------------------------------------
    # Cached derived structures (synthesis hot path)
    # ------------------------------------------------------------------
    def _derived(self, key: object, builder):
        value = self._derived_cache.get(key)
        if value is None:
            value = builder()
            self._derived_cache[key] = value
        return value

    def out_adjacency(self) -> List[List[int]]:
        """Per-NPU outgoing neighbour lists, in link-insertion order.

        The returned list-of-lists is cached and shared; treat it as
        read-only.  It avoids the per-call tuple construction of
        :meth:`out_neighbors` on the synthesis hot path.
        """
        return self._derived(
            "out_adjacency", lambda: [list(self._out[npu]) for npu in self.npus]
        )

    def in_adjacency(self) -> List[List[int]]:
        """Per-NPU incoming neighbour lists, in link-insertion order (read-only)."""
        return self._derived(
            "in_adjacency", lambda: [list(self._in[npu]) for npu in self.npus]
        )

    def link_arrays(self) -> LinkArrays:
        """Flat link-id arrays + CSR-style adjacency, cached per topology.

        See :class:`LinkArrays`.  Shared by the synthesis TEN and the
        array-backed simulator so both layers agree on link numbering.
        """
        return self._derived("link_arrays", self._compute_link_arrays)

    def _compute_link_arrays(self) -> LinkArrays:
        id_of: Dict[Tuple[int, int], int] = {}
        sources: List[int] = []
        dests: List[int] = []
        alphas: List[float] = []
        betas: List[float] = []
        for link in self._links.values():
            id_of[link.key] = len(sources)
            sources.append(link.source)
            dests.append(link.dest)
            alphas.append(link.alpha)
            betas.append(link.beta)
        in_ids = [
            [id_of[(source, dest)] for source in self._in[dest]] for dest in self.npus
        ]
        out_ids = [
            [id_of[(source, dest)] for dest in self._out[source]] for source in self.npus
        ]
        return LinkArrays(
            id_of=id_of,
            sources=sources,
            dests=dests,
            alphas=alphas,
            betas=betas,
            in_ids=in_ids,
            out_ids=out_ids,
        )

    def link_id_matrix(self):
        """Dense ``source * num_npus + dest -> link id`` lookup (``-1`` = no link).

        A flat ``numpy`` int array resolving whole columns of ``(source,
        dest)`` pairs against :meth:`link_arrays` ids in one gather — the
        vectorized verification and adapter layers use it instead of
        per-transfer dict lookups.  Cached per topology; treat as read-only.
        """

        def build():
            import numpy as np

            size = self._num_npus
            matrix = np.full(size * size, -1, dtype=np.int64)
            for (source, dest), link_id in self.link_arrays().id_of.items():
                matrix[source * size + dest] = link_id
            return matrix

        return self._derived("link_id_matrix", build)

    def hop_distances(self) -> List[List[int]]:
        """All-pairs hop distances via per-source BFS, cached per topology.

        ``hop_distances()[a][b]`` is the number of links on a shortest
        directed path from ``a`` to ``b``; unreachable pairs get the sentinel
        ``num_npus + 1``.  Used by the matching algorithm's forwarding pass to
        push chunks strictly closer to their destinations.
        """
        return self._derived("hop_distances", self._compute_hop_distances)

    def _compute_hop_distances(self) -> List[List[int]]:
        from collections import deque

        size = self._num_npus
        unreachable = size + 1
        out = self.out_adjacency()
        distances = [[unreachable] * size for _ in range(size)]
        for source in range(size):
            row = distances[source]
            row[source] = 0
            queue = deque([source])
            while queue:
                node = queue.popleft()
                for neighbour in out[node]:
                    if row[neighbour] == unreachable:
                        row[neighbour] = row[node] + 1
                        queue.append(neighbour)
        return distances

    def downhill_links(self, hop_distances: Optional[List[List[int]]] = None) -> DownhillLinks:
        """The lazily-filled :class:`DownhillLinks` table for ``hop_distances``.

        Defaults to :meth:`hop_distances`.  Cached per topology and per
        distance matrix (by identity: a worker that decodes its own copy of
        the matrix gets its own table); used by the matching algorithm's
        forwarding pass, which then scans only the links that make progress.
        """
        if hop_distances is None:
            hop_distances = self.hop_distances()
        table = self._derived_cache.get("downhill_links")
        if table is None or table.hop_distances is not hop_distances:
            table = DownhillLinks(hop_distances, self.link_arrays())
            self._derived_cache["downhill_links"] = table
        return table

    def cheaper_reachability_regions(self, chunk_size: float) -> Dict[float, List[frozenset]]:
        """Per link-cost tier, the NPUs that can reach each destination over cheaper links only.

        Returns ``{cost: regions}`` where ``regions[dest]`` is a frozenset of
        NPUs from which ``dest`` is reachable using only links whose one-chunk
        cost is strictly below ``cost``.  Used by the matching algorithm's
        lower-cost-link prioritization on heterogeneous topologies (Sec. IV-F).
        Cached per ``(topology, chunk_size)``.
        """
        return self._derived(
            ("cheap_regions", float(chunk_size)),
            lambda: self._compute_cheaper_regions(float(chunk_size)),
        )

    def cheaper_reachability_masks(
        self, regions: Dict[float, List[frozenset]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``regions`` (see :meth:`cheaper_reachability_regions`) as boolean masks.

        Returns ``(tier_costs, masks)``: ``tier_costs`` holds the region
        dict's costs in ascending order, and ``masks[tier, dest, npu]`` is
        True when ``npu`` lies in ``regions[tier_costs[tier]][dest]``.  Cached
        per topology and per region dict (by identity: a worker that decodes
        its own copy of the dict gets its own masks); used by the matching
        round's block prefilter to decide the Sec. IV-F deferral in numpy.
        """
        cached = self._derived_cache.get("cheap_region_masks")
        if cached is None or cached[0] is not regions:
            size = self._num_npus
            tier_costs = sorted(regions)
            masks = np.zeros((len(tier_costs), size, size), dtype=bool)
            for tier, cost in enumerate(tier_costs):
                for dest, region in enumerate(regions[cost]):
                    masks[tier, dest, list(region)] = True
            cached = (regions, np.array(tier_costs, dtype=np.float64), masks)
            self._derived_cache["cheap_region_masks"] = cached
        return cached[1], cached[2]

    def _compute_cheaper_regions(self, chunk_size: float) -> Dict[float, List[frozenset]]:
        from collections import deque

        costs = sorted({link.cost(chunk_size) for link in self._links.values()})
        regions: Dict[float, List[frozenset]] = {}
        for cost in costs[1:]:  # the cheapest tier has no strictly cheaper links
            cheaper_in: List[List[int]] = [[] for _ in range(self._num_npus)]
            for link in self._links.values():
                if link.cost(chunk_size) < cost - 1e-15:
                    cheaper_in[link.dest].append(link.source)
            per_dest = []
            for dest in self.npus:
                reachable = {dest}
                queue = deque([dest])
                while queue:
                    node = queue.popleft()
                    for predecessor in cheaper_in[node]:
                        if predecessor not in reachable:
                            reachable.add(predecessor)
                            queue.append(predecessor)
                reachable.discard(dest)
                per_dest.append(frozenset(reachable))
            regions[cost] = per_dest
        return regions

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reversed(self) -> "Topology":
        """Return a copy of the topology with every link direction flipped.

        Used for synthesizing reduction collectives (Fig. 11): a Reduce-Scatter
        is an All-Gather over the reversed topology played backwards in time.
        The reversed view is cached (and therefore shared) so repeated
        All-Reduce syntheses on the same topology reuse its derived structures;
        treat it as read-only.
        """
        return self._derived("reversed", self._compute_reversed)

    def _compute_reversed(self) -> "Topology":
        rev = Topology(self._num_npus, name=f"{self.name}.reversed")
        for link in self._links.values():
            rev.add_link(link.dest, link.source, alpha=link.alpha, beta=link.beta)
        return rev

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Return a deep copy of the topology."""
        duplicate = Topology(self._num_npus, name=name or self.name)
        for link in self._links.values():
            duplicate.add_link(link.source, link.dest, alpha=link.alpha, beta=link.beta)
        return duplicate

    def to_bytes(self) -> bytes:
        """Serialize to a compact validated binary blob (LE64 link columns).

        Layout: an 8-byte magic, ``<Q`` NPU count / link count / name length,
        the UTF-8 name, then four raw columns in link-id (insertion) order —
        sources and dests as ``<i8``, alphas and betas as ``<f8`` (bit-exact,
        so costs round-trip to the float, including ``beta == 0``
        pure-latency links).  The pool's trial payload embeds it
        (:meth:`repro.core.synthesizer.TrialPayload.to_bytes`): the same
        topology always serializes to the same bytes, so the blob's content
        hash is a topology identity.
        """
        arrays = self.link_arrays()
        name_bytes = self.name.encode("utf-8")
        parts = [
            _BYTES_MAGIC,
            struct.pack("<QQQ", self._num_npus, self.num_links, len(name_bytes)),
            name_bytes,
            np.ascontiguousarray(arrays.sources, dtype="<i8").tobytes(),
            np.ascontiguousarray(arrays.dests, dtype="<i8").tobytes(),
            np.ascontiguousarray(arrays.alphas, dtype="<f8").tobytes(),
            np.ascontiguousarray(arrays.betas, dtype="<f8").tobytes(),
        ]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Topology":
        """Rebuild a topology serialized by :meth:`to_bytes`, validating loudly.

        The magic, the exact byte length, and every link (NPU ranges,
        duplicate links, alpha/beta domain checks via
        :meth:`add_link`/:class:`~repro.topology.link.Link`) are verified;
        corrupt input raises :class:`~repro.errors.TopologyError` rather than
        producing a silently wrong network.  Link ids (insertion order) and
        the name are preserved, so ``from_bytes(t.to_bytes())`` equals ``t``
        and re-serializes to identical bytes.
        """
        header = len(_BYTES_MAGIC) + 24
        if len(data) < header or data[: len(_BYTES_MAGIC)] != _BYTES_MAGIC:
            raise TopologyError("not a serialized Topology (bad magic)")
        num_npus, num_links, name_length = struct.unpack_from(
            "<QQQ", data, len(_BYTES_MAGIC)
        )
        expected = header + name_length + num_links * 32
        if len(data) != expected:
            raise TopologyError(
                f"serialized Topology length mismatch: expected {expected} bytes, got {len(data)}"
            )
        name = data[header : header + name_length].decode("utf-8")
        offset = header + name_length
        columns = []
        for dtype in ("<i8", "<i8", "<f8", "<f8"):
            column = np.frombuffer(data, dtype=dtype, count=num_links, offset=offset)
            columns.append(column)
            offset += num_links * 8
        sources, dests, alphas, betas = columns
        topology = cls(num_npus, name=name)
        for index in range(num_links):
            topology.add_link(
                int(sources[index]),
                int(dests[index]),
                alpha=float(alphas[index]),
                beta=float(betas[index]),
            )
        return topology

    def to_networkx(self) -> "nx.DiGraph":
        """Export the topology as a :class:`networkx.DiGraph`.

        Link attributes ``alpha`` and ``beta`` are preserved as edge data so
        analysis code can reuse networkx graph algorithms.
        """
        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from(self.npus)
        for link in self._links.values():
            graph.add_edge(link.source, link.dest, alpha=link.alpha, beta=link.beta)
        return graph

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Topology(name={self.name!r}, num_npus={self._num_npus}, num_links={self.num_links})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._num_npus == other._num_npus and self._links == other._links

    def __hash__(self) -> int:  # pragma: no cover - topologies are rarely hashed
        return hash((self._num_npus, tuple(sorted(self._links))))

"""Congestion-aware analytical network simulator (Sec. V-C).

The simulator reproduces the behaviour of the paper's analytical backend:

* every message is routed over a shortest path of physical links
  (store-and-forward: a hop starts only after the previous one completes);
* every link has a message queue and transmits **one message at a time** in
  first-come, first-served order, so contending messages serialize — this is
  the first-order congestion model that exposes the oversubscription of
  topology-unaware collectives;
* a link is occupied for the serialization term of the alpha-beta model
  (``beta * size``); the latency term ``alpha`` is propagation delay, so it
  adds to the message's arrival time but does not block the next message —
  small latency-bound messages therefore pipeline over a link, which is what
  makes the Direct algorithm win for tiny collectives (Fig. 2b);
* a message becomes ready only after all of its dependencies have completed,
  which models the data dependencies inside a collective algorithm (a chunk
  cannot be forwarded before it has been received / reduced).

The engine is array-backed (the PR 2 treatment applied to the simulator):

* routes are tuples of integer link ids, resolved through per-``(source,
  weight_size)`` shortest-path *trees* cached on the topology
  (:meth:`~repro.topology.topology.Topology.shortest_path_tree`) instead of
  one Dijkstra run per ``(source, dest, size)`` triple;
* per-link state (``link_next_free`` and the busy-interval / byte columns)
  is dense-array-indexed by the shared
  :meth:`~repro.topology.topology.Topology.link_arrays` link ids;
* dependency tracking (``missing_deps``, ``ready_time``, dependents) is
  dense-array-indexed over message positions, and the event heap holds
  ``(time, seq, pos)`` entries where ``pos`` is a flat (message, hop) slot
  into numpy-precomputed per-hop columns;
* busy intervals and byte counters are reconstructed vectorized after the
  loop into per-link columnar ``(starts, ends)`` arrays consumed directly by
  :class:`~repro.simulator.result.SimulationResult`'s vectorized sweeps;
* contention-free workloads (one-hop routes, ``alpha >= 0``, every link's
  messages chained by dependencies — TACOS algorithms routed over their own
  links) skip the event loop: no queue can form, so the loop reduces to a
  longest-path pass over the dependency DAG, evaluated one Kahn frontier at
  a time (:meth:`CongestionAwareSimulator._execute_chained`).

Behaviour is byte-identical to the frozen pre-refactor engine
(:class:`repro.bench.reference.ReferenceSimulator`): same routes, same float
operations in the same order, same FCFS tie-breaking.  ``tacos-repro bench``
asserts this on every grid scenario.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError, TopologyError
from repro.simulator.messages import Message, validate_messages
from repro.simulator.result import SimulationResult
from repro.topology.topology import Topology

__all__ = ["CongestionAwareSimulator"]

#: C-level attribute readers for the per-message setup columns.
_get_message_id = attrgetter("message_id")
_get_source = attrgetter("source")
_get_dest = attrgetter("dest")
_get_size = attrgetter("size")
_get_depends_on = attrgetter("depends_on")


class CongestionAwareSimulator:
    """Discrete-event network simulator with per-link FCFS queues.

    Parameters
    ----------
    topology:
        The physical network to simulate on.
    routing_message_size:
        Message size used to weight the shortest-path routing decision.
        ``None`` (the default) weights each hop by its cost for the actual
        message size, so latency-bound messages prefer short paths and
        bandwidth-bound messages prefer fast links.
    """

    def __init__(
        self,
        topology: Topology,
        routing_message_size: Optional[float] = None,
    ) -> None:
        self.topology = topology
        self.routing_message_size = routing_message_size
        self._link_route_cache: Dict[Tuple[int, int, float], Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, messages: Sequence[Message], *, collective_size: float = 0.0) -> SimulationResult:
        """Simulate ``messages`` and return timing plus per-link statistics.

        The hot loop works on flat *hop positions*: every (message, hop) pair
        gets one slot ``pos`` in per-hop columns precomputed with numpy
        (``hop_links``, ``hop_serialization`` = beta x size,
        ``hop_latency`` = alpha), so an event is just ``(time, seq, pos)``
        and the loop body is a handful of list reads.  Only ``(pos, start)``
        is recorded per transmission; ends, per-link grouping, and byte
        counters are reconstructed vectorized after the loop with the exact
        same float operands, keeping outputs byte-identical to the frozen
        reference engine.  Routes come from the same resolver as
        :meth:`run_flat` (:meth:`_resolve_routes_flat` over ``sources`` /
        ``dests`` columns read off the messages), so the two entry points
        differ only in how they read their input.
        """
        messages = list(messages)
        validate_messages(messages)
        num_messages = len(messages)

        # Dense message indexing: message ids are arbitrary ints, positions
        # 0..n-1 follow input order (the same enumeration order the frozen
        # reference engine uses, which fixes FCFS tie-breaking).  Setup runs
        # through C-level iterators (attrgetter / map / chain) — per-message
        # Python bytecode here costs as much as the event loop itself on
        # 100k+ message workloads.  The adapters emit ids 0..n-1, so the
        # id -> position map collapses to identity on that common case.
        message_ids = list(map(_get_message_id, messages))
        identity_ids = message_ids == list(range(num_messages))
        index_of = (
            None if identity_ids else {mid: index for index, mid in enumerate(message_ids)}
        )
        sizes_arr = np.fromiter(map(_get_size, messages), dtype=np.float64, count=num_messages)
        dependency_sets = list(map(_get_depends_on, messages))
        missing_deps = list(map(len, dependency_sets))
        num_edges = sum(missing_deps)
        if identity_ids:
            dep_flat = np.fromiter(
                chain.from_iterable(dependency_sets), dtype=np.int64, count=num_edges
            )
        else:
            dep_flat = np.fromiter(
                (index_of[dep] for dep in chain.from_iterable(dependency_sets)),
                dtype=np.int64,
                count=num_edges,
            )
        ids = None if identity_ids else message_ids
        sources = np.fromiter(map(_get_source, messages), dtype=np.int64, count=num_messages)
        dests = np.fromiter(map(_get_dest, messages), dtype=np.int64, count=num_messages)
        routes = self._resolve_routes_flat(sources, dests, sizes_arr, ids)
        return self._execute(
            ids,
            sizes_arr,
            missing_deps,
            dep_flat,
            routes,
            collective_size,
        )

    def run_flat(
        self,
        sources: Sequence[int],
        dests: Sequence[int],
        sizes,
        dep_indptr: Sequence[int],
        dep_indices: Sequence[int],
        *,
        collective_size: float = 0.0,
    ) -> SimulationResult:
        """Simulate a flat columnar workload without :class:`Message` objects.

        The columnar twin of :meth:`run`: message ``i`` is described by
        ``sources[i] -> dests[i]`` with payload ``sizes`` (a scalar for the
        common uniform-chunk case, or a per-message array) and dependencies
        ``dep_indices[dep_indptr[i]:dep_indptr[i + 1]]`` given as message
        *positions*.  Positions double as message ids in the returned
        :class:`SimulationResult`.  Behaviour — FCFS tie-breaking, float
        operation order, outputs — is identical to feeding :meth:`run` the
        equivalent ``Message`` list; the adapters derive these columns
        directly from a :class:`~repro.core.transfers.TransferTable` or
        :class:`~repro.simulator.schedule.LogicalSchedule`, skipping object
        construction on the hot path.
        """
        sources = np.asarray(sources, dtype=np.int64)
        dests = np.asarray(dests, dtype=np.int64)
        dep_indptr = np.asarray(dep_indptr, dtype=np.int64)
        dep_flat = np.asarray(dep_indices, dtype=np.int64)
        num_messages = int(sources.shape[0])
        if np.isscalar(sizes):
            sizes_arr = np.full(num_messages, float(sizes))
        else:
            sizes_arr = np.asarray(sizes, dtype=np.float64)
        self._validate_flat(sources, dests, sizes_arr, dep_indptr, dep_flat)
        missing_deps = np.diff(dep_indptr).tolist()
        routes = self._resolve_routes_flat(sources, dests, sizes_arr)
        return self._execute(None, sizes_arr, missing_deps, dep_flat, routes, collective_size)

    def _validate_flat(
        self,
        sources: np.ndarray,
        dests: np.ndarray,
        sizes_arr: np.ndarray,
        dep_indptr: np.ndarray,
        dep_flat: np.ndarray,
    ) -> None:
        """Columnar mirror of :func:`~repro.simulator.messages.validate_messages`."""
        num_messages = int(sources.shape[0])
        if dests.shape[0] != num_messages or sizes_arr.shape[0] != num_messages:
            raise SimulationError("flat workload columns disagree in length")
        if dep_indptr.shape[0] != num_messages + 1 or (
            num_messages and int(dep_indptr[-1]) != dep_flat.shape[0]
        ):
            raise SimulationError("flat workload dependency CSR is malformed")
        degenerate = sources == dests
        if degenerate.any():
            index = int(np.flatnonzero(degenerate)[0])
            raise SimulationError(
                f"message {index} has identical source and dest {int(sources[index])}"
            )
        nonpositive = sizes_arr <= 0
        if nonpositive.any():
            index = int(np.flatnonzero(nonpositive)[0])
            raise SimulationError(
                f"message {index} has non-positive size {float(sizes_arr[index])}"
            )
        if dep_flat.size:
            if int(dep_flat.min()) < 0 or int(dep_flat.max()) >= num_messages:
                raise SimulationError("flat workload dependency references an unknown message")
            own = np.repeat(np.arange(num_messages, dtype=np.int64), np.diff(dep_indptr))
            selfdep = dep_flat == own
            if selfdep.any():
                index = int(own[np.flatnonzero(selfdep)[0]])
                raise SimulationError(f"message {index} depends on itself")

    def _execute(
        self,
        message_ids: Optional[List[int]],
        sizes_arr: np.ndarray,
        missing_deps: List[int],
        dep_flat: np.ndarray,
        routes: List[Tuple[int, ...]],
        collective_size: float,
    ) -> SimulationResult:
        """Shared execution over flat hop columns (see :meth:`run`).

        Contention-free workloads take :meth:`_execute_chained`; everything
        else, and any workload the pass declines, runs the event loop.
        ``message_ids`` is ``None`` when ids equal positions (the adapters'
        contract); ``dep_flat`` lists dependency positions consumer-major.
        """
        num_messages = sizes_arr.shape[0]
        arrays = self.topology.link_arrays()

        # Dependents CSR: edges stably sorted by dependency yield, per
        # dependency, its dependents in ascending position order — the same
        # lists the historical per-message append loop produced.
        num_edges = int(dep_flat.shape[0])
        consumer_of_edge = np.repeat(
            np.arange(num_messages, dtype=np.int64),
            np.asarray(missing_deps, dtype=np.int64),
        )
        if num_edges:
            edge_order = np.argsort(dep_flat, kind="stable")
            dependents_flat_arr = consumer_of_edge[edge_order]
            dependent_counts = np.bincount(dep_flat, minlength=num_messages)
            dependents_indptr_arr = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(dependent_counts))
            )
        else:
            dependents_flat_arr = np.empty(0, dtype=np.int64)
            dependents_indptr_arr = np.zeros(num_messages + 1, dtype=np.int64)

        # Flat per-hop columns, vectorized: position `pos` of message `index`
        # at hop `h` is offsets[index] + h; consecutive hops are consecutive
        # positions, so advancing a message is `pos + 1`.
        route_lengths = np.fromiter(map(len, routes), dtype=np.int64, count=num_messages)
        offsets_arr = np.zeros(num_messages + 1, dtype=np.int64)
        np.cumsum(route_lengths, out=offsets_arr[1:])
        num_hops = int(offsets_arr[-1])
        hop_links_arr = np.fromiter(
            chain.from_iterable(routes), dtype=np.int64, count=num_hops
        )
        betas_arr = np.asarray(arrays.betas, dtype=float)
        alphas_arr = np.asarray(arrays.alphas, dtype=float)
        hop_sizes_arr = np.repeat(sizes_arr, route_lengths)
        hop_serialization_arr = betas_arr[hop_links_arr] * hop_sizes_arr
        hop_latency_arr = alphas_arr[hop_links_arr] if num_hops else np.empty(0)

        chained = self._execute_chained(
            route_lengths,
            hop_links_arr,
            hop_serialization_arr,
            hop_latency_arr,
            missing_deps,
            dep_flat,
            consumer_of_edge,
            dependents_flat_arr,
            dependents_indptr_arr,
        )
        if chained is not None:
            completion, event_positions, event_starts, completed = chained
        else:
            completion, event_positions, event_starts, completed = self._execute_event_loop(
                num_messages,
                len(arrays.alphas),
                offsets_arr,
                hop_links_arr,
                hop_serialization_arr,
                hop_latency_arr,
                route_lengths,
                missing_deps,
                dependents_flat_arr,
                dependents_indptr_arr,
            )

        if completed != num_messages:
            ids = message_ids if message_ids is not None else range(num_messages)
            unfinished = sorted(
                message_id
                for index, message_id in enumerate(ids)
                if completion[index] is None
            )
            raise SimulationError(
                f"{len(unfinished)} messages never became ready (dependency cycle?): {unfinished[:10]}"
            )

        if message_ids is None:
            message_completion = dict(enumerate(completion))
        else:
            message_completion = dict(zip(message_ids, completion))
        completion_time = max(message_completion.values()) if message_completion else 0.0
        busy_columns, link_bytes = self._collect_link_stats(
            arrays,
            event_positions,
            event_starts,
            hop_links_arr,
            hop_serialization_arr,
            hop_sizes_arr,
        )
        return SimulationResult(
            completion_time=completion_time,
            message_completion=message_completion,
            busy_columns=busy_columns,
            link_bytes=link_bytes,
            num_links=self.topology.num_links,
            collective_size=collective_size,
        )

    def _execute_event_loop(
        self,
        num_messages: int,
        num_links: int,
        offsets_arr: np.ndarray,
        hop_links_arr: np.ndarray,
        hop_serialization_arr: np.ndarray,
        hop_latency_arr: np.ndarray,
        route_lengths: np.ndarray,
        missing_deps: List[int],
        dependents_flat_arr: np.ndarray,
        dependents_indptr_arr: np.ndarray,
    ):
        """The FCFS event loop over the flat hop columns.

        A message's final hop stores its link id bitwise-inverted (always
        negative), folding the is-last-hop test into the link read the loop
        does anyway.
        """
        last_positions = offsets_arr[1:] - 1
        signed_links_arr = hop_links_arr.copy()
        signed_links_arr[last_positions] = ~signed_links_arr[last_positions]
        message_of_hop_arr = np.repeat(np.arange(num_messages, dtype=np.int64), route_lengths)
        return self._execute_python(
            num_messages,
            num_links,
            signed_links_arr.tolist(),
            hop_serialization_arr.tolist(),
            hop_latency_arr.tolist(),
            message_of_hop_arr.tolist(),
            offsets_arr[:-1].tolist(),
            missing_deps,
            dependents_flat_arr.tolist(),
            dependents_indptr_arr.tolist(),
        )

    @staticmethod
    def _execute_chained(
        route_lengths: np.ndarray,
        hop_links: np.ndarray,
        hop_serialization: np.ndarray,
        hop_latency: np.ndarray,
        missing_deps: List[int],
        dep_flat: np.ndarray,
        consumer_of_edge: np.ndarray,
        dependents_flat: np.ndarray,
        dependents_indptr: np.ndarray,
    ):
        """Contention-free workloads as a level-synchronous longest-path pass.

        Applies when, checked here from the columns alone:

        * every route is exactly one hop;
        * every used link has ``alpha >= 0``;
        * on every link, each message after the first (in position order)
          depends on its predecessor on that link.

        Then a link is always free when its next message becomes ready: the
        predecessor's serialization ended no later than its arrival, which
        is no later than the successor's ready time.  The event loop's
        ``start`` therefore always equals the message's ready time, and the
        loop reduces to ``arrival = (ready + serialization) + latency`` with
        ``ready`` the maximum of the dependencies' arrivals (at least 0.0),
        evaluated one Kahn frontier at a time with the loop's float grouping.
        Positions are recorded level by level; a link's messages form a
        dependency chain, so they land in strictly increasing levels and the
        per-link order :meth:`_collect_link_stats` sees is the loop's.

        Returns the loop's ``(completion, event_positions, event_starts,
        completed)`` or ``None`` when a precondition fails or the frontier
        does not drain (a dependency cycle), in which case the caller runs
        the event loop, which raises the usual error.
        """
        num_messages = route_lengths.shape[0]
        if not num_messages or not (route_lengths == 1).all() or not (hop_latency >= 0.0).all():
            return None
        # One hop per message: hop columns are indexed by message position.
        order = np.argsort(hop_links, kind="stable")
        same_link = hop_links[order[1:]] == hop_links[order[:-1]]
        predecessor = np.full(num_messages, -1, dtype=np.int64)
        predecessor[order[1:][same_link]] = order[:-1][same_link]
        chained = predecessor < 0
        chained[consumer_of_edge[dep_flat == predecessor[consumer_of_edge]]] = True
        if not chained.all():
            return None

        remaining = np.array(missing_deps, dtype=np.int64)
        ready = np.zeros(num_messages)
        arrival = np.empty(num_messages)
        # mark[m] = index of m's last occurrence in the current candidate
        # list; dedupes the next frontier without a sort.
        mark = np.empty(num_messages, dtype=np.int64)
        levels = []
        frontier = np.flatnonzero(remaining == 0)
        while frontier.shape[0]:
            levels.append(frontier)
            arrival[frontier] = (ready[frontier] + hop_serialization[frontier]) + hop_latency[
                frontier
            ]
            lows = dependents_indptr[frontier]
            counts = dependents_indptr[frontier + 1] - lows
            ends = np.cumsum(counts)
            total = int(ends[-1])
            if not total:
                break
            dependents = dependents_flat[
                np.repeat(lows - ends + counts, counts) + np.arange(total)
            ]
            np.maximum.at(ready, dependents, np.repeat(arrival[frontier], counts))
            np.subtract.at(remaining, dependents, 1)
            due = dependents[remaining[dependents] == 0]
            slots = np.arange(due.shape[0])
            mark[due] = slots
            frontier = due[mark[due] == slots]
        positions = np.concatenate(levels) if levels else np.empty(0, dtype=np.int64)
        if positions.shape[0] != num_messages or np.isnan(arrival).any():
            return None
        return arrival.tolist(), positions, ready[positions], num_messages

    @staticmethod
    def _execute_python(
        num_messages: int,
        num_links: int,
        hop_links: List[int],
        hop_serialization: List[float],
        hop_latency: List[float],
        message_of_hop: List[int],
        first_pos: List[int],
        missing_deps: List[int],
        dependents_flat: List[int],
        dependents_indptr: List[int],
    ):
        """The pure-Python event loop.

        Scalar access is fastest on plain lists of Python floats/ints, so the
        caller materializes the hop columns with ``tolist()`` for this path.
        Returns ``(completion, event_positions, event_starts, completed)``.
        """
        ready_time = [0.0] * num_messages
        link_next_free = [0.0] * num_links
        completion: List[Optional[float]] = [None] * num_messages
        # Busy intervals accumulate as flat (pos, start) pairs; everything
        # else about an interval is a pure function of pos.
        event_positions: List[int] = []
        event_starts: List[float] = []
        record_pos = event_positions.append
        record_start = event_starts.append

        # Event heap entries are (time, seq, pos): seq preserves push order
        # among equal times (FCFS tie-breaking identical to the reference
        # engine) and keeps comparisons from ever reaching pos.
        events: List[Tuple[float, int, int]] = []
        push = heappush
        pop = heappop
        seq = 0

        for index in range(num_messages):
            if missing_deps[index] == 0:
                push(events, (0.0, seq, first_pos[index]))
                seq += 1

        completed = 0
        while events:
            time, _, pos = pop(events)
            while True:
                link_id = hop_links[pos]
                if link_id >= 0:
                    next_free = link_next_free[link_id]
                    start = next_free if next_free > time else time
                    serialization_end = start + hop_serialization[pos]
                    link_next_free[link_id] = serialization_end
                    record_pos(pos)
                    record_start(start)
                    arrival = serialization_end + hop_latency[pos]
                    pos += 1
                    # Skip-heap fast path: if the next hop is strictly
                    # earlier than everything queued, pushing it would pop
                    # it right back (a strictly smaller key never ties, so
                    # sequence numbers cannot reorder it).  Processing it
                    # inline elides the push/pop pair without changing the
                    # event order.
                    if events and events[0][0] <= arrival:
                        push(events, (arrival, seq, pos))
                        seq += 1
                        break
                    time = arrival
                    continue

                # Final hop (negative-encoded link): the message is delivered.
                link_id = ~link_id
                next_free = link_next_free[link_id]
                start = next_free if next_free > time else time
                serialization_end = start + hop_serialization[pos]
                link_next_free[link_id] = serialization_end
                record_pos(pos)
                record_start(start)
                arrival = serialization_end + hop_latency[pos]
                index = message_of_hop[pos]
                completion[index] = arrival
                completed += 1
                for dependent in dependents_flat[
                    dependents_indptr[index] : dependents_indptr[index + 1]
                ]:
                    if arrival > ready_time[dependent]:
                        ready_time[dependent] = arrival
                    remaining = missing_deps[dependent] - 1
                    missing_deps[dependent] = remaining
                    if remaining == 0:
                        push(events, (ready_time[dependent], seq, first_pos[dependent]))
                        seq += 1
                break

        return completion, event_positions, event_starts, completed

    @staticmethod
    def _collect_link_stats(
        arrays,
        event_positions: List[int],
        event_starts: List[float],
        hop_links_arr: np.ndarray,
        hop_serialization_arr: np.ndarray,
        hop_sizes_arr: np.ndarray,
    ):
        """Reconstruct per-link columnar intervals and byte counters.

        The loop recorded only ``(pos, start)``; the interval end is
        ``start + serialization[pos]`` with the identical float operands the
        loop used for ``link_next_free``, and the stable per-link grouping
        preserves chronological order, so byte counters accumulate in the
        same order (and therefore to the same floats) as the reference
        engine's sequential dict updates.
        """
        count = len(event_positions)
        if count == 0:
            return {}, {}
        # The event loop hands lists; the chained pass hands ready-made arrays.
        positions = np.asarray(event_positions, dtype=np.int64)
        starts = np.asarray(event_starts, dtype=float)
        ends = starts + hop_serialization_arr[positions]
        link_ids = hop_links_arr[positions]
        event_sizes = hop_sizes_arr[positions]
        order = np.argsort(link_ids, kind="stable")
        link_ids = link_ids[order]
        starts = starts[order]
        ends = ends[order]
        event_sizes = event_sizes[order]
        boundaries = np.flatnonzero(np.diff(link_ids)) + 1
        # ufunc.at is unbuffered and applies the adds in index order, which
        # after the stable sort is each link's chronological order — the same
        # left-to-right float accumulation as the reference engine's
        # sequential dict updates, and therefore the same values.
        byte_totals = np.zeros(len(arrays.alphas))
        np.add.at(byte_totals, link_ids, event_sizes)
        sources = arrays.sources
        dests = arrays.dests
        busy_columns = {}
        link_bytes = {}
        for group_links, group_starts, group_ends in zip(
            np.split(link_ids, boundaries),
            np.split(starts, boundaries),
            np.split(ends, boundaries),
        ):
            link_id = int(group_links[0])
            key = (sources[link_id], dests[link_id])
            busy_columns[key] = (group_starts, group_ends)
            link_bytes[key] = float(byte_totals[link_id])
        return busy_columns, link_bytes

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_links_pair(
        self, source: int, dest: int, weight_size: float, message_id
    ) -> Tuple[int, ...]:
        """Link-id route for one ``(source, dest, weight)`` triple.

        Resolved through the topology's cached shortest-path tree for
        ``(source, weight_size)``; cached per endpoint pair and size.
        Degenerate (empty) and unreachable routes raise
        :class:`~repro.errors.SimulationError` naming ``message_id`` without
        being stored, so a bad message cannot poison the cache for later
        messages sharing the same endpoint pair.
        """
        cache_key = (source, dest, weight_size)
        route = self._link_route_cache.get(cache_key)
        if route is None:
            if source == dest:
                raise SimulationError(
                    f"message {message_id} has a degenerate route [{source}]"
                )
            try:
                route = tuple(self.topology.shortest_path_links(source, dest, weight_size))
            except TopologyError as exc:
                raise SimulationError(
                    f"message {message_id} cannot be routed: no path from NPU {source} "
                    f"to NPU {dest} on {self.topology.name}"
                ) from exc
            if not route:
                raise SimulationError(
                    f"message {message_id} has a degenerate route {route}"
                )
            self._link_route_cache[cache_key] = route
        return route

    def _resolve_routes_flat(
        self,
        sources: np.ndarray,
        dests: np.ndarray,
        sizes_arr: np.ndarray,
        message_ids: Optional[List[int]] = None,
    ) -> List[Tuple[int, ...]]:
        """Per-message routes for a columnar workload, one Dijkstra per pair.

        The single route resolver behind :meth:`run` and :meth:`run_flat`.
        For the uniform-weight case (a routing-size override, or all payloads
        equal — every adapter-produced workload) the distinct ``(source,
        dest)`` pairs are found with one ``np.unique`` and each pair is
        resolved once; the per-message route list is then a C-speed gather.
        Errors name a message by ``message_ids[position]`` (by its position
        when ``message_ids`` is ``None``); an NPU outside the topology raises
        :class:`~repro.errors.TopologyError` before any route is resolved.
        """
        num_messages = int(sources.shape[0])
        if not num_messages:
            return []
        ids = message_ids if message_ids is not None else range(num_messages)
        stride = self.topology.num_npus
        outside = (sources < 0) | (sources >= stride) | (dests < 0) | (dests >= stride)
        if outside.any():
            # Checked before the pair encoding below, which would alias them.
            index = int(np.flatnonzero(outside)[0])
            raise TopologyError(
                f"message {ids[index]} ({int(sources[index])} -> {int(dests[index])}) "
                f"names an NPU outside {self.topology.name} with {stride} NPUs"
            )
        weight_override = self.routing_message_size
        uniform = weight_override is not None or bool((sizes_arr == sizes_arr[0]).all())
        if not uniform:
            return [
                self._route_links_pair(source, dest, size, message_id)
                for source, dest, size, message_id in zip(
                    sources.tolist(), dests.tolist(), sizes_arr.tolist(), ids
                )
            ]
        weight = float(weight_override if weight_override is not None else sizes_arr[0])
        codes = sources * stride + dests
        unique_codes, inverse = np.unique(codes, return_inverse=True)
        first_of_code = np.zeros(unique_codes.shape[0], dtype=np.int64)
        first_of_code[inverse[::-1]] = np.arange(num_messages - 1, -1, -1, dtype=np.int64)
        pair_routes = [
            self._route_links_pair(code // stride, code % stride, weight, ids[first])
            for code, first in zip(unique_codes.tolist(), first_of_code.tolist())
        ]
        return [pair_routes[group] for group in inverse.tolist()]

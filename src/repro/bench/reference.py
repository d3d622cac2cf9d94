"""Frozen pre-refactor cores: dict/set synthesis state, dict-keyed simulator.

This module preserves the original reference implementations — the matching
engine's per-NPU ``Dict[int, float]`` holdings, a ``Set[Tuple[int, int]]`` of
unsatisfied postconditions, and full per-round Python scans, plus the
congestion-aware simulator's dict-keyed link queues and per-destination
Dijkstra routing (:class:`ReferenceSimulator`) — exactly as they stood before
the array-backed refactors, so the benchmark subsystem can

* measure the refactors' speedups against the real former hot paths, and
* assert that fixed seeds produce byte-identical algorithms on both engines.

The deliberate deviations from the historical code are exactly the
determinism contract shared with :mod:`repro.core.matching` (anything that
feeds the RNG must be identical across engines, or fixed-seed outputs could
not be compared):

* the pending postconditions are enumerated in ``(dest, chunk)``
  lexicographic order (``sorted(set)``) instead of raw set-iteration order,
  so the permutation input is well-defined rather than an accident of hash
  layout, and
* the per-round permutation comes from the shared
  :func:`repro.core.matching.shuffle_pairs` helper, which consumes the trial
  RNG identically in both engines, and
* picking among link candidates consumes one ``_randbelow`` draw only when
  two or more links remain (a single candidate is returned without touching
  the RNG).

Do not "optimize" this module; its slowness is the point.
"""

# repro-lint: disable-file=C301,C302,C303 -- frozen pre-columnar reference engine: the row-object loops ARE the benchmark baseline, and the determinism contract above is what keeps it comparable

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.algorithm import ChunkTransfer
from repro.core.matching import shuffle_pairs
from repro.core.synthesizer import SynthesisEngine, register_engine
from repro.errors import SimulationError, SynthesisError, TopologyError
from repro.simulator.messages import Message, validate_messages
from repro.simulator.result import SimulationResult
from repro.topology.topology import Topology

__all__ = [
    "REFERENCE_ENGINE",
    "ReferenceMatchingState",
    "ReferenceSimulator",
    "ReferenceTimeExpandedNetwork",
    "reference_algorithm_to_messages",
    "reference_run_matching_round",
    "reference_schedule_to_messages",
    "reference_verify_algorithm",
]

#: Tolerance used when comparing floating-point times.
_TIME_EPS = 1e-12


class ReferenceTimeExpandedNetwork:
    """Pre-refactor TEN: per-link dicts, event heap with duplicate pushes."""

    def __init__(self, topology: Topology, chunk_size: float) -> None:
        if chunk_size <= 0:
            raise SynthesisError(f"chunk size must be positive, got {chunk_size}")
        self.topology = topology
        self.chunk_size = float(chunk_size)
        self._link_cost: Dict[Tuple[int, int], float] = {
            link.key: link.cost(chunk_size) for link in topology.links()
        }
        self._link_next_free: Dict[Tuple[int, int], float] = {
            key: 0.0 for key in self._link_cost
        }
        self._event_heap: List[float] = []

    def link_cost(self, key: Tuple[int, int]) -> float:
        return self._link_cost[key]

    def is_link_idle(self, key: Tuple[int, int], time: float) -> bool:
        return self._link_next_free[key] <= time + _TIME_EPS

    def idle_in_links(self, dest: int, time: float) -> List[Tuple[int, int]]:
        links = []
        for source in self.topology.in_neighbors(dest):
            key = (source, dest)
            if self.is_link_idle(key, time):
                links.append(key)
        return links

    def idle_out_links(self, source: int, time: float) -> List[Tuple[int, int]]:
        links = []
        for dest in self.topology.out_neighbors(source):
            key = (source, dest)
            if self.is_link_idle(key, time):
                links.append(key)
        return links

    def occupy(self, key: Tuple[int, int], time: float) -> float:
        if not self.is_link_idle(key, time):
            raise SynthesisError(
                f"link {key} is busy until {self._link_next_free[key]:.3e}s, "
                f"cannot occupy at {time:.3e}s"
            )
        end = time + self._link_cost[key]
        self._link_next_free[key] = end
        self.push_event(end)
        return end

    def push_event(self, time: float) -> None:
        heapq.heappush(self._event_heap, time)

    def next_event_after(self, time: float) -> Optional[float]:
        while self._event_heap:
            candidate = heapq.heappop(self._event_heap)
            if candidate > time + _TIME_EPS:
                return candidate
        return None


class ReferenceMatchingState:
    """Pre-refactor chunk-ownership state: dict holdings, set of postconditions."""

    def __init__(
        self,
        num_npus: int,
        precondition: Dict[int, frozenset],
        postcondition: Dict[int, frozenset],
    ) -> None:
        self.num_npus = num_npus
        self.holdings: List[Dict[int, float]] = [dict() for _ in range(num_npus)]
        for npu, chunks in precondition.items():
            for chunk in chunks:
                self.holdings[npu][chunk] = 0.0
        self.unsatisfied: Set[Tuple[int, int]] = set()
        for npu in range(num_npus):
            needed = postcondition.get(npu, frozenset()) - precondition.get(npu, frozenset())
            for chunk in needed:
                self.unsatisfied.add((npu, chunk))

    def holds(self, npu: int, chunk: int, time: float) -> bool:
        acquired = self.holdings[npu].get(chunk)
        return acquired is not None and acquired <= time + _TIME_EPS

    def acquisition_time(self, npu: int, chunk: int) -> Optional[float]:
        return self.holdings[npu].get(chunk)

    def will_hold(self, npu: int, chunk: int) -> bool:
        return chunk in self.holdings[npu]

    def grant(self, npu: int, chunk: int, time: float) -> None:
        existing = self.holdings[npu].get(chunk)
        if existing is None or time < existing:
            self.holdings[npu][chunk] = time
        self.unsatisfied.discard((npu, chunk))

    @property
    def done(self) -> bool:
        return not self.unsatisfied


def _cheaper_source_pending(
    ten: ReferenceTimeExpandedNetwork,
    state: ReferenceMatchingState,
    dest: int,
    chunk: int,
    candidates: Sequence[Tuple[int, int]],
    cheap_regions: Optional[Dict[float, List[frozenset]]],
) -> bool:
    """Whether ``chunk`` can still reach ``dest`` over strictly cheaper links only."""
    if cheap_regions is None:
        return False
    best_available = min(ten.link_cost(link) for link in candidates)
    region_by_dest = cheap_regions.get(best_available)
    if region_by_dest is None:
        return False
    for holder in region_by_dest[dest]:
        if state.acquisition_time(holder, chunk) is not None:
            return True
    return False


def _pick_link(
    candidates: Sequence[Tuple[int, int]],
    ten: ReferenceTimeExpandedNetwork,
    rng: random.Random,
    prefer_lowest_cost: bool,
) -> Tuple[int, int]:
    """Randomly select one candidate link, optionally restricted to the cheapest.

    Determinism contract (shared with the flat engine's ``_pick_link_id``):
    choosing among two or more links consumes exactly one ``_randbelow``
    draw; a single remaining link is returned without touching the RNG.
    """
    if prefer_lowest_cost and len(candidates) > 1:
        best = min(ten.link_cost(key) for key in candidates)
        cheapest = [key for key in candidates if ten.link_cost(key) <= best + _TIME_EPS]
        if len(cheapest) == 1:
            return cheapest[0]
        return rng.choice(cheapest)
    if len(candidates) == 1:
        return candidates[0]
    return rng.choice(list(candidates))


def reference_run_matching_round(
    ten: ReferenceTimeExpandedNetwork,
    state: ReferenceMatchingState,
    time: float,
    rng: random.Random,
    *,
    prefer_lowest_cost: bool = True,
    enable_forwarding: bool = True,
    hop_distances: Optional[List[List[int]]] = None,
    cheap_regions: Optional[Dict[float, List[frozenset]]] = None,
) -> List[ChunkTransfer]:
    """Pre-refactor Alg. 1 round: full scans over pairs, links, and NPUs."""
    transfers: List[ChunkTransfer] = []

    # Pass 1 — direct matches.  sorted() + shuffle_pairs() rather than the
    # historical list() + rng.shuffle(): see the module docstring's
    # determinism contract.
    pending = shuffle_pairs(sorted(state.unsatisfied), rng)
    deferred: List[Tuple[int, int]] = []
    for dest, chunk in pending:
        if (dest, chunk) not in state.unsatisfied:
            continue  # satisfied earlier in this round
        idle_links = ten.idle_in_links(dest, time)
        candidates = [
            (source, dest)
            for source, dest_ in idle_links
            if state.holds(source, chunk, time)
        ]
        if not candidates:
            deferred.append((dest, chunk))
            continue
        if prefer_lowest_cost and _cheaper_source_pending(
            ten, state, dest, chunk, candidates, cheap_regions
        ):
            continue
        link = _pick_link(candidates, ten, rng, prefer_lowest_cost)
        end = ten.occupy(link, time)
        state.grant(dest, chunk, end)
        transfers.append(
            ChunkTransfer(start=time, end=end, chunk=chunk, source=link[0], dest=link[1])
        )

    # Pass 2 — forwarding: push still-unserved chunks one hop closer.
    if enable_forwarding and deferred and hop_distances is not None:
        shuffle_pairs(deferred, rng)
        for dest, chunk in deferred:
            if (dest, chunk) not in state.unsatisfied:
                continue
            candidates = []
            for holder in range(state.num_npus):
                if not state.holds(holder, chunk, time):
                    continue
                for _, neighbour in ten.idle_out_links(holder, time):
                    if state.will_hold(neighbour, chunk):
                        continue
                    if hop_distances[neighbour][dest] < hop_distances[holder][dest]:
                        candidates.append((holder, neighbour))
            if not candidates:
                continue
            link = _pick_link(candidates, ten, rng, prefer_lowest_cost)
            end = ten.occupy(link, time)
            state.grant(link[1], chunk, end)
            transfers.append(
                ChunkTransfer(start=time, end=end, chunk=chunk, source=link[0], dest=link[1])
            )

    return transfers


#: The pre-refactor core packaged for :class:`repro.core.synthesizer.TacosSynthesizer`.
REFERENCE_ENGINE = register_engine(
    SynthesisEngine(
        name="reference",
        ten_factory=ReferenceTimeExpandedNetwork,
        state_factory=ReferenceMatchingState,
        matching_round=reference_run_matching_round,
    )
)


class ReferenceSimulator:
    """Frozen pre-refactor congestion-aware simulator: dict-keyed queues.

    This is the discrete-event engine exactly as it stood before the
    array-backed rewrite of :class:`repro.simulator.engine.CongestionAwareSimulator`:
    link queues keyed by ``(source, dest)`` tuples, dependency bookkeeping in
    dicts keyed by message id, and one early-exit Dijkstra run per
    ``(source, dest, size)`` routing query.

    Determinism contract (shared with the array engine — the simulator
    consumes no RNG, so the contract is purely structural):

    * messages are enumerated in input order, which fixes the sequence
      numbers that break FCFS ties at equal event times;
    * dependency fan-out follows each message's ``depends_on`` iteration
      order (both engines iterate the *same* frozenset objects);
    * routes come from strict-improvement Dijkstra with heap entries ordered
      by ``(distance, node)`` and neighbours relaxed in link insertion order,
      which the topology's cached shortest-path trees reproduce exactly;
    * per-hop arithmetic is ``start = max(ready, next_free)``,
      ``serialization_end = start + beta * size``,
      ``arrival = serialization_end + alpha`` — the same float operations in
      the same order as the array engine.

    Fixed message lists therefore produce byte-identical
    ``message_completion`` maps on both engines, which ``tacos-repro bench``
    asserts per scenario.  Do not "optimize" this class; its slowness is the
    point.
    """

    def __init__(self, topology: Topology, routing_message_size: Optional[float] = None) -> None:
        self.topology = topology
        self.routing_message_size = routing_message_size
        self._route_cache: Dict[Tuple[int, int, float], List[int]] = {}

    def run(self, messages: Sequence[Message], *, collective_size: float = 0.0) -> SimulationResult:
        """Simulate ``messages`` and return timing plus per-link statistics."""
        messages = list(messages)
        validate_messages(messages)
        by_id = {message.message_id: message for message in messages}

        dependents: Dict[int, List[int]] = {message.message_id: [] for message in messages}
        missing_deps: Dict[int, int] = {}
        ready_time: Dict[int, float] = {}
        for message in messages:
            missing_deps[message.message_id] = len(message.depends_on)
            ready_time[message.message_id] = 0.0
            for dep in message.depends_on:
                dependents[dep].append(message.message_id)

        routes = {message.message_id: self._route(message) for message in messages}

        link_next_free: Dict[Tuple[int, int], float] = {key: 0.0 for key in self.topology.link_keys()}
        link_busy_intervals: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        link_bytes: Dict[Tuple[int, int], float] = {}
        message_completion: Dict[int, float] = {}

        counter = itertools.count()
        # Event: (time, sequence, message_id, hop_index). A hop event means the
        # message is ready to *enter* the queue of its ``hop_index``-th link.
        events: List[Tuple[float, int, int, int]] = []

        def schedule_hop(message_id: int, hop_index: int, time: float) -> None:
            heapq.heappush(events, (time, next(counter), message_id, hop_index))

        for message in messages:
            if missing_deps[message.message_id] == 0:
                schedule_hop(message.message_id, 0, 0.0)

        completed = 0
        while events:
            time, _, message_id, hop_index = heapq.heappop(events)
            message = by_id[message_id]
            route = routes[message_id]
            link_key = (route[hop_index], route[hop_index + 1])
            link = self.topology.link(*link_key)

            start = max(time, link_next_free[link_key])
            serialization_end = start + link.beta * message.size
            arrival = serialization_end + link.alpha
            link_next_free[link_key] = serialization_end
            link_busy_intervals.setdefault(link_key, []).append((start, serialization_end))
            link_bytes[link_key] = link_bytes.get(link_key, 0.0) + message.size

            if hop_index + 1 < len(route) - 1:
                schedule_hop(message_id, hop_index + 1, arrival)
                continue

            # Final hop: the message is delivered.
            message_completion[message_id] = arrival
            completed += 1
            for dependent_id in dependents[message_id]:
                ready_time[dependent_id] = max(ready_time[dependent_id], arrival)
                missing_deps[dependent_id] -= 1
                if missing_deps[dependent_id] == 0:
                    schedule_hop(dependent_id, 0, ready_time[dependent_id])

        if completed != len(messages):
            unfinished = sorted(set(by_id) - set(message_completion))
            raise SimulationError(
                f"{len(unfinished)} messages never became ready (dependency cycle?): {unfinished[:10]}"
            )

        completion_time = max(message_completion.values()) if message_completion else 0.0
        return SimulationResult(
            completion_time=completion_time,
            message_completion=message_completion,
            link_busy_intervals=link_busy_intervals,
            link_bytes=link_bytes,
            num_links=self.topology.num_links,
            collective_size=collective_size,
        )

    def _route(self, message: Message) -> List[int]:
        """Shortest physical path for ``message`` via early-exit Dijkstra.

        The frozen pre-refactor routing: one Dijkstra run per cached
        ``(source, dest, weight_size)`` triple, as ``Topology.shortest_path``
        performed before shortest-path trees existed.
        """
        weight_size = self.routing_message_size if self.routing_message_size is not None else message.size
        cache_key = (message.source, message.dest, weight_size)
        route = self._route_cache.get(cache_key)
        if route is None:
            route = self._dijkstra_path(message.source, message.dest, weight_size)
            if len(route) < 2:
                raise SimulationError(
                    f"message {message.message_id} has a degenerate route {route}"
                )
            self._route_cache[cache_key] = route
        return route

    def _dijkstra_path(self, source: int, dest: int, message_size: float) -> List[int]:
        topology = self.topology
        if source == dest:
            return [source]
        num_npus = topology.num_npus
        distances = [math.inf] * num_npus
        previous: List[Optional[int]] = [None] * num_npus
        distances[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node == dest:
                break
            if dist > distances[node]:
                continue
            for nxt in topology.out_neighbors(node):
                candidate = dist + topology.link(node, nxt).cost(message_size)
                if candidate < distances[nxt]:
                    distances[nxt] = candidate
                    previous[nxt] = node
                    heapq.heappush(heap, (candidate, nxt))
        if math.isinf(distances[dest]):
            raise TopologyError(f"no path from {source} to {dest} in {topology.name}")
        path = [dest]
        while path[-1] != source:
            path.append(previous[path[-1]])
        path.reverse()
        return path


# ----------------------------------------------------------------------
# Frozen object-path adapters (pre-columnar-IR repro.simulator.adapters)
# ----------------------------------------------------------------------
def reference_algorithm_to_messages(algorithm) -> List[Message]:
    """Frozen pre-refactor adapter: per-transfer dict-of-list dependency scan.

    The historical ``repro.simulator.adapters.algorithm_to_messages`` exactly
    as it stood before the columnar CSR derivation: sort the ChunkTransfer
    objects, build ``(dest, chunk)`` provider dicts, and materialize one
    :class:`Message` (with a per-message ``frozenset``) per transfer.  Its
    output is the behavioural contract the flat adapter is benchmarked and
    equivalence-checked against.  Do not "optimize" this function; its
    object churn is the point.
    """
    transfers = sorted(algorithm.transfers, key=lambda item: (item.start, item.end))
    inbound: Dict[Tuple[int, int], List[Tuple[float, int]]] = {}
    for index, transfer in enumerate(transfers):
        inbound.setdefault((transfer.dest, transfer.chunk), []).append((transfer.end, index))

    # A static collective algorithm also prescribes the order in which each
    # physical link transmits its chunks; preserving that order as a
    # dependency keeps the simulated execution faithful to the algorithm.
    previous_on_link: Dict[Tuple[int, int], int] = {}
    link_predecessor: List[int] = []
    for index, transfer in enumerate(transfers):
        link_predecessor.append(previous_on_link.get(transfer.link, -1))
        previous_on_link[transfer.link] = index

    messages = []
    for index, transfer in enumerate(transfers):
        providers = inbound.get((transfer.source, transfer.chunk), [])
        depends_on = {
            provider_index
            for end, provider_index in providers
            if end <= transfer.start + _ADAPTER_TIME_EPS
        }
        if link_predecessor[index] >= 0:
            depends_on.add(link_predecessor[index])
        messages.append(
            Message(
                message_id=index,
                source=transfer.source,
                dest=transfer.dest,
                size=algorithm.chunk_size,
                chunk=transfer.chunk,
                depends_on=frozenset(depends_on),
            )
        )
    return messages


def reference_schedule_to_messages(schedule) -> List[Message]:
    """Frozen pre-refactor adapter for logical schedules (per-send dict scans)."""
    schedule.validate()
    sends = [
        send
        for _, step_sends in schedule.steps()
        for send in sorted(step_sends, key=lambda send: (send.source, send.dest, send.chunk))
    ]
    inbound: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for index, send in enumerate(sends):
        inbound.setdefault((send.dest, send.chunk), []).append((send.step, index))

    messages = []
    for index, send in enumerate(sends):
        providers = inbound.get((send.source, send.chunk), [])
        depends_on = frozenset(
            provider_index for step, provider_index in providers if step < send.step
        )
        messages.append(
            Message(
                message_id=index,
                source=send.source,
                dest=send.dest,
                size=schedule.chunk_size,
                chunk=send.chunk,
                depends_on=depends_on,
            )
        )
    return messages


# ----------------------------------------------------------------------
# Frozen object-path verification (pre-columnar-IR repro.core.verification)
# ----------------------------------------------------------------------
#: Tolerance of the frozen verification checks (matches core.verification).
_VERIFY_TIME_EPS = 1e-9

#: Tolerance of the frozen adapters (matches simulator.adapters).
_ADAPTER_TIME_EPS = 1e-9


def reference_verify_algorithm(
    algorithm,
    topology: Topology,
    pattern,
    *,
    check_link_timing: bool = True,
) -> bool:
    """Frozen pre-refactor verifier: per-transfer Python scans over tuple lists.

    The historical ``repro.core.verification.verify_algorithm`` exactly as it
    stood before the vectorized column sweeps — dict-of-list link occupancy,
    a sequential ``arrival`` dict for causality, per-chunk BFS for reduction
    coverage.  Verdicts (success, or the :class:`VerificationError` raised)
    are the contract the columnar verifier is benchmarked and
    equivalence-checked against.  Do not "optimize" this function; its
    object churn is the point.
    """
    from repro.collectives.all_reduce import AllReduce

    _ref_check_links(algorithm, topology, check_link_timing)
    _ref_check_no_link_overlap(algorithm)

    if isinstance(pattern, AllReduce):
        _ref_verify_all_reduce(algorithm, pattern)
    elif pattern.requires_reduction:
        _ref_verify_reduction(algorithm, pattern)
    else:
        _ref_verify_non_reducing(algorithm, pattern)
    return True


def _ref_link_occupancy(transfers) -> Dict[Tuple[int, int], List]:
    occupancy: Dict[Tuple[int, int], List] = {}
    for transfer in transfers:
        occupancy.setdefault(transfer.link, []).append(transfer)
    for entries in occupancy.values():
        entries.sort(key=lambda transfer: transfer.start)
    return occupancy


def _ref_check_links(algorithm, topology: Topology, check_link_timing: bool) -> None:
    from repro.errors import VerificationError

    for transfer in algorithm.transfers:
        if not topology.has_link(transfer.source, transfer.dest):
            raise VerificationError(
                f"transfer {transfer} uses a nonexistent link on {topology.name}"
            )
        if check_link_timing:
            expected = topology.link(transfer.source, transfer.dest).cost(algorithm.chunk_size)
            if abs(transfer.duration - expected) > max(_VERIFY_TIME_EPS, expected * 1e-6):
                raise VerificationError(
                    f"transfer {transfer} takes {transfer.duration:.3e}s but the link cost is {expected:.3e}s"
                )


def _ref_check_no_link_overlap(algorithm) -> None:
    from repro.errors import VerificationError

    for link, entries in _ref_link_occupancy(algorithm.transfers).items():
        for earlier, later in zip(entries, entries[1:]):
            if later.start < earlier.end - _VERIFY_TIME_EPS:
                raise VerificationError(
                    f"link {link} carries two chunks at overlapping times: {earlier} and {later}"
                )


def _ref_verify_non_reducing(algorithm, pattern) -> None:
    precondition = pattern.precondition()
    _ref_check_forward_causality(algorithm.transfers, precondition)
    _ref_check_postcondition(algorithm, pattern)


def _ref_check_forward_causality(transfers, precondition) -> None:
    from repro.errors import VerificationError

    arrival: Dict[Tuple[int, int], float] = {}
    for npu, chunks in precondition.items():
        for chunk in chunks:
            arrival[(npu, chunk)] = 0.0
    for transfer in sorted(transfers, key=lambda item: (item.start, item.end)):
        key = (transfer.source, transfer.chunk)
        if key not in arrival or arrival[key] > transfer.start + _VERIFY_TIME_EPS:
            raise VerificationError(
                f"forward causality violated: {transfer.source} sends chunk {transfer.chunk} "
                f"at {transfer.start:.3e}s before holding it"
            )
        dest_key = (transfer.dest, transfer.chunk)
        arrival[dest_key] = min(arrival.get(dest_key, float("inf")), transfer.end)


def _ref_check_postcondition(algorithm, pattern) -> None:
    from repro.errors import VerificationError

    holdings = {npu: set(chunks) for npu, chunks in pattern.precondition().items()}
    for npu in range(algorithm.num_npus):
        holdings.setdefault(npu, set())
    for transfer in sorted(algorithm.transfers, key=lambda item: item.end):
        holdings[transfer.dest].add(transfer.chunk)
    for npu, required in pattern.postcondition().items():
        missing = set(required) - holdings.get(npu, set())
        if missing:
            raise VerificationError(
                f"NPU {npu} is missing chunks {sorted(missing)} at the end of {algorithm.pattern_name}"
            )


def _ref_verify_reduction(algorithm, pattern) -> None:
    _ref_check_reduction_causality(algorithm.transfers)
    _ref_check_reduction_coverage(algorithm, pattern)


def _ref_check_reduction_causality(transfers) -> None:
    from repro.errors import VerificationError

    inbound: Dict[Tuple[int, int], List] = {}
    for transfer in transfers:
        inbound.setdefault((transfer.dest, transfer.chunk), []).append(transfer)
    for transfer in transfers:
        for incoming in inbound.get((transfer.source, transfer.chunk), []):
            if incoming.end > transfer.start + _VERIFY_TIME_EPS:
                raise VerificationError(
                    f"reduction causality violated: {transfer.source} forwards chunk {transfer.chunk} "
                    f"at {transfer.start:.3e}s before the partial from {incoming.source} arrives "
                    f"at {incoming.end:.3e}s"
                )


def _ref_check_reduction_coverage(algorithm, pattern) -> None:
    from repro.errors import VerificationError

    postcondition = pattern.postcondition()
    owners: Dict[int, Set[int]] = {}
    for npu, chunks in postcondition.items():
        for chunk in chunks:
            owners.setdefault(chunk, set()).add(npu)

    by_chunk: Dict[int, List] = {}
    for transfer in algorithm.transfers:
        by_chunk.setdefault(transfer.chunk, []).append(transfer)

    for chunk, chunk_owners in owners.items():
        if len(chunk_owners) != 1:
            raise VerificationError(
                f"reduction chunk {chunk} has {len(chunk_owners)} final owners; expected exactly one"
            )
        owner = next(iter(chunk_owners))
        transfers = by_chunk.get(chunk, [])

        sends_per_npu: Dict[int, int] = {}
        for transfer in transfers:
            sends_per_npu[transfer.source] = sends_per_npu.get(transfer.source, 0) + 1
        for npu in range(pattern.num_npus):
            expected = 0 if npu == owner else 1
            actual = sends_per_npu.get(npu, 0)
            if actual != expected:
                raise VerificationError(
                    f"NPU {npu} sends its partial of chunk {chunk} {actual} times; expected {expected}"
                )

        # Walk the contribution tree backwards from the owner.
        reached = {owner}
        frontier = [owner]
        inbound: Dict[int, List] = {}
        for transfer in transfers:
            inbound.setdefault(transfer.dest, []).append(transfer)
        while frontier:
            node = frontier.pop()
            for transfer in inbound.get(node, []):
                if transfer.source not in reached:
                    reached.add(transfer.source)
                    frontier.append(transfer.source)
        missing = set(range(pattern.num_npus)) - reached
        if missing:
            raise VerificationError(
                f"partials of chunk {chunk} from NPUs {sorted(missing)} never reach owner {owner}"
            )


def _ref_verify_all_reduce(algorithm, pattern) -> None:
    from repro.core.algorithm import CollectiveAlgorithm
    from repro.errors import VerificationError

    boundary = algorithm.metadata.get("phase_boundary")
    if boundary is None:
        raise VerificationError(
            "All-Reduce algorithm lacks the phase_boundary metadata required for verification"
        )
    reduce_scatter_transfers = [
        transfer for transfer in algorithm.transfers if transfer.end <= boundary + _VERIFY_TIME_EPS
    ]
    all_gather_transfers = [
        transfer for transfer in algorithm.transfers if transfer.end > boundary + _VERIFY_TIME_EPS
    ]

    reduce_scatter = CollectiveAlgorithm(
        transfers=reduce_scatter_transfers,
        num_npus=algorithm.num_npus,
        chunk_size=algorithm.chunk_size,
        collective_size=algorithm.collective_size,
        pattern_name="ReduceScatter",
        topology_name=algorithm.topology_name,
    )
    _ref_verify_reduction(reduce_scatter, pattern.reduce_scatter_phase())

    shifted_back = [
        ChunkTransfer(
            start=transfer.start - boundary,
            end=transfer.end - boundary,
            chunk=transfer.chunk,
            source=transfer.source,
            dest=transfer.dest,
        )
        for transfer in all_gather_transfers
    ]
    all_gather = CollectiveAlgorithm(
        transfers=shifted_back,
        num_npus=algorithm.num_npus,
        chunk_size=algorithm.chunk_size,
        collective_size=algorithm.collective_size,
        pattern_name="AllGather",
        topology_name=algorithm.topology_name,
    )
    _ref_verify_non_reducing(all_gather, pattern.all_gather_phase())

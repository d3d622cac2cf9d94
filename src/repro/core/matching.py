"""Network Utilization Maximizing Matching (Alg. 1 of the paper).

Given the TEN state at one time span ``t``, the matching algorithm iterates
over the *unsatisfied postconditions* — (destination NPU, chunk) pairs the
destination still needs — in random order.  For each pair it backtracks the
destination's idle incoming links, collects the candidate source NPUs that
already hold the chunk, and randomly picks one (preferring the lowest-cost
link on heterogeneous networks).  Each matched link is occupied for the whole
span, so at most one chunk rides a link at a time and congestion never forms.

An optional *forwarding* pass extends Alg. 1 for rooted and personalized
collectives (Gather / Scatter / All-to-All): when a requested chunk is not yet
adjacent to its destination, it is pushed one hop closer along an idle link.
The links that step closer are a static property of the topology, so the pass
scans a per-destination downhill-link table
(:meth:`~repro.topology.topology.Topology.downhill_links`).

The implementation is array-backed: chunk ownership lives in a flat
``num_npus x num_chunks`` acquisition-time array (``math.inf`` = never held),
per-chunk holder lists stay sorted, and each (dest, chunk) postcondition is a
single int code ``dest * num_chunks + chunk`` carrying a one-byte pair state:

* ``_SATISFIED`` — granted (or never needed);
* ``_NEEDED`` — open, but **no** in-neighbour of ``dest`` holds the chunk
  yet, so the pair provably has no candidate this span and is skipped with
  one byte probe;
* ``_MATCHABLE`` — open with at least one adjacent holder; only these pairs
  pay for candidate collection.

Pair states are promoted incrementally: every acquisition is pushed onto a
time-ordered activation heap, and at the start of each span the acquisitions
that have come due promote the pairs of their out-neighbours (large batches
in one numpy pass over the TEN's out-neighbour CSR; promotion is idempotent
and order-free, so the bytes match the scalar loop).  Combined with
per-NPU idle-link caching and an idle-link budget that stops the scan once
the span is saturated, a matching round touches each hopeless pair O(1)
times instead of re-deriving its empty candidate set.

Determinism contract
--------------------
The candidate enumeration order is part of the algorithm's observable
behaviour (it feeds the shuffles and ``rng.choice``), so it is fixed
explicitly rather than inherited from hash order:

* pending pairs are enumerated in ``(dest, chunk)`` lexicographic order
  before the shuffle (int codes sort exactly like the tuples);
* the per-round random permutation comes from :func:`shuffle_pairs`, which
  consumes the trial RNG identically regardless of the engine;
* candidate links follow the topology's neighbour insertion order;
* forwarding candidates enumerate holders in ascending NPU order.

The reference (pre-refactor dict/set) engine in
:mod:`repro.bench.reference` follows the same contract, which is what makes
fixed-seed outputs byte-identical across the two engines.
"""

from __future__ import annotations

import random
from bisect import insort
from heapq import heappop, heappush
from math import inf
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.algorithm import ChunkTransfer
from repro.ten.network import TimeExpandedNetwork

__all__ = ["MatchingState", "TrialBound", "run_matching_round", "shuffle_pairs"]

#: Tolerance used when comparing floating-point times.
_TIME_EPS = 1e-12

#: Below this round size the stdlib Fisher-Yates shuffle wins; above it the
#: C-speed numpy permutation does.  Part of the determinism contract: both
#: engines branch on the same constant, so they stay in RNG lockstep.
_NUMPY_SHUFFLE_MIN = 128


def _permuter(rng: random.Random):
    """The per-trial numpy generator backing large-round permutations.

    Seeded lazily with a single ``rng.getrandbits(64)`` draw the first time a
    trial encounters a large round, so both engines consume the trial RNG
    identically.
    """
    generator = getattr(rng, "_pair_permuter", None)
    if generator is None:
        generator = _np.random.default_rng(rng.getrandbits(64))
        rng._pair_permuter = generator
    return generator


def shuffle_pairs(pending: List, rng: random.Random) -> List:
    """Uniformly permute ``pending`` in place; return it.

    This is the determinism-contract permutation shared by the flat and the
    reference engines.  Small rounds use ``rng.shuffle``.  Large rounds (at
    least :data:`_NUMPY_SHUFFLE_MIN` pairs) are permuted by a numpy
    generator seeded once per trial RNG with a single ``rng.getrandbits(64)``
    draw — a C-speed permutation instead of ``len(pending)`` Python-level
    ``_randbelow`` calls, which otherwise dominates both engines equally.
    """
    if len(pending) < _NUMPY_SHUFFLE_MIN:
        rng.shuffle(pending)
        return pending
    permutation = _permuter(rng).permutation(len(pending))
    if type(pending[0]) is int:  # flat engine: C-speed gather over int codes
        codes = _np.fromiter(pending, dtype=_np.intp, count=len(pending))
        pending[:] = codes[permutation].tolist()
    else:  # reference engine: tuple pairs
        pending[:] = [pending[index] for index in permutation.tolist()]
    return pending

#: Fewest due acquisitions :meth:`MatchingState.activate_until` promotes in
#: one numpy pass; smaller batches take the scalar loop.  Purely a
#: performance knob: both paths leave identical pair states.
_BATCH_ACTIVATION_MIN = 32

#: Pair states (values of ``MatchingState._pair_state``).
_SATISFIED = 0
_NEEDED = 1
_MATCHABLE = 2


class MatchingState:
    """Mutable chunk-ownership state shared across matching rounds.

    The constructor signature is unchanged from the dict-based
    implementation: ``(num_npus, precondition, postcondition)`` with
    ownership maps from NPU index to a frozenset of chunk ids.
    """

    def __init__(
        self,
        num_npus: int,
        precondition: Dict[int, frozenset],
        postcondition: Dict[int, frozenset],
    ) -> None:
        self.num_npus = num_npus
        max_chunk = -1
        for chunks in precondition.values():
            for chunk in chunks:
                if chunk > max_chunk:
                    max_chunk = chunk
        for chunks in postcondition.values():
            for chunk in chunks:
                if chunk > max_chunk:
                    max_chunk = chunk
        #: Total number of distinct chunk ids (chunks are ``0 .. num_chunks - 1``).
        self.num_chunks = max_chunk + 1

        size = num_npus * self.num_chunks
        #: acquisition[npu * num_chunks + chunk] = time the chunk was (or will
        #: be) acquired; ``inf`` = never held nor scheduled.
        self._acquisition: List[float] = [inf] * size
        #: Per chunk, the NPUs holding or scheduled to receive it (ascending).
        self._holders: List[List[int]] = [[] for _ in range(self.num_chunks)]
        #: Acquisitions not yet applied to pair states: (time, npu, chunk).
        self._activations: List[Tuple[float, int, int]] = []
        #: One byte per (npu, chunk) pair mirroring ``acquisition != inf``
        #: (held or scheduled, i.e. ``npu in holders[chunk]``).  Backs the
        #: matching round's vectorized cheap-link deferral.
        self._will_hold = bytearray(size)
        num_chunks = self.num_chunks
        for npu in sorted(precondition):
            for chunk in sorted(precondition[npu]):
                if self._acquisition[npu * num_chunks + chunk] == inf:
                    self._holders[chunk].append(npu)
                    self._will_hold[npu * num_chunks + chunk] = 1
                    self._activations.append((0.0, npu, chunk))
                self._acquisition[npu * num_chunks + chunk] = 0.0
        self._activations.sort()

        #: One byte per (npu, chunk) pair: _SATISFIED / _NEEDED / _MATCHABLE.
        self._pair_state = bytearray(size)
        #: Unsatisfied pair codes in ascending (lexicographic) order, as
        #: they stood before the first grant.
        self._pair_codes: List[int] = []
        for npu in range(num_npus):
            needed = postcondition.get(npu, frozenset()) - precondition.get(npu, frozenset())
            for chunk in sorted(needed):
                code = npu * num_chunks + chunk
                self._pair_state[code] = _NEEDED
                self._pair_codes.append(code)
        self._unsatisfied_count = len(self._pair_codes)
        #: numpy mirror of ``_pair_codes``, lazily compacted by
        #: :meth:`_pending_array` as pairs are granted.
        self._codes_array = _np.array(self._pair_codes, dtype=_np.intp)
        #: numpy mirror of "acquisition has come due": ``_held[code]`` flips
        #: to True exactly when the pair's activation is popped in
        #: :meth:`activate_until`, i.e. when ``acquisition[code] <= time +
        #: eps`` for the round being activated.  Backs the matching round's
        #: vectorized candidate prefilter.
        self._held = _np.zeros(size, dtype=bool)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def holds(self, npu: int, chunk: int, time: float) -> bool:
        """Whether ``npu`` holds ``chunk`` no later than ``time``."""
        return self._acquisition[npu * self.num_chunks + chunk] <= time + _TIME_EPS

    def acquisition_time(self, npu: int, chunk: int) -> Optional[float]:
        """Time at which ``npu`` holds (or is scheduled to receive) ``chunk``, if any."""
        acquired = self._acquisition[npu * self.num_chunks + chunk]
        return None if acquired == inf else acquired

    def will_hold(self, npu: int, chunk: int) -> bool:
        """Whether ``npu`` holds or is already scheduled to receive ``chunk``."""
        return self._acquisition[npu * self.num_chunks + chunk] != inf

    def is_needed(self, npu: int, chunk: int) -> bool:
        """Whether the postcondition (npu, chunk) is still unsatisfied."""
        return self._pair_state[npu * self.num_chunks + chunk] != _SATISFIED

    def holders(self, chunk: int) -> Sequence[int]:
        """NPUs holding or scheduled to receive ``chunk``, ascending (read-only)."""
        return self._holders[chunk]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def grant(self, npu: int, chunk: int, time: float) -> None:
        """Record that ``npu`` acquires ``chunk`` at ``time``."""
        index = npu * self.num_chunks + chunk
        existing = self._acquisition[index]
        if time < existing:
            if existing == inf:
                insort(self._holders[chunk], npu)
                self._will_hold[index] = 1
            self._acquisition[index] = time
            heappush(self._activations, (time, npu, chunk))
        if self._pair_state[index]:
            self._pair_state[index] = _SATISFIED
            self._unsatisfied_count -= 1

    def activate_until(
        self,
        time: float,
        out_adjacency: List[List[int]],
        out_csr: Optional[Callable[[], Tuple]] = None,
    ) -> None:
        """Promote pairs whose adjacent holder's acquisition has come due.

        Pops every acquisition scheduled at or before ``time`` and marks the
        still-needed (out-neighbour, chunk) pairs of the new holder as
        matchable.  Called at the start of each matching round; promotions
        are permanent because chunks are never un-acquired.

        ``out_csr`` lazily supplies the ``(out_flat, out_indptr)`` CSR of
        ``out_adjacency`` (see :meth:`~repro.ten.network.TimeExpandedNetwork.
        out_neighbour_csr`).  With it, batches of at least
        :data:`_BATCH_ACTIVATION_MIN` due acquisitions are promoted in one
        numpy pass; the result is identical to the scalar loop because
        promotion ``_NEEDED -> _MATCHABLE`` is idempotent and reads no state
        it writes, so it does not depend on the order of the activations.
        """
        activations = self._activations
        threshold = time + _TIME_EPS
        if not activations or activations[0][0] > threshold:
            return
        due = []
        while activations and activations[0][0] <= threshold:
            due.append(heappop(activations))
        num_chunks = self.num_chunks
        held = self._held
        if out_csr is not None and len(due) >= _BATCH_ACTIVATION_MIN:
            _, npus, chunks = zip(*due)
            npus = _np.array(npus, dtype=_np.intp)
            chunks = _np.array(chunks, dtype=_np.intp)
            held[npus * num_chunks + chunks] = True
            out_flat, out_indptr = out_csr()
            starts = out_indptr[npus]
            degrees = out_indptr[npus + 1] - starts
            ends = _np.cumsum(degrees)
            gather = _np.repeat(starts - ends + degrees, degrees) + _np.arange(int(ends[-1]))
            codes = out_flat[gather] * num_chunks + _np.repeat(chunks, degrees)
            states = _np.frombuffer(self._pair_state, dtype=_np.uint8)
            states[codes[states[codes] == _NEEDED]] = _MATCHABLE
            return
        pair_state = self._pair_state
        for _, npu, chunk in due:
            held[npu * num_chunks + chunk] = True
            for neighbour in out_adjacency[npu]:
                code = neighbour * num_chunks + chunk
                if pair_state[code] == _NEEDED:
                    pair_state[code] = _MATCHABLE

    def pending_pairs(self) -> List[Tuple[int, int]]:
        """The unsatisfied (dest, chunk) pairs in lexicographic order."""
        num_chunks = self.num_chunks
        return [divmod(code, num_chunks) for code in self._pending_codes()]

    def _pending_array(self):
        """Unsatisfied pair codes as a compacted ascending numpy array."""
        array = self._codes_array
        if len(array) != self._unsatisfied_count:
            states = _np.frombuffer(self._pair_state, dtype=_np.uint8)
            array = array[states[array] != _SATISFIED]
            self._codes_array = array
        return array

    def _pending_codes(self) -> List[int]:
        """Unsatisfied pair codes, ascending; compacts the internal store."""
        return self._pending_array().tolist()

    # ------------------------------------------------------------------
    # Compatibility views
    # ------------------------------------------------------------------
    @property
    def unsatisfied(self) -> Set[Tuple[int, int]]:
        """The remaining (dest, chunk) postconditions as a set (materialized view)."""
        num_chunks = self.num_chunks
        pair_state = self._pair_state
        return {
            divmod(code, num_chunks) for code in self._pair_codes if pair_state[code]
        }

    @property
    def holdings(self) -> List[Dict[int, float]]:
        """Per-NPU ``{chunk: acquisition_time}`` snapshot (compatibility view)."""
        acquisition = self._acquisition
        num_chunks = self.num_chunks
        return [
            {
                chunk: acquisition[npu * num_chunks + chunk]
                for chunk in range(num_chunks)
                if acquisition[npu * num_chunks + chunk] != inf
            }
            for npu in range(self.num_npus)
        ]

    @property
    def done(self) -> bool:
        """Whether every postcondition has been satisfied or scheduled."""
        return self._unsatisfied_count == 0


class TrialBound:
    """Lower-bound evaluator on a trial's final ``collective_time``.

    Backs incumbent pruning (:class:`~repro.core.config.SynthesisConfig.
    incumbent_pruning`): between matching rounds the synthesizer asks for a
    bound on the best final time the trial can still reach, and aborts the
    trial when the bound strictly exceeds the best completed trial.  Any
    *valid* lower bound keeps that optimization exact (see
    docs/determinism.md, "Incumbent pruning is exact"); this one combines
    three cheap components, each valid on its own:

    1. **Committed work.** The final collective time is at least the end of
       the latest transfer committed so far (the caller tracks this running
       maximum and passes it in; it is monotone non-decreasing across rounds
       because link free-times only ever increase).

    2. **Per-destination in-link capacity.** Every still-unsatisfied
       (dest, chunk) pair needs one more transfer *into* ``dest`` that is not
       committed yet, and future rounds start strictly after the current
       span.  A destination owing ``u`` chunks over ``deg`` incoming links
       must route ``ceil(u / deg)`` of them over one link, sequentially, each
       occupying it for at least the destination's cheapest in-link cost —
       so the trial cannot finish before ``time + ceil(u / deg) * min_cost``
       for any destination.  On bandwidth-bound patterns (All-Gather on
       meshes) this term is tight from round one, which is what lets losing
       trials die early rather than at their own finish line.

    3. **Hop-distance chains and work conservation** (forwarding patterns).
       For a chunk with a *single* unsatisfied destination (personalized
       patterns: All-to-All, Gather, Scatter), any delivery chain leaves the
       committed schedule at some holder ``m`` and still needs
       ``hop_distances[m][dest]`` distinct uncommitted hops, each occupying
       a link for at least the global minimum cost and each starting after
       its predecessor — so the trial cannot finish before ``time +
       min_dist * min_cost`` for *every* such chunk (the straggler chain
       that dominates losing Gather/All-to-All trials, where the capacity
       term goes blind because only a handful of chunks remain owed).
       Summing the same per-chunk transfer counts instead and spreading
       them over the network's ``num_links`` links gives the complementary
       work-conservation form ``time + total_transfers * min_cost /
       num_links`` (chunks owing several destinations contribute one
       transfer per owed destination — each delivery lands the chunk on a
       distinct new node).  The per-chunk distances shrink only when a
       commit creates a closer holder, which :meth:`update` applies from
       each round's transfers.

    4. **Per-source out-link capacity.**  A still-owed chunk held by a
       *single* NPU must make its first uncommitted hop out of that NPU
       (every delivery chain starts at a committed holder).  A source still
       holding ``n`` such undeparted chunks over ``deg_out`` outgoing links
       must push ``ceil(n / deg_out)`` of them over one link sequentially —
       the mirror image of component 2, and the term that sees a Scatter
       root (or the scatter half of All-to-All) falling behind on draining
       long before the per-destination terms notice.  :meth:`update` marks
       a chunk departed on its first committed transfer.

    The capacity and distance components are maintained incrementally over
    the flat engine's state: :meth:`update` folds each round's transfers into
    per-destination owed counts, per-source undeparted counts, the integer
    sum of the per-pair distances and a histogram of them, so :meth:`value`
    costs O(1) per round.  Every term is an exact integer count times a
    per-NPU cost, so the floats equal a from-scratch numpy evaluation bit for
    bit (see docs/determinism.md).  For engines with other state layouts
    (the frozen reference engine) the bound degrades to the committed-work
    component alone — still exact, just later pruning.  Evaluation never
    consumes RNG and never mutates the TEN or the state.
    """

    __slots__ = (
        "_state",
        "_num_chunks",
        "_pending",
        "_owed_pair",
        "_owed_at",
        "_in_degrees",
        "_min_in_cost",
        "_in_terms",
        "_in_remaining",
        "_hop_rows",
        "_chunk_dest",
        "_chunk_dist",
        "_dist_sum",
        "_dist_hist",
        "_dist_top",
        "_min_cost",
        "_per_link_cost",
        "_origin",
        "_departed",
        "_undeparted_at",
        "_out_degrees",
        "_min_out_cost",
        "_out_terms",
        "_out_remaining",
    )

    def __init__(
        self,
        ten: TimeExpandedNetwork,
        state: "MatchingState",
        hop_distances: Optional[List[List[int]]] = None,
    ) -> None:
        self._state: Optional[MatchingState] = None
        self._hop_rows: Optional[List[List[int]]] = None
        self._chunk_dest: Optional[List[int]] = None
        self._chunk_dist: Optional[List[int]] = None
        self._dist_hist: Optional[List[int]] = None
        if not isinstance(state, MatchingState):
            return
        csr_getter = getattr(ten, "in_link_csr", None)
        if csr_getter is None:
            return
        in_flat, in_indptr, _sources = csr_getter()
        num_npus = state.num_npus
        num_chunks = state.num_chunks
        degrees = _np.diff(in_indptr)
        costs = _np.asarray(ten.link_costs, dtype=_np.float64)
        gathered = costs[in_flat]
        min_in_cost = _np.zeros(num_npus, dtype=_np.float64)
        if gathered.size:
            empty = degrees == 0
            starts = in_indptr[:-1].copy()
            starts[empty] = 0  # any in-range index; masked out below
            min_in_cost = _np.minimum.reduceat(gathered, starts)
            min_in_cost[empty] = 0.0
        self._state = state
        self._num_chunks = num_chunks
        self._min_cost = ten.min_link_cost
        self._per_link_cost = (
            ten.min_link_cost / len(ten.link_costs) if ten.link_costs else 0.0
        )

        # In-capacity tracking: which pairs are still owed, and how many per
        # destination; each destination's term is ``ceil(owed / deg) * cost``.
        codes_array = state._pending_array()
        codes = codes_array.tolist()
        owed_pair = bytearray(num_npus * num_chunks)
        _np.frombuffer(owed_pair, dtype=_np.uint8)[codes_array] = 1
        self._pending = len(codes)
        self._owed_pair = owed_pair
        self._owed_at = _np.bincount(codes_array // num_chunks, minlength=num_npus).tolist()
        self._in_degrees = _np.maximum(degrees, 1).tolist()
        self._min_in_cost = min_in_cost.tolist()
        self._in_terms = [
            -(-owed // degree) * cost
            for owed, degree, cost in zip(self._owed_at, self._in_degrees, self._min_in_cost)
        ]
        self._in_remaining: Optional[float] = None  # None = recompute the max

        # Out-capacity tracking: owed chunks whose full holder set is one NPU
        # must make their first hop out of it.  Count them per source.
        owed_chunks = sorted({code % num_chunks for code in codes})
        origin = [-1] * num_chunks
        undeparted_at = [0] * num_npus
        for chunk in owed_chunks:
            holders = state._holders[chunk]
            if len(holders) == 1:
                origin[chunk] = holders[0]
                undeparted_at[holders[0]] += 1
        sources = _np.asarray(ten.link_sources, dtype=_np.intp)
        out_degrees = _np.bincount(sources, minlength=num_npus)
        min_out_cost = _np.zeros(num_npus, dtype=_np.float64)
        if costs.size:
            min_out_cost = _np.full(num_npus, _np.inf)
            _np.minimum.at(min_out_cost, sources, costs)
            min_out_cost[out_degrees == 0] = 0.0
        self._origin = origin
        self._departed = [False] * num_chunks
        self._undeparted_at = undeparted_at
        self._out_degrees = _np.maximum(out_degrees, 1).tolist()
        self._min_out_cost = min_out_cost.tolist()
        self._out_terms = [
            -(-count // degree) * cost
            for count, degree, cost in zip(undeparted_at, self._out_degrees, self._min_out_cost)
        ]
        self._out_remaining: Optional[float] = None

        if hop_distances is None:
            return
        # Distance tracking for single-destination chunks: dest per chunk
        # (-1 = untracked) and the current min hop distance over holders.
        # Every owed pair weighs ``max(dist, 1)`` (untracked chunks: 1); the
        # weights' integer sum and histogram back the two distance terms.
        owed_dest = [-1] * num_chunks
        for code in codes:
            dest, chunk = divmod(code, num_chunks)
            owed_dest[chunk] = dest if owed_dest[chunk] == -1 else -2
        chunk_dist = [0] * num_chunks
        for chunk in range(num_chunks):
            dest = owed_dest[chunk]
            if dest < 0:
                owed_dest[chunk] = -1
                continue
            holders = state._holders[chunk]
            chunk_dist[chunk] = (
                min(hop_distances[holder][dest] for holder in holders) if holders else 0
            )
        # Weights only fall, so the initial largest one sizes the histogram.
        dist_hist = [0] * (max(chunk_dist, default=0) + 2)
        dist_sum = 0
        for code in codes:
            weight = chunk_dist[code % num_chunks]
            if weight < 1:
                weight = 1
            dist_sum += weight
            dist_hist[weight] += 1
        self._hop_rows = hop_distances
        self._chunk_dest = owed_dest
        self._chunk_dist = chunk_dist
        self._dist_sum = dist_sum
        self._dist_hist = dist_hist
        self._dist_top = len(dist_hist) - 1

    def update(self, transfers) -> None:
        # repro-lint: disable-scope=C301,C302 -- one round's freshly committed
        # transfers arrive as a short row list from the matcher, never a
        # materialized TransferTable slice
        """Fold one round's committed transfers into the incremental tracking.

        Counts and weights only ever fall: a transfer satisfies at most one
        owed pair, departs at most one chunk, and can only shorten a chunk's
        distance.  A per-NPU term that falls from the cached maximum marks the
        maximum for recomputation in :meth:`value`.
        """
        if self._state is None or not transfers:
            return
        num_chunks = self._num_chunks
        owed_pair = self._owed_pair
        owed_at = self._owed_at
        in_degrees = self._in_degrees
        min_in_cost = self._min_in_cost
        in_terms = self._in_terms
        in_remaining = self._in_remaining
        chunk_dest = self._chunk_dest
        hop_rows = self._hop_rows
        chunk_dist = self._chunk_dist
        dist_hist = self._dist_hist
        origin = self._origin
        departed = self._departed
        undeparted_at = self._undeparted_at
        out_degrees = self._out_degrees
        min_out_cost = self._min_out_cost
        out_terms = self._out_terms
        out_remaining = self._out_remaining
        satisfied = 0
        dist_delta = 0
        for _start, _end, chunk, _source, node in transfers:
            code = node * num_chunks + chunk
            if owed_pair[code]:
                owed_pair[code] = 0
                satisfied += 1
                owed = owed_at[node] - 1
                owed_at[node] = owed
                term = -(-owed // in_degrees[node]) * min_in_cost[node]
                if term != in_terms[node]:
                    if in_terms[node] == in_remaining:
                        in_remaining = None
                    in_terms[node] = term
                if chunk_dest is not None:
                    weight = chunk_dist[chunk]
                    if weight < 1:
                        weight = 1
                    dist_delta -= weight
                    dist_hist[weight] -= 1
            if not departed[chunk]:
                departed[chunk] = True
                source = origin[chunk]
                if source >= 0:
                    count = undeparted_at[source] - 1
                    undeparted_at[source] = count
                    term = -(-count // out_degrees[source]) * min_out_cost[source]
                    if term != out_terms[source]:
                        if out_terms[source] == out_remaining:
                            out_remaining = None
                        out_terms[source] = term
            if chunk_dest is None:
                continue
            dest = chunk_dest[chunk]
            if dest < 0:
                continue
            hops = hop_rows[node][dest]
            old = chunk_dist[chunk]
            if hops < old:
                chunk_dist[chunk] = hops
                if owed_pair[dest * num_chunks + chunk]:
                    weight = hops if hops > 1 else 1
                    old_weight = old if old > 1 else 1
                    if weight != old_weight:
                        dist_delta += weight - old_weight
                        dist_hist[old_weight] -= 1
                        dist_hist[weight] += 1
        self._pending -= satisfied
        self._in_remaining = in_remaining
        self._out_remaining = out_remaining
        if chunk_dest is not None:
            self._dist_sum += dist_delta

    def value(self, time: float, committed_end: float) -> float:
        """The bound after the round at ``time``; ``committed_end`` = max transfer end so far."""
        bound = committed_end if committed_end > time else time
        if self._state is None or not self._pending:
            return bound
        remaining = self._in_remaining
        if remaining is None:
            remaining = self._in_remaining = max(self._in_terms)
        if remaining > 0.0:
            candidate = time + remaining
            if candidate > bound:
                bound = candidate
        remaining = self._out_remaining
        if remaining is None:
            remaining = self._out_remaining = max(self._out_terms)
        if remaining > 0.0:
            candidate = time + remaining
            if candidate > bound:
                bound = candidate
        if self._chunk_dest is not None and self._min_cost > 0.0:
            # Weights only fall, so the histogram's top pointer only moves down.
            dist_hist = self._dist_hist
            top = self._dist_top
            while not dist_hist[top]:
                top -= 1
            self._dist_top = top
            candidate = time + float(top) * self._min_cost
            if candidate > bound:
                bound = candidate
            candidate = time + float(self._dist_sum) * self._per_link_cost
            if candidate > bound:
                bound = candidate
        return bound


def _pick_link_id(
    candidates: List[int],
    link_costs: List[float],
    rng: random.Random,
    prefer_lowest_cost: bool,
) -> int:
    """Randomly select one candidate link id, optionally restricted to the cheapest.

    Mirrors the reference engine's ``_pick_link`` exactly, including its RNG
    consumption: one uniform draw per choice among two or more links
    (``randrange(n)`` and ``choice`` consume the identical single
    ``_randbelow(n)`` draw), no draw when a single link remains (part of the
    determinism contract).
    """
    if prefer_lowest_cost and len(candidates) > 1:
        best = min(map(link_costs.__getitem__, candidates))
        threshold = best + _TIME_EPS
        cheapest = [link_id for link_id in candidates if link_costs[link_id] <= threshold]
        if len(cheapest) == 1:
            return cheapest[0]
        return cheapest[rng.randrange(len(cheapest))]
    if len(candidates) == 1:
        return candidates[0]
    return candidates[rng.randrange(len(candidates))]


#: Pairs per candidate-prefilter block in :func:`_run_direct_pass_blockwise`.
#: Purely a performance knob: the block boundaries never change the
#: algorithm's output, only how often the exact prefilter re-runs.
_PREFILTER_BLOCK = 512


def _run_direct_pass_blockwise(
    ten: TimeExpandedNetwork,
    state: MatchingState,
    time: float,
    rng: random.Random,
    transfers: List[ChunkTransfer],
    idle_total: int,
    *,
    prefer_lowest_cost: bool,
    cheap_regions: Optional[Dict[float, List[frozenset]]],
) -> None:
    """Vectorized-prefilter variant of the direct pass (large rounds, no forwarding).

    Byte-identical to the scalar pass-1 loop in :func:`run_matching_round`.
    The permuted pending pairs are processed in blocks of
    :data:`_PREFILTER_BLOCK`; before each block one vectorized sweep over the
    incoming-link CSR drops every pair whose candidate set is empty *right
    now*, or which the lower-cost-link rule (Sec. IV-F) defers right now, and
    extracts the surviving pairs' candidate lists and cheapest candidate
    costs, so the Python loop only touches pairs that plausibly match.

    Exactness argument (the determinism contract depends on it): within a
    pass-1 round, links only become busy (``free_times`` never decreases)
    and — because the caller guards ``time + min_link_cost > threshold`` —
    no transfer committed this round comes due within it, so the holder set
    visible to candidate checks (``acquisition <= threshold``, mirrored by
    ``MatchingState._held``) is frozen for the whole round.  Both candidate
    conditions are therefore monotone: a candidate invalid at block-filter
    time stays invalid, so per-pair candidate lists built at filter time,
    re-checked against live ``free_times``, equal the scalar loop's lists
    element-for-element (both follow in-neighbour order).

    The deferral is monotone as well.  A pair is deferred when the
    cheaper-reachability region of its cheapest candidate cost meets the
    chunk's holders (held or scheduled, mirrored by
    ``MatchingState._will_hold``).  The live candidates are a subset of the
    filter-time ones, so the live cheapest cost is no lower; regions only
    grow with the cost; and holders only grow.  A pair deferred at filter
    time is therefore deferred, or left without candidates, when the scalar
    loop reaches it.  In the loop, a pair whose live cheapest cost still
    equals its filter-time cost had a region disjoint from the filter-time
    holders, so only the holders committed in this block since the filter
    need checking; any other pair takes the full check.

    Pairs dropped by the prefilter are exactly those the scalar loop would
    pass over without consuming the RNG, and a saturated span
    (``idle_total == 0``) stops both loops before any further draw, so the
    RNG streams coincide.
    """
    num_chunks = state.num_chunks
    acquisition = state._acquisition
    pair_state = state._pair_state
    holders = state._holders
    will_hold = state._will_hold
    activations = state._activations
    held = state._held
    link_costs = ten.link_costs
    link_sources = ten.link_sources
    free_times = ten.free_times
    event_heap = ten._event_heap
    event_times = ten._event_times
    threshold = time + _TIME_EPS
    uniform_cost = ten.uniform_cost
    tuple_new = tuple.__new__
    transfer_cls = ChunkTransfer
    rand_range = rng.randrange

    codes = state._pending_array()
    permutation = _permuter(rng).permutation(len(codes))
    if idle_total == 0:
        # Saturated span: the scalar loop would break before drawing
        # anything, so only the permutation consumes the RNG.
        return
    codes = codes[permutation]
    kept = codes[_np.frombuffer(pair_state, dtype=_np.uint8)[codes] == _MATCHABLE]
    total_kept = len(kept)
    if not total_kept:
        return
    in_flat, in_indptr, sources_arr = ten.in_link_csr()
    num_links = len(free_times)
    # An empty region dict (a single cost tier) never defers.
    defer = prefer_lowest_cost and bool(cheap_regions)
    if defer:
        cost_np = ten.link_cost_array()
        tier_costs, tier_masks = ten.topology.cheaper_reachability_masks(cheap_regions)
        last_tier = len(tier_costs) - 1
        holding = _np.frombuffer(will_hold, dtype=_np.bool_).reshape(state.num_npus, num_chunks)

    cursor = 0
    while cursor < total_kept and idle_total > 0:
        block = kept[cursor : cursor + _PREFILTER_BLOCK]
        cursor += _PREFILTER_BLOCK
        # One sweep over the block's incoming-link edges: a candidate is
        # valid when its link is idle now and its source already holds the
        # chunk (held is frozen for the round, see docstring).
        dest_col = block // num_chunks
        chunk_col = block - dest_col * num_chunks
        starts = in_indptr[dest_col]
        degrees = in_indptr[dest_col + 1] - starts
        indptr = _np.empty(len(block) + 1, dtype=_np.intp)
        indptr[0] = 0
        _np.cumsum(degrees, out=indptr[1:])
        num_edges = int(indptr[-1])
        edges = in_flat[_np.repeat(starts - indptr[:-1], degrees) + _np.arange(num_edges)]
        free_np = _np.fromiter(free_times, dtype=_np.float64, count=num_links)
        valid = (free_np[edges] <= threshold) & held[
            sources_arr[edges] * num_chunks + _np.repeat(chunk_col, degrees)
        ]
        running = _np.empty(num_edges + 1, dtype=_np.intp)
        running[0] = 0
        _np.cumsum(valid, out=running[1:])
        lows = running[indptr[:-1]]
        counts = running[indptr[1:]] - lows
        keep = counts > 0
        if not keep.any():
            continue
        block = block[keep]
        dest_col = dest_col[keep]
        chunk_col = chunk_col[keep]
        lows = lows[keep]
        counts = counts[keep]
        cand = edges[valid]
        if defer:
            # Each surviving pair's valid edges are one contiguous run of
            # ``cand`` starting at its low, so one reduceat yields the
            # cheapest candidate cost per pair.  Its tier has a region when
            # the sorted tier costs hold that cost exactly (the scalar
            # loop's ``cheap_regions.get(best_available)``).
            cheapest_cost = _np.minimum.reduceat(cost_np[cand], lows)
            tiers = _np.minimum(_np.searchsorted(tier_costs, cheapest_cost), last_tier)
            rows = _np.flatnonzero(tier_costs[tiers] == cheapest_cost)
            if len(rows):
                meets = (
                    tier_masks[tiers[rows], dest_col[rows]] & holding[:, chunk_col[rows]].T
                ).any(axis=1)
                if meets.any():
                    survive = _np.ones(len(block), dtype=bool)
                    survive[rows[meets]] = False
                    block = block[survive]
                    dest_col = dest_col[survive]
                    chunk_col = chunk_col[survive]
                    lows = lows[survive]
                    counts = counts[survive]
                    cheapest_cost = cheapest_cost[survive]
            best_list = cheapest_cost.tolist()
            # chunk -> destinations committed in this block since the filter.
            added: Dict[int, List[int]] = {}
        codes_list = block.tolist()
        dest_list = dest_col.tolist()
        chunk_list = chunk_col.tolist()
        lows_list = lows.tolist()
        counts_list = counts.tolist()
        cand_flat = cand.tolist()
        for index in range(len(codes_list)):
            if idle_total == 0:
                return  # span saturated: no remaining pair can match
            low = lows_list[index]
            span = counts_list[index]
            candidates = [
                link_id
                for link_id in cand_flat[low : low + span]
                if free_times[link_id] <= threshold
            ]
            if not candidates:
                continue
            code = codes_list[index]
            dest = dest_list[index]
            chunk = chunk_list[index]
            num_candidates = len(candidates)
            if defer:
                filtered_best = best_list[index]
                if num_candidates == span:
                    best = filtered_best
                else:
                    best = min(map(link_costs.__getitem__, candidates))
                region_by_dest = cheap_regions.get(best)
                if region_by_dest is not None:
                    if best == filtered_best:
                        # The filter found this region disjoint from the
                        # holders: only this block's commits can have joined.
                        joined = added.get(chunk)
                        if joined is not None and not region_by_dest[dest].isdisjoint(joined):
                            continue
                    elif not region_by_dest[dest].isdisjoint(holders[chunk]):
                        continue
            if num_candidates == 1:
                link_id = candidates[0]
            elif uniform_cost or not prefer_lowest_cost:
                link_id = candidates[rand_range(num_candidates)]
            elif defer:
                # _pick_link_id, reusing the cheapest cost computed above.
                limit = best + _TIME_EPS
                cheapest = [link_id for link_id in candidates if link_costs[link_id] <= limit]
                if len(cheapest) == 1:
                    link_id = cheapest[0]
                else:
                    link_id = cheapest[rand_range(len(cheapest))]
            else:
                link_id = _pick_link_id(candidates, link_costs, rng, prefer_lowest_cost)
            # Inlined commit, same as the scalar loop.
            end = time + link_costs[link_id]
            free_times[link_id] = end
            if end not in event_times:
                event_times.add(end)
                heappush(event_heap, end)
            idle_total -= 1
            source = link_sources[link_id]
            insort(holders[chunk], dest)
            will_hold[code] = 1
            if defer:
                committed = added.get(chunk)
                if committed is None:
                    added[chunk] = [dest]
                else:
                    committed.append(dest)
            acquisition[code] = end
            heappush(activations, (end, dest, chunk))
            pair_state[code] = _SATISFIED
            state._unsatisfied_count -= 1
            transfers.append(tuple_new(transfer_cls, (time, end, chunk, source, dest)))


def run_matching_round(
    ten: TimeExpandedNetwork,
    state: MatchingState,
    time: float,
    rng: random.Random,
    *,
    prefer_lowest_cost: bool = True,
    enable_forwarding: bool = True,
    hop_distances: Optional[List[List[int]]] = None,
    cheap_regions: Optional[Dict[float, List[frozenset]]] = None,
) -> List[ChunkTransfer]:
    """Run Alg. 1 for one time span; return the link-chunk matches created.

    Parameters
    ----------
    ten:
        The time-expanded network state (mutated: matched links are occupied).
    state:
        Chunk ownership state (mutated: destinations are granted chunks at
        their arrival times).
    time:
        The current time span ``t``.
    rng:
        Random source driving the shuffles and tie-breaking choices.
    prefer_lowest_cost:
        Restrict random link choice to the cheapest candidates (Sec. IV-F).
    enable_forwarding:
        Run the forwarding pass for postconditions that could not be matched
        directly (needed only for rooted/personalized collectives).
    hop_distances:
        ``hop_distances[a][b]`` = hop distance from ``a`` to ``b``; required
        when ``enable_forwarding`` is True (used to push chunks strictly
        closer to their destination and guarantee progress).
    cheap_regions:
        For heterogeneous topologies: ``cheap_regions[cost][dest]`` is the set
        of NPUs that can reach ``dest`` using only links strictly cheaper than
        ``cost``.  Used by the lower-cost-link prioritization to avoid
        redundant transfers over scarce expensive links; ``None`` disables the
        deferral (homogeneous topologies need none).
    """
    transfers: List[ChunkTransfer] = []
    num_chunks = state.num_chunks
    num_npus = state.num_npus
    acquisition = state._acquisition
    pair_state = state._pair_state
    holders = state._holders
    will_hold = state._will_hold
    activations = state._activations
    link_costs = ten.link_costs
    link_sources = ten.link_sources
    link_dests = ten.link_dests
    free_times = ten.free_times
    event_heap = ten._event_heap
    event_times = ten._event_times
    threshold = time + _TIME_EPS

    state.activate_until(time, ten.out_adjacency, ten.out_neighbour_csr)

    # Links only become busy during a round (occupy is the sole mutation), so
    # per-NPU idle-link lists can be cached for the span and invalidated on
    # occupy, and the scan can stop once every link of the span is taken.
    idle_total = ten.idle_link_count(time)
    idle_in_cache: List[Optional[List[int]]] = [None] * num_npus

    # The deferred pairs only matter when a forwarding pass will consume them.
    collect_deferred = enable_forwarding and hop_distances is not None
    # On uniform-cost (homogeneous) spans the lowest-cost restriction keeps
    # every candidate, so the min/filter step reduces to a plain rng.choice
    # over the same list — identical RNG consumption, no scan.
    uniform_cost = ten.uniform_cost
    tuple_new = tuple.__new__
    transfer_cls = ChunkTransfer
    rand_range = rng.randrange

    # ------------------------------------------------------------------
    # Pass 1 — Alg. 1: direct matches onto destinations that request a chunk.
    # ------------------------------------------------------------------
    if (
        not collect_deferred
        and state._unsatisfied_count >= _NUMPY_SHUFFLE_MIN
        and time + ten.min_link_cost > threshold
    ):
        # Forwarding is off, so deferred pairs are never consumed: run the
        # pass over block-prefiltered candidate lists instead of the scalar
        # scan.  The min_link_cost guard proves no commit made this round
        # comes due within it, which is what makes the prefilter exact (see
        # _run_direct_pass_blockwise); without it — sub-epsilon link costs —
        # fall through to the scalar loop, which consumes the RNG
        # identically via shuffle_pairs.
        _run_direct_pass_blockwise(
            ten,
            state,
            time,
            rng,
            transfers,
            idle_total,
            prefer_lowest_cost=prefer_lowest_cost,
            cheap_regions=cheap_regions,
        )
        return transfers
    pending = shuffle_pairs(state._pending_codes(), rng)
    deferred: List[int] = []
    for position, code in enumerate(pending):
        pair = pair_state[code]
        if pair == _SATISFIED:
            continue  # satisfied earlier in this round
        if idle_total == 0:
            # The span is saturated: every remaining open pair has no idle
            # link and therefore no candidates — defer them all unscanned.
            if collect_deferred:
                deferred.extend(
                    later for later in pending[position:] if pair_state[later]
                )
            break
        if pair == _NEEDED:
            # No in-neighbour of the destination holds this chunk yet, so the
            # candidate set is provably empty (one byte probe, no link scan).
            if collect_deferred:
                deferred.append(code)
            continue
        dest, chunk = divmod(code, num_chunks)
        idle_links = idle_in_cache[dest]
        if idle_links is None:
            idle_links = [
                link_id
                for link_id in ten.in_link_ids(dest)
                if free_times[link_id] <= threshold
            ]
            idle_in_cache[dest] = idle_links
        candidates = [
            link_id
            for link_id in idle_links
            if acquisition[link_sources[link_id] * num_chunks + chunk] <= threshold
        ]
        if not candidates:
            if collect_deferred:
                deferred.append(code)
            continue
        if prefer_lowest_cost and cheap_regions is not None:
            # Lower-cost-link prioritization (Sec. IV-F): a strictly cheaper
            # incoming link will be able to supply this chunk soon (its source
            # is already scheduled to receive it), so do not burn an expensive
            # link on it now.  On homogeneous topologies this never triggers.
            best_available = min(map(link_costs.__getitem__, candidates))
            region_by_dest = cheap_regions.get(best_available)
            if region_by_dest is not None:
                # ``isdisjoint`` is the same membership test evaluated in C.
                if not region_by_dest[dest].isdisjoint(holders[chunk]):
                    continue
        num_candidates = len(candidates)
        if num_candidates == 1:
            link_id = candidates[0]
        elif uniform_cost or not prefer_lowest_cost:
            link_id = candidates[rand_range(num_candidates)]
        else:
            link_id = _pick_link_id(candidates, link_costs, rng, prefer_lowest_cost)
        # Inlined commit (occupy + event push + grant): one transfer is the
        # innermost unit of work, so the method-call overhead matters here.
        end = time + link_costs[link_id]
        free_times[link_id] = end
        if end not in event_times:
            event_times.add(end)
            heappush(event_heap, end)
        idle_total -= 1
        source = link_sources[link_id]
        idle_in_cache[dest] = None
        insort(holders[chunk], dest)
        will_hold[code] = 1
        acquisition[code] = end
        heappush(activations, (end, dest, chunk))
        pair_state[code] = _SATISFIED
        state._unsatisfied_count -= 1
        transfers.append(tuple_new(transfer_cls, (time, end, chunk, source, dest)))

    # ------------------------------------------------------------------
    # Pass 2 — forwarding: push still-unserved chunks one hop closer.
    # ------------------------------------------------------------------
    if deferred:
        shuffle_pairs(deferred, rng)
        # Only links that step strictly closer to the destination can be
        # candidates, and that predicate is static, so the scan runs over the
        # topology's downhill table.  Its rows keep out-link order, which keeps
        # the candidate order (and so the RNG draws) of a scan over all links.
        downhill = ten.topology.downhill_links(hop_distances)
        for code in deferred:
            if pair_state[code] == _SATISFIED:
                continue
            if idle_total == 0:
                break  # no idle link anywhere: no forwarding candidate exists
            dest, chunk = divmod(code, num_chunks)
            links_by_holder = downhill.row(dest)
            candidates = []
            for holder in holders[chunk]:
                if acquisition[holder * num_chunks + chunk] > threshold:
                    continue  # scheduled for the future, not held yet
                for link_id in links_by_holder[holder]:
                    # The neighbour neither holds the chunk nor is scheduled
                    # to receive it (the test that fails most), and the link
                    # is idle.
                    if (
                        acquisition[link_dests[link_id] * num_chunks + chunk] == inf
                        and free_times[link_id] <= threshold
                    ):
                        candidates.append(link_id)
            if not candidates:
                continue
            num_candidates = len(candidates)
            if num_candidates == 1:
                link_id = candidates[0]
            elif uniform_cost or not prefer_lowest_cost:
                link_id = candidates[rand_range(num_candidates)]
            else:
                link_id = _pick_link_id(candidates, link_costs, rng, prefer_lowest_cost)
            end = time + link_costs[link_id]
            free_times[link_id] = end
            if end not in event_times:
                event_times.add(end)
                heappush(event_heap, end)
            idle_total -= 1
            source = link_sources[link_id]
            neighbour = link_dests[link_id]
            idle_in_cache[neighbour] = None
            # Inlined grant: the neighbour was checked to not hold the chunk.
            insort(holders[chunk], neighbour)
            neighbour_code = neighbour * num_chunks + chunk
            will_hold[neighbour_code] = 1
            acquisition[neighbour_code] = end
            heappush(activations, (end, neighbour, chunk))
            if pair_state[neighbour_code]:
                pair_state[neighbour_code] = _SATISFIED
                state._unsatisfied_count -= 1
            transfers.append(tuple_new(transfer_cls, (time, end, chunk, source, neighbour)))

    return transfers

"""Native matching-round kernel (the compiled twin of the flat direct pass).

:func:`native_run_matching_round` is a drop-in for
:func:`repro.core.matching.run_matching_round` and backs the ``native``
synthesis engine.  The hot part of Alg. 1 — scan the permuted pending pairs,
collect each destination's idle in-links whose sources hold the chunk, pick
one at random — runs inside :func:`_direct_match_kernel` over the same flat
arrays the pure-Python loop reads (acquisition/held mirror, incoming-link
CSR, link costs and free times).  The host then applies the bookkeeping the
kernel cannot touch (sorted holder lists, the activation heap, the TEN event
heap, :class:`~repro.core.algorithm.ChunkTransfer` rows) in match order.

Determinism contract
--------------------
The kernel reproduces the flat engine's RNG stream exactly:

* the per-round permutation is drawn on the host through the shared
  :func:`~repro.core.matching.shuffle_pairs` machinery (same numpy generator,
  seeded by the same single ``getrandbits(64)``);
* in-kernel tie-breaks consume the trial's Mersenne Twister through the
  :mod:`repro.kernels.mt19937` port — one ``_randbelow(n)`` per
  multi-candidate pick, none for single candidates — and the advanced state
  is pushed back into the Python ``random.Random`` afterwards;
* rounds the kernel does not support (forwarding passes, sub-epsilon link
  costs, heterogeneous cheap-region deferrals, small rounds) delegate to the
  flat implementation *before* consuming any randomness.

Without numba the kernel still runs as plain Python (see
:mod:`repro.kernels._numba`) when :data:`FORCE_PY_KERNEL` is set — that is
how the no-numba equivalence suites exercise this exact code path — but by
default the wrapper delegates wholesale to the flat engine, which is faster
than an interpreted kernel.
"""

from __future__ import annotations

import random
from bisect import insort
from heapq import heappush
from typing import Dict, List, Optional

import numpy as np

from repro.core.algorithm import ChunkTransfer
from repro.core.matching import (
    _MATCHABLE,
    _NUMPY_SHUFFLE_MIN,
    _TIME_EPS,
    MatchingState,
    _permuter,
    run_matching_round,
)
from repro.kernels._numba import NUMBA_AVAILABLE, njit
from repro.kernels.mt19937 import mt_export, mt_genrand, mt_restore
from repro.ten.network import TimeExpandedNetwork

__all__ = ["FORCE_PY_KERNEL", "native_run_matching_round"]

#: Test hook: run the kernel in interpreted py-mode even without numba, so
#: equivalence suites cover the kernel code path itself on numba-free hosts.
FORCE_PY_KERNEL = False


@njit(cache=True)
def _direct_match_kernel(
    kept,
    num_chunks,
    in_flat,
    in_indptr,
    link_sources,
    link_costs,
    free_times,
    held,
    time,
    threshold,
    idle_total,
    uniform_cost,
    prefer_lowest_cost,
    mt_key,
    mt_pos,
    out_codes,
    out_links,
):
    """Direct-pass scan over ``kept`` (permuted matchable pair codes).

    Mutates ``free_times`` (its private copy of the TEN column) and the MT
    state in place; records matches as parallel ``(code, link)`` rows and
    returns their count.  Stops like the scalar loop does when the span
    saturates.  ``held`` is frozen for the round (the caller guards
    ``time + min_link_cost > threshold``), so candidate checks need no
    acquisition updates for in-round commits.
    """
    matched = 0
    max_degree = 0
    for npu in range(in_indptr.shape[0] - 1):
        degree = in_indptr[npu + 1] - in_indptr[npu]
        if degree > max_degree:
            max_degree = degree
    candidates = np.empty(max_degree, np.int64)
    for i in range(kept.shape[0]):
        if idle_total == 0:
            break
        code = kept[i]
        dest = code // num_chunks
        chunk = code - dest * num_chunks
        count = 0
        for edge in range(in_indptr[dest], in_indptr[dest + 1]):
            link_id = in_flat[edge]
            if free_times[link_id] <= threshold and held[
                link_sources[link_id] * num_chunks + chunk
            ]:
                candidates[count] = link_id
                count += 1
        if count == 0:
            continue
        if count == 1:
            link_id = candidates[0]
        else:
            if not uniform_cost and prefer_lowest_cost:
                # Restrict to the cheapest candidates (mirrors _pick_link_id).
                best = link_costs[candidates[0]]
                for j in range(1, count):
                    cost = link_costs[candidates[j]]
                    if cost < best:
                        best = cost
                cheap_threshold = best + _TIME_EPS
                cheap_count = 0
                for j in range(count):
                    if link_costs[candidates[j]] <= cheap_threshold:
                        candidates[cheap_count] = candidates[j]
                        cheap_count += 1
                count = cheap_count
            if count == 1:
                link_id = candidates[0]
            else:
                # CPython _randbelow(count), inlined (bit_length + rejection).
                bits = 0
                value = count
                while value > 0:
                    value >>= 1
                    bits += 1
                shift = np.uint64(32 - bits)
                bound = np.uint64(count)
                draw = mt_genrand(mt_key, mt_pos) >> shift
                while draw >= bound:
                    draw = mt_genrand(mt_key, mt_pos) >> shift
                link_id = candidates[np.int64(draw)]
        free_times[link_id] = time + link_costs[link_id]
        idle_total -= 1
        out_codes[matched] = code
        out_links[matched] = link_id
        matched += 1
    return matched


def native_run_matching_round(
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
    """Run one matching round through the native kernel when profitable.

    Signature-compatible with
    :func:`repro.core.matching.run_matching_round`; unsupported rounds (and
    every round when numba is absent, unless :data:`FORCE_PY_KERNEL`)
    delegate to the flat implementation before any RNG draw, so outputs are
    byte-identical either way.
    """
    threshold = time + _TIME_EPS
    collect_deferred = enable_forwarding and hop_distances is not None
    if (
        (not NUMBA_AVAILABLE and not FORCE_PY_KERNEL)
        or collect_deferred
        or state._unsatisfied_count < _NUMPY_SHUFFLE_MIN
        or state._held is None
        or (cheap_regions is not None and prefer_lowest_cost)
        or not time + ten.min_link_cost > threshold
    ):
        return run_matching_round(
            ten,
            state,
            time,
            rng,
            prefer_lowest_cost=prefer_lowest_cost,
            enable_forwarding=enable_forwarding,
            hop_distances=hop_distances,
            cheap_regions=cheap_regions,
        )

    state.activate_until(time, ten.out_adjacency, ten.out_neighbour_csr)
    idle_total = ten.idle_link_count(time)

    codes = state._pending_array()
    permutation = _permuter(rng).permutation(len(codes))
    transfers: List[ChunkTransfer] = []
    if idle_total == 0:
        # Saturated span: only the permutation consumes the RNG, exactly
        # like the flat loop breaking before its first draw.
        return transfers
    codes = codes[permutation]
    pair_state = state._pair_state
    kept = codes[np.frombuffer(pair_state, dtype=np.uint8)[codes] == _MATCHABLE]
    if not len(kept):
        return transfers
    in_flat, in_indptr, sources_arr = ten.in_link_csr()
    free_times = ten.free_times
    link_costs = ten.link_costs
    free_np = np.fromiter(free_times, dtype=np.float64, count=len(free_times))
    costs_np = np.fromiter(link_costs, dtype=np.float64, count=len(link_costs))
    mt_key, mt_pos, mt_meta = mt_export(rng)
    out_codes = np.empty(len(kept), dtype=np.int64)
    out_links = np.empty(len(kept), dtype=np.int64)
    matched = _direct_match_kernel(
        kept,
        state.num_chunks,
        in_flat,
        in_indptr,
        sources_arr,
        costs_np,
        free_np,
        state._held,
        time,
        threshold,
        idle_total,
        ten.uniform_cost,
        prefer_lowest_cost,
        mt_key,
        mt_pos,
        out_codes,
        out_links,
    )
    mt_restore(rng, mt_key, mt_pos, mt_meta)

    # Host-side commit in match order: the bookkeeping the kernel cannot
    # touch (sorted holders, activation/event heaps, transfer rows), with
    # the identical float expression for the completion time.
    num_chunks = state.num_chunks
    acquisition = state._acquisition
    holders = state._holders
    activations = state._activations
    link_sources = ten.link_sources
    event_heap = ten._event_heap
    event_times = ten._event_times
    tuple_new = tuple.__new__
    transfer_cls = ChunkTransfer
    for code, link_id in zip(out_codes[:matched].tolist(), out_links[:matched].tolist()):
        end = time + link_costs[link_id]
        free_times[link_id] = end
        if end not in event_times:
            event_times.add(end)
            heappush(event_heap, end)
        source = link_sources[link_id]
        dest, chunk = divmod(code, num_chunks)
        insort(holders[chunk], dest)
        acquisition[code] = end
        heappush(activations, (end, dest, chunk))
        pair_state[code] = 0  # _SATISFIED
        state._unsatisfied_count -= 1
        transfers.append(tuple_new(transfer_cls, (time, end, chunk, source, dest)))
    return transfers

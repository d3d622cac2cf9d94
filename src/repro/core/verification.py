"""Semantic verification of collective algorithms.

A synthesized (or hand-written) :class:`~repro.core.algorithm.CollectiveAlgorithm`
is checked against the physical topology and the collective pattern's
contract:

* every transfer rides an existing physical link and takes exactly the
  alpha-beta time of one chunk on that link;
* no link carries two chunks at overlapping times (congestion-freedom);
* non-reducing collectives respect *forward causality* — a chunk leaves an NPU
  only after the NPU holds it — and deliver every postcondition chunk;
* reduction collectives respect *reduction causality* — an NPU forwards its
  partial of a chunk only after every partial routed through it has arrived —
  and every NPU's contribution reaches the chunk's final owner exactly once.

All checks raise :class:`~repro.errors.VerificationError` with a descriptive
message; :func:`verify_algorithm` returns ``True`` on success so it can be
used directly in assertions.

Large algorithms are checked by vectorized column sweeps over the
:class:`~repro.core.transfers.TransferTable` — link resolution is one gather
through the topology's dense :meth:`~repro.topology.topology.Topology.link_id_matrix`,
causality is a segmented prefix-min over ``(holder, chunk)`` groups, and
reduction coverage follows each chunk's contribution chain by pointer
doubling — so verifying a 100k-transfer algorithm costs a handful of numpy
passes instead of per-transfer dict churn.  Small algorithms (fewer than
:data:`SMALL_TABLE_CUTOVER` transfers) dispatch to an equivalent plain-loop
checker instead: at ~10-NPU scale the numpy setup cost dominates the work,
and the loop path keeps tiny pipelines at least as fast as the pre-refactor
object path.  Both paths produce identical verdicts — identical to each
other and to the frozen object-path checker
(:func:`repro.bench.reference.reference_verify_algorithm`); the pipeline
check of ``tacos-repro bench`` asserts this per scenario and
``tests/core/test_verification_cutover.py`` pins the dispatch and the
verdict equivalence across the cutover.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.collectives.all_reduce import AllReduce
from repro.collectives.pattern import CollectivePattern
from repro.core.algorithm import ChunkTransfer, CollectiveAlgorithm
from repro.core.transfers import TransferTable
from repro.errors import VerificationError
from repro.topology.topology import Topology

__all__ = ["SMALL_TABLE_CUTOVER", "verify_algorithm"]

#: Tolerance used when comparing floating-point times.
_TIME_EPS = 1e-9

#: Below this many transfers the plain-loop verifier wins: the vectorized
#: path pays a near-constant ~0.2 ms of numpy setup per check, which at
#: ~10-NPU pipeline scale (tens to low hundreds of transfers) exceeds the
#: loop cost itself.  Measured crossover on the bench host lies well above
#: this value for every check, so the cutover is conservative in the
#: direction that can only help.
SMALL_TABLE_CUTOVER = 512


def verify_algorithm(
    algorithm: CollectiveAlgorithm,
    topology: Topology,
    pattern: CollectivePattern,
    *,
    check_link_timing: bool = True,
) -> bool:
    """Verify ``algorithm`` implements ``pattern`` on ``topology``.

    Dispatches on size: algorithms with fewer than
    :data:`SMALL_TABLE_CUTOVER` transfers run the plain-loop checks, larger
    ones the vectorized column sweeps.  Verdicts are identical either way.

    Parameters
    ----------
    check_link_timing:
        When True, every transfer's duration must equal the alpha-beta cost of
        one chunk on its link.  Disable for schedules produced by simulation
        (where queueing delays stretch transfer windows).
    """
    if algorithm.num_transfers < SMALL_TABLE_CUTOVER:
        return _verify_small(algorithm, topology, pattern, check_link_timing)
    return _verify_columnar(algorithm, topology, pattern, check_link_timing)


def _verify_columnar(
    algorithm: CollectiveAlgorithm,
    topology: Topology,
    pattern: CollectivePattern,
    check_link_timing: bool,
) -> bool:
    """The vectorized column-sweep path (any size; default above the cutover)."""
    _check_links(algorithm, topology, check_link_timing)
    _check_no_link_overlap(algorithm)

    if isinstance(pattern, AllReduce):
        _verify_all_reduce(algorithm, pattern)
    elif pattern.requires_reduction:
        _verify_reduction(algorithm, pattern)
    else:
        _verify_non_reducing(algorithm, pattern)
    return True


# ----------------------------------------------------------------------
# Structural checks
# ----------------------------------------------------------------------
def _check_links(
    algorithm: CollectiveAlgorithm, topology: Topology, check_link_timing: bool
) -> None:
    table = algorithm.table
    if not len(table):
        return
    size = topology.num_npus
    sources = table.sources
    dests = table.dests
    in_range = (sources >= 0) & (sources < size) & (dests >= 0) & (dests < size)
    codes = np.where(in_range, sources * size + dests, 0)
    link_ids = np.where(in_range, topology.link_id_matrix()[codes], -1)
    missing = link_ids < 0
    if missing.any():
        index = int(np.flatnonzero(missing)[0])
        raise VerificationError(
            f"transfer {table.transfer_at(index)} uses a nonexistent link on {topology.name}"
        )
    if check_link_timing:
        arrays = topology.link_arrays()
        alphas = np.asarray(arrays.alphas, dtype=np.float64)
        betas = np.asarray(arrays.betas, dtype=np.float64)
        expected = alphas[link_ids] + betas[link_ids] * algorithm.chunk_size
        duration = table.ends - table.starts
        bad = np.abs(duration - expected) > np.maximum(_TIME_EPS, expected * 1e-6)
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            raise VerificationError(
                f"transfer {table.transfer_at(index)} takes {float(duration[index]):.3e}s "
                f"but the link cost is {float(expected[index]):.3e}s"
            )


def _check_no_link_overlap(algorithm: CollectiveAlgorithm) -> None:
    table = algorithm.table
    pair = table.first_overlap(_TIME_EPS)
    if pair is not None:
        earlier = table.transfer_at(pair[0])
        later = table.transfer_at(pair[1])
        raise VerificationError(
            f"link {earlier.link} carries two chunks at overlapping times: {earlier} and {later}"
        )


# ----------------------------------------------------------------------
# Shared column helpers
# ----------------------------------------------------------------------
def _chunk_stride(table: TransferTable, pattern: CollectivePattern) -> int:
    """Encoding stride covering every chunk id of the table and the pattern."""
    stride = table.num_chunks
    for chunks in pattern.precondition().values():
        for chunk in chunks:
            stride = max(stride, chunk + 1)
    for chunks in pattern.postcondition().values():
        for chunk in chunks:
            stride = max(stride, chunk + 1)
    return max(1, stride)


def _pair_codes(mapping: Dict[int, frozenset], stride: int) -> np.ndarray:
    """Sorted ``npu * stride + chunk`` codes of a pre/postcondition mapping."""
    codes = [
        npu * stride + chunk for npu, chunks in mapping.items() for chunk in chunks
    ]
    if not codes:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.asarray(codes, dtype=np.int64))


def _segmented_cummin(values: np.ndarray, segment_keys: np.ndarray) -> np.ndarray:
    """Inclusive running minimum within contiguous equal-key segments.

    Hillis–Steele doubling: ``log2(n)`` vectorized passes, no Python loop
    over segments.
    """
    result = values.copy()
    count = result.shape[0]
    shift = 1
    while shift < count:
        reachable = segment_keys[shift:] == segment_keys[:-shift]
        result[shift:] = np.minimum(
            result[shift:], np.where(reachable, result[:-shift], np.inf)
        )
        shift <<= 1
    return result


# ----------------------------------------------------------------------
# Non-reducing collectives (All-Gather, Broadcast, Gather, Scatter, All-to-All)
# ----------------------------------------------------------------------
def _verify_non_reducing(algorithm: CollectiveAlgorithm, pattern: CollectivePattern) -> None:
    precondition = pattern.precondition()
    _check_forward_causality(algorithm.table, precondition, pattern)
    _check_postcondition(algorithm, pattern)


def _check_forward_causality(
    table: TransferTable, precondition: Dict[int, frozenset], pattern: CollectivePattern
) -> None:
    count = len(table)
    if not count:
        return
    order = table.time_sorted_order()
    starts = table.starts[order]
    ends = table.ends[order]
    chunks = table.chunks[order]
    sources = table.sources[order]
    dests = table.dests[order]
    stride = _chunk_stride(table, pattern)

    # Merge inbound arrivals (value = end) and outbound queries (value = inf)
    # into one (holder, chunk)-keyed sequence ordered by processing position;
    # a segmented running minimum then yields, at every query, the earliest
    # arrival of the chunk at the sender *before* that transfer is processed
    # — exactly the ``arrival`` dict of the sequential checker.
    inbound_keys = dests * stride + chunks
    query_keys = sources * stride + chunks
    merged_keys = np.concatenate((inbound_keys, query_keys))
    merged_pos = np.concatenate((np.arange(count), np.arange(count)))
    merged_vals = np.concatenate((ends, np.full(count, np.inf)))
    is_query = np.zeros(2 * count, dtype=bool)
    is_query[count:] = True
    merge_order = np.lexsort((merged_pos, merged_keys))
    running_min = _segmented_cummin(merged_vals[merge_order], merged_keys[merge_order])

    query_mask = is_query[merge_order]
    query_pos = merged_pos[merge_order][query_mask]
    arrivals = running_min[query_mask]
    query_key = merged_keys[merge_order][query_mask]

    pre_codes = _pair_codes(precondition, stride)
    if pre_codes.size:
        insert = np.searchsorted(pre_codes, query_key)
        has_pre = (insert < pre_codes.size) & (pre_codes[np.minimum(insert, pre_codes.size - 1)] == query_key)
        arrivals = np.where(has_pre, np.minimum(arrivals, 0.0), arrivals)

    violations = arrivals > starts[query_pos] + _TIME_EPS
    if violations.any():
        first = int(query_pos[violations].min())
        raise VerificationError(
            f"forward causality violated: {int(sources[first])} sends chunk "
            f"{int(chunks[first])} at {float(starts[first]):.3e}s before holding it"
        )


def _check_postcondition(algorithm: CollectiveAlgorithm, pattern: CollectivePattern) -> None:
    table = algorithm.table
    stride = _chunk_stride(table, pattern)
    delivered = np.unique(
        np.concatenate(
            (
                _pair_codes(pattern.precondition(), stride),
                table.dests * stride + table.chunks,
            )
        )
    )
    for npu, required in pattern.postcondition().items():
        if not required:
            continue
        codes = np.asarray(sorted(required), dtype=np.int64) + npu * stride
        if delivered.size == 0:
            held = np.zeros(codes.shape, dtype=bool)
        else:
            insert = np.searchsorted(delivered, codes)
            held = (insert < delivered.size) & (
                delivered[np.minimum(insert, delivered.size - 1)] == codes
            )
        if not held.all():
            missing = sorted((codes[~held] - npu * stride).tolist())
            raise VerificationError(
                f"NPU {npu} is missing chunks {missing} at the end of {algorithm.pattern_name}"
            )


# ----------------------------------------------------------------------
# Reduction collectives (Reduce-Scatter, Reduce)
# ----------------------------------------------------------------------
def _verify_reduction(algorithm: CollectiveAlgorithm, pattern: CollectivePattern) -> None:
    _check_reduction_causality(algorithm.table)
    _check_reduction_coverage(algorithm, pattern)


def _check_reduction_causality(table: TransferTable) -> None:
    """Every transfer of a chunk out of an NPU starts after all of that chunk's inbound transfers end."""
    count = len(table)
    if not count:
        return
    order, indptr, group_codes = table.by_dest_chunk()
    # Latest inbound arrival per (npu, chunk) group.
    group_max_end = np.maximum.reduceat(table.ends[order], indptr[:-1])
    stride = max(1, table.num_chunks)
    out_codes = table.sources * stride + table.chunks
    insert = np.searchsorted(group_codes, out_codes)
    found = (insert < group_codes.size) & (
        group_codes[np.minimum(insert, group_codes.size - 1)] == out_codes
    )
    limits = np.where(found, group_max_end[np.minimum(insert, group_codes.size - 1)], -np.inf)
    violations = limits > table.starts + _TIME_EPS
    if violations.any():
        index = int(np.flatnonzero(violations)[0])
        group = int(insert[index])
        members = order[indptr[group] : indptr[group + 1]]
        # First inbound transfer (in original order) arriving too late.
        late = members[table.ends[members] > float(table.starts[index]) + _TIME_EPS]
        incoming = table.transfer_at(int(late[0]))
        raise VerificationError(
            f"reduction causality violated: {int(table.sources[index])} forwards chunk "
            f"{int(table.chunks[index])} at {float(table.starts[index]):.3e}s before the "
            f"partial from {incoming.source} arrives at {incoming.end:.3e}s"
        )


def _check_reduction_coverage(
    algorithm: CollectiveAlgorithm, pattern: CollectivePattern
) -> None:
    """Every NPU's partial of every chunk reaches the chunk's final owner exactly once."""
    table = algorithm.table
    postcondition = pattern.postcondition()
    owners: Dict[int, Set[int]] = {}
    for npu, chunks in postcondition.items():
        for chunk in chunks:
            owners.setdefault(chunk, set()).add(npu)

    num_npus = pattern.num_npus
    stride = _chunk_stride(table, pattern)
    # Per (chunk, source) send counts and per (chunk, source) unique dest.
    send_codes = table.chunks * num_npus + table.sources
    counts = np.zeros(stride * num_npus, dtype=np.int64)
    np.add.at(counts, send_codes, 1)
    # With at most one send per (chunk, source) — enforced below — the last
    # write per code is the only one, so plain scatter assignment suffices.
    dest_of = np.full(stride * num_npus, -1, dtype=np.int64)
    dest_of[send_codes] = table.dests

    doublings = max(1, int(num_npus - 1).bit_length())
    for chunk, chunk_owners in owners.items():
        if len(chunk_owners) != 1:
            raise VerificationError(
                f"reduction chunk {chunk} has {len(chunk_owners)} final owners; expected exactly one"
            )
        owner = next(iter(chunk_owners))

        chunk_counts = counts[chunk * num_npus : (chunk + 1) * num_npus]
        expected = np.ones(num_npus, dtype=np.int64)
        expected[owner] = 0
        mismatched = chunk_counts != expected
        if mismatched.any():
            npu = int(np.flatnonzero(mismatched)[0])
            raise VerificationError(
                f"NPU {npu} sends its partial of chunk {chunk} {int(chunk_counts[npu])} times; "
                f"expected {int(expected[npu])}"
            )

        # Each non-owner has exactly one outgoing send, so the contribution
        # graph is functional: follow the parent pointers by doubling and
        # check every NPU's chain reaches the owner.
        parent = dest_of[chunk * num_npus : (chunk + 1) * num_npus].copy()
        parent[owner] = owner
        for _ in range(doublings):
            parent = parent[parent]
        missing = np.flatnonzero(parent != owner)
        if missing.size:
            raise VerificationError(
                f"partials of chunk {chunk} from NPUs {missing.tolist()} never reach owner {owner}"
            )


# ----------------------------------------------------------------------
# All-Reduce (Reduce-Scatter phase + All-Gather phase)
# ----------------------------------------------------------------------
def _verify_all_reduce(algorithm: CollectiveAlgorithm, pattern: AllReduce) -> None:
    boundary = algorithm.metadata.get("phase_boundary")
    if boundary is None:
        raise VerificationError(
            "All-Reduce algorithm lacks the phase_boundary metadata required for verification"
        )
    table = algorithm.table
    in_reduce_scatter = table.ends <= boundary + _TIME_EPS

    reduce_scatter = CollectiveAlgorithm(
        table=table.select(in_reduce_scatter),
        num_npus=algorithm.num_npus,
        chunk_size=algorithm.chunk_size,
        collective_size=algorithm.collective_size,
        pattern_name="ReduceScatter",
        topology_name=algorithm.topology_name,
    )
    _verify_reduction(reduce_scatter, pattern.reduce_scatter_phase())

    all_gather = CollectiveAlgorithm(
        table=table.select(~in_reduce_scatter).shifted(-boundary),
        num_npus=algorithm.num_npus,
        chunk_size=algorithm.chunk_size,
        collective_size=algorithm.collective_size,
        pattern_name="AllGather",
        topology_name=algorithm.topology_name,
    )
    _verify_non_reducing(all_gather, pattern.all_gather_phase())


# ----------------------------------------------------------------------
# Small-table path: plain loops, zero numpy setup cost
# ----------------------------------------------------------------------
# Semantically a line-for-line mirror of the vectorized checks above (and of
# the frozen object-path checker the columnar verifier is benchmarked
# against); error classes and message formats match the columnar path, so a
# caller cannot observe which side of the cutover ran except through speed.


def _verify_small(
    algorithm: CollectiveAlgorithm,
    topology: Topology,
    pattern: CollectivePattern,
    check_link_timing: bool,
) -> bool:
    """Plain-loop verification for tables below :data:`SMALL_TABLE_CUTOVER`."""
    transfers = algorithm.transfers
    _small_check_links(transfers, algorithm.chunk_size, topology, check_link_timing)
    _small_check_no_link_overlap(transfers)

    if isinstance(pattern, AllReduce):
        _small_verify_all_reduce(algorithm, pattern)
    elif pattern.requires_reduction:
        _small_verify_reduction(algorithm, pattern)
    else:
        _small_verify_non_reducing(algorithm, pattern)
    return True


def _small_check_links(
    transfers: List[ChunkTransfer],
    chunk_size: float,
    topology: Topology,
    check_link_timing: bool,
) -> None:
    # repro-lint: disable-scope=C301,C302 -- small-table fallback below
    # SMALL_TABLE_CUTOVER: plain row loops beat numpy setup cost here by design
    for transfer in transfers:
        if not topology.has_link(transfer.source, transfer.dest):
            raise VerificationError(
                f"transfer {transfer} uses a nonexistent link on {topology.name}"
            )
        if check_link_timing:
            expected = topology.link(transfer.source, transfer.dest).cost(chunk_size)
            if abs(transfer.duration - expected) > max(_TIME_EPS, expected * 1e-6):
                raise VerificationError(
                    f"transfer {transfer} takes {transfer.duration:.3e}s "
                    f"but the link cost is {expected:.3e}s"
                )


def _small_check_no_link_overlap(transfers: List[ChunkTransfer]) -> None:
    # repro-lint: disable-scope=C301,C302 -- small-table fallback below
    # SMALL_TABLE_CUTOVER: plain row loops beat numpy setup cost here by design
    occupancy: Dict[Tuple[int, int], List[ChunkTransfer]] = {}
    for transfer in transfers:
        occupancy.setdefault(transfer.link, []).append(transfer)
    for link, entries in occupancy.items():
        entries.sort(key=lambda transfer: transfer.start)
        for earlier, later in zip(entries, entries[1:]):
            if later.start < earlier.end - _TIME_EPS:
                raise VerificationError(
                    f"link {link} carries two chunks at overlapping times: {earlier} and {later}"
                )


def _small_verify_non_reducing(
    algorithm: CollectiveAlgorithm, pattern: CollectivePattern
) -> None:
    # repro-lint: disable-scope=C301,C302 -- small-table fallback below
    # SMALL_TABLE_CUTOVER: plain row loops beat numpy setup cost here by design
    precondition = pattern.precondition()
    arrival: Dict[Tuple[int, int], float] = {}
    for npu, chunks in precondition.items():
        for chunk in chunks:
            arrival[(npu, chunk)] = 0.0
    for transfer in sorted(algorithm.transfers, key=lambda item: (item.start, item.end)):
        key = (transfer.source, transfer.chunk)
        if key not in arrival or arrival[key] > transfer.start + _TIME_EPS:
            raise VerificationError(
                f"forward causality violated: {transfer.source} sends chunk "
                f"{transfer.chunk} at {transfer.start:.3e}s before holding it"
            )
        dest_key = (transfer.dest, transfer.chunk)
        arrival[dest_key] = min(arrival.get(dest_key, float("inf")), transfer.end)

    holdings = {npu: set(chunks) for npu, chunks in precondition.items()}
    for npu in range(algorithm.num_npus):
        holdings.setdefault(npu, set())
    for transfer in algorithm.transfers:
        holdings[transfer.dest].add(transfer.chunk)
    for npu, required in pattern.postcondition().items():
        missing = set(required) - holdings.get(npu, set())
        if missing:
            raise VerificationError(
                f"NPU {npu} is missing chunks {sorted(missing)} at the end of {algorithm.pattern_name}"
            )


def _small_verify_reduction(
    algorithm: CollectiveAlgorithm, pattern: CollectivePattern
) -> None:
    # repro-lint: disable-scope=C301,C302 -- small-table fallback below
    # SMALL_TABLE_CUTOVER: plain row loops beat numpy setup cost here by design
    transfers = algorithm.transfers
    inbound: Dict[Tuple[int, int], List[ChunkTransfer]] = {}
    for transfer in transfers:
        inbound.setdefault((transfer.dest, transfer.chunk), []).append(transfer)
    for transfer in transfers:
        for incoming in inbound.get((transfer.source, transfer.chunk), []):
            if incoming.end > transfer.start + _TIME_EPS:
                raise VerificationError(
                    f"reduction causality violated: {transfer.source} forwards chunk "
                    f"{transfer.chunk} at {transfer.start:.3e}s before the "
                    f"partial from {incoming.source} arrives at {incoming.end:.3e}s"
                )

    postcondition = pattern.postcondition()
    owners: Dict[int, Set[int]] = {}
    for npu, chunks in postcondition.items():
        for chunk in chunks:
            owners.setdefault(chunk, set()).add(npu)
    by_chunk: Dict[int, List[ChunkTransfer]] = {}
    for transfer in transfers:
        by_chunk.setdefault(transfer.chunk, []).append(transfer)

    for chunk, chunk_owners in owners.items():
        if len(chunk_owners) != 1:
            raise VerificationError(
                f"reduction chunk {chunk} has {len(chunk_owners)} final owners; expected exactly one"
            )
        owner = next(iter(chunk_owners))
        chunk_transfers = by_chunk.get(chunk, [])

        sends_per_npu: Dict[int, int] = {}
        for transfer in chunk_transfers:
            sends_per_npu[transfer.source] = sends_per_npu.get(transfer.source, 0) + 1
        for npu in range(pattern.num_npus):
            expected = 0 if npu == owner else 1
            actual = sends_per_npu.get(npu, 0)
            if actual != expected:
                raise VerificationError(
                    f"NPU {npu} sends its partial of chunk {chunk} {actual} times; "
                    f"expected {expected}"
                )

        reached = {owner}
        frontier = [owner]
        chunk_inbound: Dict[int, List[ChunkTransfer]] = {}
        for transfer in chunk_transfers:
            chunk_inbound.setdefault(transfer.dest, []).append(transfer)
        while frontier:
            node = frontier.pop()
            for transfer in chunk_inbound.get(node, []):
                if transfer.source not in reached:
                    reached.add(transfer.source)
                    frontier.append(transfer.source)
        missing = sorted(set(range(pattern.num_npus)) - reached)
        if missing:
            raise VerificationError(
                f"partials of chunk {chunk} from NPUs {missing} never reach owner {owner}"
            )


def _small_verify_all_reduce(algorithm: CollectiveAlgorithm, pattern: AllReduce) -> None:
    # repro-lint: disable-scope=C301,C302,C303 -- small-table fallback below
    # SMALL_TABLE_CUTOVER: the phase split rebuilds a handful of rows; columnar
    # construction would cost more than it saves at these sizes
    boundary = algorithm.metadata.get("phase_boundary")
    if boundary is None:
        raise VerificationError(
            "All-Reduce algorithm lacks the phase_boundary metadata required for verification"
        )
    reduce_scatter_transfers = []
    all_gather_transfers = []
    for transfer in algorithm.transfers:
        if transfer.end <= boundary + _TIME_EPS:
            reduce_scatter_transfers.append(transfer)
        else:
            all_gather_transfers.append(
                ChunkTransfer._make(
                    (
                        transfer.start - boundary,
                        transfer.end - boundary,
                        transfer.chunk,
                        transfer.source,
                        transfer.dest,
                    )
                )
            )

    reduce_scatter = CollectiveAlgorithm(
        transfers=reduce_scatter_transfers,
        num_npus=algorithm.num_npus,
        chunk_size=algorithm.chunk_size,
        collective_size=algorithm.collective_size,
        pattern_name="ReduceScatter",
        topology_name=algorithm.topology_name,
    )
    _small_verify_reduction(reduce_scatter, pattern.reduce_scatter_phase())

    all_gather = CollectiveAlgorithm(
        transfers=all_gather_transfers,
        num_npus=algorithm.num_npus,
        chunk_size=algorithm.chunk_size,
        collective_size=algorithm.collective_size,
        pattern_name="AllGather",
        topology_name=algorithm.topology_name,
    )
    _small_verify_non_reducing(all_gather, pattern.all_gather_phase())

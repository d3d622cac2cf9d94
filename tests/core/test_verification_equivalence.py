"""Vectorized verification vs the frozen object-path verifier.

:func:`repro.core.verification.verify_algorithm` is one columnar checker at
every table size.  It must reach the same verdict *and message* (pass, or
the text of the :class:`VerificationError` raised) as the pre-refactor
per-transfer scanner frozen in :mod:`repro.bench.reference` — on correct
synthesized algorithms of every pattern family, on deliberately corrupted
variants exercising each failure mode, and on tables from a few dozen
transfers up to a few thousand."""

import pytest

from repro.api.builtins import parse_topology_spec
from repro.api.registry import COLLECTIVES
from repro.api.runner import build_topology
from repro.bench.reference import reference_verify_algorithm
from repro.collectives import AllGather, AllReduce, AllToAll, Broadcast, ReduceScatter
from repro.core import ChunkTransfer, CollectiveAlgorithm, SynthesisConfig, TacosSynthesizer
from repro.core.verification import verify_algorithm
from repro.errors import VerificationError
from repro.topology import build_dgx1, build_mesh_2d, build_ring

MB = 1e6


def _verdict(verifier, algorithm, topology, pattern, **kwargs):
    try:
        return verifier(algorithm, topology, pattern, **kwargs), ""
    except VerificationError as exc:
        return False, str(exc)


def _assert_same_verdict(algorithm, topology, pattern, **kwargs):
    new_ok, new_msg = _verdict(verify_algorithm, algorithm, topology, pattern, **kwargs)
    ref_ok, ref_msg = _verdict(
        reference_verify_algorithm, algorithm, topology, pattern, **kwargs
    )
    assert (new_ok, new_msg) == (ref_ok, ref_msg), (
        f"verdicts diverge: columnar={new_msg!r} reference={ref_msg!r}"
    )
    return new_ok


CASES = [
    ("mesh3x3-ag", lambda: build_mesh_2d(3, 3), lambda: AllGather(9)),
    ("mesh3x3-ar", lambda: build_mesh_2d(3, 3), lambda: AllReduce(9)),
    ("mesh3x3-ar-c2", lambda: build_mesh_2d(3, 3), lambda: AllReduce(9, 2)),
    ("mesh4x4-rs", lambda: build_mesh_2d(4, 4), lambda: ReduceScatter(16)),
    ("mesh3x3-a2a", lambda: build_mesh_2d(3, 3), lambda: AllToAll(9)),
    ("mesh3x3-bc", lambda: build_mesh_2d(3, 3), lambda: Broadcast(9)),
    ("ring8-ag", lambda: build_ring(8), lambda: AllGather(8)),
    ("dgx1h-ar", lambda: build_dgx1(heterogeneous=True), lambda: AllReduce(8)),
]


@pytest.mark.parametrize("name,topo,patt", CASES, ids=[c[0] for c in CASES])
def test_correct_algorithms_verify_on_both_paths(name, topo, patt):
    topology = topo()
    pattern = patt()
    algorithm = TacosSynthesizer(SynthesisConfig(seed=2)).synthesize(topology, pattern, 4 * MB)
    assert _assert_same_verdict(algorithm, topology, pattern) is True


def _clone_with(algorithm, transfers):
    return CollectiveAlgorithm(
        transfers=transfers,
        num_npus=algorithm.num_npus,
        chunk_size=algorithm.chunk_size,
        collective_size=algorithm.collective_size,
        pattern_name=algorithm.pattern_name,
        topology_name=algorithm.topology_name,
        metadata=dict(algorithm.metadata),
    )


def _replace_transfer(algorithm, index, transfer):
    transfers = list(algorithm.transfers)
    transfers[index] = transfer
    return _clone_with(algorithm, transfers)


def _synthesize(topology, pattern):
    return TacosSynthesizer(SynthesisConfig(seed=2)).synthesize(topology, pattern, 4 * MB)


class TestCorruptedAlgorithmsFailOnBothPaths:
    def test_nonexistent_link(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        algorithm = _synthesize(topology, pattern)
        original = algorithm.transfers[0]
        broken = _replace_transfer(
            algorithm,
            0,
            ChunkTransfer(original.start, original.end, original.chunk, 0, 8),
        )
        assert _assert_same_verdict(broken, topology, pattern) is False

    def test_wrong_link_timing(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        algorithm = _synthesize(topology, pattern)
        original = algorithm.transfers[0]
        broken = _replace_transfer(
            algorithm,
            0,
            ChunkTransfer(
                original.start, original.end * 3 + 1.0, original.chunk,
                original.source, original.dest,
            ),
        )
        assert _assert_same_verdict(broken, topology, pattern) is False
        # Disabling the timing check changes both verdicts in lockstep.
        _assert_same_verdict(broken, topology, pattern, check_link_timing=False)

    def test_link_overlap(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        algorithm = _synthesize(topology, pattern)
        # Duplicate the first transfer's window on the same link with another
        # chunk: a congestion violation.
        first = algorithm.transfers[0]
        transfers = list(algorithm.transfers)
        transfers.append(
            ChunkTransfer(first.start, first.end, (first.chunk + 1) % 9, first.source, first.dest)
        )
        broken = CollectiveAlgorithm(
            transfers=transfers,
            num_npus=9,
            chunk_size=algorithm.chunk_size,
            collective_size=algorithm.collective_size,
        )
        assert _assert_same_verdict(broken, topology, pattern) is False

    def test_pulled_forward_transfer_overlaps_on_its_link(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        algorithm = _synthesize(topology, pattern)
        # Find a forwarded transfer (source does not own the chunk initially)
        # and pull it to t=0, before the chunk can have arrived.  Its link
        # already carries a chunk at t=0, so the overlap check rejects it
        # before causality is looked at; forward causality on its own is
        # test_earliest_transfer_with_unheld_chunk_violates_causality.
        precondition = pattern.precondition()
        target = next(
            (index, t)
            for index, t in enumerate(algorithm.transfers)
            if t.chunk not in precondition.get(t.source, frozenset())
        )
        index, t = target
        duration = t.end - t.start
        broken = _replace_transfer(
            algorithm, index, ChunkTransfer(0.0, duration, t.chunk, t.source, t.dest)
        )
        assert (
            _assert_same_verdict(broken, topology, pattern, check_link_timing=False) is False
        )
        with pytest.raises(VerificationError, match="carries two chunks at overlapping times"):
            verify_algorithm(broken, topology, pattern, check_link_timing=False)

    def test_missing_postcondition_chunk(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        algorithm = _synthesize(topology, pattern)
        truncated = CollectiveAlgorithm(
            transfers=algorithm.transfers[:-1],
            num_npus=9,
            chunk_size=algorithm.chunk_size,
            collective_size=algorithm.collective_size,
        )
        assert _assert_same_verdict(truncated, topology, pattern) is False

    def test_reduction_coverage_violation(self):
        topology = build_mesh_2d(3, 3)
        pattern = ReduceScatter(9)
        algorithm = _synthesize(topology, pattern)
        truncated = CollectiveAlgorithm(
            transfers=algorithm.transfers[:-1],
            num_npus=9,
            chunk_size=algorithm.chunk_size,
            collective_size=algorithm.collective_size,
        )
        assert _assert_same_verdict(truncated, topology, pattern) is False

    def test_all_reduce_without_boundary_metadata(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllReduce(9)
        algorithm = _synthesize(topology, pattern)
        stripped = CollectiveAlgorithm(
            transfers=list(algorithm.transfers),
            num_npus=9,
            chunk_size=algorithm.chunk_size,
            collective_size=algorithm.collective_size,
            pattern_name=algorithm.pattern_name,
        )
        assert _assert_same_verdict(stripped, topology, pattern) is False


def test_empty_algorithm_fails_postcondition_on_both_paths():
    topology = build_ring(4)
    pattern = AllGather(4)
    empty = CollectiveAlgorithm(transfers=[], num_npus=4, chunk_size=1e6, collective_size=4e6)
    assert _assert_same_verdict(empty, topology, pattern) is False


# Shorthand-built cases (seed 5, 1 MB), each checked valid, with its last
# three transfers dropped, and with its middle transfer stretched backwards.
SHORTHAND_CASES = [
    ("ring:6", "all_gather"),
    ("ring:6", "all_reduce"),
    ("mesh_2d:3,3", "reduce_scatter"),
    ("mesh_2d:3,3", "all_to_all"),
    ("ring:8", "broadcast"),
    ("mesh_2d:3,3", "gather"),
]


def _synthesize_shorthand(topology_shorthand, collective):
    topology = build_topology(parse_topology_spec(topology_shorthand))
    pattern = COLLECTIVES.get(collective)(topology.num_npus, 1)
    algorithm = TacosSynthesizer(SynthesisConfig(seed=5)).synthesize(topology, pattern, MB)
    return topology, pattern, algorithm


def _dropped(algorithm):
    return _clone_with(algorithm, algorithm.transfers[:-3])


def _stretched(algorithm):
    middle = len(algorithm.transfers) // 2
    victim = algorithm.transfers[middle]
    start = victim.start - 0.5 * (victim.duration or 1e-6)
    return _replace_transfer(algorithm, middle, victim._replace(start=start))


VARIANTS = {"valid": lambda algorithm: algorithm, "dropped": _dropped, "stretched": _stretched}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize(
    "topology_shorthand,collective",
    SHORTHAND_CASES,
    ids=[f"{topology}-{collective}" for topology, collective in SHORTHAND_CASES],
)
def test_shorthand_variants_match_reference(topology_shorthand, collective, variant):
    topology, pattern, algorithm = _synthesize_shorthand(topology_shorthand, collective)
    ok = _assert_same_verdict(VARIANTS[variant](algorithm), topology, pattern)
    assert ok is (variant == "valid")


def test_appended_nonexistent_link_message_matches_reference():
    topology, pattern, algorithm = _synthesize_shorthand("ring:6", "all_gather")
    bad = _clone_with(algorithm, algorithm.transfers + [ChunkTransfer(0.0, 1.0, 0, 0, 3)])
    assert _assert_same_verdict(bad, topology, pattern) is False
    with pytest.raises(VerificationError, match="nonexistent link"):
        verify_algorithm(bad, topology, pattern)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_large_table_variants_match_reference(variant):
    # Well above the few hundred transfers of the cases above: the same
    # columnar sweep, on a table of thousands of rows.
    topology = build_mesh_2d(6, 6)
    pattern = AllReduce(36)
    algorithm = _synthesize(topology, pattern)
    assert algorithm.num_transfers > 2000
    ok = _assert_same_verdict(VARIANTS[variant](algorithm), topology, pattern)
    assert ok is (variant == "valid")


@pytest.mark.parametrize("side", [3, 6], ids=["mesh3x3", "mesh6x6"])
def test_earliest_transfer_with_unheld_chunk_violates_causality(side):
    # The earliest transfer sends a chunk its source does not hold yet: same
    # link, same window, so only the forward-causality sweep can object (the
    # transfer of test_pulled_forward_transfer_overlaps_on_its_link trips the
    # overlap check first).  The 6x6 table has over a thousand rows.
    num_npus = side * side
    topology = build_mesh_2d(side, side)
    pattern = AllGather(num_npus)
    algorithm = _synthesize(topology, pattern)
    index = min(range(algorithm.num_transfers), key=lambda i: algorithm.transfers[i].start)
    victim = algorithm.transfers[index]
    assert victim.start == 0.0 and pattern.precondition()[victim.source] == {victim.chunk}
    unheld = (victim.chunk + 1) % num_npus
    broken = _replace_transfer(algorithm, index, victim._replace(chunk=unheld))
    assert _assert_same_verdict(broken, topology, pattern) is False
    with pytest.raises(VerificationError, match="forward causality violated"):
        verify_algorithm(broken, topology, pattern)

"""Unit tests for the collective pattern pre/postcondition formulation."""

import pytest

from repro.collectives import (
    AllGather,
    AllReduce,
    AllToAll,
    Broadcast,
    Gather,
    Reduce,
    ReduceScatter,
    Scatter,
)
from repro.errors import CollectiveError


class TestAllGather:
    def test_precondition_each_npu_holds_own_chunks(self):
        pattern = AllGather(4, chunks_per_npu=2)
        pre = pattern.precondition()
        assert pre[0] == frozenset({0, 1})
        assert pre[3] == frozenset({6, 7})

    def test_postcondition_everyone_holds_everything(self):
        pattern = AllGather(4)
        post = pattern.postcondition()
        assert all(post[npu] == frozenset(range(4)) for npu in range(4))

    def test_num_chunks(self):
        assert AllGather(4, chunks_per_npu=3).num_chunks == 12

    def test_chunk_size(self):
        assert AllGather(4, chunks_per_npu=2).chunk_size(8e6) == pytest.approx(1e6)

    def test_unsatisfied_counts(self):
        pattern = AllGather(4)
        assert pattern.total_transfers_lower_bound() == 4 * 3

    def test_not_reducing(self):
        assert not AllGather(4).requires_reduction
        assert AllGather(4).non_reducing_dual() is None

    def test_chunk_owner(self):
        pattern = AllGather(4, chunks_per_npu=2)
        assert pattern.chunk_owner(5) == 2

    def test_rejects_single_npu(self):
        with pytest.raises(CollectiveError):
            AllGather(1)

    def test_rejects_zero_chunks(self):
        with pytest.raises(CollectiveError):
            AllGather(4, chunks_per_npu=0)


class TestReduceScatter:
    def test_precondition_everyone_holds_everything(self):
        pattern = ReduceScatter(3)
        assert all(chunks == frozenset(range(3)) for chunks in pattern.precondition().values())

    def test_postcondition_each_npu_holds_own_shard(self):
        pattern = ReduceScatter(3, chunks_per_npu=2)
        post = pattern.postcondition()
        assert post[1] == frozenset({2, 3})

    def test_requires_reduction_and_dual(self):
        pattern = ReduceScatter(4, chunks_per_npu=2)
        dual = pattern.non_reducing_dual()
        assert isinstance(dual, AllGather)
        assert dual.num_npus == 4 and dual.chunks_per_npu == 2


class TestAllReduce:
    def test_pre_and_postcondition_are_full(self):
        pattern = AllReduce(4)
        everything = frozenset(range(4))
        assert all(chunks == everything for chunks in pattern.precondition().values())
        assert all(chunks == everything for chunks in pattern.postcondition().values())

    def test_phases(self):
        pattern = AllReduce(5, chunks_per_npu=3)
        assert isinstance(pattern.reduce_scatter_phase(), ReduceScatter)
        assert isinstance(pattern.all_gather_phase(), AllGather)
        assert pattern.all_gather_phase().chunks_per_npu == 3

    def test_chunk_size_matches_phases(self):
        pattern = AllReduce(4, chunks_per_npu=2)
        assert pattern.chunk_size(8e6) == pattern.all_gather_phase().chunk_size(8e6)


class TestBroadcastAndReduce:
    def test_broadcast_precondition(self):
        pattern = Broadcast(5, chunks_per_npu=2, root=3)
        pre = pattern.precondition()
        assert pre[3] == frozenset({0, 1})
        assert pre[0] == frozenset()

    def test_broadcast_postcondition(self):
        pattern = Broadcast(5, root=3)
        assert all(chunks == frozenset({0}) for chunks in pattern.postcondition().values())

    def test_broadcast_root_validation(self):
        with pytest.raises(CollectiveError):
            Broadcast(4, root=4)

    def test_reduce_dual_is_broadcast_with_same_root(self):
        pattern = Reduce(6, root=2)
        dual = pattern.non_reducing_dual()
        assert isinstance(dual, Broadcast)
        assert dual.root == 2

    def test_reduce_postcondition_only_root(self):
        pattern = Reduce(4, root=1)
        post = pattern.postcondition()
        assert post[1] == frozenset({0})
        assert post[0] == frozenset()

    def test_equality_includes_root(self):
        assert Broadcast(4, root=1) != Broadcast(4, root=2)
        assert Broadcast(4, root=1) == Broadcast(4, root=1)


class TestGatherScatterAllToAll:
    def test_gather_postcondition(self):
        pattern = Gather(4, root=2)
        post = pattern.postcondition()
        assert post[2] == frozenset(range(4))
        assert post[0] == frozenset({0})

    def test_scatter_precondition(self):
        pattern = Scatter(4, root=1)
        pre = pattern.precondition()
        assert pre[1] == frozenset(range(4))
        assert pre[0] == frozenset()

    def test_scatter_postcondition(self):
        pattern = Scatter(4, root=1)
        post = pattern.postcondition()
        assert post[2] == frozenset({2})

    def test_all_to_all_conditions(self):
        pattern = AllToAll(3)
        pre = pattern.precondition()
        post = pattern.postcondition()
        # NPU 0 starts with chunks destined for 0, 1, 2 and ends with chunks from 0, 1, 2.
        assert pre[0] == frozenset({0, 1, 2})
        assert post[0] == frozenset({0, 3, 6})

    def test_all_to_all_chunk_owner(self):
        pattern = AllToAll(3)
        assert pattern.chunk_owner(5) == 1

    def test_all_to_all_num_chunks(self):
        assert AllToAll(4, chunks_per_npu=2).num_chunks == 32


class TestPatternIdentity:
    def test_pattern_equality_and_hash(self):
        assert AllGather(4, 2) == AllGather(4, 2)
        assert AllGather(4, 2) != AllGather(4, 1)
        assert hash(AllGather(4, 2)) == hash(AllGather(4, 2))
        assert AllGather(4) != ReduceScatter(4)

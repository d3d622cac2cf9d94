"""Unit tests for SynthesisConfig and the utilization-maximizing matching round."""

import random

import pytest

from repro.collectives import AllGather
from repro.core import MatchingState, SynthesisConfig, run_matching_round
from repro.errors import SynthesisError
from repro.ten import TimeExpandedNetwork
from repro.topology import Topology, build_fully_connected, build_ring


class TestSynthesisConfig:
    def test_defaults(self):
        config = SynthesisConfig()
        assert config.trials == 1
        assert config.prefer_lowest_cost_links
        assert config.max_rounds == 1_000_000

    def test_trial_seed_offsets(self):
        config = SynthesisConfig(seed=10, trials=3)
        assert [config.trial_seed(i) for i in range(3)] == [10, 11, 12]

    def test_trial_out_of_range(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(trials=2).trial_seed(2)

    def test_invalid_trials(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(trials=0)

    def test_invalid_max_rounds(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(max_rounds=0)


class TestMatchingState:
    def test_initial_unsatisfied(self):
        pattern = AllGather(3)
        state = MatchingState(3, pattern.precondition(), pattern.postcondition())
        assert len(state.unsatisfied) == 6
        assert not state.done

    def test_grant_satisfies_postcondition(self):
        pattern = AllGather(2)
        state = MatchingState(2, pattern.precondition(), pattern.postcondition())
        state.grant(0, 1, 1.0)
        state.grant(1, 0, 1.0)
        assert state.done

    def test_holds_respects_time(self):
        pattern = AllGather(2)
        state = MatchingState(2, pattern.precondition(), pattern.postcondition())
        state.grant(0, 1, 5.0)
        assert not state.holds(0, 1, 4.0)
        assert state.holds(0, 1, 5.0)

    def test_precondition_chunks_available_immediately(self):
        pattern = AllGather(2)
        state = MatchingState(2, pattern.precondition(), pattern.postcondition())
        assert state.holds(0, 0, 0.0)
        assert state.acquisition_time(0, 0) == 0.0
        assert state.acquisition_time(0, 1) is None


class TestMatchingRound:
    def test_fully_connected_matches_everything_in_one_round(self):
        topology = build_fully_connected(4)
        pattern = AllGather(4)
        ten = TimeExpandedNetwork(topology, pattern.chunk_size(4e6))
        state = MatchingState(4, pattern.precondition(), pattern.postcondition())
        transfers = run_matching_round(ten, state, 0.0, random.Random(0))
        assert len(transfers) == 12
        assert state.done

    def test_ring_first_round_uses_every_link(self):
        topology = build_ring(4)
        pattern = AllGather(4)
        ten = TimeExpandedNetwork(topology, pattern.chunk_size(4e6))
        state = MatchingState(4, pattern.precondition(), pattern.postcondition())
        transfers = run_matching_round(ten, state, 0.0, random.Random(0))
        assert len(transfers) == topology.num_links
        # Only adjacent owners can supply chunks at t = 0.
        for transfer in transfers:
            assert transfer.chunk == transfer.source

    def test_each_link_used_at_most_once_per_round(self):
        topology = build_ring(6)
        pattern = AllGather(6)
        ten = TimeExpandedNetwork(topology, pattern.chunk_size(6e6))
        state = MatchingState(6, pattern.precondition(), pattern.postcondition())
        transfers = run_matching_round(ten, state, 0.0, random.Random(3))
        links = [transfer.link for transfer in transfers]
        assert len(links) == len(set(links))

    def test_matches_only_transfer_held_chunks(self):
        topology = build_ring(5)
        pattern = AllGather(5)
        ten = TimeExpandedNetwork(topology, pattern.chunk_size(5e6))
        state = MatchingState(5, pattern.precondition(), pattern.postcondition())
        transfers = run_matching_round(ten, state, 0.0, random.Random(1))
        pre = pattern.precondition()
        for transfer in transfers:
            assert transfer.chunk in pre[transfer.source]

    def test_prefers_lowest_cost_links(self):
        topology = Topology(3, name="TwoTier")
        topology.add_link(0, 2, alpha=0.5e-6, bandwidth_gbps=10.0)
        topology.add_link(1, 2, alpha=0.5e-6, bandwidth_gbps=100.0)
        topology.add_link(2, 0, alpha=0.5e-6, bandwidth_gbps=100.0)
        topology.add_link(2, 1, alpha=0.5e-6, bandwidth_gbps=100.0)
        topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=100.0)
        topology.add_link(1, 0, alpha=0.5e-6, bandwidth_gbps=100.0)
        # NPU 2 needs a chunk held by both 0 and 1: the fast link from 1 must win.
        precondition = {0: frozenset({7}), 1: frozenset({7}), 2: frozenset()}
        postcondition = {0: frozenset({7}), 1: frozenset({7}), 2: frozenset({7})}
        ten = TimeExpandedNetwork(topology, 1e6)
        state = MatchingState(3, precondition, postcondition)
        for seed in range(10):
            fresh_state = MatchingState(3, precondition, postcondition)
            fresh_ten = TimeExpandedNetwork(topology, 1e6)
            transfers = run_matching_round(
                fresh_ten, fresh_state, 0.0, random.Random(seed), prefer_lowest_cost=True
            )
            assert len(transfers) == 1
            assert transfers[0].source == 1

    def test_forwarding_pushes_chunk_closer(self):
        # Line topology 0 -> 1 -> 2 where only NPU 2 wants NPU 0's chunk:
        # plain Alg. 1 cannot progress (NPU 1 never requests the chunk), the
        # forwarding pass must move it to NPU 1 first.
        topology = Topology(3, name="Line3")
        topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=50.0)
        topology.add_link(1, 2, alpha=0.5e-6, bandwidth_gbps=50.0)
        topology.add_link(2, 1, alpha=0.5e-6, bandwidth_gbps=50.0)
        topology.add_link(1, 0, alpha=0.5e-6, bandwidth_gbps=50.0)
        precondition = {0: frozenset({0}), 1: frozenset(), 2: frozenset()}
        postcondition = {0: frozenset({0}), 1: frozenset(), 2: frozenset({0})}
        ten = TimeExpandedNetwork(topology, 1e6)
        state = MatchingState(3, precondition, postcondition)
        hop_distances = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        # Without hop distances the round runs no forwarding pass.
        without_forwarding = run_matching_round(ten, state, 0.0, random.Random(0))
        assert without_forwarding == []
        transfers = run_matching_round(
            ten, state, 0.0, random.Random(0), hop_distances=hop_distances
        )
        assert len(transfers) == 1
        assert (transfers[0].source, transfers[0].dest) == (0, 1)

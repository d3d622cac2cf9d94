"""Unit and integration tests for the TACOS synthesizer."""

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
from repro.core import SynthesisConfig, TacosSynthesizer, synthesize, verify_algorithm
from repro.errors import SynthesisError
from repro.topology import (
    Topology,
    build_dgx1,
    build_fully_connected,
    build_mesh_2d,
    build_ring,
    build_switch,
)

MB = 1e6


@pytest.fixture(scope="module")
def synthesizer():
    return TacosSynthesizer()


class TestAllGatherSynthesis:
    def test_ring_all_gather_is_optimal(self, synthesizer):
        """On a bidirectional ring the All-Gather needs ceil((N-1)/2) spans."""
        topology = build_ring(4)
        pattern = AllGather(4)
        algorithm = synthesizer.synthesize(topology, pattern, 4 * MB)
        span = topology.link(0, 1).cost(pattern.chunk_size(4 * MB))
        assert algorithm.collective_time == pytest.approx(2 * span)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_fully_connected_all_gather_single_span(self, synthesizer):
        topology = build_fully_connected(4)
        pattern = AllGather(4)
        algorithm = synthesizer.synthesize(topology, pattern, 4 * MB)
        span = topology.link(0, 1).cost(pattern.chunk_size(4 * MB))
        assert algorithm.collective_time == pytest.approx(span)
        assert algorithm.num_transfers == 12

    def test_unidirectional_ring_all_gather(self, synthesizer):
        topology = build_ring(4, bidirectional=False)
        pattern = AllGather(4)
        algorithm = synthesizer.synthesize(topology, pattern, 4 * MB)
        span = topology.link(0, 1).cost(pattern.chunk_size(4 * MB))
        # Fig. 10(d): the 4-NPU unidirectional ring needs 3 time spans.
        assert algorithm.collective_time == pytest.approx(3 * span)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_mesh_all_gather_verifies(self, synthesizer):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        algorithm = synthesizer.synthesize(topology, pattern, 9 * MB)
        assert verify_algorithm(algorithm, topology, pattern)
        assert not algorithm.has_link_overlap()

    def test_every_transfer_is_on_a_physical_link(self, synthesizer):
        topology = build_mesh_2d(2, 3)
        algorithm = synthesizer.synthesize(topology, AllGather(6), 6 * MB)
        for transfer in algorithm.transfers:
            assert topology.has_link(transfer.source, transfer.dest)

    def test_chunked_all_gather(self, synthesizer):
        topology = build_ring(4)
        pattern = AllGather(4, chunks_per_npu=3)
        algorithm = synthesizer.synthesize(topology, pattern, 12 * MB)
        assert verify_algorithm(algorithm, topology, pattern)
        assert algorithm.num_transfers == 4 * 3 * 3

    def test_broadcast_synthesis(self, synthesizer):
        topology = build_mesh_2d(3, 3)
        pattern = Broadcast(9, chunks_per_npu=2, root=4)
        algorithm = synthesizer.synthesize(topology, pattern, 2 * MB)
        assert verify_algorithm(algorithm, topology, pattern)


class TestReductionSynthesis:
    def test_reduce_scatter_by_reversal(self, synthesizer):
        topology = build_ring(4)
        pattern = ReduceScatter(4)
        algorithm = synthesizer.synthesize(topology, pattern, 4 * MB)
        assert verify_algorithm(algorithm, topology, pattern)
        assert algorithm.pattern_name == "ReduceScatter"
        assert "reversal" in algorithm.metadata["synthesized_via"]

    def test_reduce_by_reversal(self, synthesizer):
        topology = build_mesh_2d(2, 3)
        pattern = Reduce(6, root=0)
        algorithm = synthesizer.synthesize(topology, pattern, 1 * MB)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_all_reduce_composition(self, synthesizer):
        topology = build_ring(4)
        pattern = AllReduce(4)
        algorithm = synthesizer.synthesize(topology, pattern, 4 * MB)
        assert verify_algorithm(algorithm, topology, pattern)
        assert "phase_boundary" in algorithm.metadata
        rs_time = algorithm.metadata["reduce_scatter_time"]
        ag_time = algorithm.metadata["all_gather_time"]
        assert algorithm.collective_time == pytest.approx(rs_time + ag_time)

    def test_all_reduce_on_asymmetric_topology(self, synthesizer):
        topology = build_mesh_2d(3, 3)
        pattern = AllReduce(9, chunks_per_npu=2)
        algorithm = synthesizer.synthesize(topology, pattern, 9 * MB)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_all_reduce_on_dgx1(self, synthesizer):
        topology = build_dgx1()
        pattern = AllReduce(8)
        algorithm = synthesizer.synthesize(topology, pattern, 8 * MB)
        assert verify_algorithm(algorithm, topology, pattern)


class TestRootedAndPersonalizedCollectives:
    def test_gather_needs_forwarding(self, synthesizer):
        topology = build_ring(5, bidirectional=False)
        pattern = Gather(5, root=0)
        algorithm = synthesizer.synthesize(topology, pattern, 5 * MB)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_scatter(self, synthesizer):
        topology = build_ring(5, bidirectional=False)
        pattern = Scatter(5, root=2)
        algorithm = synthesizer.synthesize(topology, pattern, 5 * MB)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_all_to_all(self, synthesizer):
        topology = build_mesh_2d(2, 2)
        pattern = AllToAll(4)
        algorithm = synthesizer.synthesize(topology, pattern, 4 * MB)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_forwarding_disabled_fails_on_gather(self):
        topology = build_ring(5, bidirectional=False)
        config = SynthesisConfig(enable_forwarding=False, max_rounds=100)
        with pytest.raises(SynthesisError):
            TacosSynthesizer(config).synthesize(topology, Gather(5, root=0), 5 * MB)


class TestHeterogeneousSynthesis:
    def test_switch_unwound_topology(self, synthesizer):
        topology = build_switch(6, unwind_degree=2)
        pattern = AllGather(6)
        algorithm = synthesizer.synthesize(topology, pattern, 6 * MB)
        assert verify_algorithm(algorithm, topology, pattern)

    def test_heterogeneous_links_have_heterogeneous_spans(self, synthesizer):
        topology = Topology(3, name="Fig12")
        topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=100.0, bidirectional=True)
        topology.add_link(1, 2, alpha=1e-6, bandwidth_gbps=70.0, bidirectional=True)
        topology.add_link(0, 2, alpha=1e-6, bandwidth_gbps=70.0, bidirectional=True)
        pattern = AllGather(3)
        algorithm = synthesizer.synthesize(topology, pattern, 3 * MB)
        assert verify_algorithm(algorithm, topology, pattern)
        durations = {round(t.duration * 1e9) for t in algorithm.transfers}
        assert len(durations) >= 2  # both link tiers are exercised

    def test_lowest_cost_preference_reduces_slow_link_traffic(self):
        """With cost prioritization the slow links carry no more chunks than without."""
        topology = Topology(4, name="TwoTier4")
        # Fast ring plus one slow shortcut.
        for npu in range(4):
            topology.add_link(npu, (npu + 1) % 4, alpha=0.5e-6, bandwidth_gbps=100.0)
            topology.add_link((npu + 1) % 4, npu, alpha=0.5e-6, bandwidth_gbps=100.0)
        topology.add_link(0, 2, alpha=0.5e-6, bandwidth_gbps=5.0)
        pattern = AllGather(4, chunks_per_npu=2)

        def slow_link_chunks(prefer: bool) -> int:
            config = SynthesisConfig(prefer_lowest_cost_links=prefer)
            algorithm = TacosSynthesizer(config).synthesize(topology, pattern, 8 * MB)
            return sum(1 for t in algorithm.transfers if t.link == (0, 2))

        assert slow_link_chunks(True) <= slow_link_chunks(False)


class TestSynthesizerConfigurationAndErrors:
    def test_multiple_trials_pick_the_best(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        single = TacosSynthesizer(SynthesisConfig(trials=1)).synthesize(topology, pattern, 9 * MB)
        multi = TacosSynthesizer(SynthesisConfig(trials=4)).synthesize(topology, pattern, 9 * MB)
        assert multi.collective_time <= single.collective_time + 1e-12

    def test_synthesize_with_stats_reports_wall_clock(self, synthesizer):
        topology = build_ring(4)
        stats = synthesizer.synthesize_with_stats(topology, AllGather(4), 4 * MB)
        assert stats.wall_clock_seconds > 0
        assert stats.trials == 1
        assert stats.rounds >= 2

    def test_default_search_reports_one_stats_entry_per_seed(self, synthesizer):
        result = synthesizer.synthesize_with_stats(build_ring(4), AllGather(4), 4 * MB)
        assert [entry["seed"] for entry in result.trial_stats] == [0]
        (entry,) = result.trial_stats
        assert entry["rounds"] == result.rounds
        assert entry["collective_time"] == result.algorithm.collective_time
        assert entry["pruned_at_round"] is None
        assert result.full_trials == 1 and result.pruned_trials == 0

        config = SynthesisConfig(seed=5, trials=3)
        result = TacosSynthesizer(config).synthesize_with_stats(
            build_mesh_2d(3, 3), Gather(9), 9 * MB
        )
        assert [entry["seed"] for entry in result.trial_stats] == [5, 6, 7]
        assert all(entry["pruned_at_round"] is None for entry in result.trial_stats)

    def test_all_reduce_stats_are_phase_tagged(self):
        config = SynthesisConfig(trials=2)
        result = TacosSynthesizer(config).synthesize_with_stats(
            build_ring(4), AllReduce(4), 4 * MB
        )
        assert [(entry["phase"], entry["seed"]) for entry in result.trial_stats] == [
            ("reduce_scatter", 0),
            ("reduce_scatter", 1),
            ("all_gather", 0),
            ("all_gather", 1),
        ]

    def test_mismatched_pattern_size_rejected(self, synthesizer):
        with pytest.raises(SynthesisError):
            synthesizer.synthesize(build_ring(4), AllGather(5), 5 * MB)

    def test_non_positive_collective_size_rejected(self, synthesizer):
        with pytest.raises(SynthesisError):
            synthesizer.synthesize(build_ring(4), AllGather(4), 0.0)

    def test_disconnected_topology_stalls(self):
        topology = Topology(4, name="Disconnected")
        topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=50.0, bidirectional=True)
        topology.add_link(2, 3, alpha=0.5e-6, bandwidth_gbps=50.0, bidirectional=True)
        with pytest.raises(SynthesisError):
            TacosSynthesizer().synthesize(topology, AllGather(4), 4 * MB)

    def test_module_level_synthesize_helper(self):
        topology = build_ring(4)
        algorithm = synthesize(topology, AllGather(4), 4 * MB, config=SynthesisConfig(seed=7))
        assert algorithm.num_transfers == 12

    def test_determinism_for_fixed_seed(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        config = SynthesisConfig(seed=123)
        first = TacosSynthesizer(config).synthesize(topology, pattern, 9 * MB)
        second = TacosSynthesizer(config).synthesize(topology, pattern, 9 * MB)
        assert sorted(first.transfers) == sorted(second.transfers)

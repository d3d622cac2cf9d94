"""Cross-module integration tests: synthesize -> verify -> simulate -> analyse."""

import pytest

from repro import (
    AllGather,
    AllReduce,
    SynthesisConfig,
    TacosSynthesizer,
    build_3d_rfs,
    build_dragonfly,
    build_mesh_2d,
    build_ring,
    build_switch,
    build_torus,
    verify_algorithm,
)
from repro.analysis import (
    collective_bandwidth_gbps,
    ideal_all_reduce_bandwidth,
    link_load_statistics,
)
from repro.api import ALGORITHMS
from repro.baselines import ring_all_reduce
from repro.simulator import simulate_algorithm, simulate_schedule

GB = 1e9
MB = 1e6


class TestSynthesizeSimulateAnalyze:
    def test_full_pipeline_on_a_mesh(self):
        topology = build_mesh_2d(4, 4)
        pattern = AllReduce(16, chunks_per_npu=2)
        synthesizer = TacosSynthesizer(SynthesisConfig(seed=1))
        algorithm = synthesizer.synthesize(topology, pattern, GB)
        assert verify_algorithm(algorithm, topology, pattern)

        result = simulate_algorithm(topology, algorithm)
        tacos_bandwidth = collective_bandwidth_gbps(result)
        ideal = ideal_all_reduce_bandwidth(topology, GB) / 1e9
        assert 0.7 * ideal <= tacos_bandwidth <= ideal * 1.01

        ring_result = simulate_schedule(topology, ring_all_reduce(16, GB))
        assert tacos_bandwidth > collective_bandwidth_gbps(ring_result)

    def test_tacos_balances_links_better_than_ring_on_a_mesh(self):
        topology = build_mesh_2d(4, 4)
        algorithm = TacosSynthesizer().synthesize(topology, AllReduce(16), GB)
        tacos_stats = link_load_statistics(simulate_algorithm(topology, algorithm), topology)
        ring_stats = link_load_statistics(
            simulate_schedule(topology, ring_all_reduce(16, GB)), topology
        )
        assert tacos_stats["imbalance"] < ring_stats["imbalance"]
        assert tacos_stats["idle_fraction"] <= ring_stats["idle_fraction"]

    def test_near_ideal_on_symmetric_torus(self):
        topology = build_torus((3, 3, 3))
        pattern = AllReduce(27, chunks_per_npu=2)
        algorithm = TacosSynthesizer().synthesize(topology, pattern, 512 * MB)
        bandwidth = collective_bandwidth_gbps(simulate_algorithm(topology, algorithm))
        ideal = ideal_all_reduce_bandwidth(topology, 512 * MB) / 1e9
        assert bandwidth / ideal > 0.9

    def test_heterogeneous_3d_rfs_pipeline(self):
        topology = build_3d_rfs(2, 2, 4, bandwidths_gbps=(200.0, 100.0, 50.0))
        pattern = AllReduce(topology.num_npus, chunks_per_npu=2)
        algorithm = TacosSynthesizer().synthesize(topology, pattern, 256 * MB)
        assert verify_algorithm(algorithm, topology, pattern)
        tacos_bw = collective_bandwidth_gbps(simulate_algorithm(topology, algorithm))
        ring_bw = collective_bandwidth_gbps(
            simulate_schedule(
                topology,
                ALGORITHMS.get("ring")(
                    topology, AllReduce(topology.num_npus), 256 * MB
                ).schedule,
            )
        )
        assert tacos_bw > 2 * ring_bw

    def test_dragonfly_pipeline(self):
        topology = build_dragonfly(3, 4)
        pattern = AllGather(topology.num_npus)
        algorithm = TacosSynthesizer().synthesize(topology, pattern, 120 * MB)
        assert verify_algorithm(algorithm, topology, pattern)
        result = simulate_algorithm(topology, algorithm)
        assert result.completion_time == pytest.approx(algorithm.collective_time, rel=1e-6)

    def test_switch_unwinding_degrees_tradeoff(self):
        """Full-degree unwinding wins for latency-bound collectives; for
        bandwidth-bound collectives every degree shares the same port bandwidth
        so the times converge (Sec. IV-G)."""
        size_small, size_large = 8e3, 800 * MB
        times = {}
        for degree in (1, 7):
            topology = build_switch(8, unwind_degree=degree, bandwidth_gbps=100.0)
            pattern = AllGather(8)
            synthesizer = TacosSynthesizer()
            times[(degree, "small")] = synthesizer.synthesize(
                topology, pattern, size_small
            ).collective_time
            times[(degree, "large")] = synthesizer.synthesize(
                topology, pattern, size_large
            ).collective_time
        assert times[(7, "small")] < times[(1, "small")]
        assert times[(1, "large")] == pytest.approx(times[(7, "large")], rel=0.02)


class TestBaselineVsTacosShapeClaims:
    def test_tacos_matches_ring_on_its_home_topology(self):
        """On a bidirectional ring TACOS should be within a few percent of Ring."""
        topology = build_ring(8)
        ring_bw = collective_bandwidth_gbps(
            simulate_schedule(topology, ring_all_reduce(8, GB))
        )
        algorithm = TacosSynthesizer().synthesize(topology, AllReduce(8, chunks_per_npu=2), GB)
        tacos_bw = collective_bandwidth_gbps(simulate_algorithm(topology, algorithm))
        assert tacos_bw > 0.85 * ring_bw

    def test_speedup_over_ring_grows_with_asymmetry(self):
        """TACOS' advantage over Ring is larger on a mesh than on a torus."""
        size = 512 * MB
        torus = build_torus((3, 3))
        mesh = build_mesh_2d(3, 3)
        speedups = {}
        for name, topology in (("torus", torus), ("mesh", mesh)):
            tacos = collective_bandwidth_gbps(
                simulate_algorithm(
                    topology,
                    TacosSynthesizer().synthesize(topology, AllReduce(9, chunks_per_npu=2), size),
                )
            )
            ring = collective_bandwidth_gbps(
                simulate_schedule(topology, ring_all_reduce(9, size))
            )
            speedups[name] = tacos / ring
        assert speedups["mesh"] > speedups["torus"] * 0.95
        assert speedups["mesh"] > 1.5

"""Tests for the analysis utilities: ideal bounds, bandwidth, heat maps, utilization."""

import numpy as np
import pytest

from repro.analysis import (
    average_utilization,
    collective_bandwidth,
    collective_bandwidth_gbps,
    efficiency,
    ideal_all_gather_time,
    ideal_all_reduce_bandwidth,
    ideal_all_reduce_time,
    ideal_reduce_scatter_time,
    link_load_matrix,
    link_load_statistics,
    normalize_by,
    normalized_timeline,
    speedup,
    utilization_timeline,
)
from repro.baselines import direct_all_reduce, ring_all_reduce
from repro.collectives import AllGather
from repro.core import TacosSynthesizer
from repro.errors import ReproError, TopologyError
from repro.simulator import simulate_schedule
from repro.topology import build_fully_connected, build_ring

GB = 1e9
MB = 1e6


class TestIdealBounds:
    def test_all_reduce_time_formula(self):
        topology = build_ring(8)  # 2 x 50 GB/s per NPU
        expected = GB * 2 * 7 / 8 / 100e9 + topology.diameter_latency()
        assert ideal_all_reduce_time(topology, GB) == pytest.approx(expected)

    def test_all_reduce_bandwidth_inverse(self):
        topology = build_ring(8)
        time = ideal_all_reduce_time(topology, GB)
        assert ideal_all_reduce_bandwidth(topology, GB) == pytest.approx(GB / time)

    def test_all_gather_time_is_roughly_half_of_all_reduce(self):
        topology = build_ring(8)
        all_gather = ideal_all_gather_time(topology, GB)
        all_reduce = ideal_all_reduce_time(topology, GB)
        assert all_gather < all_reduce
        assert all_gather == pytest.approx(ideal_reduce_scatter_time(topology, GB))

    def test_fully_connected_bound_is_higher_than_ring(self):
        ring = build_ring(8)
        full = build_fully_connected(8)
        assert ideal_all_reduce_bandwidth(full, GB) > ideal_all_reduce_bandwidth(ring, GB)

    def test_non_positive_size_rejected(self):
        with pytest.raises(TopologyError):
            ideal_all_reduce_time(build_ring(4), 0.0)

    def test_ideal_bandwidth_sanity_value(self):
        # 64-NPU ring at 50 GB/s per link: the paper's Fig. 2(a) setup.
        topology = build_ring(64)
        bandwidth = ideal_all_reduce_bandwidth(topology, GB) / GB
        assert 45.0 < bandwidth < 52.0


class TestBandwidthHelpers:
    def test_collective_bandwidth_from_simulation(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, GB))
        assert collective_bandwidth(result) == pytest.approx(GB / result.completion_time)
        assert collective_bandwidth_gbps(result) == pytest.approx(
            collective_bandwidth(result) / GB
        )

    def test_collective_bandwidth_from_algorithm(self):
        topology = build_ring(4)
        algorithm = TacosSynthesizer().synthesize(topology, AllGather(4), 4 * MB)
        assert collective_bandwidth(algorithm) == pytest.approx(
            4 * MB / algorithm.collective_time
        )

    def test_efficiency(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, GB))
        ideal = ideal_all_reduce_bandwidth(topology, GB)
        value = efficiency(result, ideal)
        assert 0.9 < value <= 1.01

    def test_efficiency_rejects_bad_ideal(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, GB))
        with pytest.raises(ReproError):
            efficiency(result, 0.0)

    def test_speedup(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)
        with pytest.raises(ReproError):
            speedup(1.0, 0.0)

    def test_normalize_by(self):
        values = {"TACOS": 1.0, "Ring": 5.0}
        assert normalize_by(values, "TACOS")["Ring"] == pytest.approx(5.0)
        with pytest.raises(ReproError):
            normalize_by(values, "missing")


class TestHeatmap:
    def test_matrix_shape_and_nan_for_missing_links(self):
        topology = build_ring(4)
        result = simulate_schedule(topology, ring_all_reduce(4, 4 * MB))
        matrix = link_load_matrix(result, topology)
        assert matrix.shape == (4, 4)
        assert np.isnan(matrix[0, 2])  # no physical link 0 -> 2 on the ring
        assert np.nanmax(matrix) == pytest.approx(1.0)

    def test_unnormalized_matrix_keeps_bytes(self):
        topology = build_ring(4)
        result = simulate_schedule(topology, ring_all_reduce(4, 4 * MB))
        matrix = link_load_matrix(result, topology, normalize=False)
        assert np.nanmax(matrix) > 1.0

    def test_balanced_algorithm_has_low_imbalance(self):
        topology = build_ring(8)
        ring_stats = link_load_statistics(
            simulate_schedule(topology, ring_all_reduce(8, GB)), topology
        )
        direct_stats = link_load_statistics(
            simulate_schedule(topology, direct_all_reduce(8, GB)), topology
        )
        assert ring_stats["imbalance"] == pytest.approx(1.0, abs=0.05)
        assert direct_stats["imbalance"] > ring_stats["imbalance"]

    def test_idle_fraction_detects_unused_links(self):
        topology = build_fully_connected(6)
        result = simulate_schedule(topology, ring_all_reduce(6, 6 * MB))
        stats = link_load_statistics(result, topology)
        assert stats["idle_fraction"] > 0.0


class TestUtilization:
    def test_timeline_bounds(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, GB))
        times, utilization = utilization_timeline(result, num_samples=64)
        assert len(times) == 64
        assert np.all((utilization >= 0.0) & (utilization <= 1.0))

    def test_average_utilization_matches_result_metric(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, GB))
        assert average_utilization(result) == pytest.approx(
            result.average_link_utilization(), rel=1e-6
        )

    def test_normalized_timeline_scales_time_axis(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, GB))
        times, _ = normalized_timeline(result, result.completion_time, num_samples=10)
        assert times[-1] == pytest.approx(1.0)

    def test_normalized_timeline_rejects_bad_reference(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, GB))
        with pytest.raises(ValueError):
            normalized_timeline(result, 0.0)

    def test_algorithm_utilization_with_topology_denominator(self):
        topology = build_ring(4)
        algorithm = TacosSynthesizer().synthesize(topology, AllGather(4), 4 * MB)
        value = average_utilization(algorithm, num_links=topology.num_links)
        assert 0.5 < value <= 1.0

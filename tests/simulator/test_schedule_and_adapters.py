"""Tests for logical schedules, adapters, and simulation results."""

import numpy as np
import pytest

from repro.baselines import ring_all_gather, ring_all_reduce
from repro.collectives import AllGather
from repro.core import TacosSynthesizer
from repro.errors import SimulationError
from repro.simulator import (
    LogicalSchedule,
    LogicalSend,
    algorithm_to_flat_workload,
    schedule_to_flat_workload,
    simulate_algorithm,
    simulate_schedule,
)
from repro.topology import build_mesh_2d, build_ring

MB = 1e6


class TestLogicalSchedule:
    def test_num_steps_and_sends(self):
        schedule = ring_all_gather(4, 4 * MB, bidirectional=False)
        assert schedule.num_steps == 3
        assert schedule.num_sends == 12

    def test_steps_iterates_in_order(self):
        schedule = ring_all_gather(4, 4 * MB, bidirectional=False)
        steps = list(schedule.steps())
        assert [step for step, _ in steps] == list(range(schedule.num_steps))
        assert sum(len(sends) for _, sends in steps) == schedule.num_sends
        by_scan = [
            [send for send in schedule.sends if send.step == step]
            for step in range(schedule.num_steps)
        ]
        assert [sends for _, sends in steps] == by_scan

    def test_num_steps_and_steps_follow_in_place_edits(self):
        schedule = ring_all_gather(4, 4 * MB, bidirectional=False)
        assert schedule.num_steps == 3
        schedule.sends.append(LogicalSend(step=3, chunk=0, source=0, dest=1))
        assert schedule.num_steps == 4
        assert list(schedule.steps())[-1] == (3, [LogicalSend(3, 0, 0, 1)])

    def test_empty_schedule_has_no_steps(self):
        schedule = LogicalSchedule(
            sends=[], num_npus=2, chunk_size=MB, collective_size=MB, name="empty"
        )
        assert schedule.num_steps == 0
        assert list(schedule.steps()) == []

    def test_validate_rejects_out_of_range(self):
        schedule = LogicalSchedule(
            sends=[LogicalSend(step=0, chunk=0, source=0, dest=5)],
            num_npus=3,
            chunk_size=MB,
            collective_size=MB,
            name="bad",
        )
        with pytest.raises(SimulationError):
            schedule.validate()

    def test_negative_step_rejected(self):
        with pytest.raises(SimulationError):
            LogicalSend(step=-1, chunk=0, source=0, dest=1)


def _dependencies(workload, position):
    return workload.dep_indices[
        workload.dep_indptr[position] : workload.dep_indptr[position + 1]
    ].tolist()


class TestScheduleToFlatWorkload:
    def test_dependency_on_earlier_inbound_send(self):
        schedule = ring_all_gather(4, 4 * MB, bidirectional=False)
        workload = schedule_to_flat_workload(schedule)
        # A step-0 send depends on nothing; every later send depends on the
        # send that delivered the same chunk to its source.
        sends = sorted(schedule.sends, key=lambda s: (s.step, s.source, s.dest, s.chunk))
        for index, send in enumerate(sends):
            assert (workload.sources[index], workload.dests[index]) == (send.source, send.dest)
            if send.step == 0:
                assert _dependencies(workload, index) == []
            else:
                assert len(_dependencies(workload, index)) >= 1

    def test_message_sizes_match_chunk_size(self):
        schedule = ring_all_gather(4, 4 * MB)
        assert schedule_to_flat_workload(schedule).size == pytest.approx(schedule.chunk_size)


class TestAlgorithmToFlatWorkload:
    def test_link_order_is_preserved_as_dependency(self):
        topology = build_mesh_2d(3, 3)
        algorithm = TacosSynthesizer().synthesize(topology, AllGather(9), 9 * MB)
        workload = algorithm_to_flat_workload(algorithm)
        transfers = sorted(algorithm.transfers, key=lambda t: (t.start, t.end))
        by_link = {}
        for index, transfer in enumerate(transfers):
            previous = by_link.get(transfer.link)
            if previous is not None:
                assert previous in _dependencies(workload, index)
            by_link[transfer.link] = index

    def test_simulated_time_matches_synthesized_time(self):
        topology = build_mesh_2d(3, 3)
        algorithm = TacosSynthesizer().synthesize(topology, AllGather(9), 9 * MB)
        result = simulate_algorithm(topology, algorithm)
        assert result.completion_time == pytest.approx(algorithm.collective_time, rel=1e-6)

    def test_simulating_on_slower_network_stretches_time(self):
        fast = build_ring(4, bandwidth_gbps=100.0)
        slow = build_ring(4, bandwidth_gbps=25.0)
        algorithm = TacosSynthesizer().synthesize(fast, AllGather(4), 4 * MB)
        fast_time = simulate_algorithm(fast, algorithm).completion_time
        slow_time = simulate_algorithm(slow, algorithm).completion_time
        assert slow_time > fast_time


class TestSimulationResultMetrics:
    def test_ring_all_reduce_on_ring_hits_known_bandwidth(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, 1e9))
        # 2(N-1)/N * size over two directions of 50 GB/s each, plus small alpha terms.
        expected = 2 * 7 / 8 * 1e9 / 100e9
        assert result.completion_time == pytest.approx(expected, rel=0.01)

    def test_average_link_utilization_bounds(self):
        topology = build_ring(8)
        result = simulate_schedule(topology, ring_all_reduce(8, 1e9))
        assert 0.9 <= result.average_link_utilization() <= 1.0

    def test_per_link_utilization_values(self):
        topology = build_ring(4)
        result = simulate_schedule(topology, ring_all_reduce(4, 4 * MB))
        for value in result.per_link_utilization().values():
            assert 0.0 <= value <= 1.0 + 1e-9

    def test_normalized_link_loads_peak_at_one(self):
        topology = build_ring(4)
        result = simulate_schedule(topology, ring_all_reduce(4, 4 * MB))
        loads = result.normalized_link_loads()
        assert max(loads.values()) == pytest.approx(1.0)

    def test_utilization_timeline_shape_and_range(self):
        topology = build_ring(4)
        result = simulate_schedule(topology, ring_all_reduce(4, 4 * MB))
        times, utilization = result.utilization_timeline(num_samples=50)
        assert times.shape == (50,) and utilization.shape == (50,)
        assert np.all(utilization >= 0.0) and np.all(utilization <= 1.0)

    def test_busy_link_count_at(self):
        topology = build_ring(4)
        result = simulate_schedule(topology, ring_all_reduce(4, 4 * MB))
        assert result.busy_link_count_at(1e-9) > 0

    def test_invalid_sample_count_rejected(self):
        topology = build_ring(4)
        result = simulate_schedule(topology, ring_all_reduce(4, 4 * MB))
        with pytest.raises(SimulationError):
            result.utilization_timeline(num_samples=0)

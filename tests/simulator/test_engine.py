"""Unit tests for the congestion-aware discrete-event simulator."""

import numpy as np
import pytest

from repro.bench.reference import Message
from repro.errors import SimulationError, TopologyError
from repro.simulator import CongestionAwareSimulator
from repro.topology import Topology, build_fully_connected, build_ring
from tests.conftest import run_messages

MB = 1e6


def line_topology() -> Topology:
    """0 -> 1 -> 2 with default 0.5 us / 50 GB/s links."""
    topology = Topology(3, name="Line3")
    topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=50.0)
    topology.add_link(1, 2, alpha=0.5e-6, bandwidth_gbps=50.0)
    return topology


class TestBasicTiming:
    def test_single_message_direct_link(self):
        topology = line_topology()
        simulator = CongestionAwareSimulator(topology)
        result = run_messages(simulator, [Message(message_id=0, source=0, dest=1, size=MB)])
        expected = 0.5e-6 + MB / 50e9
        assert result.completion_time == pytest.approx(expected)

    def test_multi_hop_store_and_forward(self):
        topology = line_topology()
        simulator = CongestionAwareSimulator(topology)
        result = run_messages(simulator, [Message(message_id=0, source=0, dest=2, size=MB)])
        per_hop = 0.5e-6 + MB / 50e9
        assert result.completion_time == pytest.approx(2 * per_hop)

    def test_contending_messages_serialize_fcfs(self):
        topology = line_topology()
        simulator = CongestionAwareSimulator(topology)
        messages = [
            Message(message_id=0, source=0, dest=1, size=MB),
            Message(message_id=1, source=0, dest=1, size=MB),
        ]
        result = run_messages(simulator, messages)
        serialization = MB / 50e9
        # The second message waits for the first one's serialization (the link
        # is busy for beta * size) but the alpha latencies pipeline.
        assert result.message_completion[0] == pytest.approx(0.5e-6 + serialization)
        assert result.message_completion[1] == pytest.approx(0.5e-6 + 2 * serialization)
        assert result.completion_time == pytest.approx(0.5e-6 + 2 * serialization)

    def test_independent_links_run_in_parallel(self):
        topology = build_ring(4)
        simulator = CongestionAwareSimulator(topology)
        messages = [
            Message(message_id=0, source=0, dest=1, size=MB),
            Message(message_id=1, source=2, dest=3, size=MB),
        ]
        result = run_messages(simulator, messages)
        per_hop = 0.5e-6 + MB / 50e9
        assert result.completion_time == pytest.approx(per_hop)

    def test_empty_workload(self):
        result = CongestionAwareSimulator(build_ring(3)).run_flat([], [], MB, [0], [])
        assert result.completion_time == 0.0


class TestDependencies:
    def test_dependent_message_waits(self):
        topology = line_topology()
        simulator = CongestionAwareSimulator(topology)
        messages = [
            Message(message_id=0, source=0, dest=1, size=MB),
            Message(message_id=1, source=1, dest=2, size=MB, depends_on=frozenset({0})),
        ]
        result = run_messages(simulator, messages)
        per_hop = 0.5e-6 + MB / 50e9
        assert result.message_completion[1] == pytest.approx(2 * per_hop)

    def test_diamond_dependency(self):
        topology = build_fully_connected(4)
        simulator = CongestionAwareSimulator(topology)
        messages = [
            Message(message_id=0, source=0, dest=1, size=MB),
            Message(message_id=1, source=0, dest=2, size=MB),
            Message(message_id=2, source=1, dest=3, size=MB, depends_on=frozenset({0, 1})),
        ]
        result = run_messages(simulator, messages)
        # Message 1 contends with 0 on no common link, so both finish after one
        # hop; message 2 then takes another hop.
        per_hop = 0.5e-6 + MB / 50e9
        assert result.message_completion[2] == pytest.approx(2 * per_hop)

    def test_dependency_cycle_detected(self):
        topology = build_fully_connected(3)
        simulator = CongestionAwareSimulator(topology)
        messages = [
            Message(message_id=0, source=0, dest=1, size=MB, depends_on=frozenset({1})),
            Message(message_id=1, source=1, dest=2, size=MB, depends_on=frozenset({0})),
        ]
        with pytest.raises(SimulationError):
            run_messages(simulator, messages)

    def test_unknown_dependency_rejected(self):
        topology = build_fully_connected(3)
        simulator = CongestionAwareSimulator(topology)
        with pytest.raises(SimulationError):
            run_messages(
                simulator,
                [Message(message_id=0, source=0, dest=1, size=MB, depends_on=frozenset({9}))],
            )



class TestAccounting:
    def test_link_bytes_accumulate(self):
        topology = line_topology()
        simulator = CongestionAwareSimulator(topology)
        result = run_messages(simulator, [Message(message_id=0, source=0, dest=2, size=MB)])
        assert result.link_bytes[(0, 1)] == pytest.approx(MB)
        assert result.link_bytes[(1, 2)] == pytest.approx(MB)

    def test_busy_intervals_do_not_overlap_per_link(self):
        topology = build_ring(6)
        simulator = CongestionAwareSimulator(topology)
        messages = [
            Message(message_id=i, source=i % 6, dest=(i + 2) % 6, size=MB) for i in range(12)
        ]
        result = run_messages(simulator, messages)
        for intervals in result.link_busy_intervals.values():
            ordered = sorted(intervals)
            for (start_a, end_a), (start_b, _) in zip(ordered, ordered[1:]):
                assert start_b >= end_a - 1e-12

    def test_collective_bandwidth_requires_size(self):
        topology = line_topology()
        result = run_messages(
            CongestionAwareSimulator(topology), [Message(message_id=0, source=0, dest=1, size=MB)]
        )
        with pytest.raises(SimulationError):
            result.collective_bandwidth()

    def test_unroutable_flat_message_raises(self):
        simulator = CongestionAwareSimulator(line_topology())  # no path from 2 back to 0
        with pytest.raises(
            SimulationError, match="message 1 cannot be routed: no path from NPU 2 to NPU 0"
        ):
            simulator.run_flat([0, 2], [1, 0], MB, [0, 0, 0], [])

    @pytest.mark.parametrize("source, dest", [(0, 3), (-1, 2)])
    def test_npu_outside_the_topology_raises(self, source, dest):
        simulator = CongestionAwareSimulator(line_topology())
        with pytest.raises(TopologyError, match="message 1 .* names an NPU outside Line3"):
            simulator.run_flat([0, source], [1, dest], MB, [0, 0, 0], [])
        assert not simulator._link_route_cache

    def test_flat_npu_outside_the_topology_is_not_aliased(self):
        # 0 -> 6 on a 4-NPU ring has the pair code of 1 -> 2; it must raise,
        # not route over link (1, 2).
        simulator = CongestionAwareSimulator(build_ring(4))
        with pytest.raises(TopologyError, match=r"message 0 \(0 -> 6\)"):
            simulator.run_flat([0], [6], MB, [0, 0], [])


class TestRouteValidation:
    def test_degenerate_pair_raises_without_poisoning_cache(self):
        """Regression: an empty route must be rejected *before* it is cached.

        ``run_flat`` rejects ``source == dest`` up front, so drive
        the resolver directly the way a buggy caller could.
        """
        simulator = CongestionAwareSimulator(line_topology())
        with pytest.raises(SimulationError, match="message 7 has a degenerate route"):
            simulator._route_links_pair(1, 1, MB, 7)
        # The degenerate route must not have been stored.
        assert (1, 1, MB) not in simulator._link_route_cache
        # And it must keep raising on every retry, not just the first one.
        with pytest.raises(SimulationError):
            simulator._route_links_pair(1, 1, MB, 7)

    def test_unreachable_pair_raises_without_poisoning_cache(self):
        simulator = CongestionAwareSimulator(line_topology())
        for _ in range(2):
            with pytest.raises(SimulationError, match="no path from NPU 2 to NPU 0"):
                simulator._route_links_pair(2, 0, MB, 3)
        assert not simulator._link_route_cache

    def test_valid_pairs_are_cached_once(self):
        topology = line_topology()
        simulator = CongestionAwareSimulator(topology)
        route = simulator._route_links_pair(0, 2, MB, 0)
        arrays = topology.link_arrays()
        hops = [(arrays.sources[link], arrays.dests[link]) for link in route]
        assert hops == [(0, 1), (1, 2)]
        assert simulator._link_route_cache == {(0, 2, MB): route}
        # Served from the cache: the same object for any later message.
        assert simulator._route_links_pair(0, 2, MB, 5) is route


class TestZeroWidthIntervals:
    """Regression: pure-latency (beta=0) transmissions must not vanish from
    the utilization metrics — their busy interval has zero width."""

    def zero_beta_topology(self) -> Topology:
        topology = Topology(3, name="PureLatency3")
        topology.add_link(0, 1, alpha=1e-6, beta=0.0)  # control link: alpha only
        topology.add_link(1, 2, alpha=0.5e-6, bandwidth_gbps=50.0)
        return topology

    def test_zero_beta_link_produces_zero_width_interval(self):
        topology = self.zero_beta_topology()
        result = run_messages(
            CongestionAwareSimulator(topology), [Message(message_id=0, source=0, dest=1, size=MB)]
        )
        ((start, end),) = result.link_busy_intervals[(0, 1)]
        assert start == end == 0.0
        assert result.message_completion[0] == pytest.approx(1e-6)
        assert result.link_bytes[(0, 1)] == pytest.approx(MB)

    def test_timeline_counts_instantaneous_transmission(self):
        topology = self.zero_beta_topology()
        result = run_messages(
            CongestionAwareSimulator(topology), [Message(message_id=0, source=0, dest=2, size=MB)]
        )
        times, utilization = result.utilization_timeline(num_samples=50)
        # The zero-width transmission at t=0 lands in the first sample; it
        # previously disappeared because [start, end) is empty when
        # start == end.
        assert utilization[0] > 0.0
        assert utilization.max() <= 1.0

    def test_stacked_instantaneous_transmissions_count_link_once(self):
        """Many zero-width transmissions on one link in one sample bin must
        count that link busy once — the busy fraction can never exceed 1."""
        topology = self.zero_beta_topology()
        messages = [Message(message_id=i, source=0, dest=1, size=MB) for i in range(10)]
        result = run_messages(CongestionAwareSimulator(topology), messages)
        times, utilization = result.utilization_timeline(num_samples=10)
        assert utilization[0] == pytest.approx(0.5)  # 1 of 2 links busy
        assert np.all(utilization <= 1.0)
        assert result.busy_link_count_at(0.0) == 1

    def test_busy_link_count_at_exact_instant(self):
        topology = self.zero_beta_topology()
        result = run_messages(
            CongestionAwareSimulator(topology), [Message(message_id=0, source=0, dest=1, size=MB)]
        )
        assert result.busy_link_count_at(0.0) == 1
        # Away from the instant the pure-latency link is idle.
        assert result.busy_link_count_at(0.5e-6) == 0

    def test_analysis_timeline_counts_instantaneous_transmission(self):
        from repro.analysis import utilization_timeline

        topology = self.zero_beta_topology()
        result = run_messages(
            CongestionAwareSimulator(topology), [Message(message_id=0, source=0, dest=2, size=MB)]
        )
        _, utilization = utilization_timeline(result, num_samples=50)
        assert utilization[0] > 0.0

    def test_reference_simulator_agrees_on_zero_beta(self):
        from repro.bench import ReferenceSimulator

        topology = self.zero_beta_topology()
        messages = [
            Message(message_id=0, source=0, dest=2, size=MB),
            Message(message_id=1, source=0, dest=2, size=MB, depends_on=frozenset({0})),
        ]
        flat = run_messages(CongestionAwareSimulator(topology), messages)
        reference = ReferenceSimulator(topology).run(messages)
        assert flat.message_completion == reference.message_completion
        assert flat.link_busy_intervals == reference.link_busy_intervals


class TestMessageValidation:
    def test_self_message_rejected(self):
        with pytest.raises(SimulationError):
            Message(message_id=0, source=1, dest=1, size=MB)

    def test_non_positive_size_rejected(self):
        with pytest.raises(SimulationError):
            Message(message_id=0, source=0, dest=1, size=0.0)

    def test_self_dependency_rejected(self):
        with pytest.raises(SimulationError):
            Message(message_id=3, source=0, dest=1, size=MB, depends_on=frozenset({3}))

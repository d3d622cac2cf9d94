"""Tests for the TACCL-like synthesizer, the baseline registry, and schedule semantics."""

import pytest

from repro.baselines import (
    ALGORITHM_CAPABILITIES,
    BASIC_ALL_REDUCE_BASELINES,
    SYNTHESIZER_CAPABILITIES,
    TacclLikeSynthesizer,
    build_baseline_all_reduce,
    ring_all_reduce,
)
from repro.errors import SimulationError, SynthesisError, VerificationError
from repro.simulator import LogicalSchedule, LogicalSend
from repro.topology import build_fully_connected, build_mesh_2d, build_ring
from tests.baselines.schedule_semantics import (
    check_all_gather_schedule,
    check_all_reduce_schedule,
    replay_contributions,
)

MB = 1e6


class TestTacclLikeSynthesizer:
    def test_all_gather_is_semantically_correct(self):
        topology = build_mesh_2d(3, 3)
        result = TacclLikeSynthesizer(restarts=2).synthesize_all_gather(topology, 9 * MB)
        assert check_all_gather_schedule(result.schedule)

    def test_all_reduce_is_semantically_correct(self):
        topology = build_mesh_2d(2, 3)
        result = TacclLikeSynthesizer(restarts=2).synthesize_all_reduce(topology, 6 * MB)
        assert check_all_reduce_schedule(result.schedule)

    def test_reports_synthesis_time(self):
        topology = build_ring(6)
        result = TacclLikeSynthesizer(restarts=3).synthesize_all_reduce(topology, 6 * MB)
        assert result.wall_clock_seconds > 0
        assert result.restarts == 3

    def test_fully_connected_takes_one_round(self):
        topology = build_fully_connected(5)
        result = TacclLikeSynthesizer(restarts=1).synthesize_all_gather(topology, 5 * MB)
        assert result.schedule.num_steps == 1

    def test_congestion_obliviousness_produces_link_contention(self):
        """The step schedule may assign several chunks to one link per round —
        the congestion the paper says TACCL ignores."""
        topology = build_ring(6, bidirectional=False)
        result = TacclLikeSynthesizer(restarts=1).synthesize_all_gather(topology, 6 * MB)
        per_step_link_loads = {}
        for send in result.schedule.sends:
            key = (send.step, send.source, send.dest)
            per_step_link_loads[key] = per_step_link_loads.get(key, 0) + 1
        assert max(per_step_link_loads.values()) >= 1

    def test_invalid_restarts_rejected(self):
        with pytest.raises(SynthesisError):
            TacclLikeSynthesizer(restarts=0)

    def test_disconnected_topology_stalls(self):
        from repro.topology import Topology

        topology = Topology(4)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0, bidirectional=True)
        topology.add_link(2, 3, alpha=1e-6, bandwidth_gbps=50.0, bidirectional=True)
        with pytest.raises(SynthesisError):
            TacclLikeSynthesizer(restarts=1).synthesize_all_gather(topology, 4 * MB)


class TestRegistry:
    @pytest.mark.parametrize("name", BASIC_ALL_REDUCE_BASELINES)
    def test_registered_baselines_are_correct(self, name):
        topology = build_ring(8)
        schedule = build_baseline_all_reduce(name, topology, 8 * MB)
        assert check_all_reduce_schedule(schedule)

    def test_multitree_needs_a_topology_and_is_correct(self):
        topology = build_mesh_2d(2, 3)
        schedule = build_baseline_all_reduce("MultiTree", topology, 6 * MB)
        assert check_all_reduce_schedule(schedule)

    def test_unknown_baseline_rejected(self):
        with pytest.raises(SimulationError):
            build_baseline_all_reduce("Nonsense", build_ring(4), MB)

    def test_table1_claims_tacos_supports_everything(self):
        tacos = ALGORITHM_CAPABILITIES["TACOS"]
        assert tacos.ring and tacos.fully_connected and tacos.switch
        assert tacos.multidim_homogeneous and tacos.multidim_heterogeneous
        assert tacos.asymmetric and tacos.any_topology

    def test_table1_basic_algorithms_are_narrow(self):
        assert not ALGORITHM_CAPABILITIES["Ring"].any_topology
        assert not ALGORITHM_CAPABILITIES["Direct"].asymmetric

    def test_table2_only_tacos_has_every_property(self):
        for name, capability in SYNTHESIZER_CAPABILITIES.items():
            has_all = (
                capability.asymmetric
                and capability.heterogeneous
                and capability.autonomous
                and capability.removes_congestion
                and capability.scalable
            )
            assert has_all == (name == "TACOS")


class TestScheduleSemantics:
    def test_replay_contributions_tracks_partial_sums(self):
        schedule = ring_all_reduce(4, 4 * MB, bidirectional=False)
        contributions = replay_contributions(schedule)
        everyone = set(range(4))
        assert all(value == everyone for value in contributions.values())

    def test_double_counting_is_detected(self):
        # NPU 0 sends its partial of chunk 0 to NPU 1 twice in a row.
        sends = [
            LogicalSend(step=0, chunk=0, source=0, dest=1),
            LogicalSend(step=1, chunk=0, source=2, dest=1),
            LogicalSend(step=2, chunk=0, source=0, dest=1),
        ]
        schedule = LogicalSchedule(
            sends=sends, num_npus=3, chunk_size=MB, collective_size=3 * MB, name="bad"
        )
        with pytest.raises(VerificationError):
            replay_contributions(schedule)

    def test_incomplete_all_reduce_is_detected(self):
        sends = [LogicalSend(step=0, chunk=0, source=0, dest=1)]
        schedule = LogicalSchedule(
            sends=sends, num_npus=3, chunk_size=MB, collective_size=3 * MB, name="partial"
        )
        with pytest.raises(VerificationError):
            check_all_reduce_schedule(schedule)

    def test_all_gather_forward_causality_enforced(self):
        sends = [LogicalSend(step=0, chunk=2, source=0, dest=1)]
        schedule = LogicalSchedule(
            sends=sends, num_npus=3, chunk_size=MB, collective_size=3 * MB, name="bad"
        )
        with pytest.raises(VerificationError):
            check_all_gather_schedule(schedule)

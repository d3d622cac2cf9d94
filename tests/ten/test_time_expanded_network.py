"""Unit tests for the time-expanded network state."""

import pytest

from repro.errors import SynthesisError
from repro.ten import TimeExpandedNetwork
from repro.topology import build_ring
from tests.conftest import occupy


@pytest.fixture
def ten():
    return TimeExpandedNetwork(build_ring(4), chunk_size=1e6)


def link(ten, source, dest):
    """Id of the link ``source -> dest`` (its topology insertion index)."""
    return ten.topology.link_arrays().id_of[(source, dest)]


class TestConstruction:
    def test_rejects_non_positive_chunk_size(self):
        with pytest.raises(SynthesisError):
            TimeExpandedNetwork(build_ring(4), chunk_size=0.0)

    def test_link_cost_matches_alpha_beta(self, ten):
        # Default: alpha = 0.5 us, 50 GB/s -> 1 MB takes 20 us + alpha.
        assert ten.link_costs[link(ten, 0, 1)] == pytest.approx(0.5e-6 + 1e6 / 50e9)

    def test_num_links(self, ten):
        assert ten.num_links == 8

    def test_link_columns_follow_the_topology_numbering(self, ten):
        for link_id, (source, dest) in enumerate(zip(ten.link_sources, ten.link_dests)):
            assert link(ten, source, dest) == link_id


class TestOccupancy:
    def test_links_start_idle(self, ten):
        assert ten.free_times == [0.0] * 8
        assert ten.idle_link_count(0.0) == 8

    def test_occupy_marks_busy_until_completion(self, ten):
        link_id = link(ten, 0, 1)
        end = occupy(ten, link_id, 0.0)
        assert end == pytest.approx(ten.link_costs[link_id])
        assert ten.free_times[link_id] == end
        assert ten.idle_link_count(end / 2) == 7
        assert ten.idle_link_count(end) == 8

    def test_in_link_ids_list_every_in_link(self, ten):
        sources = [ten.link_sources[link_id] for link_id in ten.in_link_ids(1)]
        assert sorted(sources) == [0, 2]
        assert all(ten.link_dests[link_id] == 1 for link_id in ten.in_link_ids(1))

    def test_idle_in_links_excludes_busy(self, ten):
        occupy(ten, link(ten, 0, 1), 0.0)
        idle = [
            ten.link_sources[link_id]
            for link_id in ten.in_link_ids(1)
            if ten.free_times[link_id] <= 0.0
        ]
        assert idle == [2]

    def test_out_adjacency(self, ten):
        assert sorted(ten.out_adjacency[0]) == [1, 3]

    def test_idle_link_count_after_two_commits(self, ten):
        occupy(ten, link(ten, 0, 1), 0.0)
        occupy(ten, link(ten, 1, 2), 0.0)
        assert ten.idle_link_count(1e-9) == 6

    def test_copy_is_independent(self, ten):
        clone = ten.copy()
        end = occupy(clone, link(ten, 0, 1), 0.0)
        assert clone.free_times[link(ten, 0, 1)] == end
        assert ten.free_times[link(ten, 0, 1)] == 0.0
        assert ten.next_event_after(0.0) is None
        assert clone.next_event_after(0.0) == end


class TestEvents:
    def test_next_event_after_returns_earliest_future_event(self, ten):
        first = occupy(ten, link(ten, 0, 1), 0.0)
        occupy(ten, link(ten, 1, 2), first)
        assert ten.next_event_after(0.0) == pytest.approx(first)

    def test_events_are_consumed(self, ten):
        first = occupy(ten, link(ten, 0, 1), 0.0)
        assert ten.next_event_after(0.0) == pytest.approx(first)
        assert ten.next_event_after(0.0) is None

    def test_no_events_returns_none(self, ten):
        assert ten.next_event_after(0.0) is None

    def test_past_events_are_skipped(self, ten):
        ten.push_event(1.0)
        ten.push_event(2.0)
        assert ten.next_event_after(1.5) == pytest.approx(2.0)

    def test_duplicate_event_times_are_coalesced(self, ten):
        ten.push_event(1.0)
        ten.push_event(1.0)
        assert ten.next_event_after(0.0) == 1.0
        assert ten.next_event_after(0.0) is None


class TestHeterogeneousSpans:
    def test_heterogeneous_link_costs(self):
        from repro.topology import Topology

        topology = Topology(3, name="Fig12")
        topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=100.0, bidirectional=True)
        topology.add_link(1, 2, alpha=1e-6, bandwidth_gbps=70.0, bidirectional=True)
        ten = TimeExpandedNetwork(topology, chunk_size=1e6)
        fast, slow = link(ten, 0, 1), link(ten, 1, 2)
        # Fig. 12: 1 MB chunk -> 10.5 us over the fast link, ~15.3 us over the slow one.
        assert ten.link_costs[fast] == pytest.approx(0.5e-6 + 1e6 / 100e9)
        assert ten.link_costs[slow] == pytest.approx(1e-6 + 1e6 / 70e9)
        fast_end = occupy(ten, fast, 0.0)
        slow_end = occupy(ten, slow, 0.0)
        assert fast_end < slow_end
        assert ten.next_event_after(0.0) == pytest.approx(fast_end)

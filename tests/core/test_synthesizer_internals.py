"""Direct coverage for the synthesizer's topology-level helper structures.

``Topology.cheaper_reachability_regions``, ``Topology.hop_distances`` and
``TacosSynthesizer._needs_forwarding`` were previously only exercised
indirectly through whole experiment runs; these tests pin their semantics
down on explicit heterogeneous topologies.
"""

import pytest

from repro.collectives import AllGather, AllReduce, AllToAll, Broadcast, Gather, Scatter
from repro.core.synthesizer import ENGINES, FLAT_ENGINE, TacosSynthesizer, resolve_engine
from repro.errors import SynthesisError
from repro.topology import Topology, build_dgx1, build_ring


def two_tier_line():
    """0 --fast-- 1 --slow-- 2 (bidirectional), two distinct cost tiers."""
    topology = Topology(3, name="TwoTierLine")
    topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=100.0, bidirectional=True)
    topology.add_link(1, 2, alpha=0.5e-6, bandwidth_gbps=10.0, bidirectional=True)
    return topology


class TestCheaperReachabilityRegions:
    def test_homogeneous_topology_has_no_tiers(self):
        regions = build_ring(4).cheaper_reachability_regions(1e6)
        assert regions == {}

    def test_two_tier_regions(self):
        topology = two_tier_line()
        chunk_size = 1e6
        regions = topology.cheaper_reachability_regions(chunk_size)
        # Exactly one non-cheapest tier: the slow 10 GB/s links.
        slow_cost = topology.link(1, 2).cost(chunk_size)
        assert set(regions) == {slow_cost}
        per_dest = regions[slow_cost]
        # Destination 0 is reachable over strictly cheaper (fast) links from 1.
        assert per_dest[0] == frozenset({1})
        assert per_dest[1] == frozenset({0})
        # Destination 2's only incoming link is the slow one: nothing cheaper.
        assert per_dest[2] == frozenset()

    def test_regions_exclude_destination_itself(self):
        regions = build_dgx1(heterogeneous=True).cheaper_reachability_regions(1e6)
        for per_dest in regions.values():
            for dest, region in enumerate(per_dest):
                assert dest not in region

    def test_homogeneous_dgx1_has_no_tiers(self):
        assert build_dgx1().cheaper_reachability_regions(1e6) == {}

    def test_heterogeneous_dgx1_has_a_slow_tier(self):
        # The 2-tier DGX-1 mixes single and doubled NVLink bandwidths.
        topology = build_dgx1(heterogeneous=True)
        assert not topology.is_homogeneous()
        regions = topology.cheaper_reachability_regions(1e6)
        assert len(regions) == 1  # exactly one non-cheapest tier
        (per_dest,) = regions.values()
        assert len(per_dest) == 8
        # Every GPU touches at least one doubled link, so every destination
        # is reachable from somewhere over strictly cheaper links.
        assert all(region for region in per_dest)

    def test_cached_on_topology_instance(self):
        topology = two_tier_line()
        regions = topology.cheaper_reachability_regions(1e6)
        assert topology.cheaper_reachability_regions(1e6) is regions
        # A different chunk size is a different cache entry.
        assert topology.cheaper_reachability_regions(2e6) is not regions

    def test_cache_invalidated_by_new_links(self):
        topology = two_tier_line()
        before = topology.cheaper_reachability_regions(1e6)
        topology.add_link(0, 2, alpha=0.5e-6, bandwidth_gbps=100.0)
        after = topology.cheaper_reachability_regions(1e6)
        assert after is not before
        slow_cost = topology.link(1, 2).cost(1e6)
        # 2 is now reachable over fast links: directly from 0, and from 1
        # via the fast 1 -> 0 -> 2 detour.
        assert after[slow_cost][2] == frozenset({0, 1})


class TestNeedsForwarding:
    @pytest.mark.parametrize(
        "pattern,expected",
        [
            (AllGather(4), False),  # every NPU wants every chunk
            (AllReduce(4).all_gather_phase(), False),
            (Gather(4, root=0), True),  # only the root wants the chunks
            (Scatter(4, root=1).non_reducing_dual() or Scatter(4, root=1), True),
            (AllToAll(4), True),  # each chunk has exactly one requester
            (Broadcast(4, root=0), False),  # all NPUs request the root's chunk
        ],
    )
    def test_patterns(self, pattern, expected):
        assert TacosSynthesizer._needs_forwarding(pattern) is expected


class TestHopDistances:
    def test_cached_on_topology_instance(self):
        topology = build_ring(5)
        distances = topology.hop_distances()
        assert distances is topology.hop_distances()
        assert distances[0][1] == 1
        assert distances[0][2] == 2
        # Bidirectional ring: the far side is reached the short way around.
        assert distances[0][4] == 1

    def test_unreachable_sentinel(self):
        topology = Topology(3, name="OneWay")
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0)
        topology.add_link(1, 2, alpha=1e-6, bandwidth_gbps=50.0)
        distances = topology.hop_distances()
        assert distances[2][0] == topology.num_npus + 1  # no way back


class TestEngineRegistry:
    def test_known_engines(self):
        assert "flat" in ENGINES
        assert resolve_engine("flat") is FLAT_ENGINE

    def test_reference_engine_lazily_importable(self):
        assert resolve_engine("reference").name == "reference"

    @pytest.mark.parametrize("name", ["vectorised", "native"])
    def test_unknown_engine_raises(self, name):
        with pytest.raises(SynthesisError, match="unknown synthesis engine"):
            resolve_engine(name)

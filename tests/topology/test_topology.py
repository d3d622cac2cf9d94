"""Unit tests for the Topology container and its derived properties."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import TopologyError
from repro.topology import Topology, build_fully_connected, build_mesh_2d, build_ring


def make_triangle() -> Topology:
    """The asymmetric 3-NPU topology of Fig. 6(a): 0->1, 0->2, 1->2, 2->0."""
    topology = Topology(3, name="Fig6")
    topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0)
    topology.add_link(0, 2, alpha=1e-6, bandwidth_gbps=50.0)
    topology.add_link(1, 2, alpha=1e-6, bandwidth_gbps=50.0)
    topology.add_link(2, 0, alpha=1e-6, bandwidth_gbps=50.0)
    return topology


class TestConstruction:
    def test_requires_positive_npus(self):
        with pytest.raises(TopologyError):
            Topology(0)

    def test_add_link_and_query(self):
        topology = make_triangle()
        assert topology.has_link(0, 1)
        assert not topology.has_link(1, 0)
        assert topology.num_links == 4

    def test_duplicate_link_rejected(self):
        topology = make_triangle()
        with pytest.raises(TopologyError):
            topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0)

    def test_out_of_range_npu_rejected(self):
        topology = Topology(3)
        with pytest.raises(TopologyError):
            topology.add_link(0, 3, alpha=1e-6, bandwidth_gbps=50.0)

    def test_requires_exactly_one_bandwidth_spec(self):
        topology = Topology(3)
        with pytest.raises(TopologyError):
            topology.add_link(0, 1, alpha=1e-6)
        with pytest.raises(TopologyError):
            topology.add_link(0, 1, alpha=1e-6, beta=1e-11, bandwidth_gbps=50.0)

    def test_bidirectional_adds_both_directions(self):
        topology = Topology(2)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0, bidirectional=True)
        assert topology.has_link(0, 1) and topology.has_link(1, 0)

    def test_missing_link_lookup_raises(self):
        topology = make_triangle()
        with pytest.raises(TopologyError):
            topology.link(1, 0)


class TestNeighborsAndDegrees:
    def test_out_neighbors(self):
        topology = make_triangle()
        assert set(topology.out_neighbors(0)) == {1, 2}
        assert set(topology.out_neighbors(2)) == {0}

    def test_in_neighbors(self):
        topology = make_triangle()
        assert set(topology.in_neighbors(2)) == {0, 1}
        assert set(topology.in_neighbors(0)) == {2}

    def test_degrees(self):
        topology = make_triangle()
        assert topology.out_degree(0) == 2
        assert topology.in_degree(0) == 1


class TestProperties:
    def test_connectivity(self):
        assert make_triangle().is_connected()

    def test_disconnected_detected(self):
        topology = Topology(3)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0, bidirectional=True)
        assert not topology.is_connected()

    def test_homogeneous(self):
        assert make_triangle().is_homogeneous()

    def test_heterogeneous_detected(self):
        topology = Topology(2)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0)
        topology.add_link(1, 0, alpha=1e-6, bandwidth_gbps=100.0)
        assert not topology.is_homogeneous()

    def test_symmetric_for_ring(self):
        assert build_ring(6).is_symmetric()

    def test_asymmetric_for_triangle(self):
        assert not make_triangle().is_symmetric()

    def test_npu_bandwidths(self):
        topology = make_triangle()
        assert topology.npu_egress_bandwidth(0) == pytest.approx(2 * 50e9)
        assert topology.npu_ingress_bandwidth(0) == pytest.approx(50e9)
        assert topology.min_npu_bandwidth() == pytest.approx(50e9)

    def test_diameter_hops(self):
        assert make_triangle().diameter_hops() == 2
        assert build_fully_connected(5).diameter_hops() == 1

    def test_diameter_latency_uses_alpha(self):
        topology = make_triangle()
        # The farthest pair (1 -> 0) needs two hops of 1 us alpha each.
        assert topology.diameter_latency() == pytest.approx(2e-6)

    def test_total_link_bandwidth(self):
        assert make_triangle().total_link_bandwidth() == pytest.approx(4 * 50e9)


class TestRouting:
    def test_shortest_path_direct(self):
        topology = make_triangle()
        assert topology.shortest_path(0, 2) == [0, 2]

    def test_shortest_path_multihop(self):
        topology = make_triangle()
        assert topology.shortest_path(1, 0) == [1, 2, 0]

    def test_shortest_path_same_endpoint(self):
        topology = make_triangle()
        assert topology.shortest_path(1, 1) == [1]

    def test_shortest_path_missing_raises(self):
        topology = Topology(3)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0)
        with pytest.raises(TopologyError):
            topology.shortest_path(1, 2)

    def test_shortest_path_prefers_fast_links_for_large_messages(self):
        topology = Topology(3)
        # Direct slow link vs. a two-hop fast path.
        topology.add_link(0, 2, alpha=0.5e-6, bandwidth_gbps=10.0)
        topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=100.0)
        topology.add_link(1, 2, alpha=0.5e-6, bandwidth_gbps=100.0)
        assert topology.shortest_path(0, 2, message_size=0.0) == [0, 2]
        assert topology.shortest_path(0, 2, message_size=100e6) == [0, 1, 2]

    def test_all_shortest_paths_from(self):
        topology = make_triangle()
        paths = topology.all_shortest_paths_from(0)
        assert set(paths) == {1, 2}
        assert paths[1] == [0, 1]


class TestShortestPathTrees:
    def test_tree_matches_per_destination_paths(self):
        topology = make_triangle()
        distances, parent_links = topology.shortest_path_tree(0)
        assert distances[0] == 0.0
        assert parent_links[0] == -1
        arrays = topology.link_arrays()
        for dest in (1, 2):
            path = topology.shortest_path(0, dest)
            # The final hop recorded in the tree is the last link of the path.
            assert arrays.dests[parent_links[dest]] == dest
            assert arrays.sources[parent_links[dest]] == path[-2]

    def test_tree_is_cached_per_source_and_size(self):
        topology = make_triangle()
        assert topology.shortest_path_tree(0, 1e6) is topology.shortest_path_tree(0, 1e6)
        assert topology.shortest_path_tree(0, 1e6) is not topology.shortest_path_tree(0, 2e6)

    def test_tree_cache_invalidated_on_add_link(self):
        topology = Topology(3)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0)
        topology.add_link(1, 2, alpha=1e-6, bandwidth_gbps=50.0)
        assert topology.shortest_path(0, 2) == [0, 1, 2]
        topology.add_link(0, 2, alpha=1e-6, bandwidth_gbps=50.0)
        assert topology.shortest_path(0, 2) == [0, 2]

    def test_unreachable_distance_is_infinite(self):
        topology = Topology(3)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0)
        distances, parent_links = topology.shortest_path_tree(0)
        assert math.isinf(distances[2])
        assert parent_links[2] == -1

    def test_negative_message_size_rejected(self):
        with pytest.raises(TopologyError):
            make_triangle().shortest_path_tree(0, -1.0)

    def test_shortest_path_links_matches_npu_path(self):
        topology = make_triangle()
        arrays = topology.link_arrays()
        for dest in (1, 2):
            npu_path = topology.shortest_path(1, dest) if dest != 1 else None
            if npu_path is None:
                continue
            link_path = topology.shortest_path_links(1, dest)
            hops = [(arrays.sources[lid], arrays.dests[lid]) for lid in link_path]
            assert hops == list(zip(npu_path, npu_path[1:]))
        assert topology.shortest_path_links(1, 1) == []


class TestLinkArrays:
    def test_arrays_follow_insertion_order(self):
        topology = make_triangle()
        arrays = topology.link_arrays()
        for key, link_id in arrays.id_of.items():
            assert (arrays.sources[link_id], arrays.dests[link_id]) == key
            link = topology.link(*key)
            assert arrays.alphas[link_id] == link.alpha
            assert arrays.betas[link_id] == link.beta
        assert list(arrays.id_of) == list(topology.link_keys())

    def test_adjacency_ids_match_neighbors(self):
        topology = make_triangle()
        arrays = topology.link_arrays()
        for npu in topology.npus:
            out_dests = [arrays.dests[lid] for lid in arrays.out_ids[npu]]
            assert out_dests == list(topology.out_neighbors(npu))
            in_sources = [arrays.sources[lid] for lid in arrays.in_ids[npu]]
            assert in_sources == list(topology.in_neighbors(npu))

    def test_cached_and_invalidated(self):
        topology = make_triangle()
        first = topology.link_arrays()
        assert topology.link_arrays() is first
        topology.add_link(1, 0, alpha=1e-6, bandwidth_gbps=50.0)
        assert topology.link_arrays() is not first


class TestDownhillLinks:
    def test_rows_list_strictly_closer_out_links_in_out_link_order(self):
        topology = build_mesh_2d(4, 4)
        arrays = topology.link_arrays()
        distances = topology.hop_distances()
        table = topology.downhill_links()
        for dest in topology.npus:
            assert table.rows[dest] is None  # filled on first use only
            row = table.row(dest)
            assert table.rows[dest] is row
            for npu in topology.npus:
                expected = [
                    link_id
                    for link_id in arrays.out_ids[npu]
                    if distances[arrays.dests[link_id]][dest] < distances[npu][dest]
                ]
                assert row[npu] == expected
                assert len(row[npu]) <= 2  # a mesh node steps closer in x or y
            assert row[dest] == []

    def test_several_downhill_links_on_a_mesh(self):
        row = build_mesh_2d(4, 4).downhill_links().row(0)
        assert max(len(links) for links in row) == 2

    def test_cached_per_distance_matrix_and_invalidated(self):
        topology = make_triangle()
        table = topology.downhill_links()
        assert topology.downhill_links() is table
        assert topology.downhill_links(topology.hop_distances()) is table
        copied = [list(row) for row in topology.hop_distances()]
        other = topology.downhill_links(copied)
        assert other is not table and other.hop_distances is copied
        assert other.row(0) == table.row(0)
        topology.add_link(1, 0, alpha=1e-6, bandwidth_gbps=50.0)
        assert topology.downhill_links() is not other
        assert topology.downhill_links().row(0)[1] == [topology.link_arrays().id_of[(1, 0)]]

    def test_concurrent_fills_agree(self):
        # Thread-backend trials share one table and fill rows on first use;
        # a lost race may build a row twice but must never expose a wrong one.
        topology = build_mesh_2d(5, 5)
        expected = [
            topology.downhill_links([list(r) for r in topology.hop_distances()]).row(dest)
            for dest in topology.npus
        ]
        table = topology.downhill_links()
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(lambda: [table.row(dest) for dest in reversed(topology.npus)])
                    for _ in range(8)
                ]
                for future in futures:
                    seen.append(future.result(timeout=60)[::-1])
        finally:
            sys.setswitchinterval(interval)
        assert all(rows == expected for rows in seen)
        assert table.rows == expected


class TestTransformations:
    def test_reversed_flips_every_link(self):
        topology = make_triangle()
        reverse = topology.reversed()
        assert reverse.num_links == topology.num_links
        for link in topology.links():
            assert reverse.has_link(link.dest, link.source)

    def test_double_reverse_is_identity(self):
        topology = make_triangle()
        assert topology.reversed().reversed() == topology

    def test_copy_is_equal_but_independent(self):
        topology = make_triangle()
        clone = topology.copy()
        assert clone == topology
        clone.add_link(1, 0, alpha=1e-6, bandwidth_gbps=50.0)
        assert clone != topology

    def test_to_networkx_preserves_structure(self):
        topology = make_triangle()
        graph = topology.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 4
        assert graph.edges[0, 1]["alpha"] == pytest.approx(1e-6)

    def test_repr_mentions_name(self):
        assert "Fig6" in repr(make_triangle())

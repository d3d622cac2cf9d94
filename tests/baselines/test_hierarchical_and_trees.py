"""Correctness tests for BlueConnect, Themis, MultiTree, C-Cube, and tree helpers."""

import pytest

from repro.baselines import (
    CCUBE_TREE_ONE,
    CCUBE_TREE_TWO,
    SpanningTree,
    blueconnect_all_reduce,
    build_bfs_tree,
    build_complete_binary_tree,
    ccube_all_reduce,
    multitree_all_reduce,
    themis_all_reduce,
    trees_to_all_gather_schedule,
    trees_to_all_reduce_schedule,
)
from repro.baselines.blueconnect import hierarchical_all_reduce_sends
from repro.errors import SimulationError
from repro.simulator import LogicalSend, simulate_schedule
from repro.topology import build_dgx1, build_mesh_2d, build_ring, build_torus
from repro.topology.builders.mesh import grid_coordinates, grid_index
from tests.baselines.schedule_semantics import (
    check_all_gather_schedule,
    check_all_reduce_schedule,
)

MB = 1e6


class TestSpanningTree:
    def test_depth_and_children(self):
        tree = SpanningTree(root=0, parent={1: 0, 2: 0, 3: 1})
        assert tree.depth(3) == 2
        assert tree.max_depth() == 2
        assert tree.children()[0] == [1, 2]

    def test_validate_detects_missing_nodes(self):
        tree = SpanningTree(root=0, parent={1: 0})
        with pytest.raises(SimulationError):
            tree.validate(3)

    def test_validate_detects_cycle(self):
        tree = SpanningTree(root=0, parent={1: 2, 2: 1})
        with pytest.raises(SimulationError):
            tree.validate(3)

    def test_complete_binary_tree_structure(self):
        tree = build_complete_binary_tree(7, list(range(7)))
        assert tree.root == 0
        assert tree.parent[3] == 1
        assert tree.parent[6] == 2
        assert tree.max_depth() == 2

    def test_bfs_tree_spans_topology(self):
        topology = build_mesh_2d(3, 3)
        tree = build_bfs_tree(topology, 4)
        tree.validate(9)
        for child, parent in tree.parent.items():
            assert topology.has_link(parent, child)


class TestTreeSchedules:
    def test_single_tree_all_reduce_correct(self):
        tree = build_complete_binary_tree(6, list(range(6)))
        schedule = trees_to_all_reduce_schedule([(tree, list(range(6)))], 6, 6 * MB)
        assert check_all_reduce_schedule(schedule)

    def test_per_root_tree_all_gather_correct(self):
        # One tree per root, each broadcasting its root's block, is an All-Gather.
        num_npus = 5
        assignments = []
        for root in range(num_npus):
            order = [(root + offset) % num_npus for offset in range(num_npus)]
            assignments.append((build_complete_binary_tree(num_npus, order), [root]))
        schedule = trees_to_all_gather_schedule(assignments, num_npus, num_npus * MB)
        assert check_all_gather_schedule(schedule)

    def test_serialized_chunks_increase_steps(self):
        tree = build_complete_binary_tree(4, list(range(4)))
        overlapped = trees_to_all_reduce_schedule([(tree, [0, 1, 2, 3])], 4, 4 * MB)
        serialized = trees_to_all_reduce_schedule(
            [(tree, [0, 1, 2, 3])], 4, 4 * MB, serialize_chunks=True
        )
        assert serialized.num_steps > overlapped.num_steps
        assert check_all_reduce_schedule(serialized)


def _reference_sends(dims, order, *, chunks_per_npu, sub_chunk, direction):
    """The hierarchical pass recomputing every coordinate at each use.

    The plain form of :func:`hierarchical_all_reduce_sends`, which computes
    each NPU's coordinates once per call; both must emit the same sends in
    the same order.
    """
    num_npus = 1
    for dim in dims:
        num_npus *= dim
    sends, step = [], 0

    def sweep(axis, completed, reduce_phase, base):
        size = dims[axis]
        for npu in range(num_npus):
            coords = grid_coordinates(npu, dims)
            members = []
            for position in range(size):
                member = list(coords)
                member[axis] = position
                members.append(grid_index(member, dims))
            for local in range(size - 1):
                shift = local + 1 if reduce_phase else local
                group = (coords[axis] - direction * shift) % size
                dest = members[(coords[axis] + direction) % size]
                for block in range(num_npus):
                    block_coords = grid_coordinates(block, dims)
                    if block_coords[axis] != group:
                        continue
                    if any(block_coords[a] != coords[a] for a in completed):
                        continue
                    chunk = block * chunks_per_npu + sub_chunk
                    sends.append(LogicalSend(step=base + local, chunk=chunk, source=npu, dest=dest))

    completed = []
    for axis in order:
        if dims[axis] > 1:
            sweep(axis, completed, True, step)
            step += dims[axis] - 1
        completed.append(axis)
    for axis in reversed(order):
        completed.remove(axis)
        if dims[axis] > 1:
            sweep(axis, completed, False, step)
            step += dims[axis] - 1
    return sends, step


class TestBlueConnectAndThemis:
    @pytest.mark.parametrize(
        "dims, order, chunks_per_npu, sub_chunk, direction",
        [
            ((4,), (0,), 1, 0, 1),
            ((2, 3), (0, 1), 1, 0, 1),
            ((3, 2), (1, 0), 2, 1, -1),
            ((2, 1, 3), (2, 0, 1), 3, 2, 1),
            ((3, 3, 2), (1, 2, 0), 2, 0, -1),
            ((4, 4, 4), (0, 1, 2), 2, 1, 1),
        ],
    )
    def test_sends_equal_the_per_use_coordinate_reference(
        self, dims, order, chunks_per_npu, sub_chunk, direction
    ):
        options = dict(chunks_per_npu=chunks_per_npu, sub_chunk=sub_chunk, direction=direction)
        assert hierarchical_all_reduce_sends(dims, order, **options) == _reference_sends(
            dims, list(order), **options
        )

    @pytest.mark.parametrize("dims", [(2, 2), (2, 4), (2, 2, 2), (2, 4, 2), (3, 3)])
    def test_blueconnect_is_semantically_correct(self, dims):
        num_npus = 1
        for dim in dims:
            num_npus *= dim
        assert check_all_reduce_schedule(blueconnect_all_reduce(dims, num_npus * MB))

    @pytest.mark.parametrize("chunks_per_npu", [1, 2, 4])
    def test_themis_is_semantically_correct(self, chunks_per_npu):
        assert check_all_reduce_schedule(
            themis_all_reduce((2, 2, 2), 8 * MB, chunks_per_npu=chunks_per_npu)
        )

    def test_themis_rotates_dimension_orders(self):
        schedule = themis_all_reduce((2, 4, 2), 16 * MB, chunks_per_npu=4)
        assert check_all_reduce_schedule(schedule)
        assert schedule.metadata["chunks_per_npu"] == 4

    def test_themis_beats_blueconnect_on_a_torus(self):
        """Chunk-level dimension rotation should not be slower than BlueConnect."""
        dims = (3, 3, 3)
        topology = build_torus(dims)
        size = 270 * MB
        blueconnect_time = simulate_schedule(
            topology, blueconnect_all_reduce(dims, size, chunks_per_npu=4)
        ).completion_time
        themis_time = simulate_schedule(
            topology, themis_all_reduce(dims, size, chunks_per_npu=4)
        ).completion_time
        assert themis_time <= blueconnect_time * 1.05

    def test_single_npu_dims_rejected(self):
        with pytest.raises(SimulationError):
            blueconnect_all_reduce((1, 1), MB)


class TestMultiTree:
    def test_multitree_is_semantically_correct(self):
        topology = build_mesh_2d(3, 3)
        assert check_all_reduce_schedule(multitree_all_reduce(topology, 9 * MB))

    def test_multitree_uses_only_physical_links(self):
        topology = build_mesh_2d(3, 3)
        schedule = multitree_all_reduce(topology, 9 * MB)
        for send in schedule.sends:
            assert topology.has_link(send.source, send.dest)

    def test_multitree_serializes_chunks(self):
        topology = build_ring(4)
        single = multitree_all_reduce(topology, 4 * MB, chunks_per_npu=1)
        chunked = multitree_all_reduce(topology, 4 * MB, chunks_per_npu=3)
        assert chunked.num_steps > single.num_steps

    def test_disconnected_topology_rejected(self):
        from repro.topology import Topology

        topology = Topology(4)
        topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0, bidirectional=True)
        topology.add_link(2, 3, alpha=1e-6, bandwidth_gbps=50.0, bidirectional=True)
        with pytest.raises(SimulationError):
            multitree_all_reduce(topology, 4 * MB)


class TestCCube:
    def test_ccube_is_semantically_correct(self):
        assert check_all_reduce_schedule(ccube_all_reduce(8 * MB))

    def test_ccube_trees_fit_the_dgx1_topology(self):
        topology = build_dgx1()
        schedule = ccube_all_reduce(8 * MB, topology=topology)
        for send in schedule.sends:
            assert topology.has_link(send.source, send.dest)

    def test_ccube_trees_span_all_gpus(self):
        CCUBE_TREE_ONE.validate(8)
        CCUBE_TREE_TWO.validate(8)

    def test_ccube_rejects_wrong_topology(self):
        with pytest.raises(SimulationError):
            ccube_all_reduce(8 * MB, topology=build_ring(4))

    def test_ccube_leaves_links_idle(self):
        """C-Cube's trees use only a subset of the DGX-1 links (the paper's point)."""
        topology = build_dgx1()
        schedule = ccube_all_reduce(8 * MB)
        used_links = {(send.source, send.dest) for send in schedule.sends}
        assert len(used_links) < topology.num_links

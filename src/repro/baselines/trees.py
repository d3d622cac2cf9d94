"""Tree-based collective schedule construction helpers.

Several baselines (Double Binary Tree, C-Cube, MultiTree) execute an
All-Reduce by reducing partials up a spanning tree to its root and then
broadcasting the reduced result back down.  This module provides the shared
machinery: a tree description, validity checks, and the conversion of a set
of trees (each responsible for a subset of buffer blocks) into a
:class:`~repro.simulator.schedule.LogicalSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import SimulationError
from repro.simulator.schedule import LogicalSchedule, LogicalSend

__all__ = ["SpanningTree", "trees_to_all_reduce_schedule", "trees_to_all_gather_schedule"]


@dataclass(frozen=True)
class SpanningTree:
    """A rooted spanning tree over NPU ranks.

    Attributes
    ----------
    root:
        The root NPU.
    parent:
        Mapping from every non-root NPU to its parent.  Every NPU of the
        collective must appear either as the root or as a key.
    """

    root: int
    parent: Dict[int, int] = field(default_factory=dict)

    def nodes(self) -> List[int]:
        """All NPUs covered by the tree."""
        return sorted({self.root, *self.parent.keys(), *self.parent.values()})

    def children(self) -> Dict[int, List[int]]:
        """Mapping from each NPU to its children."""
        result: Dict[int, List[int]] = {}
        for child, parent in self.parent.items():
            result.setdefault(parent, []).append(child)
        return result

    def depth(self, node: int) -> int:
        """Distance in tree edges from ``node`` up to the root."""
        depth = 0
        current = node
        seen = {node}
        while current != self.root:
            current = self.parent.get(current)
            if current is None or current in seen:
                raise SimulationError(f"node {node} is not connected to root {self.root}")
            seen.add(current)
            depth += 1
        return depth

    def max_depth(self) -> int:
        """Depth of the deepest node."""
        return max((self.depth(node) for node in self.nodes()), default=0)

    def validate(self, num_npus: int) -> None:
        """Check the tree spans exactly the NPUs ``0 .. num_npus - 1``."""
        nodes = set(self.nodes())
        expected = set(range(num_npus))
        if nodes != expected:
            raise SimulationError(
                f"tree rooted at {self.root} spans {sorted(nodes)} but the collective has NPUs {sorted(expected)}"
            )
        for node in self.parent:
            self.depth(node)  # raises on cycles / disconnections


def _block_chunks(block: int, chunks_per_npu: int) -> range:
    return range(block * chunks_per_npu, (block + 1) * chunks_per_npu)


def trees_to_all_reduce_schedule(
    trees: Sequence[Tuple[SpanningTree, Sequence[int]]],
    num_npus: int,
    collective_size: float,
    *,
    chunks_per_npu: int = 1,
    name: str = "Tree",
    serialize_chunks: bool = False,
) -> LogicalSchedule:
    """Build an All-Reduce schedule from (tree, blocks) assignments.

    Each tree reduces its blocks from the leaves to its root, then broadcasts
    them back down.  ``serialize_chunks=True`` reproduces the MultiTree
    limitation of not overlapping chunks: the reduce/broadcast of block ``i``
    only starts after block ``i - 1`` has finished.
    """
    if num_npus < 2:
        raise SimulationError(f"tree All-Reduce needs at least 2 NPUs, got {num_npus}")
    sends: List[LogicalSend] = []
    for tree, blocks in trees:
        tree.validate(num_npus)
        max_depth = tree.max_depth()
        phase_length = 2 * max_depth + 1
        for block_index, block in enumerate(blocks):
            for sub_index, chunk in enumerate(_block_chunks(block, chunks_per_npu)):
                serial_index = block_index * chunks_per_npu + sub_index
                offset = serial_index * phase_length if serialize_chunks else 0
                # Reduce phase: deepest nodes send first.
                for node in tree.nodes():
                    if node == tree.root:
                        continue
                    depth = tree.depth(node)
                    sends.append(
                        LogicalSend(
                            step=offset + (max_depth - depth),
                            chunk=chunk,
                            source=node,
                            dest=tree.parent[node],
                        )
                    )
                # Broadcast phase: the root's result flows back down, level by level.
                for node in tree.nodes():
                    if node == tree.root:
                        continue
                    depth = tree.depth(node)
                    sends.append(
                        LogicalSend(
                            step=offset + max_depth + depth,
                            chunk=chunk,
                            source=tree.parent[node],
                            dest=node,
                        )
                    )
    chunk_size = collective_size / (num_npus * chunks_per_npu)
    return LogicalSchedule(
        sends=sends,
        num_npus=num_npus,
        chunk_size=chunk_size,
        collective_size=collective_size,
        name=name,
        pattern_name="AllReduce",
        metadata={"chunks_per_npu": chunks_per_npu, "num_trees": len(trees)},
    )


def trees_to_all_gather_schedule(
    trees: Sequence[Tuple[SpanningTree, Sequence[int]]],
    num_npus: int,
    collective_size: float,
    *,
    chunks_per_npu: int = 1,
    name: str = "Tree",
    serialize_chunks: bool = False,
) -> LogicalSchedule:
    """Build an All-Gather schedule: each tree broadcasts its blocks from its root."""
    if num_npus < 2:
        raise SimulationError(f"tree All-Gather needs at least 2 NPUs, got {num_npus}")
    sends: List[LogicalSend] = []
    for tree, blocks in trees:
        tree.validate(num_npus)
        max_depth = tree.max_depth()
        for block_index, block in enumerate(blocks):
            offset = block_index * max_depth if serialize_chunks else 0
            for node in tree.nodes():
                if node == tree.root:
                    continue
                depth = tree.depth(node)
                step = offset + depth - 1
                for chunk in _block_chunks(block, chunks_per_npu):
                    sends.append(
                        LogicalSend(step=step, chunk=chunk, source=tree.parent[node], dest=node)
                    )
    chunk_size = collective_size / (num_npus * chunks_per_npu)
    return LogicalSchedule(
        sends=sends,
        num_npus=num_npus,
        chunk_size=chunk_size,
        collective_size=collective_size,
        name=name,
        pattern_name="AllGather",
        metadata={"chunks_per_npu": chunks_per_npu, "num_trees": len(trees)},
    )

"""C-Cube-style dual-binary-tree All-Reduce over the DGX-1 topology.

C-Cube (Cho et al., HPCA 2023) manually embeds two binary trees into the
DGX-1 NVLink topology and runs two tree All-Reduces concurrently, each
carrying half of the buffer.  The construction deliberately uses only four of
the six NVLinks per GPU so the two trees stay contention-free; the unused
links (and the idle time inherent to tree reductions) cap its efficiency —
the effect the paper's Fig. 17(b) comparison highlights.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.trees import SpanningTree, trees_to_all_reduce_schedule
from repro.errors import SimulationError
from repro.simulator.schedule import LogicalSchedule
from repro.topology.topology import Topology

__all__ = ["ccube_all_reduce", "CCUBE_TREE_ONE", "CCUBE_TREE_TWO"]

#: First binary tree embedded in the DGX-1 graph (root GPU 0).
CCUBE_TREE_ONE = SpanningTree(
    root=0,
    parent={1: 0, 2: 0, 4: 1, 5: 1, 3: 2, 6: 2, 7: 3},
)

#: Second binary tree, the mirror image of the first (root GPU 7).
CCUBE_TREE_TWO = SpanningTree(
    root=7,
    parent={6: 7, 5: 7, 3: 6, 2: 6, 4: 5, 1: 5, 0: 4},
)


def ccube_all_reduce(
    collective_size: float,
    *,
    chunks_per_npu: int = 1,
    topology: Topology = None,
) -> LogicalSchedule:
    """Build the C-Cube-style All-Reduce schedule for an 8-GPU DGX-1 system.

    Parameters
    ----------
    collective_size:
        Per-GPU buffer size in bytes.
    chunks_per_npu:
        Sub-chunks per block (processed concurrently within each tree).
    topology:
        Optional DGX-1 topology to validate the tree edges against.
    """
    num_npus = 8
    if topology is not None:
        if topology.num_npus != num_npus:
            raise SimulationError(
                f"C-Cube targets an 8-GPU DGX-1 system, got {topology.num_npus} NPUs"
            )
        for tree in (CCUBE_TREE_ONE, CCUBE_TREE_TWO):
            for child, parent in tree.parent.items():
                if not (topology.has_link(child, parent) and topology.has_link(parent, child)):
                    raise SimulationError(
                        f"C-Cube tree edge {child}<->{parent} is missing from {topology.name}"
                    )

    even_blocks = [block for block in range(num_npus) if block % 2 == 0]
    odd_blocks = [block for block in range(num_npus) if block % 2 == 1]
    assignments: List[Tuple[SpanningTree, List[int]]] = [
        (CCUBE_TREE_ONE, even_blocks),
        (CCUBE_TREE_TWO, odd_blocks),
    ]
    schedule = trees_to_all_reduce_schedule(
        assignments,
        num_npus,
        collective_size,
        chunks_per_npu=chunks_per_npu,
        name="C-Cube",
    )
    return schedule

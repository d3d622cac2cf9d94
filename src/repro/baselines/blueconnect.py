"""BlueConnect: hierarchical multi-dimensional ring All-Reduce.

BlueConnect (Cho et al., IBM JRD 2019) decomposes an All-Reduce over a
multi-dimensional (symmetric) network into per-dimension ring
Reduce-Scatters executed dimension by dimension, followed by per-dimension
ring All-Gathers in the reverse dimension order.  After the Reduce-Scatter
over dimension ``j``, each NPU is responsible only for the buffer blocks
whose ``j``-th coordinate digit matches its own.

NPU and block indices use the same mixed-radix layout as
:func:`repro.topology.builders.mesh.grid_index` (first dimension varies
fastest), so a schedule built for dims ``(2, 4, 8)`` lines up with the 3D-RFS
topology built from the same dimension list.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import SimulationError
from repro.simulator.schedule import LogicalSchedule, LogicalSend
from repro.topology.builders.mesh import grid_coordinates, grid_index

__all__ = ["blueconnect_all_reduce", "hierarchical_all_reduce_sends"]


def _block_chunks(block: int, chunks_per_npu: int) -> range:
    return range(block * chunks_per_npu, (block + 1) * chunks_per_npu)


def _fiber_members(coords: Tuple[int, ...], axis: int, dims: Sequence[int]) -> List[int]:
    """NPUs that differ from ``coords`` only along ``axis``, ordered by that coordinate."""
    members = []
    for position in range(dims[axis]):
        member = list(coords)
        member[axis] = position
        members.append(grid_index(member, dims))
    return members


def hierarchical_all_reduce_sends(
    dims: Sequence[int],
    dimension_order: Sequence[int],
    *,
    chunks_per_npu: int,
    sub_chunk: int,
    step_offset: int = 0,
    direction: int = 1,
) -> Tuple[List[LogicalSend], int]:
    """Sends of one hierarchical All-Reduce pass over ``dims``.

    ``dimension_order`` gives the Reduce-Scatter dimension sequence (the
    All-Gather runs it in reverse).  ``sub_chunk`` selects which of the
    ``chunks_per_npu`` sub-chunks of every block this pass carries — Themis
    runs several passes with rotated dimension orders, one per sub-chunk.
    ``direction`` chooses the rotation sense of every per-dimension ring
    (+1 or -1); alternating the direction across sub-chunks uses both link
    directions of a torus.

    Returns the sends and the total number of steps consumed.
    """
    dims = tuple(int(dim) for dim in dims)
    num_npus = 1
    for dim in dims:
        num_npus *= dim
    if sorted(dimension_order) != list(range(len(dims))):
        raise SimulationError(
            f"dimension order {dimension_order} is not a permutation of 0..{len(dims) - 1}"
        )
    if direction not in (1, -1):
        raise SimulationError(f"ring direction must be +1 or -1, got {direction}")

    sends: List[LogicalSend] = []
    step = step_offset
    # Every NPU's (and so every block's) coordinates, once per call.
    coordinates = [grid_coordinates(npu, dims) for npu in range(num_npus)]

    def block_matches(block: int, npu_coords: Tuple[int, ...], axes: Sequence[int]) -> bool:
        block_coords = coordinates[block]
        return all(block_coords[axis] == npu_coords[axis] for axis in axes)

    def sweep(axis: int, completed_axes: Sequence[int], reduce_phase: bool, step_base: int) -> None:
        size = dims[axis]
        for npu in range(num_npus):
            coords = coordinates[npu]
            members = _fiber_members(coords, axis, dims)
            position = coords[axis]
            for local_step in range(size - 1):
                if reduce_phase:
                    # Ring Reduce-Scatter over the fiber: the group of blocks
                    # whose axis digit is ``group`` is forwarded around the
                    # ring, accumulating partials, and comes to rest on the
                    # NPU whose coordinate equals the group index.
                    group = (position - direction * (local_step + 1)) % size
                else:
                    # Ring All-Gather over the fiber: each NPU circulates the
                    # group it is responsible for.
                    group = (position - direction * local_step) % size
                dest = members[(position + direction) % size]
                for block in range(num_npus):
                    if coordinates[block][axis] != group:
                        continue
                    if not block_matches(block, coords, completed_axes):
                        continue
                    chunk = block * chunks_per_npu + sub_chunk
                    sends.append(
                        LogicalSend(step=step_base + local_step, chunk=chunk, source=npu, dest=dest)
                    )

    # ------------------------------------------------------------------
    # Reduce-Scatter sweeps, one dimension at a time.
    # ------------------------------------------------------------------
    completed_axes: List[int] = []
    for axis in dimension_order:
        if dims[axis] > 1:
            sweep(axis, completed_axes, reduce_phase=True, step_base=step)
            step += dims[axis] - 1
        completed_axes.append(axis)

    # ------------------------------------------------------------------
    # All-Gather sweeps in reverse dimension order.
    # ------------------------------------------------------------------
    for axis in reversed(list(dimension_order)):
        completed_axes.remove(axis)
        if dims[axis] > 1:
            sweep(axis, completed_axes, reduce_phase=False, step_base=step)
            step += dims[axis] - 1

    return sends, step - step_offset


def blueconnect_all_reduce(
    dims: Sequence[int],
    collective_size: float,
    *,
    chunks_per_npu: int = 1,
) -> LogicalSchedule:
    """Build the BlueConnect All-Reduce schedule for a multi-dimensional network.

    All sub-chunks follow the same (canonical) dimension order, which is what
    distinguishes BlueConnect from Themis.
    """
    dims = tuple(int(dim) for dim in dims)
    num_npus = 1
    for dim in dims:
        num_npus *= dim
    if num_npus < 2:
        raise SimulationError(f"BlueConnect needs at least 2 NPUs, got dims {dims}")
    sends: List[LogicalSend] = []
    canonical_order = list(range(len(dims)))
    for sub_chunk in range(chunks_per_npu):
        pass_sends, _ = hierarchical_all_reduce_sends(
            dims,
            canonical_order,
            chunks_per_npu=chunks_per_npu,
            sub_chunk=sub_chunk,
            direction=1 if sub_chunk % 2 == 0 else -1,
        )
        sends.extend(pass_sends)
    chunk_size = collective_size / (num_npus * chunks_per_npu)
    return LogicalSchedule(
        sends=sends,
        num_npus=num_npus,
        chunk_size=chunk_size,
        collective_size=collective_size,
        name="BlueConnect",
        pattern_name="AllReduce",
        metadata={"dims": dims, "chunks_per_npu": chunks_per_npu},
    )

"""Collective communication patterns (pre/postcondition formulation)."""

from repro.collectives.all_gather import AllGather
from repro.collectives.all_reduce import AllReduce
from repro.collectives.broadcast import Broadcast, Reduce
from repro.collectives.gather_scatter import AllToAll, Gather, Scatter
from repro.collectives.pattern import ChunkOwnership, CollectivePattern
from repro.collectives.reduce_scatter import ReduceScatter

__all__ = [
    "AllGather",
    "AllReduce",
    "AllToAll",
    "Broadcast",
    "ChunkOwnership",
    "CollectivePattern",
    "Gather",
    "Reduce",
    "ReduceScatter",
    "Scatter",
]

"""Baseline collective algorithms and baseline synthesizers."""

from repro.baselines.blueconnect import blueconnect_all_reduce
from repro.baselines.ccube import CCUBE_TREE_ONE, CCUBE_TREE_TWO, ccube_all_reduce
from repro.baselines.dbt import build_complete_binary_tree, dbt_all_reduce
from repro.baselines.direct import direct_all_gather, direct_all_reduce, direct_reduce_scatter
from repro.baselines.multitree import build_bfs_tree, multitree_all_reduce
from repro.baselines.registry import ALGORITHM_CAPABILITIES, SYNTHESIZER_CAPABILITIES
from repro.baselines.rhd import rhd_all_gather, rhd_all_reduce
from repro.baselines.ring import ring_all_gather, ring_all_reduce, ring_reduce_scatter
from repro.baselines.taccl_like import TacclLikeResult, TacclLikeSynthesizer
from repro.baselines.themis import themis_all_reduce
from repro.baselines.trees import (
    SpanningTree,
    trees_to_all_gather_schedule,
    trees_to_all_reduce_schedule,
)

__all__ = [
    "ALGORITHM_CAPABILITIES",
    "CCUBE_TREE_ONE",
    "CCUBE_TREE_TWO",
    "SYNTHESIZER_CAPABILITIES",
    "SpanningTree",
    "TacclLikeResult",
    "TacclLikeSynthesizer",
    "blueconnect_all_reduce",
    "build_bfs_tree",
    "build_complete_binary_tree",
    "ccube_all_reduce",
    "dbt_all_reduce",
    "direct_all_gather",
    "direct_all_reduce",
    "direct_reduce_scatter",
    "multitree_all_reduce",
    "rhd_all_gather",
    "rhd_all_reduce",
    "ring_all_gather",
    "ring_all_reduce",
    "ring_reduce_scatter",
    "themis_all_reduce",
    "trees_to_all_gather_schedule",
    "trees_to_all_reduce_schedule",
]

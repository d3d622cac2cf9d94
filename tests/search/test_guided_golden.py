"""Golden guided-search trial statistics.

The guided tier's per-trial bookkeeping (how many rounds each trial ran,
where incumbent pruning aborted it, and the completed trials' collective
times) was recorded from fixed-seed runs and is pinned here.  Any change
to the forwarding pass or to the pruning bound that moves a single RNG
draw, transfer or pruning decision shows up as a row mismatch, even when
the selected winner happens to stay the same.

Besides the 6x6 mesh Gather, four 32-trial searches pin the cases where
single terms of the pruning bound stand out: mesh 4x4 Scatter and torus
4x4 All-to-All, whose round-0 maximum was a term the bound has since
dropped (per-source out-link capacity and work conservation,
respectively), 3D-RFS 2x2x3 All-to-All (committed work alone decides the
prunes) and heterogeneous DGX-1 All-Gather (per-destination in-link
capacity alone decides a prune).  All four were recorded with the
five-term bound, so they show that dropping two terms moved no trial.
"""

import pytest

from repro.collectives import AllGather, AllToAll, Gather, Scatter
from repro.core import GuidedSynthesizer, SynthesisConfig
from repro.topology import build_3d_rfs, build_dgx1, build_mesh_2d, build_torus_2d

MB = 1e6

#: (seed, rounds, pruned_at_round, collective_time) per trial, in trial order.
GOLDEN_MESH6X6_GATHER = [
    (0, 31, None, 8.438888888888892e-05),
    (1, 24, None, 6.533333333333335e-05),
    (2, 24, 24, None),
    (3, 23, None, 6.261111111111113e-05),
    (4, 22, 22, None),
    (5, 23, 23, None),
    (6, 22, 22, None),
    (7, 23, 23, None),
    (8, 22, 22, None),
    (9, 23, 23, None),
    (10, 22, 22, None),
    (11, 23, 23, None),
    (12, 23, 23, None),
    (13, 21, 21, None),
    (14, 23, 23, None),
    (15, 22, 22, None),
    (16, 24, None, 6.533333333333335e-05),
    (17, 22, 22, None),
    (18, 21, None, 5.716666666666668e-05),
    (19, 21, 21, None),
    (20, 21, 21, None),
    (21, 19, 19, None),
    (22, 22, None, 5.9888888888888907e-05),
    (23, 21, 21, None),
    (24, 19, 19, None),
    (25, 19, 19, None),
    (26, 21, 21, None),
    (27, 20, 20, None),
    (28, 20, 20, None),
    (29, 21, 21, None),
    (30, 21, 21, None),
    (31, 20, 20, None),
]


def test_guided_mesh6x6_gather_trial_stats_are_pinned():
    config = SynthesisConfig(seed=0, trials=32)
    result = GuidedSynthesizer(config).synthesize_with_stats(
        build_mesh_2d(6, 6), Gather(36), 4 * MB
    )
    rows = [
        (stats["seed"], stats["rounds"], stats["pruned_at_round"], stats["collective_time"])
        for stats in result.trial_stats
    ]
    assert rows == GOLDEN_MESH6X6_GATHER
    assert result.algorithm.collective_time == min(
        row[3] for row in GOLDEN_MESH6X6_GATHER if row[3] is not None
    )


GOLDEN_MESH4X4_SCATTER = [
    (0, 15, None, 8.249999999999999e-05),
    (1, 14, None, 7.699999999999999e-05),
    (2, 15, None, 8.249999999999999e-05),
    (3, 12, None, 6.599999999999999e-05),
    (4, 13, None, 7.149999999999999e-05),
    (5, 12, 12, None),
    (6, 12, None, 6.599999999999999e-05),
    (7, 10, 10, None),
    (8, 10, 10, None),
    (9, 13, None, 7.149999999999999e-05),
    (10, 10, None, 5.499999999999999e-05),
    (11, 6, 6, None),
    (12, 6, 6, None),
    (13, 10, 10, None),
    (14, 10, 10, None),
    (15, 9, 9, None),
    (16, 6, 6, None),
    (17, 9, 9, None),
    (18, 7, 7, None),
    (19, 6, 6, None),
    (20, 9, 9, None),
    (21, 8, 8, None),
    (22, 6, 6, None),
    (23, 11, None, 6.0499999999999987e-05),
    (24, 8, 8, None),
    (25, 9, 9, None),
    (26, 6, 6, None),
    (27, 6, 6, None),
    (28, 10, 10, None),
    (29, 9, 9, None),
    (30, 10, 10, None),
    (31, 6, 6, None),
]

GOLDEN_TORUS4X4_ALL_TO_ALL = [
    (0, 15, None, 8.249999999999999e-05),
    (1, 13, None, 7.149999999999999e-05),
    (2, 13, None, 7.149999999999999e-05),
    (3, 13, 13, None),
    (4, 14, None, 7.699999999999999e-05),
    (5, 14, None, 7.699999999999999e-05),
    (6, 13, 13, None),
    (7, 14, None, 7.699999999999999e-05),
    (8, 13, 13, None),
    (9, 13, None, 7.149999999999999e-05),
    (10, 13, None, 7.149999999999999e-05),
    (11, 13, 13, None),
    (12, 14, None, 7.699999999999999e-05),
    (13, 13, None, 7.149999999999999e-05),
    (14, 12, None, 6.599999999999999e-05),
    (15, 12, 12, None),
    (16, 12, 12, None),
    (17, 12, 12, None),
    (18, 12, 12, None),
    (19, 13, None, 7.149999999999999e-05),
    (20, 12, 12, None),
    (21, 12, 12, None),
    (22, 12, 12, None),
    (23, 12, 12, None),
    (24, 13, None, 7.149999999999999e-05),
    (25, 12, 12, None),
    (26, 12, 12, None),
    (27, 12, 12, None),
    (28, 12, 12, None),
    (29, 11, 11, None),
    (30, 12, 12, None),
    (31, 13, None, 7.149999999999999e-05),
]

GOLDEN_RFS2X2X3_ALL_TO_ALL = [
    (0, 59, None, 0.0001003333333333333),
    (1, 51, None, 9.316666666666664e-05),
    (2, 57, 57, None),
    (3, 57, 57, None),
    (4, 55, 55, None),
    (5, 51, 51, None),
    (6, 53, 53, None),
    (7, 65, 65, None),
    (8, 53, None, 0.0001003333333333333),
    (9, 51, 51, None),
    (10, 49, 49, None),
    (11, 61, 61, None),
    (12, 52, 52, None),
    (13, 58, 58, None),
    (14, 57, 57, None),
    (15, 58, 58, None),
    (16, 51, 51, None),
    (17, 55, 55, None),
    (18, 61, 61, None),
    (19, 56, 56, None),
    (20, 55, 55, None),
    (21, 48, 48, None),
    (22, 52, 52, None),
    (23, 50, 50, None),
    (24, 58, 58, None),
    (25, 54, 54, None),
    (26, 50, 50, None),
    (27, 50, 50, None),
    (28, 57, None, 0.0001003333333333333),
    (29, 65, 65, None),
    (30, 60, None, 0.0001003333333333333),
    (31, 55, None, 9.316666666666664e-05),
]

GOLDEN_DGX1_HETERO_ALL_GATHER = [
    (0, 7, None, 5.199999999999999e-05),
    (1, 8, None, 5.2499999999999995e-05),
    (2, 7, None, 5.199999999999999e-05),
    (3, 8, None, 5.2499999999999995e-05),
    (4, 8, 8, None),
    (5, 8, None, 5.2499999999999995e-05),
    (6, 7, None, 5.199999999999999e-05),
    (7, 7, None, 5.199999999999999e-05),
    (8, 7, None, 5.199999999999999e-05),
    (9, 8, None, 5.2499999999999995e-05),
    (10, 7, None, 5.199999999999999e-05),
    (11, 8, None, 5.2499999999999995e-05),
    (12, 8, None, 5.2499999999999995e-05),
    (13, 8, 8, None),
    (14, 7, None, 5.199999999999999e-05),
    (15, 7, None, 5.199999999999999e-05),
    (16, 7, None, 5.199999999999999e-05),
    (17, 8, None, 5.2499999999999995e-05),
    (18, 8, None, 5.2499999999999995e-05),
    (19, 7, None, 5.199999999999999e-05),
    (20, 8, None, 5.2499999999999995e-05),
    (21, 7, None, 5.199999999999999e-05),
    (22, 8, None, 5.2499999999999995e-05),
    (23, 6, None, 4.2e-05),
    (24, 7, 7, None),
    (25, 7, None, 5.199999999999999e-05),
    (26, 7, None, 5.199999999999999e-05),
    (27, 6, None, 4.2e-05),
    (28, 7, None, 5.199999999999999e-05),
    (29, 7, 7, None),
    (30, 7, None, 5.199999999999999e-05),
    (31, 7, 7, None),
]


def _trial_rows(topology, pattern):
    config = SynthesisConfig(seed=0, trials=32)
    result = GuidedSynthesizer(config).synthesize_with_stats(topology, pattern, 4 * MB)
    rows = [
        (stats["seed"], stats["rounds"], stats["pruned_at_round"], stats["collective_time"])
        for stats in result.trial_stats
    ]
    return rows, result.algorithm.collective_time


@pytest.mark.parametrize(
    "topology_factory,pattern_cls,golden",
    [
        (lambda: build_mesh_2d(4, 4), Scatter, GOLDEN_MESH4X4_SCATTER),
        (lambda: build_torus_2d(4, 4), AllToAll, GOLDEN_TORUS4X4_ALL_TO_ALL),
        (lambda: build_3d_rfs(2, 2, 3), AllToAll, GOLDEN_RFS2X2X3_ALL_TO_ALL),
        (lambda: build_dgx1(heterogeneous=True), AllGather, GOLDEN_DGX1_HETERO_ALL_GATHER),
    ],
    ids=["mesh4x4-scatter", "torus4x4-all_to_all", "rfs2x2x3-all_to_all", "dgx1-hetero-all_gather"],
)
def test_guided_trial_stats_are_pinned(topology_factory, pattern_cls, golden):
    topology = topology_factory()
    rows, winner_time = _trial_rows(topology, pattern_cls(topology.num_npus))
    assert rows == golden
    assert winner_time == min(row[3] for row in golden if row[3] is not None)

"""Golden guided-search trial statistics for a 6x6 mesh Gather.

The guided tier's per-trial bookkeeping (how many rounds each trial ran,
where incumbent pruning aborted it, and the completed trials' collective
times) was recorded from a fixed-seed run and is pinned here.  Any change
to the forwarding pass or to the pruning bound that moves a single RNG
draw, transfer or pruning decision shows up as a row mismatch, even when
the selected winner happens to stay the same.
"""

from repro.collectives import Gather
from repro.core import SynthesisConfig
from repro.search import GuidedSynthesizer
from repro.topology import build_mesh_2d

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
    config = SynthesisConfig(seed=0, trials=32, incumbent_pruning=True, floor_termination=True)
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

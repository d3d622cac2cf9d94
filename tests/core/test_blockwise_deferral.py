"""The block prefilter's cheap-link deferral == the scalar loop, every round.

:func:`~repro.core.matching._run_direct_pass_blockwise` decides the Sec. IV-F
lower-cost-link deferral in numpy when it filters a block, and its Python
loop re-checks a surviving pair only against what changed since: the
holders committed in the block when the pair's cheapest candidate cost is
unchanged, all holders otherwise.  For every blockwise round of seeded
syntheses on heterogeneous 3D-RFS systems, these tests replay the round on
deep copies of the TEN, the state and the RNG forced onto the scalar loop,
and require identical transfers, pair states, link free times and RNG
states.  A line trace of the blockwise pass shows that each of the three
deferral branches actually runs.
"""

from __future__ import annotations

import copy
import inspect
import random
import sys
from collections import Counter

import pytest

from repro.collectives import AllGather, AllReduce
from repro.core import SynthesisConfig, TacosSynthesizer, matching
from repro.topology import build_3d_rfs

MB = 1e6

_blockwise = matching._run_direct_pass_blockwise


def _line(snippet: str, after: str = "") -> int:
    """Line number of the blockwise pass's first line holding ``snippet`` after ``after``."""
    lines, first = inspect.getsourcelines(_blockwise)
    begin = 0
    if after:
        (begin,) = [index for index, line in enumerate(lines) if after in line]
    matches = [index for index in range(begin, len(lines)) if snippet in lines[index]]
    assert matches, snippet
    return first + matches[0]


IN_BLOCK = "deferred by in-block holders"

#: The deferral branches, by the line that runs only when the branch fires.
BRANCHES = {
    "dropped at filter time": _line("survive[rows[meets]] = False"),
    IN_BLOCK: _line("continue", after="joined = added.get(chunk)"),
    "live cheapest cost above filter-time cost": _line(
        "elif not region_by_dest[dest].isdisjoint(holders[chunk])"
    ),
}


def _copy_rng(rng: random.Random) -> random.Random:
    # Pickling a Random keeps only getstate(), not the numpy permuter.
    clone = random.Random()
    clone.setstate(rng.getstate())
    permuter = getattr(rng, "_pair_permuter", None)
    if permuter is not None:
        clone._pair_permuter = copy.deepcopy(permuter)
    return clone


def _permuter_state(rng: random.Random):
    permuter = getattr(rng, "_pair_permuter", None)
    return None if permuter is None else permuter.bit_generator.state


def _scalar_round(ten, state, time, rng, prefer_lowest_cost, cheap_regions):
    """Replay one round on copies, on the scalar loop; return the copies and transfers."""
    ten = copy.deepcopy(ten, {id(ten.topology): ten.topology})
    state = copy.deepcopy(state)
    rng = _copy_rng(rng)
    # Without a positive shortest span the blockwise guard fails, so the
    # round takes the scalar loop (the pairs were already activated).
    ten.min_link_cost = 0.0
    transfers = matching.run_matching_round(
        ten,
        state,
        time,
        rng,
        prefer_lowest_cost=prefer_lowest_cost,
        cheap_regions=cheap_regions,
    )
    return ten, state, rng, transfers


@pytest.fixture
def checked_blockwise(monkeypatch):
    """Check every blockwise round against the scalar loop; return the branch hits."""
    hits = Counter()
    code = _blockwise.__code__
    lines = set(BRANCHES.values())

    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            hits[frame.f_lineno] += 1
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code is code else None

    def checked(ten, state, time, rng, transfers, *, prefer_lowest_cost, cheap_regions):
        assert cheap_regions  # heterogeneous: the deferral is live
        scalar_ten, scalar_state, scalar_rng, expected = _scalar_round(
            ten, state, time, rng, prefer_lowest_cost, cheap_regions
        )
        start = len(transfers)
        previous = sys.gettrace()
        sys.settrace(trace_calls)
        try:
            _blockwise(
                ten,
                state,
                time,
                rng,
                transfers,
                prefer_lowest_cost=prefer_lowest_cost,
                cheap_regions=cheap_regions,
            )
        finally:
            sys.settrace(previous)
        assert transfers[start:] == expected
        assert bytes(state._pair_state) == bytes(scalar_state._pair_state)
        assert bytes(state._will_hold) == bytes(scalar_state._will_hold)
        assert ten.free_times == scalar_ten.free_times
        assert rng.getstate() == scalar_rng.getstate()
        assert _permuter_state(rng) == _permuter_state(scalar_rng)
        hits["rounds"] += 1

    monkeypatch.setattr(matching, "_run_direct_pass_blockwise", checked)
    return hits


# (name, topology, pattern, size, branches that must fire)
CASES = [
    # Fig. 15's bandwidths (ring fastest, switch slowest): no two members
    # of one cheaper region match the same chunk in one block on these
    # seeds, so in-block deferral does not arise.
    (
        "rfs2x4x4-all_gather",
        lambda: build_3d_rfs(2, 4, 4),
        AllGather,
        64 * MB,
        set(BRANCHES) - {IN_BLOCK},
    ),
    # Three tiers with the fully-connected dimension slowest: two members of
    # one cheaper region can now match the same chunk in the same round.
    # The Reduce-Scatter phase runs on the reversed topology.
    (
        "rfs2x4x8-all_reduce-tiers200,50,100",
        lambda: build_3d_rfs(2, 4, 8, bandwidths_gbps=(200.0, 50.0, 100.0)),
        AllReduce,
        64 * MB,
        set(BRANCHES),
    ),
]


@pytest.mark.parametrize(
    "topology_factory,pattern_cls,size,branches",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_blockwise_rounds_match_scalar_loop(
    checked_blockwise, topology_factory, pattern_cls, size, branches
):
    topology = topology_factory()
    for seed in (0, 7, 42):
        TacosSynthesizer(SynthesisConfig(seed=seed, trials=2)).synthesize(
            topology, pattern_cls(topology.num_npus), collective_size=size
        )
    assert checked_blockwise["rounds"] > 0
    for branch in branches:
        assert checked_blockwise[BRANCHES[branch]] > 0, branch

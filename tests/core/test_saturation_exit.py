"""The matching round's saturation exit skips only pairs that could not match.

The scalar passes stop scanning once their commits reach the link count
(where links are shorter than the time epsilon, the census of idle links
at the span's start).  The blockwise pass has no exit; once every link is
busy its prefilter drops every pair.  The reference engine has no exit
either: it scans every pair every round.  Each synthesis below runs on
the flat engine, through a round that tallies the spans ending saturated,
and on the reference engine; the winners must be equal, and so must the
per-trial stats where pruning is off.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.reference import REFERENCE_ENGINE
from repro.collectives import (
    AllGather,
    AllReduce,
    AllToAll,
    Broadcast,
    Gather,
    Reduce,
    ReduceScatter,
    Scatter,
)
from repro.core import GuidedSynthesizer, SynthesisConfig, TacosSynthesizer, matching
from repro.core.matching import run_matching_round
from repro.core.synthesizer import SynthesisEngine
from repro.errors import SynthesisError
from repro.ten.network import _TIME_EPS
from repro.topology import build_3d_rfs, build_ring
from tests.conftest import random_connected_topology

MB = 1e6

_PATTERNS = {
    "all_gather": AllGather,
    "reduce_scatter": ReduceScatter,
    "all_reduce": AllReduce,
    "broadcast": Broadcast,
    "reduce": Reduce,
    "gather": Gather,
    "scatter": Scatter,
    "all_to_all": AllToAll,
}


def _all_busy(ten, time: float) -> bool:
    threshold = time + _TIME_EPS
    return all(free > threshold for free in ten.free_times)


class _CountingRounds:
    """The flat matching round, tallying the spans that end with every link busy."""

    def __init__(self) -> None:
        self.rounds = 0
        self.saturated = 0
        self.every_link_taken = 0

    def __call__(self, ten, state, time, rng, **kwargs):
        self.rounds += 1
        transfers = run_matching_round(ten, state, time, rng, **kwargs)
        if _all_busy(ten, time):
            self.saturated += 1
        if len(transfers) == ten.num_links:
            # The link-count limit was reached: the scalar exit fired.
            self.every_link_taken += 1
        return transfers


def _trial_key(entry):
    return (
        entry.get("phase"),
        entry["seed"],
        entry["rounds"],
        entry["collective_time"],
        entry["pruned_at_round"],
    )


def _synthesize_both(synthesizer_cls, config, topology, pattern, size) -> _CountingRounds:
    """Run on the counting flat engine and on the reference engine; compare them."""
    counting = _CountingRounds()
    engine = SynthesisEngine(name="counted", matching_round=counting)
    try:
        flat = synthesizer_cls(config, engine).synthesize_with_stats(topology, pattern, size)
    except SynthesisError as error:
        # Personalized collectives can stall on heterogeneous topologies; the
        # reference engine must stall the same way.
        with pytest.raises(SynthesisError, match=re.escape(str(error))):
            synthesizer_cls(config, REFERENCE_ENGINE).synthesize_with_stats(
                topology, pattern, size
            )
        return counting
    reference = synthesizer_cls(config, REFERENCE_ENGINE).synthesize_with_stats(
        topology, pattern, size
    )
    assert flat.algorithm.table.to_bytes() == reference.algorithm.table.to_bytes()
    if not synthesizer_cls.prune:
        # With pruning on, the reference engine's weaker bound prunes
        # different trials, so only the winners are comparable.
        assert [_trial_key(e) for e in flat.trial_stats] == [
            _trial_key(e) for e in reference.trial_stats
        ]
    return counting


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_npus=st.integers(min_value=2, max_value=8),
    extra_links=st.integers(min_value=0, max_value=8),
    heterogeneous=st.booleans(),
    seed=st.integers(min_value=0, max_value=1_000),
    collective_size=st.floats(min_value=1e3, max_value=1e9),
    collective=st.sampled_from(sorted(_PATTERNS)),
    guided=st.booleans(),
    trials=st.integers(min_value=1, max_value=3),
)
def test_flat_engine_equals_the_full_scan_on_random_topologies(
    num_npus, extra_links, heterogeneous, seed, collective_size, collective, guided, trials
):
    rng = random.Random(seed)
    topology = random_connected_topology(
        num_npus, rng, extra_links=extra_links, heterogeneous=heterogeneous
    )
    pattern = _PATTERNS[collective](num_npus)
    config = SynthesisConfig(seed=seed, trials=trials)
    synthesizer_cls = GuidedSynthesizer if guided else TacosSynthesizer
    counting = _synthesize_both(synthesizer_cls, config, topology, pattern, collective_size)
    assert counting.rounds > 0


def test_forwarding_spans_that_take_every_link():
    # Ring All-to-All at 1 MB: most spans end with every link busy (26 of
    # 43 rounds over the four trials), and each of them took every link, so
    # the scalar exit fires.
    topology = build_ring(8)
    counting = _synthesize_both(
        TacosSynthesizer, SynthesisConfig(seed=0, trials=4), topology, AllToAll(8), 1 * MB
    )
    assert counting.saturated > counting.rounds // 4
    assert counting.every_link_taken == counting.saturated


def test_blockwise_spans_that_end_saturated(monkeypatch):
    # All-Reduce on 3D-RFS 2x4x4: its large rounds take the blockwise pass,
    # and many end with every link busy after starting with some busy, so
    # the link count would not have stopped them.
    blockwise = matching._run_direct_pass_blockwise
    calls = {"rounds": 0, "saturated": 0}

    def counted(ten, state, time, rng, transfers, **kwargs):
        calls["rounds"] += 1
        blockwise(ten, state, time, rng, transfers, **kwargs)
        if _all_busy(ten, time):
            calls["saturated"] += 1

    monkeypatch.setattr(matching, "_run_direct_pass_blockwise", counted)
    topology = build_3d_rfs(2, 4, 4)
    counting = _synthesize_both(
        TacosSynthesizer, SynthesisConfig(seed=0), topology, AllReduce(32), 64 * MB
    )
    assert calls["saturated"] > 0
    assert counting.every_link_taken < counting.saturated

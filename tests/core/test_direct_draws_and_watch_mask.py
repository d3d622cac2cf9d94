"""Direct RNG draws and the activation watch mask change no byte.

* ``shuffle_pairs``' small path runs Fisher-Yates with the ``getrandbits``
  rejection loop inlined; it must give ``random.Random.shuffle``'s
  permutation and leave the RNG in the same state.
* Link picks call ``rng._randbelow(n)``, the one call ``randrange(n)``
  makes for ``n > 0``; the matching round's uniform picks run that call's
  body inline.  Every round's transfers and RNG state must equal those of
  the reference engine, which picks with ``rng.choice``.
* On forwarding patterns the matching round pushes an activation only for
  watched codes.  Every round is replayed on an unmasked shadow state; the
  pair states after each activation must be identical, and every
  in-neighbour of an open pair must be watched (the codes ``_held`` is read
  at).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.bench.reference import REFERENCE_ENGINE
from repro.collectives import AllGather, AllToAll, Gather, Scatter
from repro.core import SynthesisConfig, TacosSynthesizer, matching
from repro.core.matching import (
    _NUMPY_SHUFFLE_MIN,
    MatchingState,
    _pick_link_id,
    run_matching_round,
    shuffle_pairs,
)
from repro.core.synthesizer import FLAT_ENGINE, SynthesisEngine, _run_trials
from repro.ten import TimeExpandedNetwork
from repro.topology import build_3d_rfs, build_dgx1, build_mesh_2d, build_torus_2d
from tests.core.test_trial_bound_soundness import _payload

MB = 1e6


def test_shuffle_pairs_equals_random_shuffle_for_every_small_length():
    assert _NUMPY_SHUFFLE_MIN == 128
    for length in range(_NUMPY_SHUFFLE_MIN):
        for seed in range(50):
            ours = random.Random(seed)
            theirs = random.Random(seed)
            got = shuffle_pairs(list(range(length)), ours)
            want = list(range(length))
            theirs.shuffle(want)
            assert got == want, (length, seed)
            assert ours.getstate() == theirs.getstate(), (length, seed)


def test_shuffle_pairs_permutes_in_place():
    pending = [10, 20, 30, 40]
    assert shuffle_pairs(pending, random.Random(1)) is pending
    assert sorted(pending) == [10, 20, 30, 40]


@pytest.mark.parametrize("seed", range(20))
def test_randbelow_is_randranges_draw(seed):
    ours = random.Random(seed)
    theirs = random.Random(seed)
    for bound in list(range(1, 130)) + [255, 256, 257, 1000, 2**20 + 1]:
        assert ours._randbelow(bound) == theirs.randrange(bound)
    assert ours.getstate() == theirs.getstate()


def _pick_with_randrange(candidates, link_costs, rng, prefer_lowest_cost):
    """``_pick_link_id`` as written before the direct draws."""
    if prefer_lowest_cost and len(candidates) > 1:
        best = min(link_costs[link_id] for link_id in candidates)
        cheapest = [
            link_id for link_id in candidates if link_costs[link_id] <= best + matching._TIME_EPS
        ]
        if len(cheapest) == 1:
            return cheapest[0]
        return cheapest[rng.randrange(len(cheapest))]
    if len(candidates) == 1:
        return candidates[0]
    return candidates[rng.randrange(len(candidates))]


@pytest.mark.parametrize("prefer_lowest_cost", [False, True])
def test_pick_draws_equal_randrange(prefer_lowest_cost):
    setup = random.Random(5)
    link_costs = [setup.choice([1.0, 1.0, 2.0, 3.5]) for _ in range(64)]
    ours = random.Random(11)
    theirs = random.Random(11)
    for _ in range(2000):
        candidates = setup.sample(range(64), setup.randint(1, 12))
        got = _pick_link_id(candidates, link_costs, ours, prefer_lowest_cost)
        want = _pick_with_randrange(candidates, link_costs, theirs, prefer_lowest_cost)
        assert got == want
    assert ours.getstate() == theirs.getstate()



def _recording(engine, log):
    """``engine`` with a round that logs its transfers and the RNG state after it."""
    inner = engine.matching_round

    def recorded(ten, state, time, rng, **kwargs):
        transfers = inner(ten, state, time, rng, **kwargs)
        log.append(([tuple(transfer) for transfer in transfers], rng.getstate()))
        return transfers

    return dataclasses.replace(engine, name=f"recorded-{engine.name}", matching_round=recorded)


ROUND_DRAW_CASES = [
    ("mesh4x4-all_gather", lambda: build_mesh_2d(4, 4), AllGather),
    ("mesh6x6-gather", lambda: build_mesh_2d(6, 6), Gather),
    ("torus4x4-all_to_all", lambda: build_torus_2d(4, 4), AllToAll),
]


@pytest.mark.parametrize(
    "topology_factory,pattern_cls",
    [case[1:] for case in ROUND_DRAW_CASES],
    ids=[case[0] for case in ROUND_DRAW_CASES],
)
def test_round_picks_equal_the_reference_choice(topology_factory, pattern_cls):
    # Uniform costs: every pick among two or more links is the round's own
    # uniform draw (pass 1 on All-Gather, mostly forwarding on Gather and
    # All-to-All).  The reference engine picks with ``rng.choice``.  After
    # every round the transfers and the RNG state must be equal.
    topology = topology_factory()
    assert TimeExpandedNetwork(topology, MB).uniform_cost
    pattern = pattern_cls(topology.num_npus)
    logs = {}
    for engine in (FLAT_ENGINE, REFERENCE_ENGINE):
        log = logs[engine.name] = []
        TacosSynthesizer(SynthesisConfig(seed=3, trials=2), _recording(engine, log)).synthesize(
            topology, pattern, 4 * MB
        )
    assert logs["flat"] == logs["reference"]
    assert len(logs["flat"]) > 2

FORWARDING_CASES = [
    ("mesh4x4-gather", lambda: build_mesh_2d(4, 4), Gather),
    ("mesh6x6-gather", lambda: build_mesh_2d(6, 6), Gather),
    ("mesh6x6-scatter", lambda: build_mesh_2d(6, 6), Scatter),
    ("torus4x4-all_to_all", lambda: build_torus_2d(4, 4), AllToAll),
    ("rfs2x2x3-gather", lambda: build_3d_rfs(2, 2, 3), Gather),
    ("rfs2x2x3-all_to_all", lambda: build_3d_rfs(2, 2, 3), AllToAll),
    ("dgx1-scatter", lambda: build_dgx1(), Scatter),
]


@pytest.mark.parametrize(
    "topology_factory,pattern_cls",
    [case[1:] for case in FORWARDING_CASES],
    ids=[case[0] for case in FORWARDING_CASES],
)
def test_watch_mask_hides_no_promotion(monkeypatch, topology_factory, pattern_cls):
    topology = topology_factory()
    payload = _payload(topology, pattern_cls(topology.num_npus), 4 * MB)
    assert payload.hop_distances is not None
    in_adjacency = topology.in_adjacency()
    shadows = {}  # id(masked state) -> (masked state, unmasked shadow)
    compared = [0]
    original_activate = MatchingState.activate_until

    def shadow_of(state):
        entry = shadows.get(id(state))
        if entry is None:
            shadow = state.copy()
            shadow._watch = None
            entry = shadows[id(state)] = (state, shadow)
        return entry[1]

    def checked(self, time, out_adjacency, out_csr=None):
        shadow = shadow_of(self) if self._watch is not None else None
        original_activate(self, time, out_adjacency, out_csr)
        if shadow is None:
            return
        original_activate(shadow, time, out_adjacency, out_csr)
        assert bytes(self._pair_state) == bytes(shadow._pair_state)
        # _held agrees wherever the mask keeps activations, and every
        # in-neighbour of an open pair is such a place.
        watch = np.frombuffer(self._watch, dtype=np.uint8).astype(bool)
        np.testing.assert_array_equal(self._held[watch], shadow._held[watch])
        num_chunks = self.num_chunks
        for code in self._pending_codes():
            dest, chunk = divmod(code, num_chunks)
            for source in in_adjacency[dest]:
                assert self._watch[source * num_chunks + chunk]
        compared[0] += 1

    def replaying_round(ten, state, time, rng, **kwargs):
        transfers = run_matching_round(ten, state, time, rng, **kwargs)
        shadow = shadow_of(state)
        for transfer in transfers:
            shadow.grant(transfer.dest, transfer.chunk, transfer.end)
        assert bytes(state._pair_state) == bytes(shadow._pair_state)
        return transfers

    monkeypatch.setattr(MatchingState, "activate_until", checked)
    engine = SynthesisEngine(name="watch-replay", matching_round=replaying_round)
    payload = dataclasses.replace(payload, engine=engine)
    outcomes = _run_trials(payload, [0, 1, 2], None, prune=False)
    assert all(algorithm is not None for algorithm, _ in outcomes)
    assert compared[0] >= sum(stats["rounds"] for _, stats in outcomes)
    # The mask skips something: some acquisition can promote no pair.
    (state, _), *_ = shadows.values()
    assert 0 < sum(state._watch) < len(state._watch)

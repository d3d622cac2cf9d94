"""``TrialBound`` is a sound lower bound on the trial's final collective time.

Incumbent pruning is exact only if :meth:`TrialBound.value` never exceeds
the final ``collective_time`` of the trial it is evaluated on.  Winner
equality (``tests/search/test_pruning_equivalence.py``) cannot see an
unsound prune of a trial that would have lost anyway, so these tests check
the bound itself: every round of *unpruned* trials records the bound the
pruning loop evaluates, and each recorded value — plus the round-0 floor
that floor termination compares against — must stay at or below the
trial's final time (up to the pruning comparison's relative slack).

The bound is the maximum of three terms (committed work, per-destination
in-link capacity, hop-distance chain).  The named workloads also record
which term alone sets each evaluated value, so every term is checked for
soundness on rounds where it is the one that would decide a prune.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives import AllGather, AllToAll, Broadcast, Gather, Scatter
from repro.core import FLAT_ENGINE, TacosSynthesizer
from repro.core.matching import TrialBound
from repro.core.synthesizer import TrialPayload, _execute_trial
from repro.topology import Topology, build_3d_rfs, build_mesh_2d, build_torus_2d
from tests.conftest import random_connected_topology

MB = 1e6

#: The pruning comparison's relative slack (``_PRUNE_REL_EPS``).
SLACK = 1e-9

_original_value = TrialBound.value

#: The terms :meth:`TrialBound.value` takes the maximum of.
BOUND_TERMS = {"committed", "in_capacity", "chain"}


def _terms(bound: TrialBound, time: float, committed_end: float) -> dict:
    """Each live term of ``bound`` at ``time``, read from its running counts."""
    terms = {"committed": max(time, committed_end)}
    if bound._state is not None and bound._pending:
        terms["in_capacity"] = time + max(bound._in_terms)
        if bound._chunk_dest is not None and bound._min_cost > 0.0:
            # The histogram counts distances of 2 or more; with none left the
            # chain is the one-hop chain, which never exceeds in-capacity.
            top = max((weight for weight, count in enumerate(bound._dist_hist) if count), default=1)
            terms["chain"] = time + top * bound._min_cost
    return terms


def _payload(topology, pattern, collective_size, prefer_lowest_cost=True) -> TrialPayload:
    """The payload :meth:`TacosSynthesizer._synthesize_direct` builds."""
    chunk_size = pattern.chunk_size(collective_size)
    hop_distances = (
        topology.hop_distances() if TacosSynthesizer._needs_forwarding(pattern) else None
    )
    cheap_regions = (
        topology.cheaper_reachability_regions(chunk_size)
        if prefer_lowest_cost and not topology.is_homogeneous()
        else None
    )
    return TrialPayload(
        topology=topology,
        pattern=pattern,
        collective_size=float(collective_size),
        chunk_size=chunk_size,
        hop_distances=hop_distances,
        cheap_regions=cheap_regions,
        engine=FLAT_ENGINE,
        prefer_lowest_cost=prefer_lowest_cost,
        max_rounds=1_000_000,
    )


def _floor(payload: TrialPayload) -> float:
    ten = FLAT_ENGINE.ten_factory(payload.topology, payload.chunk_size)
    state = FLAT_ENGINE.state_factory(
        payload.topology.num_npus,
        payload.pattern.precondition(),
        payload.pattern.postcondition(),
    )
    return TrialBound(ten, state, payload.hop_distances).value(0.0, 0.0)


def _assert_sound(
    monkeypatch,
    topology,
    pattern,
    collective_size,
    seeds,
    prefer_lowest_cost=True,
    binding=None,
) -> int:
    """Run unpruned trials recording every round's bound; return rounds checked.

    With a ``binding`` counter, each evaluation whose value is set by one
    term alone counts that term.
    """
    payload = _payload(topology, pattern, collective_size, prefer_lowest_cost)
    floor = _floor(payload)
    recorded = []

    def recording_value(self, time, committed_end):
        value = _original_value(self, time, committed_end)
        recorded.append(value)
        if binding is not None:
            terms = _terms(self, time, committed_end)
            assert value == max(terms.values()), (terms, value)
            setting = [name for name, term in terms.items() if term == value]
            if len(setting) == 1:
                binding[setting[0]] += 1
        return value

    checked = 0
    with monkeypatch.context() as patch:
        patch.setattr(TrialBound, "value", recording_value)
        for seed in seeds:
            recorded.clear()
            # An infinite incumbent evaluates the bound after every round
            # but can never prune: the trial runs to completion.
            algorithm, stats = _execute_trial(payload, seed, incumbent=math.inf)
            assert algorithm is not None and stats["pruned_at_round"] is None
            final = algorithm.collective_time
            assert len(recorded) == stats["rounds"] - 1
            assert floor <= final * (1 + SLACK), (seed, floor, final)
            for round_index, value in enumerate(recorded, start=1):
                assert value <= final * (1 + SLACK), (seed, round_index, value, final)
            checked += len(recorded)
    return checked


#: (name, topology, pattern, size, terms that alone set some evaluated value)
_NAMED_WORKLOADS = [
    (
        "rfs2x4x4-all_gather",
        lambda: build_3d_rfs(2, 4, 4),
        AllGather,
        64 * MB,
        {"committed", "in_capacity"},
    ),
    ("rfs2x2x4-gather", lambda: build_3d_rfs(2, 2, 4), Gather, 16 * MB, {"committed"}),
    ("mesh6x6-gather", lambda: build_mesh_2d(6, 6), Gather, 4 * MB, {"in_capacity", "chain"}),
    ("torus5x5-all_to_all", lambda: build_torus_2d(5, 5), AllToAll, 4 * MB, {"chain"}),
]


def test_named_workloads_cover_every_bound_term():
    assert set().union(*(workload[-1] for workload in _NAMED_WORKLOADS)) == BOUND_TERMS


@pytest.mark.parametrize("name,topology_factory,pattern_cls,size,binds", _NAMED_WORKLOADS)
def test_bound_sound_on_named_workloads(
    monkeypatch, name, topology_factory, pattern_cls, size, binds
):
    topology = topology_factory()
    binding = Counter()
    checked = _assert_sound(
        monkeypatch,
        topology,
        pattern_cls(topology.num_npus),
        size,
        seeds=range(4),
        binding=binding,
    )
    assert checked > 0
    assert binds <= set(binding), dict(binding)


def _asymmetric_topology(rng: random.Random, num_npus: int, latency_links: int) -> Topology:
    base = random_connected_topology(num_npus, rng, extra_links=num_npus, heterogeneous=True)
    pure_latency = set(rng.sample(range(base.num_links), min(latency_links, base.num_links)))
    topology = Topology(num_npus, name=f"Asymmetric({num_npus})")
    for index, link in enumerate(base.links()):
        beta = 0.0 if index in pure_latency else link.beta
        topology.add_link(link.source, link.dest, alpha=link.alpha, beta=beta)
    return topology


_PATTERNS = {
    "all_gather": AllGather,
    "gather": Gather,
    "scatter": Scatter,
    "all_to_all": AllToAll,
    "broadcast": Broadcast,
}


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_npus=st.integers(min_value=3, max_value=9),
    latency_links=st.integers(min_value=0, max_value=3),
    collective=st.sampled_from(sorted(_PATTERNS)),
)
def test_bound_sound_on_random_asymmetric_topologies(
    monkeypatch, seed, num_npus, latency_links, collective
):
    rng = random.Random(seed)
    topology = _asymmetric_topology(rng, num_npus, latency_links)
    _assert_sound(
        monkeypatch,
        topology,
        _PATTERNS[collective](num_npus),
        rng.choice([1, 4, 16]) * MB,
        seeds=[seed, seed + 1],
        # The Sec. IV-F cheap-link deferral can stall personalized patterns
        # on heterogeneous topologies, so those run without it.
        prefer_lowest_cost=collective in ("all_gather", "broadcast"),
    )

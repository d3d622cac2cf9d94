"""The incremental ``TrialBound`` equals a from-scratch evaluation, round for round.

:class:`~repro.core.matching.TrialBound` keeps its capacity and distance
terms as running counts that :meth:`~repro.core.matching.TrialBound.update`
folds each round's transfers into.  :class:`ScratchBound` below is the
from-scratch formula: every call re-derives the owed pairs, the undeparted
chunks and the per-chunk hop distances from the live matching state with
numpy, and evaluates the same four components.  Incumbent pruning compares
the bound against the incumbent with ``>``, so the two must agree exactly
(``==`` on floats), not approximately — otherwise a pruning decision could
move.  Only the tracking *classification* (which chunks have a single
origin, which have a single owed destination) is snapshotted at
construction, as the incremental bound does.
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives import AllGather, AllToAll, Gather, Scatter
from repro.core.matching import TrialBound
from repro.core.synthesizer import _execute_trial
from repro.topology import build_3d_rfs, build_mesh_2d, build_torus_2d
from tests.core.test_trial_bound_soundness import _PATTERNS, _asymmetric_topology, _payload

MB = 1e6


class ScratchBound:
    """From-scratch numpy evaluation of the four ``TrialBound`` components."""

    def __init__(self, ten, state, hop_distances):
        in_flat, in_indptr, _sources = ten.in_link_csr()
        num_npus = state.num_npus
        num_chunks = state.num_chunks
        degrees = np.diff(in_indptr)
        costs = np.asarray(ten.link_costs, dtype=np.float64)
        gathered = costs[in_flat]
        min_in_cost = np.zeros(num_npus, dtype=np.float64)
        if gathered.size:
            empty = degrees == 0
            starts = in_indptr[:-1].copy()
            starts[empty] = 0
            min_in_cost = np.minimum.reduceat(gathered, starts)
            min_in_cost[empty] = 0.0
        sources = np.asarray(ten.link_sources, dtype=np.intp)
        out_degrees = np.bincount(sources, minlength=num_npus)
        min_out_cost = np.zeros(num_npus, dtype=np.float64)
        if costs.size:
            min_out_cost = np.full(num_npus, np.inf)
            np.minimum.at(min_out_cost, sources, costs)
            min_out_cost[out_degrees == 0] = 0.0
        self.state = state
        self.num_npus = num_npus
        self.num_chunks = num_chunks
        self.degrees = np.maximum(degrees, 1)
        self.min_in_cost = min_in_cost
        self.out_degrees = np.maximum(out_degrees, 1)
        self.min_out_cost = min_out_cost
        self.min_cost = ten.min_link_cost
        self.per_link_cost = ten.min_link_cost / len(ten.link_costs) if ten.link_costs else 0.0
        self.hop_distances = hop_distances

        codes = state._pending_codes()
        # Chunks whose whole holder set is one NPU at the start.
        self.origin = {}
        for chunk in sorted({code % num_chunks for code in codes}):
            holders = state._holders[chunk]
            if len(holders) == 1:
                self.origin[chunk] = holders[0]
        # Chunks owed by exactly one destination at the start.
        dests = {}
        for code in codes:
            dest, chunk = divmod(code, num_chunks)
            dests.setdefault(chunk, []).append(dest)
        self.chunk_dest = {chunk: owed[0] for chunk, owed in dests.items() if len(owed) == 1}

    def value(self, time, committed_end):
        bound = committed_end if committed_end > time else time
        state = self.state
        codes = state._pending_array()
        if not len(codes):
            return bound
        owed = np.bincount(codes // self.num_chunks, minlength=self.num_npus)
        spans = -(-owed // self.degrees)
        remaining = float((spans * self.min_in_cost).max())
        if remaining > 0.0:
            bound = max(bound, time + remaining)
        undeparted = np.zeros(self.num_npus, dtype=np.intp)
        for chunk, source in self.origin.items():
            if len(state._holders[chunk]) == 1:
                undeparted[source] += 1
        out_spans = -(-undeparted // self.out_degrees)
        remaining = float((out_spans * self.min_out_cost).max())
        if remaining > 0.0:
            bound = max(bound, time + remaining)
        if self.hop_distances is not None and self.min_cost > 0.0:
            chunk_dist = np.zeros(self.num_chunks, dtype=np.float64)
            for chunk, dest in self.chunk_dest.items():
                holders = state._holders[chunk]
                chunk_dist[chunk] = min(self.hop_distances[h][dest] for h in holders)
            distances = np.maximum(chunk_dist[codes % self.num_chunks], 1.0)
            bound = max(bound, time + float(distances.max()) * self.min_cost)
            bound = max(bound, time + float(distances.sum()) * self.per_link_cost)
        return bound


def _assert_incremental_equals_scratch(monkeypatch, payload, seeds) -> int:
    """Run unpruned trials comparing every evaluation; return evaluations checked."""
    original_init = TrialBound.__init__
    original_value = TrialBound.value
    scratch = {}
    checked = [0]

    def init(self, ten, state, hop_distances=None):
        original_init(self, ten, state, hop_distances)
        scratch[id(self)] = (self, ScratchBound(ten, state, hop_distances))

    def value(self, time, committed_end):
        got = original_value(self, time, committed_end)
        want = scratch[id(self)][1].value(time, committed_end)
        assert got == want, (time, committed_end, got, want)
        checked[0] += 1
        return got

    with monkeypatch.context() as patch:
        patch.setattr(TrialBound, "__init__", init)
        patch.setattr(TrialBound, "value", value)
        for seed in seeds:
            scratch.clear()
            # An infinite incumbent evaluates the bound after every round
            # without ever pruning, so every round of the trial is compared.
            algorithm, _ = _execute_trial(payload, seed, incumbent=math.inf)
            assert algorithm is not None
            # Also the round-0 value, which floor termination compares against.
            fresh = TrialBound.__new__(TrialBound)
            ten = payload.engine.ten_factory(payload.topology, payload.chunk_size)
            state = payload.engine.state_factory(
                payload.topology.num_npus,
                payload.pattern.precondition(),
                payload.pattern.postcondition(),
            )
            init(fresh, ten, state, payload.hop_distances)
            value(fresh, 0.0, 0.0)
    return checked[0]


@pytest.mark.parametrize(
    "name,topology_factory,pattern_cls,size",
    [
        ("rfs2x4x4-all_gather", lambda: build_3d_rfs(2, 4, 4), AllGather, 64 * MB),
        ("rfs2x2x4-gather", lambda: build_3d_rfs(2, 2, 4), Gather, 16 * MB),
        ("mesh6x6-gather", lambda: build_mesh_2d(6, 6), Gather, 4 * MB),
        ("torus5x5-all_to_all", lambda: build_torus_2d(5, 5), AllToAll, 4 * MB),
        ("mesh4x4-scatter", lambda: build_mesh_2d(4, 4), Scatter, 4 * MB),
    ],
)
def test_incremental_bound_equals_scratch_on_named_workloads(
    monkeypatch, name, topology_factory, pattern_cls, size
):
    topology = topology_factory()
    payload = _payload(topology, pattern_cls(topology.num_npus), size)
    assert _assert_incremental_equals_scratch(monkeypatch, payload, seeds=range(4)) > 4


def test_incremental_bound_equals_scratch_with_multi_destination_chunks(monkeypatch):
    # Forwarding patterns owe every chunk to one destination.  Forcing hop
    # distances onto an All-Gather makes the distance terms also weigh
    # chunks owed to several destinations (untracked, weight 1 each).
    topology = build_mesh_2d(3, 3)
    payload = dataclasses.replace(
        _payload(topology, AllGather(9), 4 * MB), hop_distances=topology.hop_distances()
    )
    assert _assert_incremental_equals_scratch(monkeypatch, payload, seeds=range(4)) > 4


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
def test_incremental_bound_equals_scratch_on_random_topologies(
    monkeypatch, seed, num_npus, latency_links, collective
):
    rng = random.Random(seed)
    topology = _asymmetric_topology(rng, num_npus, latency_links)
    payload = _payload(
        topology,
        _PATTERNS[collective](num_npus),
        rng.choice([1, 4, 16]) * MB,
        prefer_lowest_cost=collective in ("all_gather", "broadcast"),
    )
    _assert_incremental_equals_scratch(monkeypatch, payload, seeds=[seed, seed + 1])

"""Trial templates: trials started from copies of one round-0 state equal fresh ones.

A fan-out builds one :class:`~repro.core.synthesizer._TrialTemplate` (the TEN,
the matching state and, when pruning, the round-0 ``TrialBound``), runs every
trial but the last on a ``copy()`` and hands the last trial the template
itself.  These tests pin three properties:

* every trial's outcome — table bytes, ``rounds``, ``collective_time`` and
  ``pruned_at_round`` — equals the outcome of a trial built from scratch,
  serially and on the process pool, with pruning on and off;
* a copy and its template are independent: a trial run on one leaves the
  other (and so every later trial) exactly as it was;
* a one-seed synthesis copies nothing.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from contextlib import contextmanager

import pytest

from repro.api import parallel
from repro.bench.reference import REFERENCE_ENGINE
from repro.collectives import AllGather, AllReduce, AllToAll, Gather, Scatter
from repro.core import GuidedSynthesizer, SynthesisConfig, TacosSynthesizer
from repro.core.matching import MatchingState, TrialBound
from repro.core.synthesizer import _execute_trial, _run_trials, _TrialTemplate
from repro.ten.network import TimeExpandedNetwork
from repro.topology import build_3d_rfs, build_dgx1, build_mesh_2d, build_torus_2d
from tests.core.test_trial_bound_soundness import _payload

MB = 1e6

TOPOLOGIES = {
    "mesh6x6": lambda: build_mesh_2d(6, 6),
    "torus4x4": lambda: build_torus_2d(4, 4),
    "rfs2x2x3": lambda: build_3d_rfs(2, 2, 3),
    "dgx1": lambda: build_dgx1(),
}
PATTERNS = {
    "gather": Gather,
    "scatter": Scatter,
    "all_to_all": AllToAll,
    "all_gather": AllGather,
}
SEEDS = list(range(5))


def _outcome_keys(outcomes):
    return [
        (
            None if algorithm is None else algorithm.table.to_bytes(),
            stats["seed"],
            stats["rounds"],
            stats["collective_time"],
            stats["pruned_at_round"],
        )
        for algorithm, stats in outcomes
    ]


def _in_process_fan_out(fn, items, *, workers=None):
    """Runs the pool tier's chunk tasks in this process, so patches apply."""
    return [fn(item) for item in items]


@contextmanager
def _fresh_construction(monkeypatch):
    """Make every ``_TrialTemplate.copy()`` build a new template from its payload."""
    payloads = []
    original_init = _TrialTemplate.__init__

    def init(self, payload, with_bound):
        payloads.append(payload)
        original_init(self, payload, with_bound)

    def fresh(self, with_bound):
        return _TrialTemplate(payloads[-1], with_bound)

    with monkeypatch.context() as patch:
        patch.setattr(_TrialTemplate, "__init__", init)
        patch.setattr(_TrialTemplate, "copy", fresh)
        yield


@pytest.mark.parametrize("execution", ["serial", "pool"])
@pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("collective", sorted(PATTERNS))
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_copied_trials_equal_fresh_construction(
    monkeypatch, topology_name, collective, prune, execution
):
    topology = TOPOLOGIES[topology_name]()
    payload = _payload(topology, PATTERNS[collective](topology.num_npus), 4 * MB)
    workers = 1 if execution == "serial" else 2
    with _fresh_construction(monkeypatch), monkeypatch.context() as patch:
        patch.setattr(parallel, "map_parallel", _in_process_fan_out)
        expected = _run_trials(payload, SEEDS, workers, prune=prune)
    got = _run_trials(payload, SEEDS, workers, prune=prune)
    assert _outcome_keys(got) == _outcome_keys(expected)
    if prune and (topology_name, collective) == ("mesh6x6", "gather"):
        # Real inter-trial spread: trials on copied bounds prune mid-trial.
        assert any(stats["pruned_at_round"] for _, stats in got)


def _snapshot(template: _TrialTemplate):
    """Every mutable field of a template, as plain comparable values."""
    ten, state, bound = template.ten, template.state, template.bound
    fields = (
        ten.free_times,
        sorted(ten._event_heap),
        sorted(ten._event_times),
        state._acquisition,
        state._holders,
        sorted(state._activations),
        bytes(state._will_hold),
        bytes(state._pair_state),
        state._unsatisfied_count,
        state._held.tobytes(),
        state._codes_array.tolist(),
    )
    bound_fields = None
    if bound is not None:
        bound_fields = {
            name: getattr(bound, name)
            for name in TrialBound.__slots__
            if name != "_state" and hasattr(bound, name)
        }
    return copy.deepcopy((fields, bound_fields))


@pytest.mark.parametrize("collective", ["gather", "all_gather"])
def test_trials_on_copies_leave_the_template_untouched(collective):
    topology = build_mesh_2d(6, 6)
    payload = _payload(topology, PATTERNS[collective](topology.num_npus), 4 * MB)
    pristine = _snapshot(_TrialTemplate(payload, with_bound=True))
    template = _TrialTemplate(payload, with_bound=True)
    assert _snapshot(template) == pristine
    results = []
    for seed in SEEDS:
        # An infinite incumbent folds every round into the copied bound.
        algorithm, stats = _execute_trial(payload, seed, math.inf, template, keep_template=True)
        assert _snapshot(template) == pristine
        results.append((algorithm.table.to_bytes(), stats["rounds"]))
    fresh = [_execute_trial(payload, seed, math.inf) for seed in SEEDS]
    assert results == [(algorithm.table.to_bytes(), stats["rounds"]) for algorithm, stats in fresh]


def test_a_trial_on_the_template_leaves_earlier_copies_untouched():
    topology = build_torus_2d(4, 4)
    payload = _payload(topology, AllToAll(topology.num_npus), 4 * MB)
    template = _TrialTemplate(payload, with_bound=True)
    spare = template.copy(with_bound=True)
    pristine = _snapshot(spare)
    assert _snapshot(template) == pristine
    # The last trial of a fan-out runs on the template itself.
    _execute_trial(payload, 0, math.inf, template)
    assert _snapshot(template) != pristine
    assert _snapshot(spare) == pristine
    on_spare, _ = _execute_trial(payload, 1, math.inf, spare)
    on_fresh, _ = _execute_trial(payload, 1, math.inf)
    assert on_spare.table.to_bytes() == on_fresh.table.to_bytes()


def test_copies_share_static_tables():
    topology = build_mesh_2d(4, 4)
    payload = _payload(topology, Gather(topology.num_npus), 4 * MB)
    template = _TrialTemplate(payload, with_bound=True)
    clone = template.copy(with_bound=True)
    assert clone.ten.link_costs is template.ten.link_costs
    assert clone.ten.in_link_csr() is template.ten.in_link_csr()
    assert clone.ten.out_neighbour_csr() is template.ten.out_neighbour_csr()
    assert clone.ten.free_times is not template.ten.free_times
    assert clone.state._watch is template.state._watch
    assert clone.state._pair_state is not template.state._pair_state
    assert clone.bound._hop_rows is template.bound._hop_rows
    assert clone.bound._owed_at is not template.bound._owed_at
    assert template.copy(with_bound=False).bound is None


@pytest.fixture
def copy_calls(monkeypatch):
    """Count ``copy()`` calls on the TEN, the matching state and the bound."""
    calls = {"ten": 0, "state": 0, "bound": 0}

    def counting(kind, original):
        def wrapped(self, *args):
            calls[kind] += 1
            return original(self, *args)

        return wrapped

    monkeypatch.setattr(
        TimeExpandedNetwork, "copy", counting("ten", TimeExpandedNetwork.copy)
    )
    monkeypatch.setattr(MatchingState, "copy", counting("state", MatchingState.copy))
    monkeypatch.setattr(TrialBound, "copy", counting("bound", TrialBound.copy))
    return calls


@pytest.mark.parametrize(
    "synthesizer",
    [
        lambda: TacosSynthesizer(SynthesisConfig(seed=3)),
        lambda: GuidedSynthesizer(SynthesisConfig(seed=3)),
    ],
    ids=["uniform", "floor"],
)
@pytest.mark.parametrize("pattern_cls", [Gather, AllReduce], ids=["gather", "all_reduce"])
def test_one_seed_synthesis_copies_nothing(copy_calls, synthesizer, pattern_cls):
    topology = build_mesh_2d(4, 4)
    synthesizer().synthesize(topology, pattern_cls(topology.num_npus), 4 * MB)
    assert copy_calls == {"ten": 0, "state": 0, "bound": 0}


def test_multi_seed_synthesis_copies_all_but_the_last(copy_calls):
    topology = build_mesh_2d(4, 4)
    pattern = Gather(topology.num_npus)
    TacosSynthesizer(SynthesisConfig(seed=3, trials=4)).synthesize(topology, pattern, 4 * MB)
    assert copy_calls == {"ten": 3, "state": 3, "bound": 0}
    for key in copy_calls:
        copy_calls[key] = 0
    config = SynthesisConfig(seed=3, trials=4)
    result = GuidedSynthesizer(config).synthesize_with_stats(topology, pattern, 4 * MB)
    assert copy_calls["ten"] == copy_calls["state"] == 3
    # Trials after the first run against an incumbent; the last takes the
    # template's own bound.
    assert copy_calls["bound"] == 2
    assert result.trials == 4


@pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
@pytest.mark.parametrize("pattern_cls", [Gather, Scatter, AllGather])
def test_reference_engine_takes_the_same_template_path(pattern_cls, prune):
    topology = build_mesh_2d(4, 4)
    pattern = pattern_cls(topology.num_npus)
    flat = _payload(topology, pattern, 4 * MB)
    reference = dataclasses.replace(flat, engine=REFERENCE_ENGINE)
    got = _run_trials(reference, SEEDS, None, prune=prune)
    want = _run_trials(flat, SEEDS, None, prune=prune)
    if prune:
        # The reference state keeps only the committed-work bound, so it
        # prunes later; completed trials and the winner still agree.
        got = [(a, s) for a, s in got if a is not None]
        want = [(a, s) for a, s in want if a is not None]
        got_keys = {key[1]: key for key in _outcome_keys(got)}
        want_keys = {key[1]: key for key in _outcome_keys(want)}
        shared = set(got_keys) & set(want_keys)
        assert shared
        assert [got_keys[seed] for seed in sorted(shared)] == [
            want_keys[seed] for seed in sorted(shared)
        ]
    else:
        assert _outcome_keys(got) == _outcome_keys(want)

"""The single randomized trial loop behind every synthesis.

Uniform best-of-N is the ``prune=False, floor=None`` case of the stats loop:
every seed runs to completion, every trial leaves a stats entry, and the
winner is the first trial (in seed order) with the smallest collective time.
These tests pin that contract for each collective, for both synthesis
engines, and for the wave fan-out that carries trials to a backend.
"""

import dataclasses
import random

import pytest

from repro.api.parallel import BACKENDS, SerialBackend
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
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.core.synthesizer import (
    FLAT_ENGINE,
    TrialPayload,
    _run_trials,
    resolve_engine,
)
from repro.topology import build_dgx1, build_mesh_2d, build_ring
from tests.conftest import random_connected_topology

MB = 1e6

STATS_KEYS = {"seed", "rounds", "collective_time", "pruned_at_round", "wall_seconds"}


def _trial_key(entry):
    return (entry["seed"], entry["rounds"], entry["collective_time"], entry["pruned_at_round"])


BEST_OF_N_CASES = [
    ("ring5-allgather", lambda: build_ring(5), lambda n: AllGather(n)),
    ("mesh3x3-gather", lambda: build_mesh_2d(3, 3), lambda n: Gather(n)),
    ("mesh3x3-scatter", lambda: build_mesh_2d(3, 3), lambda n: Scatter(n)),
    ("dgx1-hetero-allgather", lambda: build_dgx1(heterogeneous=True), lambda n: AllGather(n)),
]


class TestUniformBestOfN:
    @pytest.mark.parametrize(
        "topology_factory, pattern_factory",
        [case[1:] for case in BEST_OF_N_CASES],
        ids=[case[0] for case in BEST_OF_N_CASES],
    )
    def test_winner_is_first_fastest_trial(self, topology_factory, pattern_factory):
        topology = topology_factory()
        pattern = pattern_factory(topology.num_npus)
        config = SynthesisConfig(seed=3, trials=4)
        result = TacosSynthesizer(config).synthesize_with_stats(topology, pattern, 4 * MB)

        assert [entry["seed"] for entry in result.trial_stats] == [3, 4, 5, 6]
        assert all(entry["pruned_at_round"] is None for entry in result.trial_stats)
        assert result.full_trials == 4 and result.pruned_trials == 0

        times = [entry["collective_time"] for entry in result.trial_stats]
        winner = result.trial_stats[times.index(min(times))]
        assert result.algorithm.collective_time == winner["collective_time"]
        assert result.rounds == winner["rounds"]

        # The winning seed on its own reproduces the winning table.
        alone = TacosSynthesizer(SynthesisConfig(seed=winner["seed"])).synthesize(
            topology, pattern, 4 * MB
        )
        assert alone.table.to_bytes() == result.algorithm.table.to_bytes()


STATS_PATTERNS = [
    ("all_gather", AllGather),
    ("reduce_scatter", ReduceScatter),
    ("gather", Gather),
    ("scatter", Scatter),
    ("broadcast", Broadcast),
    ("reduce", Reduce),
    ("all_to_all", AllToAll),
]


class TestTrialStatsAlwaysPopulated:
    @pytest.mark.parametrize(
        "pattern_cls", [case[1] for case in STATS_PATTERNS], ids=[case[0] for case in STATS_PATTERNS]
    )
    def test_one_entry_per_seed(self, pattern_cls):
        config = SynthesisConfig(seed=2, trials=3)
        result = TacosSynthesizer(config).synthesize_with_stats(
            build_mesh_2d(2, 3), pattern_cls(6), 6 * MB
        )
        assert [entry["seed"] for entry in result.trial_stats] == [2, 3, 4]
        for entry in result.trial_stats:
            assert STATS_KEYS <= set(entry)
            assert entry["pruned_at_round"] is None
            assert entry["wall_seconds"] >= 0.0
        assert result.algorithm.collective_time == min(
            entry["collective_time"] for entry in result.trial_stats
        )

    def test_all_reduce_phases_each_cover_every_seed(self):
        config = SynthesisConfig(seed=1, trials=3)
        result = TacosSynthesizer(config).synthesize_with_stats(
            build_mesh_2d(2, 3), AllReduce(6), 6 * MB
        )
        for phase in ("reduce_scatter", "all_gather"):
            entries = [entry for entry in result.trial_stats if entry["phase"] == phase]
            assert [entry["seed"] for entry in entries] == [1, 2, 3]
        metadata = result.algorithm.metadata
        assert metadata["reduce_scatter_time"] == min(
            entry["collective_time"]
            for entry in result.trial_stats
            if entry["phase"] == "reduce_scatter"
        )

    def test_config_has_no_stats_switch(self):
        # Stats are unconditional, so the config carries no field for them.
        assert [field.name for field in dataclasses.fields(SynthesisConfig)] == [
            "seed",
            "trials",
            "prefer_lowest_cost_links",
            "enable_forwarding",
            "max_rounds",
            "trial_workers",
            "execution",
            "incumbent_pruning",
            "wave_size",
            "floor_termination",
        ]


class TestEnginesShareTheLoop:
    @pytest.mark.parametrize("seed, trials", [(0, 1), (7, 2), (11, 3)])
    def test_reference_engine_matches_flat(self, seed, trials):
        topology = random_connected_topology(
            8, random.Random(seed), extra_links=4, heterogeneous=True
        )
        config = SynthesisConfig(seed=seed, trials=trials)
        flat = TacosSynthesizer(config, engine=FLAT_ENGINE).synthesize_with_stats(
            topology, AllGather(8), 4 * MB
        )
        reference = TacosSynthesizer(
            config, engine=resolve_engine("reference")
        ).synthesize_with_stats(topology, AllGather(8), 4 * MB)
        assert reference.algorithm.table.to_bytes() == flat.algorithm.table.to_bytes()
        assert [_trial_key(e) for e in reference.trial_stats] == [
            _trial_key(e) for e in flat.trial_stats
        ]


class _RecordingBackend(SerialBackend):
    """In-process backend that counts the waves the trial loop hands it."""

    def __init__(self):
        self.calls = []

    def map(self, fn, items, *, max_workers=None):
        items = list(items)
        self.calls.append(items)
        return [fn(item) for item in items]


def _payload(topology, pattern, collective_size):
    return TrialPayload(
        topology=topology,
        pattern=pattern,
        collective_size=collective_size,
        chunk_size=pattern.chunk_size(collective_size),
        hop_distances=topology.hop_distances(),
        cheap_regions=None,
        engine=FLAT_ENGINE,
        prefer_lowest_cost=True,
        max_rounds=SynthesisConfig().max_rounds,
    )


class TestWaveFanOut:
    SEEDS = list(range(5))

    def _outcomes(self, backend, *, prune):
        payload = _payload(build_mesh_2d(3, 3), Gather(9), 9 * MB)
        return _run_trials(payload, self.SEEDS, backend, 2, prune=prune, wave_size=1)

    @pytest.mark.parametrize("prune, waves", [(False, 1), (True, 5)], ids=["uniform", "pruned"])
    def test_wave_count_follows_pruning(self, prune, waves):
        backend = _RecordingBackend()
        outcomes = self._outcomes(backend, prune=prune)
        assert len(backend.calls) == waves
        assert [stats["seed"] for _, stats in outcomes] == self.SEEDS

    def test_unpruned_waves_match_serial_loop(self):
        serial = self._outcomes(None, prune=False)
        fanned = self._outcomes(_RecordingBackend(), prune=False)
        assert [_trial_key(stats) for _, stats in fanned] == [
            _trial_key(stats) for _, stats in serial
        ]
        for (fan_algorithm, _), (serial_algorithm, _) in zip(fanned, serial):
            assert fan_algorithm.table.to_bytes() == serial_algorithm.table.to_bytes()


class TestTrialExecution:
    @pytest.mark.parametrize(
        "fields, expected",
        [
            ({"trial_workers": 2}, ("pool", 2)),
            ({"trial_workers": 1}, (None, None)),
            ({"execution": "serial", "trial_workers": 4}, (None, None)),
            ({"execution": "pool"}, ("pool", None)),
        ],
        ids=["workers-alone-pool", "one-worker-serial", "explicit-serial", "explicit-pool"],
    )
    def test_resolution(self, fields, expected):
        backend, workers = TacosSynthesizer(SynthesisConfig(**fields))._trial_execution()
        name = backend.name if backend is not None else None
        assert (name, workers) == expected
        if backend is not None:
            assert backend is BACKENDS[name]


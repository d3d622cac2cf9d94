"""The single randomized trial loop behind every synthesis.

Uniform best-of-N is the ``prune=False, floor=None`` case of the stats loop:
every seed runs to completion, every trial leaves a stats entry, and the
winner is the first trial (in seed order) with the smallest collective time.
These tests pin that contract for each collective, for both synthesis
engines, and for the wave fan-out that carries trials to a backend.
"""

import dataclasses
import hashlib
import random
from collections import OrderedDict

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
from repro.core import SynthesisConfig, TacosSynthesizer, synthesizer
from repro.core.synthesizer import (
    FLAT_ENGINE,
    TrialPayload,
    _decode_trial_outcome,
    _execute_trial,
    _run_trial_chunk,
    _run_trials,
    resolve_engine,
)
from repro.topology import build_3d_rfs, build_dgx1, build_mesh_2d, build_ring
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
    """In-process backend that records each wave and its task the trial loop hands it."""

    def __init__(self):
        self.calls = []
        self.fns = []

    def map(self, fn, items, *, max_workers=None):
        items = list(items)
        self.calls.append(items)
        self.fns.append(fn)
        return [fn(item) for item in items]


def _payload(topology, pattern, collective_size, *, cheap=False):
    chunk_size = pattern.chunk_size(collective_size)
    return TrialPayload(
        topology=topology,
        pattern=pattern,
        collective_size=collective_size,
        chunk_size=chunk_size,
        hop_distances=topology.hop_distances(),
        cheap_regions=topology.cheaper_reachability_regions(chunk_size) if cheap else None,
        engine=FLAT_ENGINE,
        prefer_lowest_cost=True,
        max_rounds=SynthesisConfig().max_rounds,
    )


class TestWaveFanOut:
    SEEDS = list(range(5))

    def _outcomes(self, backend, *, prune):
        payload = _payload(build_mesh_2d(3, 3), Gather(9), 9 * MB)
        return _run_trials(payload, self.SEEDS, backend, 1, prune=prune)

    @pytest.mark.parametrize(
        "prune, wave_sizes", [(False, [5]), (True, [2, 2, 1])], ids=["uniform", "pruned"]
    )
    def test_wave_count_follows_pruning(self, prune, wave_sizes):
        backend = _RecordingBackend()
        outcomes = self._outcomes(backend, prune=prune)
        assert [sum(len(chunk) for chunk in call) for call in backend.calls] == wave_sizes
        assert [stats["seed"] for _, stats in outcomes] == self.SEEDS

    def test_unpruned_waves_match_serial_loop(self):
        serial = self._outcomes(None, prune=False)
        fanned = self._outcomes(_RecordingBackend(), prune=False)
        assert [_trial_key(stats) for _, stats in fanned] == [
            _trial_key(stats) for _, stats in serial
        ]
        for (fan_algorithm, _), (serial_algorithm, _) in zip(fanned, serial):
            assert fan_algorithm.table.to_bytes() == serial_algorithm.table.to_bytes()


def _blob(payload):
    blob = payload.to_bytes()
    return hashlib.sha256(blob).hexdigest(), blob


class TestPayloadWorkerCache:
    """A pool worker decodes each distinct payload blob once, keyed by its hash."""

    @pytest.fixture(autouse=True)
    def decodes(self, monkeypatch):
        monkeypatch.setattr(synthesizer, "_PAYLOAD_CACHE", OrderedDict())
        calls = []
        original = TrialPayload.from_bytes

        def counting(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(TrialPayload, "from_bytes", staticmethod(counting))
        return calls

    def test_same_key_decodes_once_and_a_new_key_decodes_again(self, decodes):
        ring = _payload(build_ring(4), AllGather(4), 4 * MB)
        mesh = _payload(build_mesh_2d(3, 3), Gather(9), 9 * MB)
        for seeds in ([0], [1, 2]):
            _run_trial_chunk(*_blob(ring), None, seeds)
        assert len(decodes) == 1
        [(packed, stats)] = _run_trial_chunk(*_blob(mesh), None, [3])
        assert len(decodes) == 2
        algorithm, expected = _execute_trial(mesh, 3, None)
        assert packed[0] == algorithm.table.to_bytes()
        assert stats["rounds"] == expected["rounds"]

    def test_cache_is_bounded(self, decodes):
        limit = synthesizer._PAYLOAD_CACHE_LIMIT
        blobs = [
            _blob(_payload(build_ring(4), AllGather(4), (index + 1) * MB))
            for index in range(limit + 1)
        ]
        for key, blob in blobs:
            assert _run_trial_chunk(key, blob, None, []) == []
        assert len(decodes) == limit + 1
        assert list(synthesizer._PAYLOAD_CACHE) == [key for key, _ in blobs[1:]]
        _run_trial_chunk(*blobs[0], None, [])
        assert len(decodes) == limit + 2


class TestInlineTransport:
    """The pool fan-out ships one content-keyed blob with every chunk task."""

    SEEDS = list(range(5))

    @pytest.fixture
    def encodes(self, monkeypatch):
        calls = []
        original = TrialPayload.to_bytes

        def counting(payload):
            calls.append(payload)
            return original(payload)

        monkeypatch.setattr(TrialPayload, "to_bytes", counting)
        return calls

    def test_one_blob_per_fan_out_keyed_by_its_hash(self, encodes):
        payload = _payload(build_mesh_2d(3, 3), Gather(9), 9 * MB)
        backend = _RecordingBackend()
        _run_trials(payload, self.SEEDS, backend, 1, prune=True)
        assert len(backend.fns) == 3  # waves of two: the blob is shared by all
        assert len(encodes) == 1
        blob = backend.fns[0].args[1]
        assert blob == payload.to_bytes()
        for fn in backend.fns:
            assert fn.func is _run_trial_chunk
            key, wave_blob = fn.args[:2]
            assert wave_blob is blob
            assert key == hashlib.sha256(blob).hexdigest()

    def test_later_waves_carry_the_incumbent(self):
        payload = _payload(build_mesh_2d(3, 3), Gather(9), 9 * MB)
        backend = _RecordingBackend()
        outcomes = _run_trials(payload, self.SEEDS, backend, 1, prune=True)
        incumbents = [fn.args[2] for fn in backend.fns]
        assert incumbents[0] is None
        first_wave = [a.collective_time for a, _ in outcomes[:2] if a is not None]
        assert incumbents[1] == min(first_wave)
        assert all(later <= earlier for earlier, later in zip(incumbents[1:], incumbents[2:]))
        uniform = _RecordingBackend()
        _run_trials(payload, self.SEEDS, uniform, 1, prune=False)
        assert [fn.args[2] for fn in uniform.fns] == [None]

    def test_serial_loop_never_serializes(self, encodes):
        payload = _payload(build_ring(4), AllGather(4), 4 * MB)
        assert len(_run_trials(payload, [0, 1, 2], None, None, prune=True)) == 3
        # One seed runs in-process even when a backend is given.
        backend = _RecordingBackend()
        assert len(_run_trials(payload, [0], backend, 2, prune=True)) == 1
        assert backend.calls == []
        assert encodes == []

    @pytest.mark.parametrize(
        "topology_factory, pattern_factory",
        [
            (lambda: build_3d_rfs(2, 4, 4), lambda n: AllGather(n)),
            (lambda: build_3d_rfs(2, 4, 4).reversed(), lambda n: AllGather(n)),
            (lambda: build_dgx1(heterogeneous=True), lambda n: AllGather(n)),
        ],
        ids=["rfs2x4x4-allgather", "rfs2x4x4-reversed-allgather", "dgx1-hetero-allgather"],
    )
    def test_heterogeneous_chunk_outcomes_equal_serial_trials(
        self, topology_factory, pattern_factory, monkeypatch
    ):
        # Cheap-region tiers (float cost keys) and reversed link columns go
        # through the blob; the decoded outcomes must equal in-process trials.
        monkeypatch.setattr(synthesizer, "_PAYLOAD_CACHE", OrderedDict())
        topology = topology_factory()
        payload = _payload(topology, pattern_factory(topology.num_npus), 16 * MB, cheap=True)
        assert payload.cheap_regions
        seeds = [0, 3]
        packed = _run_trial_chunk(*_blob(payload), None, seeds)
        for seed, outcome in zip(seeds, packed):
            decoded, stats = _decode_trial_outcome(payload, outcome)
            expected, expected_stats = _execute_trial(payload, seed, None)
            assert decoded.table.to_bytes() == expected.table.to_bytes()
            assert decoded.collective_time == expected.collective_time
            assert decoded.metadata == expected.metadata
            assert _trial_key(stats) == _trial_key(expected_stats)


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


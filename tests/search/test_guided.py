"""The guided synthesis tier: config defaults, portfolios, registry, CLI.

The load-bearing guarantee: guided search over the *same seed list* selects
a winner byte-identical to the uniform search — pruning and floor
termination only skip work that provably cannot change the strict-``<``
best-of selection.  Portfolios reorder/substitute seeds, which is allowed to
change the winner; those tests assert the mechanics (front-loading, budget
preservation), not byte identity.
"""

import dataclasses
import json

import pytest

from repro import cli
from repro.api import ALGORITHMS, SYNTHESIZERS
from repro.api.cache import ResultCache
from repro.api.runner import run
from repro.api.specs import AlgorithmSpec, CollectiveSpec, RunSpec, TopologySpec
from repro.collectives import AllGather
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.core.algorithm import CollectiveAlgorithm
from repro.core.transfers import TransferTable
from repro.errors import SynthesisError
from repro.search import GuidedSynthesizer
from repro.topology import build_mesh


def _mesh_spec(algorithm="tacos", **params):
    return RunSpec(
        topology=TopologySpec(name="mesh", params={"dims": [3, 3]}),
        collective=CollectiveSpec(name="all_gather", collective_size=1e6),
        algorithm=AlgorithmSpec(name=algorithm, params=params),
    )


class TestConfigDefaults:
    def test_default_config_is_guided(self):
        config = GuidedSynthesizer().config
        assert config.incumbent_pruning is True
        assert config.floor_termination is True

    def test_provided_config_kept_as_given(self):
        config = SynthesisConfig(trials=3, incumbent_pruning=True)
        assert GuidedSynthesizer(config).config is config

    def test_provided_flags_respected(self):
        config = SynthesisConfig(trials=2, incumbent_pruning=False)
        assert GuidedSynthesizer(config).config.incumbent_pruning is False

    def test_floor_without_pruning_is_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(floor_termination=True, incumbent_pruning=False)


class TestGuidedWithoutStore:
    def test_winner_matches_uniform_byte_for_byte(self):
        topology = build_mesh([4, 4])
        pattern = AllGather(16)
        uniform = TacosSynthesizer(SynthesisConfig(seed=3, trials=8))
        guided = GuidedSynthesizer(
            SynthesisConfig(
                seed=3,
                trials=8,
                incumbent_pruning=True,
                floor_termination=True,
            )
        )
        expected = uniform.synthesize(topology, pattern, 4e6)
        result = guided.synthesize_with_stats(topology, pattern, 4e6)
        assert result.algorithm.table.to_bytes() == expected.table.to_bytes()
        assert result.algorithm.collective_time == expected.collective_time
        assert guided.last_portfolio_seeds == []

    def test_trial_stats_account_for_every_seed(self):
        topology = build_mesh([3, 3])
        guided = GuidedSynthesizer(SynthesisConfig(seed=0, trials=6, incumbent_pruning=True))
        result = guided.synthesize_with_stats(topology, AllGather(9), 1e6)
        assert len(result.trial_stats) == 6
        assert [stats["seed"] for stats in result.trial_stats] == list(range(6))
        assert result.full_trials + result.pruned_trials == 6
        assert result.full_trials >= 1  # the winner always completes


class TestGuidedWithPortfolio:
    def _seeded_store(self, tmp_path, seeds, topology_name="Mesh(6x6)"):
        # Entries written by the real producer; the seeds go to the specs in
        # sorted hash order, which is the order the portfolio scans the store.
        cache = ResultCache(tmp_path / "store")
        specs = sorted(
            (dataclasses.replace(_mesh_spec(), label=f"k{index}") for index in range(len(seeds))),
            key=RunSpec.spec_hash,
        )
        for spec, seed in zip(specs, seeds):
            cache.store.write_json(spec.spec_hash(), {"topology": topology_name})
            algorithm = CollectiveAlgorithm.from_table(
                TransferTable.empty(),
                num_npus=36,
                chunk_size=1e6,
                collective_size=36e6,
                pattern_name="AllGather",
                topology_name=topology_name,
                metadata={"seed": seed},
            )
            cache.put_algorithm(spec, algorithm)
        return cache.store

    def test_portfolio_seeds_front_loaded(self, tmp_path):
        store = self._seeded_store(tmp_path, [103, 207])
        guided = GuidedSynthesizer(
            SynthesisConfig(seed=0, trials=6, incumbent_pruning=True),
            store=store,
        )
        topology = build_mesh([6, 6])
        seeds = guided._trial_seeds(topology)
        assert seeds[:2] == [103, 207]
        assert len(seeds) == 6  # budget-preserving substitution
        assert guided.last_portfolio_seeds == [103, 207]

    def test_portfolio_overlap_deduplicates(self, tmp_path):
        # Seed 2 is already in the base list 0..5: it moves to the front
        # instead of appearing twice, and the budget still holds.
        store = self._seeded_store(tmp_path, [2, 400])
        guided = GuidedSynthesizer(
            SynthesisConfig(seed=0, trials=6, incumbent_pruning=True),
            store=store,
        )
        seeds = guided._trial_seeds(build_mesh([6, 6]))
        assert seeds[:2] == [2, 400]
        assert len(seeds) == len(set(seeds)) == 6

    def test_foreign_family_is_ignored(self, tmp_path):
        store = self._seeded_store(tmp_path, [99], topology_name="Ring(16)")
        guided = GuidedSynthesizer(
            SynthesisConfig(seed=0, trials=4, incumbent_pruning=True),
            store=store,
        )
        seeds = guided._trial_seeds(build_mesh([6, 6]))
        assert seeds == list(range(4))
        assert guided.last_portfolio_seeds == []

    def test_portfolio_limit_caps_front_loading(self, tmp_path):
        store = self._seeded_store(tmp_path, [100, 200, 300, 400])
        guided = GuidedSynthesizer(
            SynthesisConfig(seed=0, trials=8, incumbent_pruning=True),
            store=store,
            portfolio_limit=2,
        )
        seeds = guided._trial_seeds(build_mesh([6, 6]))
        assert seeds[:2] == [100, 200]
        assert 300 not in seeds and 400 not in seeds

    def test_end_to_end_portfolio_from_cached_runs(self, tmp_path):
        # A cached run on the Mesh family seeds the portfolio of the next
        # guided run on a sibling mesh.
        cache = ResultCache(tmp_path / "cache")
        run(_mesh_spec(trials=3, seed=5), cache=cache)
        guided = GuidedSynthesizer(
            SynthesisConfig(seed=0, trials=4, incumbent_pruning=True),
            store=cache.store,
        )
        guided.synthesize_with_stats(build_mesh([4, 4]), AllGather(16), 1e6)
        assert guided.last_portfolio_seeds  # mined from the cached run


class TestRegistryAndSpecs:
    def test_guided_synthesizer_registered(self):
        assert "guided" in SYNTHESIZERS
        assert SYNTHESIZERS.get("guided") is GuidedSynthesizer

    def test_guided_algorithm_registered(self):
        assert ALGORITHMS.canonical_name("guided") == "guided"

    def test_spec_hashes_diverge_per_tier(self):
        assert _mesh_spec("tacos").spec_hash() != _mesh_spec("guided").spec_hash()

    def test_run_guided_spec_reports_search_extras(self):
        result = run(_mesh_spec("guided", trials=4, seed=1))
        assert result.extras["trials"] == 4.0
        assert result.extras["full_trials"] + result.extras["pruned_trials"] == 4.0
        assert result.trial_stats is not None
        assert len(result.trial_stats) == 4
        # Same winner quality as the uniform tier over the same seeds.
        uniform = run(_mesh_spec("tacos", trials=4, seed=1))
        assert result.collective_time == uniform.collective_time


class TestCli:
    def test_synthesizer_flag_switches_tier(self, capsys):
        assert cli.main(
            ["synthesize", "-t", "mesh:3x3", "-c", "all_gather",
             "-p", "trials=3", "--synthesizer", "guided", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "guided"
        assert payload["spec"]["algorithm"]["name"] == "guided"
        assert payload["extras"]["pruned_trials"] + payload["extras"]["full_trials"] == 3.0
        assert len(payload["trial_stats"]) == 3

    def test_saved_specs_hash_separately(self, tmp_path):
        guided_spec = tmp_path / "guided.json"
        uniform_spec = tmp_path / "uniform.json"
        assert cli.main(
            ["synthesize", "-t", "mesh:3x3", "-c", "all_gather",
             "--synthesizer", "guided", "--save-spec", str(guided_spec)]
        ) == 0
        assert cli.main(
            ["synthesize", "-t", "mesh:3x3", "-c", "all_gather",
             "--save-spec", str(uniform_spec)]
        ) == 0
        guided = RunSpec.from_dict(json.loads(guided_spec.read_text()))
        uniform = RunSpec.from_dict(json.loads(uniform_spec.read_text()))
        assert guided.algorithm.name == "guided"
        assert guided.spec_hash() != uniform.spec_hash()

    def test_guided_matches_tacos_quality(self, capsys):
        argv = ["synthesize", "-t", "mesh:3x3", "-c", "all_gather",
                "-p", "trials=3", "-p", "seed=2", "--json"]
        assert cli.main(argv + ["--synthesizer", "guided"]) == 0
        guided = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        uniform = json.loads(capsys.readouterr().out)
        assert guided["collective_time"] == uniform["collective_time"]

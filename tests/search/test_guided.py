"""The guided synthesis tier: a type and an algorithm name, nothing else.

The load-bearing guarantee: guided search over the *same seed list* selects
a winner byte-identical to the uniform search — pruning and floor
termination only skip work that provably cannot change the strict-``<``
best-of selection.  The seed list is ``seed + i`` on both tiers, so a spec
alone fixes the winner.
"""

import importlib.util
import inspect
import json

import pytest

from repro import cli
from repro.api import ALGORITHMS
from repro.api.runner import run
from repro.api.specs import AlgorithmSpec, CollectiveSpec, RunSpec, TopologySpec
from repro.collectives import AllGather
from repro.core import GuidedSynthesizer, SynthesisConfig, TacosSynthesizer
from repro.topology import build_mesh


def _mesh_spec(algorithm="tacos", **params):
    return RunSpec(
        topology=TopologySpec(name="mesh", params={"dims": [3, 3]}),
        collective=CollectiveSpec(name="all_gather", collective_size=1e6),
        algorithm=AlgorithmSpec(name=algorithm, params=params),
    )


class TestTierIsTheType:
    def test_tier_is_a_class_attribute(self):
        assert TacosSynthesizer.prune is False
        assert GuidedSynthesizer.prune is True

    def test_tier_lives_beside_the_uniform_one(self):
        # One module holds both tiers.
        assert GuidedSynthesizer.__module__ == TacosSynthesizer.__module__
        assert importlib.util.find_spec("repro.search") is None

    def test_guided_has_no_constructor_of_its_own(self):
        assert "__init__" not in vars(GuidedSynthesizer)
        assert GuidedSynthesizer().config == SynthesisConfig()

    def test_provided_config_kept_as_given(self):
        config = SynthesisConfig(trials=3)
        assert GuidedSynthesizer(config).config is config


class TestGuidedSearch:
    def test_winner_matches_uniform_byte_for_byte(self):
        topology = build_mesh([4, 4])
        pattern = AllGather(16)
        uniform = TacosSynthesizer(SynthesisConfig(seed=3, trials=8))
        guided = GuidedSynthesizer(SynthesisConfig(seed=3, trials=8))
        expected = uniform.synthesize(topology, pattern, 4e6)
        result = guided.synthesize_with_stats(topology, pattern, 4e6)
        assert result.algorithm.table.to_bytes() == expected.table.to_bytes()
        assert result.algorithm.collective_time == expected.collective_time
        assert [stats["seed"] for stats in result.trial_stats] == list(range(3, 11))

    def test_trial_stats_account_for_every_seed(self):
        topology = build_mesh([3, 3])
        guided = GuidedSynthesizer(SynthesisConfig(seed=0, trials=6))
        result = guided.synthesize_with_stats(topology, AllGather(9), 1e6)
        assert len(result.trial_stats) == 6
        assert [stats["seed"] for stats in result.trial_stats] == list(range(6))
        assert result.full_trials + result.pruned_trials == 6
        assert result.full_trials >= 1  # the winner always completes


class TestNoHiddenInputs:
    def test_constructor_takes_only_config_and_engine(self):
        assert list(inspect.signature(GuidedSynthesizer).parameters) == ["config", "engine"]

    def test_no_seed_list_hook(self):
        assert not hasattr(TacosSynthesizer, "_trial_seeds")
        assert not hasattr(GuidedSynthesizer, "_trial_seeds")


class TestRegistryAndSpecs:
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
    def test_algorithm_flag_selects_tier(self, capsys):
        assert cli.main(
            ["synthesize", "-t", "mesh:3x3", "-c", "all_gather",
             "-p", "trials=3", "-a", "guided", "--json"]
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
             "-a", "guided", "--save-spec", str(guided_spec)]
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
        assert cli.main(argv + ["-a", "guided"]) == 0
        guided = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        uniform = json.loads(capsys.readouterr().out)
        assert guided["collective_time"] == uniform["collective_time"]

    @pytest.mark.parametrize("algorithm", ["tacos", "guided"])
    @pytest.mark.parametrize(
        "param",
        [
            "store_dir=cache",
            "portfolio_limit=4",
            "trial_workers=2",
            "execution=pool",
            "incumbent_pruning=true",
            "floor_termination=true",
            "enable_forwarding=false",
        ],
    )
    def test_removed_params_are_usage_errors(self, capsys, algorithm, param):
        # Neither a store's contents, the execution backend nor the search
        # tier is a search input: these params name no SynthesisConfig
        # field, so they fail like any unknown param instead of being
        # silently accepted.  The tier is the algorithm name alone.
        argv = ["synthesize", "-t", "mesh:3x3", "-c", "all_gather",
                "-a", algorithm, "-p", param]
        assert cli.main(argv) == 2
        assert param.partition("=")[0] in capsys.readouterr().err

"""Tests for the byte-identity check: the flat-vs-reference engine
equivalence that proves the refactor behaviour-preserving, the grids, the
per-check records, and that a perturbed side is reported as a mismatch."""

import dataclasses
import json

import pytest

from repro import cli
from repro.api.builtins import parse_topology_spec
from repro.api.registry import COLLECTIVES
from repro.api.runner import build_topology
from repro.bench import (
    GRIDS,
    REFERENCE_ENGINE,
    Scenario,
    check,
    check_scenario,
    get_grid,
    run_bench,
)
from repro.collectives import AllGather, AllReduce, AllToAll, Gather, ReduceScatter, Scatter
from repro.core import FLAT_ENGINE, SynthesisConfig, TacosSynthesizer
from repro.errors import ReproError
from repro.simulator.adapters import simulate_algorithm
from repro.topology import (
    build_3d_rfs,
    build_dgx1,
    build_mesh_2d,
    build_ring,
    build_switch,
    build_torus_2d,
)

MB = 1e6


# ----------------------------------------------------------------------
# Engine equivalence — the heart of the refactor's acceptance criteria
# ----------------------------------------------------------------------
ENGINE_CASES = [
    ("ring-all_gather", lambda: build_ring(8), lambda n: AllGather(n), 4 * MB),
    ("mesh-all_reduce", lambda: build_mesh_2d(3, 3), lambda n: AllReduce(n), 4 * MB),
    ("hetero-dgx1", lambda: build_dgx1(heterogeneous=True), lambda n: AllReduce(n), 4 * MB),
    ("forwarding-gather", lambda: build_ring(6), lambda n: Gather(n, root=0), 4 * MB),
    ("forwarding-all_to_all", lambda: build_ring(5), lambda n: AllToAll(n), 2 * MB),
    ("switch-reduce_scatter", lambda: build_switch(8), lambda n: ReduceScatter(n), 4 * MB),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "name,topology_factory,pattern_factory,size",
        ENGINE_CASES,
        ids=[case[0] for case in ENGINE_CASES],
    )
    def test_fixed_seed_outputs_identical(self, name, topology_factory, pattern_factory, size):
        topology = topology_factory()
        pattern = pattern_factory(topology.num_npus)
        config = SynthesisConfig(seed=13)
        flat = TacosSynthesizer(config, engine=FLAT_ENGINE).synthesize(topology, pattern, size)
        reference = TacosSynthesizer(config, engine=REFERENCE_ENGINE).synthesize(
            topology, pattern, size
        )
        assert flat.transfers == reference.transfers
        assert flat.collective_time == reference.collective_time

    def test_multi_trial_selection_identical(self):
        topology = build_mesh_2d(4, 4)
        pattern = AllReduce(16)
        config = SynthesisConfig(seed=1, trials=3)
        flat = TacosSynthesizer(config).synthesize(topology, pattern, 16 * MB)
        reference = TacosSynthesizer(config, engine=REFERENCE_ENGINE).synthesize(
            topology, pattern, 16 * MB
        )
        assert flat.transfers == reference.transfers

    def test_large_round_numpy_permutation_path_identical(self):
        # 6x6 all-gather crosses the _NUMPY_SHUFFLE_MIN=128 pending-pair
        # threshold, exercising the numpy permutation + prefilter path.
        topology = build_mesh_2d(6, 6)
        pattern = AllGather(36)
        config = SynthesisConfig(seed=0)
        flat = TacosSynthesizer(config).synthesize(topology, pattern, 4 * MB)
        reference = TacosSynthesizer(config, engine=REFERENCE_ENGINE).synthesize(
            topology, pattern, 4 * MB
        )
        assert flat.transfers == reference.transfers


#: Forwarding-pass cases where a holder has several downhill out-links (a
#: ring never has more than one), so the forwarding candidate order and the
#: RNG draws over it are exercised: (name, topology, pattern, size, config).
FORWARDING_CASES = [
    ("mesh6x6-gather-root0", lambda: build_mesh_2d(6, 6), lambda n: Gather(n, root=0), 4 * MB, {}),
    (
        "mesh6x6-gather-root14",
        lambda: build_mesh_2d(6, 6),
        lambda n: Gather(n, root=14),
        4 * MB,
        {},
    ),
    ("mesh4x4-scatter", lambda: build_mesh_2d(4, 4), lambda n: Scatter(n), 4 * MB, {}),
    ("torus4x4-all_to_all", lambda: build_torus_2d(4, 4), lambda n: AllToAll(n), 4 * MB, {}),
    (
        "rfs2x4x2-gather-any-cost",
        lambda: build_3d_rfs(2, 4, 2),
        lambda n: Gather(n),
        4 * MB,
        {"prefer_lowest_cost_links": False},
    ),
]


class TestForwardingEquivalence:
    @pytest.mark.parametrize(
        "name,topology_factory,pattern_factory,size,config_kwargs",
        FORWARDING_CASES,
        ids=[case[0] for case in FORWARDING_CASES],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_fixed_seed_tables_identical(
        self, name, topology_factory, pattern_factory, size, config_kwargs, seed
    ):
        topology = topology_factory()
        pattern = pattern_factory(topology.num_npus)
        config = SynthesisConfig(seed=seed, **config_kwargs)
        flat = TacosSynthesizer(config, engine=FLAT_ENGINE).synthesize(topology, pattern, size)
        reference = TacosSynthesizer(config, engine=REFERENCE_ENGINE).synthesize(
            topology, pattern, size
        )
        assert flat.table.to_bytes() == reference.table.to_bytes()


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
class TestGrids:
    def test_known_grids(self):
        assert set(GRIDS) == {"smoke", "search", "full"}

    def test_unknown_grid_raises(self):
        with pytest.raises(ReproError):
            get_grid("nope")

    def test_smoke_grid_has_one_scenario_per_kind(self):
        kinds = [scenario.kind for scenario in get_grid("smoke")]
        assert sorted(kinds) == ["backend", "pipeline", "search", "simulation"]

    def test_search_grid_is_the_seven_races(self):
        scenarios = get_grid("search")
        assert len(scenarios) == 7
        assert {scenario.kind for scenario in scenarios} == {"search"}
        assert {scenario.seed for scenario in scenarios} == {7}
        # The fig19 families with tight floors plus the forwarding-pass
        # collectives, where incumbent pruning does the work.
        collectives = {scenario.collective for scenario in scenarios}
        assert {"all_gather", "all_reduce", "gather", "all_to_all"} <= collectives

    def test_full_grid_covers_every_referenced_family(self):
        scenarios = get_grid("full")
        assert {scenario.kind for scenario in scenarios} == {"pipeline", "simulation", "backend"}
        topologies = " ".join(scenario.topology for scenario in scenarios)
        for family in (
            "ring", "mesh_2d:24,24", "hypercube_3d:7", "torus", "switch", "dgx1", "rfs_3d:2,4,16"
        ):
            assert family in topologies
        schedules = {s.collective for s in scenarios if s.kind == "simulation"}
        assert schedules == {"ring", "direct", "rhd"}
        assert any(scenario.chunks_per_npu > 1 for scenario in scenarios)

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_scenario_names_are_unique(self, grid):
        names = [scenario.name for scenario in get_grid(grid)]
        assert len(names) == len(set(names))

    def test_scenarios_round_trip(self):
        scenario = get_grid("smoke")[0]
        assert Scenario(**dataclasses.asdict(scenario)) == scenario


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
CHECK_NAMES = {
    "pipeline": ["transfers", "collective_time", "verdict", "message_completion",
                 "completion_time"],
    "simulation": ["message_completion", "completion_time"],
    "backend": ["winner_bytes"],
    "search": ["winner_bytes", "collective_time"],
}


class TestChecks:
    @pytest.fixture(scope="class")
    def smoke_records(self):
        return run_bench("smoke")

    def test_smoke_grid_is_equivalent(self, smoke_records):
        assert [record.scenario for record in smoke_records] == [
            scenario.name for scenario in get_grid("smoke")
        ]
        for record in smoke_records:
            assert list(record.checks) == CHECK_NAMES[record.kind]
            assert record.equivalent is True
            assert record.failed_checks() == []
            assert record.num_npus > 0

    def test_record_has_four_fields(self, smoke_records):
        for record in smoke_records:
            assert list(record.to_dict()) == ["scenario", "kind", "num_npus", "checks"]

    def test_direct_schedule_on_mesh(self):
        (record,) = run_bench(
            scenarios=[Scenario("sim-tiny", "simulation", "mesh_2d:3,3", "direct", MB)]
        )
        assert record.kind == "simulation"
        assert record.equivalent is True

    def test_sub_chunked_reduce_scatter_pipeline(self):
        record = check_scenario(
            Scenario("pipe-rs", "pipeline", "mesh_2d:3,3", "reduce_scatter", MB, chunks_per_npu=2)
        )
        assert record.checks == dict.fromkeys(CHECK_NAMES["pipeline"], True)

    def test_unknown_sim_schedule_raises(self):
        with pytest.raises(ReproError):
            run_bench(scenarios=[Scenario("bad", "simulation", "ring:4", "nope", MB)])

    def test_unknown_kind_raises(self):
        with pytest.raises(ReproError, match="unknown scenario kind"):
            check_scenario(Scenario("bad", "timing", "ring:4", "all_gather", MB))


# ----------------------------------------------------------------------
# The check can fail: perturb one side and the named check flips
# ----------------------------------------------------------------------
class TestMismatchesAreReported:
    def test_shifted_message_completion_fails_the_pipeline_check(
        self, monkeypatch, capsys
    ):
        def perturbed(topology, algorithm, **kwargs):
            result = simulate_algorithm(topology, algorithm, **kwargs)
            first = next(iter(result.message_completion))
            result.message_completion[first] += 1e-12
            return result

        monkeypatch.setattr(check, "simulate_algorithm", perturbed)
        record = check_scenario(get_grid("smoke")[0])
        assert record.kind == "pipeline"
        assert record.equivalent is False
        assert record.failed_checks() == ["message_completion"]

        assert cli.main(["bench"]) == 1
        captured = capsys.readouterr()
        assert "NO: message_completion" in captured.out
        assert "1 of 4 scenarios disagree: pipe-mesh3x3-ar-1MB" in captured.err

    def test_perturbed_guided_winner_fails_the_search_check(self, monkeypatch, capsys):
        class PerturbedGuided(check.GuidedSynthesizer):
            def synthesize(self, topology, pattern, collective_size):
                return super().synthesize(topology, pattern, collective_size).shifted(1e-12)

        monkeypatch.setattr(check, "GuidedSynthesizer", PerturbedGuided)
        (scenario,) = [s for s in get_grid("smoke") if s.kind == "search"]
        record = check_scenario(scenario)
        assert record.equivalent is False
        assert record.failed_checks() == ["winner_bytes", "collective_time"]

        assert cli.main(["bench", "--json"]) == 1
        records = {record["scenario"]: record for record in json.loads(capsys.readouterr().out)}
        assert records[scenario.name]["checks"] == {
            "winner_bytes": False,
            "collective_time": False,
        }
        assert all(
            all(record["checks"].values())
            for name, record in records.items()
            if name != scenario.name
        )


def _pipeline_scenario(**params) -> Scenario:
    fields = {
        "name": "pipe-mesh3x3-ar-1MB",
        "kind": "pipeline",
        "topology": "mesh_2d:3,3",
        "collective": "all_reduce",
        "collective_size": MB,
        **params,
    }
    return Scenario(**fields)


class _ShiftedFlatSynthesizer(TacosSynthesizer):
    """The flat engine's winner, every transfer 1e-12 s later."""

    def synthesize(self, topology, pattern, collective_size):
        algorithm = super().synthesize(topology, pattern, collective_size)
        return algorithm.shifted(1e-12) if self.engine is FLAT_ENGINE else algorithm


class _ShiftedPoolSynthesizer(TacosSynthesizer):
    """The pool backend's winner, every transfer 1e-12 s later."""

    def synthesize(self, topology, pattern, collective_size):
        algorithm = super().synthesize(topology, pattern, collective_size)
        return algorithm.shifted(1e-12) if self.config.execution == "pool" else algorithm


def _late_completion(result):
    result.completion_time += 1e-12
    return result


def _late_first_message(result):
    first = next(iter(result.message_completion))
    result.message_completion[first] += 1e-12
    return result


def _perturbed_simulator(perturb):
    class Perturbed(check.CongestionAwareSimulator):
        def run(self, messages, **kwargs):
            return perturb(super().run(messages, **kwargs))

    return Perturbed


def _rejecting_verifier(algorithm, topology, pattern):
    raise check.VerificationError("perturbed verdict")


#: (case id, attribute of ``repro.bench.check`` to replace, replacement
#: factory, scenario, the checks that must fail — and only those).
PERTURBATIONS = [
    (
        "pipeline-flat-engine-shifted",
        "TacosSynthesizer",
        lambda: _ShiftedFlatSynthesizer,
        _pipeline_scenario(),
        ["transfers", "collective_time"],
    ),
    (
        "pipeline-verdict",
        "verify_algorithm",
        lambda: _rejecting_verifier,
        _pipeline_scenario(),
        ["verdict"],
    ),
    (
        "pipeline-completion-time",
        "simulate_algorithm",
        lambda: lambda topology, algorithm, **kwargs: _late_completion(
            simulate_algorithm(topology, algorithm, **kwargs)
        ),
        _pipeline_scenario(),
        ["completion_time"],
    ),
    (
        "simulation-message-completion",
        "CongestionAwareSimulator",
        lambda: _perturbed_simulator(_late_first_message),
        Scenario("sim-ring-mesh3x3-1MB", "simulation", "mesh_2d:3,3", "ring", MB),
        ["message_completion"],
    ),
    (
        "simulation-completion-time",
        "CongestionAwareSimulator",
        lambda: _perturbed_simulator(_late_completion),
        Scenario("sim-rhd-ring8-1MB", "simulation", "ring:8", "rhd", MB),
        ["completion_time"],
    ),
    (
        "backend-pool-winner",
        "TacosSynthesizer",
        lambda: _ShiftedPoolSynthesizer,
        Scenario("backend-ring8-ag-1MB-t4", "backend", "ring:8", "all_gather", MB, trials=4),
        ["winner_bytes"],
    ),
]


class TestEachCheckCanFail:
    """Every named check is wired to its own comparison: perturbing one
    side of one layer flips exactly the checks that compare that layer."""

    @pytest.mark.parametrize(
        "attribute,replacement,scenario,failing",
        [case[1:] for case in PERTURBATIONS],
        ids=[case[0] for case in PERTURBATIONS],
    )
    def test_perturbation_names_the_diverging_checks(
        self, monkeypatch, attribute, replacement, scenario, failing
    ):
        assert check_scenario(scenario).equivalent is True
        monkeypatch.setattr(check, attribute, replacement())
        record = check_scenario(scenario)
        assert record.equivalent is False
        assert record.failed_checks() == failing
        assert list(record.checks) == CHECK_NAMES[scenario.kind]


# ----------------------------------------------------------------------
# Scenario coverage beyond the smoke grid
# ----------------------------------------------------------------------
class TestSearchGridRaces:
    @pytest.mark.parametrize(
        "scenario", get_grid("search"), ids=[scenario.name for scenario in get_grid("search")]
    )
    def test_guided_winner_equals_uniform_winner(self, scenario):
        record = check_scenario(scenario)
        assert record.scenario == scenario.name
        assert record.checks == {"winner_bytes": True, "collective_time": True}


def _num_npus(scenario: Scenario) -> int:
    return build_topology(parse_topology_spec(scenario.topology)).num_npus


#: The ``full`` grid's scenarios that stay cheap enough for every test run;
#: the larger ones (up to the 576-NPU mesh) run through ``--grid full``.
AFFORDABLE_FULL = [scenario for scenario in get_grid("full") if _num_npus(scenario) <= 64]


class TestAffordableFullGridScenarios:
    def test_selection_spans_every_family_and_kind(self):
        assert {scenario.kind for scenario in AFFORDABLE_FULL} == {
            "pipeline",
            "simulation",
            "backend",
        }
        families = {scenario.topology.split(":")[0] for scenario in AFFORDABLE_FULL}
        assert families == {
            "mesh_2d", "hypercube_3d", "torus_2d", "ring", "switch", "dgx1", "rfs_3d"
        }

    @pytest.mark.parametrize(
        "scenario", AFFORDABLE_FULL, ids=[scenario.name for scenario in AFFORDABLE_FULL]
    )
    def test_scenario_is_equivalent(self, scenario):
        record = check_scenario(scenario)
        assert record.num_npus == _num_npus(scenario)
        assert record.checks == dict.fromkeys(CHECK_NAMES[scenario.kind], True)


#: Every registered collective, on a mesh and on a torus (whose wrap-around
#: links give the forwarding pass several downhill links per holder).
COLLECTIVE_TOPOLOGIES = ["mesh_2d:3,3", "torus_2d:3,3"]


class TestEveryCollectivePipeline:
    @pytest.mark.parametrize("topology", COLLECTIVE_TOPOLOGIES)
    @pytest.mark.parametrize("collective", sorted(COLLECTIVES.names()))
    def test_pipeline_agrees_on_every_check(self, collective, topology):
        record = check_scenario(
            Scenario(f"pipe-{collective}", "pipeline", topology, collective, MB, seed=3)
        )
        assert record.checks == dict.fromkeys(CHECK_NAMES["pipeline"], True)

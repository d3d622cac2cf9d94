"""Tests for the benchmark subsystem: grids, runner, report, and the
flat-vs-reference engine equivalence that proves the refactor behaviour-
preserving."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    GRIDS,
    BenchScenario,
    REFERENCE_ENGINE,
    SimScenario,
    compare_reports,
    find_previous_report,
    get_grid,
    load_report,
    run_bench,
    write_report,
)
from repro.bench.runner import BenchRecord, summarize
from repro.collectives import AllGather, AllReduce, AllToAll, Gather, ReduceScatter, Scatter
from repro.core import FLAT_ENGINE, SynthesisConfig, TacosSynthesizer
from repro.errors import ReproError
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
        assert set(GRIDS) == {
            "smoke", "fig19", "full", "sim_stress", "pipeline", "dispatch", "search",
        }

    def test_unknown_grid_raises(self):
        with pytest.raises(ReproError):
            get_grid("nope")

    def test_smoke_grid_is_small(self):
        assert len(get_grid("smoke")) <= 9

    def test_smoke_grid_covers_all_kinds(self):
        from repro.bench import (
            PipelineScenario,
            SearchScenario,
        )
        from repro.bench.grid import DispatchScenario

        kinds = {type(scenario) for scenario in get_grid("smoke")}
        assert kinds == {
            BenchScenario,
            SimScenario,
            PipelineScenario,
            DispatchScenario,
            SearchScenario,
        }

    def test_sim_stress_grid_shape(self):
        scenarios = get_grid("sim_stress")
        assert all(isinstance(scenario, SimScenario) for scenario in scenarios)
        schedules = {scenario.schedule for scenario in scenarios}
        assert schedules == {"ring", "direct", "rhd"}
        assert any("16,16" in scenario.topology for scenario in scenarios)

    def test_fig19_grid_covers_both_families(self):
        names = [scenario.name for scenario in get_grid("fig19")]
        assert any("mesh" in name for name in names)
        assert any("hypercube" in name for name in names)

    def test_full_grid_covers_four_families(self):
        topologies = " ".join(scenario.topology for scenario in get_grid("full"))
        for family in ("ring", "mesh", "torus", "switch"):
            assert family in topologies

    def test_scenarios_round_trip(self):
        scenario = get_grid("smoke")[0]
        assert BenchScenario(**scenario.to_dict()) == scenario


# ----------------------------------------------------------------------
# Runner + report
# ----------------------------------------------------------------------
class TestRunnerAndReport:
    @pytest.fixture(scope="class")
    def smoke_records(self):
        return run_bench("smoke", repeats=1)

    def test_records_shape(self, smoke_records):
        assert len(smoke_records) == len(get_grid("smoke"))
        for record in smoke_records:
            assert record.flat_seconds > 0
            assert record.reference_seconds > 0
            assert record.speedup > 0
            assert record.num_transfers > 0
            assert record.collective_time > 0
            if record.kind == "dispatch":
                # Dispatch records time the transport: nothing is simulated.
                assert set(record.backend_seconds) == {"serial", "pool"}
                assert record.dispatch_metrics["trials_per_second"] > 0
            elif record.kind == "search":
                # Search records race two synthesis tiers: nothing is simulated.
                assert record.search_metrics["guided_quality_at_budget"] > 0
            else:
                assert record.simulated_collective_time > 0

    def test_equivalence_holds_on_smoke_grid(self, smoke_records):
        assert all(record.equivalent for record in smoke_records)

    def test_summary(self, smoke_records):
        summary = summarize(smoke_records)
        assert summary["num_scenarios"] == len(smoke_records)
        assert summary["all_equivalent"] is True
        assert summary["median_speedup"] > 0

    def test_write_report(self, smoke_records, tmp_path):
        path, report = write_report(smoke_records, grid="smoke", repeats=1, out_dir=str(tmp_path))
        assert path.name.startswith("BENCH_smoke_")
        assert path.suffix == ".json"
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(report))
        assert loaded["schema"] == "tacos-repro-bench/v7"
        assert loaded["summary"]["all_equivalent"] is True
        assert loaded["summary"]["all_simulation_equivalent"] is True
        assert len(loaded["records"]) == len(smoke_records)

    def test_report_is_strict_json(self, smoke_records, tmp_path):
        """A written report must never contain bare NaN / Infinity constants."""

        def reject(constant):
            raise AssertionError(f"non-finite constant {constant!r} in report")

        path, _ = write_report(smoke_records, grid="smoke", repeats=1, out_dir=str(tmp_path))
        json.loads(path.read_text(), parse_constant=reject)

    def test_equivalence_can_be_skipped(self):
        scenario = BenchScenario("tiny", "ring:4", "all_gather", MB)
        records = run_bench(scenarios=[scenario], check_equivalence=False)
        assert records[0].equivalent is None
        assert records[0].simulation_equivalent is None

    def test_sim_scenario_record(self):
        scenario = SimScenario("sim-tiny", "mesh_2d:3,3", "direct", MB)
        (record,) = run_bench(scenarios=[scenario])
        assert record.kind == "simulation"
        assert record.equivalent is True
        assert record.simulation_equivalent is True
        assert record.num_messages > 0
        assert record.speedup == record.simulation_speedup
        assert record.simulated_collective_time > 0

    def test_unknown_sim_schedule_raises(self):
        with pytest.raises(ReproError):
            run_bench(scenarios=[SimScenario("bad", "ring:4", "nope", MB)])


def _record(scenario="s", flat=1.0, reference=2.0, speedup=2.0, **overrides):
    values = dict(
        scenario=scenario,
        kind="synthesis",
        topology="ring:4",
        collective="all_gather",
        collective_size=MB,
        num_npus=4,
        num_links=8,
        seed=0,
        trials=1,
        flat_seconds=flat,
        reference_seconds=reference,
        speedup=speedup,
        equivalent=True,
        num_transfers=10,
        collective_time=1e-3,
        rounds=3,
        num_messages=10,
        simulation_seconds=flat,
        reference_simulation_seconds=reference,
        simulation_speedup=speedup,
        simulation_equivalent=True,
        simulated_collective_time=1e-3,
    )
    values.update(overrides)
    return BenchRecord(**values)


class TestSpeedupSerialization:
    """Regression: a zero flat wall clock must not leak `Infinity` into JSON."""

    def test_summarize_skips_none_speedups(self):
        records = [
            _record("a", speedup=2.0, simulation_speedup=3.0),
            _record("b", flat=0.0, speedup=None, simulation_speedup=None),
        ]
        summary = summarize(records)
        assert summary["median_speedup"] == 2.0
        assert summary["median_simulation_speedup"] == 3.0

    def test_summarize_all_none(self):
        summary = summarize([_record(flat=0.0, speedup=None, simulation_speedup=None)])
        assert summary["median_speedup"] is None
        assert summary["min_speedup"] is None
        assert summary["max_speedup"] is None

    def test_write_report_with_none_speedup_round_trips(self, tmp_path):
        records = [_record(flat=0.0, speedup=None, simulation_speedup=None)]
        path, report = write_report(records, grid="smoke", repeats=1, out_dir=str(tmp_path))
        loaded = load_report(path)
        assert loaded["records"][0]["speedup"] is None

    def test_write_report_rejects_non_finite_values(self, tmp_path):
        # allow_nan=False makes a stray Infinity fail the write loudly
        # instead of producing an unparseable artifact.
        records = [_record(speedup=float("inf"))]
        with pytest.raises(ValueError):
            write_report(records, grid="smoke", repeats=1, out_dir=str(tmp_path))


class TestCompare:
    PR2_REPORT = (
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "results"
        / "BENCH_fig19_20260728_175849.json"
    )

    def _report(self, records, tmp_path, grid="smoke"):
        _, report = write_report(records, grid=grid, repeats=1, out_dir=str(tmp_path))
        return report

    def test_round_trips_against_pr2_schema_v1_report(self):
        previous = load_report(self.PR2_REPORT)
        comparison = compare_reports(previous, previous)
        assert comparison["matched"] == len(previous["records"])
        assert comparison["median_ratio"] == pytest.approx(1.0)
        assert comparison["regressed"] is False

    def test_detects_median_regression(self, tmp_path):
        previous = self._report([_record("a"), _record("b")], tmp_path)
        current = self._report(
            [_record("a", flat=1.5), _record("b", flat=1.5)], tmp_path
        )
        comparison = compare_reports(current, previous)
        assert comparison["median_ratio"] == pytest.approx(1.5)
        assert comparison["regressed"] is True

    def test_within_threshold_is_not_a_regression(self, tmp_path):
        previous = self._report([_record("a")], tmp_path)
        current = self._report([_record("a", flat=1.1)], tmp_path)
        assert compare_reports(current, previous)["regressed"] is False

    def test_unmatched_scenarios_reported(self, tmp_path):
        previous = self._report([_record("a"), _record("gone")], tmp_path)
        current = self._report([_record("a"), _record("new")], tmp_path)
        comparison = compare_reports(current, previous)
        assert comparison["only_current"] == ["new"]
        assert comparison["only_previous"] == ["gone"]
        assert comparison["matched"] == 1

    def test_load_report_rejects_non_finite_constants(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text('{"schema": "tacos-repro-bench/v2", "records": [{"speedup": Infinity}]}')
        with pytest.raises(ReproError):
            load_report(bad)

    def test_load_report_rejects_foreign_json(self, tmp_path):
        alien = tmp_path / "BENCH_alien.json"
        alien.write_text('{"hello": 1}')
        with pytest.raises(ReproError):
            load_report(alien)

    def test_find_previous_report_picks_newest_and_excludes(self, tmp_path):
        older = tmp_path / "BENCH_smoke_20260101_000000.json"
        newer = tmp_path / "BENCH_smoke_20260201_000000.json"
        other_grid = tmp_path / "BENCH_fig19_20260301_000000.json"
        for file in (older, newer, other_grid):
            file.write_text("{}")
        assert find_previous_report("smoke", tmp_path) == newer
        assert find_previous_report("smoke", tmp_path, exclude=newer) == older
        assert find_previous_report("smoke", tmp_path / "missing") is None

    def test_find_previous_report_orders_same_second_suffixes(self, tmp_path):
        """Regression: '-1' collision suffixes mark *newer* reports of the
        same second, but '-' sorts before '.' lexicographically."""
        base = tmp_path / "BENCH_smoke_20260101_000000.json"
        first_suffix = tmp_path / "BENCH_smoke_20260101_000000-1.json"
        second_suffix = tmp_path / "BENCH_smoke_20260101_000000-2.json"
        for file in (base, first_suffix, second_suffix):
            file.write_text("{}")
        assert find_previous_report("smoke", tmp_path) == second_suffix
        assert find_previous_report("smoke", tmp_path, exclude=second_suffix) == first_suffix

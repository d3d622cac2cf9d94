"""The dispatch-overhead benchmark: payload bytes, warm pools, compare gate.

The ``dispatch`` kind measures the transport around the workers — per-trial
submitted payload bytes, warm-vs-cold pool dispatch, sustained trials/sec —
so its primary metric is a *throughput*; the compare gate must invert the
ratio for it (higher is better) while every wall-clock kind keeps the
current/previous orientation.
"""

import json

import pytest

from repro.bench import get_grid, run_bench, summarize, write_report
from repro.bench.compare import compare_reports
from repro.bench.grid import DispatchScenario
from repro.bench.runner import BenchRecord, _run_dispatch_scenario

MB = 1e6


class TestDispatchGrid:
    def test_registered_and_shaped(self):
        scenarios = get_grid("dispatch")
        assert scenarios
        assert all(isinstance(scenario, DispatchScenario) for scenario in scenarios)
        assert all(scenario.workers >= 2 for scenario in scenarios)

    def test_smoke_grid_includes_dispatch(self):
        assert any(
            isinstance(scenario, DispatchScenario) for scenario in get_grid("smoke")
        )

    def test_round_trip(self):
        scenario = get_grid("dispatch")[0]
        assert DispatchScenario(**scenario.to_dict()) == scenario


@pytest.mark.backend_equivalence
class TestDispatchRecord:
    @pytest.fixture(scope="class")
    def record(self):
        return _run_dispatch_scenario(
            DispatchScenario(
                # mesh_2d:4,4 keeps the payload representative: tiny ring
                # topologies undersell the broadcast reduction.
                "disp-test", "mesh_2d:4,4", "all_gather", MB, trials=4, workers=2
            ),
            repeats=1,
            check_equivalence=True,
        )

    def test_record_shape(self, record):
        assert record.kind == "dispatch"
        assert record.equivalent is True  # serial == pool winners
        assert set(record.backend_seconds) == {"serial", "pool"}
        assert record.workers == 2
        # Primary triple: cold spin-up vs warm dispatch.
        assert record.reference_seconds > 0  # cold
        assert record.flat_seconds > 0  # warm
        assert record.flat_seconds < record.reference_seconds

    def test_dispatch_metrics(self, record):
        metrics = record.dispatch_metrics
        assert metrics["payload_bytes_per_trial_pool"] > 0
        assert (
            metrics["payload_bytes_per_trial_process"]
            > metrics["payload_bytes_per_trial_pool"]
        )
        # The acceptance floor: broadcast cuts per-trial bytes >= 10x.
        assert metrics["payload_bytes_reduction"] >= 10
        assert metrics["warm_dispatch_seconds"] < metrics["cold_dispatch_seconds"]
        assert metrics["trials_per_second"] > 0
        assert metrics["broadcast_blob_bytes"] > 0

    def test_summary_keys(self, record):
        summary = summarize([record])
        assert summary["median_dispatch_speedup"] > 1
        assert summary["median_payload_bytes_reduction"] >= 10
        assert summary["dispatch_equivalence_checked"] == 1
        assert summary["all_dispatch_equivalent"] is True

    def test_dispatch_stays_out_of_engine_medians(self, record):
        engine = _dispatch_record(
            "eng", kind="synthesis", speedup=3.0, dispatch_metrics=None, workers=None
        )
        summary = summarize([engine, record])
        # One engine record: its speedup is the median, untouched by the
        # dispatch record's (much larger) warm/cold ratio.
        assert summary["median_speedup"] == pytest.approx(3.0)
        assert summary["median_dispatch_speedup"] == pytest.approx(record.speedup)

    def test_report_envelope_carries_pool_metadata(self, record, tmp_path):
        path, report = write_report(
            [record], grid="dispatch", repeats=1, out_dir=str(tmp_path)
        )
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "tacos-repro-bench/v7"
        pool = loaded["pool"]
        assert pool["broadcast_transport"] in ("shared_memory", "inline")
        assert isinstance(pool["shared_memory_available"], bool)
        assert loaded["records"][0]["dispatch_metrics"]["payload_bytes_reduction"] >= 10

    def test_run_bench_routes_dispatch_scenarios(self):
        records = run_bench(
            scenarios=[
                DispatchScenario(
                    "disp-route", "ring:4", "all_gather", MB, trials=2, workers=2
                )
            ],
            repeats=1,
        )
        assert [record.kind for record in records] == ["dispatch"]


def _dispatch_record(scenario="disp", trials_per_second=100.0, **overrides):
    values = dict(
        scenario=scenario,
        kind="dispatch",
        topology="ring:4",
        collective="all_gather",
        collective_size=MB,
        num_npus=4,
        num_links=8,
        seed=0,
        trials=4,
        flat_seconds=1e-3,
        reference_seconds=2e-2,
        speedup=20.0,
        equivalent=True,
        num_transfers=10,
        collective_time=1e-3,
        rounds=3,
        num_messages=10,
        simulation_seconds=None,
        reference_simulation_seconds=None,
        simulation_speedup=None,
        simulation_equivalent=None,
        simulated_collective_time=None,
        workers=2,
        dispatch_metrics={
            "payload_bytes_per_trial_process": 3000.0,
            "payload_bytes_per_trial_pool": 150.0,
            "payload_bytes_reduction": 20.0,
            "broadcast_blob_bytes": 2500,
            "broadcast_shared_memory": True,
            "cold_dispatch_seconds": 2e-2,
            "warm_dispatch_seconds": 1e-3,
            "trials_per_second": trials_per_second,
        },
    )
    values.update(overrides)
    return BenchRecord(**values)


class TestDispatchCompare:
    def _report(self, records, tmp_path, name):
        out = tmp_path / name
        out.mkdir()
        _, report = write_report(records, grid="dispatch", repeats=1, out_dir=str(out))
        return report

    def test_throughput_drop_is_a_regression(self, tmp_path):
        previous = self._report([_dispatch_record(trials_per_second=100.0)], tmp_path, "prev")
        current = self._report([_dispatch_record(trials_per_second=50.0)], tmp_path, "cur")
        comparison = compare_reports(current, previous)
        (delta,) = comparison["deltas"]
        assert delta["metric"] == "trials_per_second"
        # Inverted orientation: previous/current, > 1 means slower now.
        assert delta["ratio"] == pytest.approx(2.0)
        assert comparison["regressed"] is True

    def test_throughput_gain_is_not_a_regression(self, tmp_path):
        previous = self._report([_dispatch_record(trials_per_second=50.0)], tmp_path, "prev")
        current = self._report([_dispatch_record(trials_per_second=100.0)], tmp_path, "cur")
        comparison = compare_reports(current, previous)
        assert comparison["deltas"][0]["ratio"] == pytest.approx(0.5)
        assert comparison["regressed"] is False

    def test_missing_throughput_falls_back_to_wall_clock(self, tmp_path):
        # A dispatch record from a schema before trials_per_second existed
        # (or with a zeroed metric) compares on flat_seconds like any kind.
        previous = self._report(
            [_dispatch_record(dispatch_metrics=None)], tmp_path, "prev"
        )
        current = self._report(
            [_dispatch_record(dispatch_metrics=None, flat_seconds=2e-3)], tmp_path, "cur"
        )
        comparison = compare_reports(current, previous)
        (delta,) = comparison["deltas"]
        assert delta["metric"] == "flat_seconds"
        assert delta["ratio"] == pytest.approx(2.0)

"""Tests for the rebuilt ``tacos-repro`` command-line interface."""

import json

import pytest

from repro import cli


class TestList:
    def test_lists_all_registries(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Topologies:" in out and "ring" in out
        assert "Collectives:" in out and "all_gather" in out
        assert "Algorithms:" in out and "tacos" in out
        assert "Experiments:" in out and "fig10" in out

    def test_lists_a_single_section(self, capsys):
        assert cli.main(["list", "algorithms"]) == 0
        out = capsys.readouterr().out
        assert "Algorithms:" in out
        assert "Topologies:" not in out


class TestSynthesize:
    def test_basic_invocation(self, capsys):
        assert cli.main(["synthesize", "--topology", "ring:4", "--collective", "all_gather"]) == 0
        out = capsys.readouterr().out
        assert "tacos" in out and "AllGather" in out and "GB/s" in out

    def test_json_output_is_parseable(self, capsys):
        assert cli.main(
            ["synthesize", "-t", "ring:4", "-c", "all_gather", "-s", "1MB", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "tacos"
        assert payload["num_npus"] == 4
        assert payload["spec"]["collective"]["collective_size"] == 1e6

    def test_algorithm_params_flow_through(self, capsys):
        assert cli.main(
            ["synthesize", "-t", "ring:4", "-c", "all_gather", "-p", "trials=2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["algorithm"]["params"] == {"trials": 2}
        assert payload["extras"]["trials"] == 2

    def test_save_and_reload_spec(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        assert cli.main(
            ["synthesize", "-t", "mesh:2x2", "-c", "all_reduce", "-a", "ring",
             "--save-spec", str(spec_file)]
        ) == 0
        first = capsys.readouterr().out
        assert cli.main(["synthesize", "--spec", str(spec_file)]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_topology_exits_2_with_message(self, capsys):
        assert cli.main(["synthesize", "--topology", "klein_bottle:4"]) == 2
        err = capsys.readouterr().err
        assert "klein_bottle" in err and "ring" in err

    def test_missing_topology_exits_2(self, capsys):
        assert cli.main(["synthesize"]) == 2
        assert "either --topology or --spec" in capsys.readouterr().err


class TestSimulateAndSweep:
    def test_simulate_baseline(self, capsys):
        assert cli.main(["simulate", "-t", "ring:4", "-c", "all_reduce", "-a", "ring"]) == 0
        assert "ring AllReduce" in capsys.readouterr().out

    def test_sweep_cross_product(self, capsys):
        assert cli.main(
            ["sweep", "-t", "ring:4", "uni_ring:4", "-a", "ring", "ideal",
             "-c", "all_reduce", "--sizes", "1MB,2MB", "-w", "2"]
        ) == 0
        out = capsys.readouterr().out
        # 2 topologies x 2 algorithms x 2 sizes = 8 data rows (+ header, rule)
        assert len(out.strip().splitlines()) == 10
        assert "UniRing(4)" in out

    def test_sweep_survives_incompatible_cells(self, capsys):
        # RHD requires a power-of-two NPU count; the ring:6 x rhd cell fails
        # but the ring:6 x ring result must still be produced.
        assert cli.main(
            ["sweep", "-t", "ring:6", "-a", "rhd", "ring", "-c", "all_reduce", "--sizes", "1MB"]
        ) == 0
        captured = capsys.readouterr()
        assert "FAILED" in captured.out and "power-of-two" in captured.out
        assert "Ring(6)" in captured.out  # the valid cell's row
        assert "1 of 2" in captured.err

    def test_sweep_all_cells_failing_exits_nonzero(self, capsys):
        assert cli.main(
            ["sweep", "-t", "ring:6", "-a", "rhd", "-c", "all_reduce", "--sizes", "1MB"]
        ) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_list_param_values_parse_as_dims(self, capsys):
        # blueconnect is advertised as "needs dims"; -p dims=2x2 must become [2, 2].
        assert cli.main(
            ["simulate", "-t", "mesh:2x2", "-a", "blueconnect", "-c", "all_reduce",
             "-p", "dims=2x2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["algorithm"]["params"] == {"dims": [2, 2]}
        assert payload["collective_time"] > 0

    def test_sweep_json_with_cache(self, tmp_path, capsys):
        argv = ["sweep", "-t", "ring:4", "-a", "ideal", "-c", "all_reduce",
                "--sizes", "1MB", "--cache-dir", str(tmp_path), "--json"]
        assert cli.main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert list(tmp_path.glob("*.json"))  # persisted to disk


class TestBench:
    def test_smoke_grid_exits_zero(self, capsys):
        from repro.bench import get_grid

        assert cli.main(["bench"]) == 0
        out = capsys.readouterr().out
        for scenario in get_grid("smoke"):
            line = next(line for line in out.splitlines() if line.startswith(scenario.name))
            assert line.split()[1:] == [scenario.kind, line.split()[2], "yes"]

    def test_json_prints_one_record_per_smoke_scenario(self, capsys):
        from repro.bench import get_grid

        assert cli.main(["bench", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [record["scenario"] for record in records] == [
            scenario.name for scenario in get_grid("smoke")
        ]
        for record in records:
            assert set(record) == {"scenario", "kind", "num_npus", "checks"}
            assert record["checks"] and all(record["checks"].values())

    def test_serial_and_pool_print_identical_records(self, capsys):
        outputs = []
        for extra in ([], ["-w", "1"], ["-w", "2"]):
            assert cli.main(["bench", "--json", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_options_are_grid_workers_and_json(self):
        parser = cli.build_parser()
        (subparsers,) = [
            action for action in parser._actions if action.dest == "command"
        ]
        options = {
            option
            for action in subparsers.choices["bench"]._actions
            for option in action.option_strings
        }
        assert options == {"-h", "--help", "--grid", "--workers", "-w", "--json"}

    def test_unknown_grid_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bench", "--grid", "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nope" in err
        assert all(grid in err for grid in ("full", "search", "smoke"))

    @pytest.mark.parametrize(
        "removed",
        [
            ["--smoke"],
            ["--repeats", "3"],
            ["--out", "report.json"],
            ["--no-equivalence"],
            ["--no-reference"],
            ["--engine", "flat"],
            ["--min-speedup", "1.5"],
            ["--compare", "auto"],
            ["--compare-threshold", "0.1"],
            ["--history"],
            ["--results-dir", "results"],
        ],
        ids=lambda removed: removed[0],
    )
    def test_removed_timing_option_is_a_usage_error(self, capsys, removed):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bench", *removed])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert "tacos-repro" in capsys.readouterr().out

    def test_no_arguments_prints_help(self, capsys):
        assert cli.main([]) == 0
        assert "synthesize" in capsys.readouterr().out

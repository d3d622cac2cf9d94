"""Tests for the experiment runner and the command-line entry point."""

import pytest

from repro import cli
from repro.experiments import runner


class TestRunnerRegistry:
    def test_every_design_md_experiment_is_registered(self):
        expected = {
            "fig01", "fig02a", "fig02b", "fig10", "fig14", "fig15", "table05",
            "fig16a", "fig16b", "fig17a", "fig17b", "fig18", "fig19", "fig20", "fig21",
        }
        assert expected == set(runner.EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            runner.run_experiment("fig99")

    def test_run_experiment_returns_data(self):
        rows = runner.run_experiment("fig10")
        assert rows and all(row.verified for row in rows)


class TestCommandLine:
    def test_list_option(self, capsys):
        exit_code = cli.main(["experiments", "--list"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fig15" in captured.out
        assert "table05" in captured.out

    def test_running_a_single_cheap_experiment(self, capsys):
        exit_code = cli.main(["experiments", "fig10"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fig10" in captured.out
        assert "completed" in captured.out

    def test_cli_module_forwards_experiment_args(self, capsys):
        # The rebuilt CLI keeps the historical invocation style working:
        # bare experiment ids (and --list) are forwarded to the experiments
        # subcommand.
        exit_code = cli.main(["--list"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "fig15" in captured.out

        exit_code = cli.main(["fig10"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "completed" in captured.out

    def test_unknown_experiment_id_exits_nonzero(self, capsys):
        exit_code = cli.main(["experiments", "fig99"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "fig99" in captured.err
        assert "fig10" in captured.err  # lists what is available

    def test_failing_experiment_exits_nonzero(self, capsys, monkeypatch):
        def explode():
            raise RuntimeError("injected failure")

        monkeypatch.setitem(runner.EXPERIMENTS, "fig10", explode)
        exit_code = cli.main(["experiments", "fig10"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "FAILED" in captured.err
        assert "fig10" in captured.err

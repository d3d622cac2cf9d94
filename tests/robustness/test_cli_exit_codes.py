"""CLI exit codes: 1 when a well-specified run fails, 2 for a usage error.

A stall names what happened: a topology that is not strongly connected says
so, and any other stall says the synthesis stalled; when some links take no
longer than the TEN's event-time tolerance per chunk, it counts them and
names the tolerance.  A message the simulator cannot route names itself and
both NPUs.
"""

import json

import pytest

from repro import cli
from repro.errors import (
    RegistryError,
    SimulationError,
    SpecError,
    SynthesisError,
    TopologyError,
    VerificationError,
)


def _two_islands(path, collective="all_gather", algorithm=None):
    """A custom 4-NPU topology made of two 2-NPU islands with no link between them."""
    link = [5e-7, 5e-11]
    document = {
        "topology": {
            "name": "custom",
            "params": {
                "num_npus": 4,
                "links": [[0, 1, *link], [1, 0, *link], [2, 3, *link], [3, 2, *link]],
            },
        },
        "collective": {"name": collective, "collective_size": 1e6},
    }
    if algorithm is not None:
        document["algorithm"] = {"name": algorithm}
    path.write_text(json.dumps(document))
    return path


#: Every command with a --workers flag, with arguments that would otherwise run.
_WORKER_COMMANDS = {
    "synthesize": ["synthesize", "-t", "ring:4", "-c", "all_gather"],
    "sweep": ["sweep", "-t", "ring:4", "-a", "ring"],
    "bench": ["bench"],
    "experiments": ["experiments", "fig10"],
}


class TestExecutionFailuresExit1:
    def test_exhausted_max_rounds(self, capsys):
        code = cli.main(["synthesize", "-t", "ring:4", "-c", "all_gather", "-p", "max_rounds=1"])
        assert code == 1
        assert "exceeded" in capsys.readouterr().err

    def test_disconnected_topology_names_the_cause(self, tmp_path, capsys):
        assert cli.main(["synthesize", "--spec", str(_two_islands(tmp_path / "islands.json"))]) == 1
        err = capsys.readouterr().err
        assert "stalled" in err and "not strongly connected" in err
        assert "Traceback" not in err

    def test_unroutable_simulated_message_names_both_npus(self, tmp_path, capsys):
        # A ring over NPUs 0..3 has hops between the islands (1-2 and 3-0).
        spec = _two_islands(tmp_path / "islands.json", "all_reduce", algorithm="ring")
        assert cli.main(["simulate", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "cannot be routed: no path from NPU 0 to NPU 3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("error", [SynthesisError, SimulationError, VerificationError])
    def test_every_execution_error(self, monkeypatch, capsys, error):
        def failing(spec, cache=None):
            raise error("the run failed")

        monkeypatch.setattr(cli, "run", failing)
        assert cli.main(["simulate", "-t", "ring:4", "-a", "ring"]) == 1
        assert "error: the run failed" in capsys.readouterr().err


class TestUsageErrorsExit2:
    def test_unknown_topology(self, capsys):
        assert cli.main(["synthesize", "-t", "klein_bottle:4"]) == 2
        assert "klein_bottle" in capsys.readouterr().err

    def test_malformed_spec_document(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"topology": ')
        assert cli.main(["synthesize", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "invalid RunSpec JSON" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["synthesize", "-t", "ring:4", "-p", "engine=reference"],
            ["synthesize", "-t", "ring:4", "-a", "guided", "-p", "engine=flat"],
            ["synthesize", "-t", "ring:4", "--engine", "flat"],
        ],
        ids=["tacos-param", "guided-param", "flag"],
    )
    def test_engine_is_not_an_option(self, capsys, argv):
        # Engines are objects passed to the synthesizer, not a user knob: the
        # parameter is an unknown SynthesisConfig field and the flag is gone.
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag by exiting
            code = exc.code
        assert code == 2
        assert "engine" in capsys.readouterr().err

    def test_synthesizer_flag_is_gone(self, capsys):
        # The search tier is the algorithm name (`-a guided`); there is no
        # second spelling of it.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["synthesize", "-t", "ring:4", "--synthesizer", "guided"])
        assert excinfo.value.code == 2
        assert "--synthesizer" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", sorted(_WORKER_COMMANDS))
    def test_every_workers_flag_rejects_a_count_below_one(self, capsys, command, workers):
        # One argument type for every --workers flag: a count below one is a
        # usage error everywhere, never a silent plain loop.
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*_WORKER_COMMANDS[command], "-w", workers])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_WORKER_COMMANDS))
    def test_execution_flag_is_gone(self, capsys, command):
        # The worker count is the only parallelism setting: `-w 2` is the
        # pool, and there is no second spelling of it.
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*_WORKER_COMMANDS[command], "--execution", "pool"])
        assert excinfo.value.code == 2
        assert "--execution" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [SpecError, RegistryError, TopologyError])
    def test_every_usage_error(self, monkeypatch, capsys, error):
        def failing(spec, cache=None):
            raise error("bad input")

        monkeypatch.setattr(cli, "run", failing)
        assert cli.main(["simulate", "-t", "ring:4", "-a", "ring"]) == 2
        assert "error: bad input" in capsys.readouterr().err


def test_a_stall_on_a_connected_topology_does_not_blame_connectivity(monkeypatch):
    from repro.api import CollectiveSpec, RunSpec, TopologySpec, run
    from repro.ten import network

    # No event after the first round: the synthesis cannot advance, although
    # the ring is strongly connected.
    monkeypatch.setattr(network.TimeExpandedNetwork, "next_event_after", lambda self, t: None)
    spec = RunSpec(
        topology=TopologySpec("ring", {"num_npus": 4}),
        collective=CollectiveSpec("all_gather", collective_size=1e6),
    )
    with pytest.raises(SynthesisError) as excinfo:
        run(spec)
    message = str(excinfo.value)
    assert "stalled" in message and "strongly connected" not in message
    assert "tolerance" not in message


class TestSubToleranceLinks:
    """Links whose span is at most the TEN's event-time tolerance (1e-12 s):
    their completions fall within the tolerance of the clock, so
    ``next_event_after`` never revisits them."""

    @staticmethod
    def _instant_mesh():
        from repro.topology import build_mesh_2d

        # A 4 MB All-Gather's 444 kB chunks cross a 1e9 GB/s link in 4.4e-13 s.
        return build_mesh_2d(3, 3, alpha=0.0, bandwidth_gbps=1e9)

    def test_the_stall_names_the_links_and_the_tolerance(self):
        from repro.collectives import AllGather
        from repro.core import SynthesisConfig, TacosSynthesizer

        with pytest.raises(SynthesisError) as excinfo:
            TacosSynthesizer(SynthesisConfig(seed=0)).synthesize(
                self._instant_mesh(), AllGather(9), 4e6
            )
        message = str(excinfo.value)
        assert "stalled at t=0.000e+00s with chunks still undelivered" in message
        assert "24 of 24 links take at most the 1e-12s event-time tolerance" in message

    @pytest.mark.parametrize("collective", ["Broadcast", "Reduce"])
    def test_single_root_collectives_still_finish(self, collective):
        import repro.collectives as collectives
        from repro.core import SynthesisConfig, TacosSynthesizer

        algorithm = TacosSynthesizer(SynthesisConfig(seed=0)).synthesize(
            self._instant_mesh(), getattr(collectives, collective)(9), 4e6
        )
        assert algorithm.collective_time > 0.0

"""CLI exit codes: 1 when a well-specified run fails, 2 for a usage error.

A stall names what happened: a topology that is not strongly connected says
so, and any other stall says the synthesis stalled.
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


def _two_islands(path):
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
        "collective": {"name": "all_gather", "collective_size": 1e6},
    }
    path.write_text(json.dumps(document))
    return path


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

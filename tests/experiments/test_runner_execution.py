"""The ``tacos-repro experiments`` --workers wiring.

The command installs the worker count as the ambient :func:`execution_scope`;
experiments themselves take no parallelism knobs, so their internal trial
fan-outs must produce byte-identical measurements at every worker count.
"""

import dataclasses

import pytest

from repro.api.parallel import execution_scope
from repro.cli import main as cli_main
from repro.core import SynthesisConfig
from repro.experiments import fig10_topologies


def _rows(workers):
    config = SynthesisConfig(trials=2, seed=11)
    with execution_scope(workers):
        return fig10_topologies.run(collective_size=2e6, synthesis_config=config)


@pytest.mark.backend_equivalence
class TestExperimentBackendEquivalence:
    def test_measurements_identical_serial_pool(self):
        serial = _rows(None)
        one = _rows(1)
        pool = _rows(2)
        assert serial == one == pool  # dataclass equality: every float

    def test_rows_are_plain_data(self):
        for row in _rows(None):
            assert dataclasses.asdict(row)  # payload stays process-portable


class TestRunnerFlags:
    def test_workers_flag_runs_the_pool(self, capsys):
        assert cli_main(["experiments", "fig10", "--workers", "2"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_invalid_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["experiments", "fig10", "--workers", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_experiment_still_exits_2(self, capsys):
        assert cli_main(["experiments", "nope", "--workers", "2"]) == 2
        capsys.readouterr()

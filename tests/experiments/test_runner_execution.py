"""The experiment runner's --execution/--workers wiring.

The runner installs the flags as the ambient :func:`execution_scope` policy;
experiments themselves take no backend knobs, so their internal trial
fan-outs must produce byte-identical measurements on every backend.
"""

import dataclasses

import pytest

from repro.api.parallel import execution_scope
from repro.core import SynthesisConfig
from repro.experiments import fig10_topologies
from repro.experiments.runner import main as runner_main


def _rows(execution, workers):
    config = SynthesisConfig(trials=2, seed=11)
    with execution_scope(execution=execution, workers=workers):
        return fig10_topologies.run(collective_size=2e6, synthesis_config=config)


@pytest.mark.backend_equivalence
class TestExperimentBackendEquivalence:
    def test_measurements_identical_serial_pool(self):
        serial = _rows("serial", None)
        pool = _rows("pool", 2)
        workers_alone = _rows(None, 2)  # workers alone = pool
        assert serial == pool == workers_alone  # dataclass equality: every float

    def test_rows_are_plain_data(self):
        for row in _rows("serial", None):
            assert dataclasses.asdict(row)  # payload stays process-portable


class TestRunnerFlags:
    def test_execution_flags_accepted(self, capsys):
        assert runner_main(["fig10", "--execution", "pool", "--workers", "2"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_workers_alone_implies_pool(self, capsys):
        assert runner_main(["fig10", "--workers", "2"]) == 0
        capsys.readouterr()

    def test_invalid_workers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["fig10", "--workers", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_unknown_experiment_still_exits_2(self, capsys):
        assert runner_main(["nope", "--execution", "serial"]) == 2
        capsys.readouterr()

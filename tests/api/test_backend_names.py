"""Every ``--execution`` flag takes its names from ``repro.api.parallel.BACKENDS``.

The registry is the one source of backend names: each command-line entry
point accepts exactly its keys and rejects anything else — including the
retired ``thread`` and ``process`` names — with argparse's usage error.
"""

import pytest

from repro.api.parallel import BACKENDS
from repro.cli import build_parser as build_cli_parser
from repro.experiments.runner import main as runner_main
from repro.lint.cli import build_parser as build_lint_parser


def _cli(*prefix):
    def parse(name):
        arguments = build_cli_parser().parse_args([*prefix, "--execution", name])
        return arguments.execution

    return parse


def _lint(name):
    return build_lint_parser().parse_args(["--execution", name]).execution


def _runner(name):
    # ``--list`` keeps an accepted flag from running any experiment.
    assert runner_main(["--list", "--execution", name]) == 0
    return name


ENTRY_POINTS = {
    "synthesize": _cli("synthesize", "-t", "ring:4", "-c", "all_gather"),
    "sweep": _cli("sweep", "-t", "ring:4"),
    "bench": _cli("bench"),
    "experiments": _cli("experiments"),
    "lint": _lint,
    "runner": _runner,
}


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_every_registered_backend_accepted(entry_point, capsys):
    parse = ENTRY_POINTS[entry_point]
    assert [parse(name) for name in sorted(BACKENDS)] == sorted(BACKENDS)


@pytest.mark.parametrize("name", ["thread", "process"])
@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
def test_retired_backend_names_rejected(entry_point, name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        ENTRY_POINTS[entry_point](name)
    assert excinfo.value.code == 2
    listed = ", ".join(repr(backend) for backend in sorted(BACKENDS))
    assert f"invalid choice: {name!r} (choose from {listed})" in capsys.readouterr().err

"""Every layer entry point that perfbench traces resolves in the program.

``perfbench/spans.py`` wraps each ``LAYER_ENTRY_POINTS`` entry by name for a
traced run and silently skips an entry it cannot find, so a renamed or deleted
entry point would make its layer read 0 instead of failing.  This test reads
the file without importing the ``perfbench`` directory (nothing is written
there) and resolves every entry the way ``instrument()`` does.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


def _entry_points():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["LAYER_ENTRY_POINTS"]


ENTRY_POINTS = _entry_points()


def test_the_table_is_not_empty():
    assert ENTRY_POINTS


@pytest.mark.parametrize(
    "module_name,path,layer",
    ENTRY_POINTS,
    ids=[f"{module}:{path}" for module, path, _ in ENTRY_POINTS],
)
def test_entry_point_resolves_to_a_callable(module_name, path, layer):
    *parents, attribute = path.split(".")
    owner = importlib.import_module(module_name)
    for name in parents:
        owner = getattr(owner, name)
    # As in instrument(): a class attribute must be defined on the class itself.
    if isinstance(owner, type):
        target = vars(owner).get(attribute)
    else:
        target = getattr(owner, attribute, None)
    assert callable(target), f"{module_name}.{path} ({layer} layer) does not resolve"

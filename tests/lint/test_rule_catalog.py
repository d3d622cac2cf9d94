"""One minimal bad source and its good twin for every rule code.

Each bad case must yield exactly its own code at the expected line, and
each good twin must yield nothing.  The table's keys must equal
``ALL_RULES``, so a rule that loses its last case, or a new rule without
one, fails here rather than passing silently.
"""

import textwrap

import pytest

from repro.lint.config import LintConfig
from repro.lint.rules import ALL_RULES
from repro.lint.runner import run_lint

#: code -> (bad source, line the finding must point at, good twin or None).
#: The meta codes (S, E) have no "good twin": their clean form is any
#: ordinary module.
CASES = {
    "D101": (
        """
        def f(items):
            pool = set(items)
            return list(pool)
        """,
        3,
        """
        def f(items):
            pool = set(items)
            return sorted(pool)
        """,
    ),
    "D102": (
        """
        import random


        def f():
            return random.random()
        """,
        5,
        """
        import random


        def f(seed):
            return random.Random(seed).random()
        """,
    ),
    "D103": (
        """
        import time


        def f():
            return time.time()
        """,
        5,
        """
        import time


        def f():
            return time.perf_counter()
        """,
    ),
    "D104": (
        """
        def f(dist, alpha, beta, size):
            return dist + alpha + beta * size
        """,
        2,
        """
        def f(dist, alpha, beta, size):
            edge_cost = alpha + beta * size
            return dist + edge_cost
        """,
    ),
    "P201": (
        """
        from repro.api.parallel import map_parallel


        def f(items):
            return map_parallel(lambda item: item, items)
        """,
        5,
        """
        from repro.api.parallel import map_parallel


        def _work(item):
            return item


        def f(items):
            return map_parallel(_work, items)
        """,
    ),
    "P202": (
        """
        import threading


        class TrialPayload:
            lock = threading.Lock()
        """,
        5,
        """
        class TrialPayload:
            seed: int = 0
        """,
    ),
    "P203": (
        """
        from concurrent.futures import ProcessPoolExecutor


        def f(batches):
            for batch in batches:
                ProcessPoolExecutor(max_workers=2).submit(len, batch)
        """,
        6,
        """
        from concurrent.futures import ProcessPoolExecutor


        def f(batches):
            with ProcessPoolExecutor(max_workers=2) as pool:
                for batch in batches:
                    pool.submit(len, batch)
        """,
    ),
    "J401": (
        """
        import json


        def f(payload):
            return json.dumps(payload)
        """,
        5,
        """
        import json


        def f(payload):
            return json.dumps(payload, allow_nan=False)
        """,
    ),
    "J402": (
        """
        import pickle
        """,
        1,
        """
        import numpy


        def f(path):
            return numpy.load(path, allow_pickle=False)
        """,
    ),
    "R501": (
        """
        from repro.api.registry import ALGORITHMS


        @ALGORITHMS.register("catalog")
        def build(topology):
            return topology
        """,
        4,
        """
        from repro.api.registry import ALGORITHMS


        @ALGORITHMS.register("catalog")
        def build(topology, pattern, collective_size, **params):
            return topology
        """,
    ),
    "R502": (
        """
        from repro.api.registry import TOPOLOGIES


        def build(size=4):
            return size


        TOPOLOGIES.register("catalog", build, positional=("spokes",))
        """,
        8,
        """
        from repro.api.registry import TOPOLOGIES


        def build(size=4):
            return size


        TOPOLOGIES.register("catalog", build, positional=("size",))
        """,
    ),
    "S001": (
        """
        x = 1  # repro-lint: disable=D101
        """,
        1,
        None,
    ),
    "S002": (
        """
        x = 1  # repro-lint: disable=C301 -- a retired rule code is unknown
        """,
        1,
        None,
    ),
    "S003": (
        """
        # repro-lint: disable-scope=J401 -- not inside any def or class
        x = 1
        """,
        1,
        None,
    ),
    "E000": (
        """
        def broken(:
            pass
        """,
        1,
        None,
    ),
}


def _lint(tmp_path, source):
    module = tmp_path / "case.py"
    module.write_text(textwrap.dedent(source).lstrip("\n"))
    # Every module is deterministic here so D103/D104 can fire.
    config = LintConfig(root=tmp_path, paths=("case.py",), deterministic=("*",))
    return run_lint(config)


def test_catalog_covers_every_rule():
    assert sorted(CASES) == sorted(ALL_RULES)


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_case_yields_exactly_its_code(tmp_path, code):
    bad, line, _ = CASES[code]
    report = _lint(tmp_path, bad)
    assert [(finding.rule, finding.line) for finding in report.new] == [(code, line)]
    assert report.suppressed == []
    assert report.exit_code() == 1


@pytest.mark.parametrize("code", sorted(code for code, case in CASES.items() if case[2]))
def test_good_twin_yields_nothing(tmp_path, code):
    report = _lint(tmp_path, CASES[code][2])
    assert report.new == [] and report.suppressed == []
    assert report.exit_code() == 0

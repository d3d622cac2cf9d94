"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
experiments are deterministic but expensive, so each one is executed exactly
once per benchmark run (``rounds=1``) and the headline numbers it reproduces
are attached to the benchmark record via ``extra_info`` — the benchmark output
therefore doubles as the reproduction log (there is no written ledger of the
reproduced numbers yet).
"""

from __future__ import annotations

from typing import Callable

import pytest


@pytest.fixture
def run_once(benchmark):
    """Run ``function`` exactly once under pytest-benchmark and return its result."""

    def runner(function: Callable[[], object]) -> object:
        return benchmark.pedantic(function, rounds=1, iterations=1, warmup_rounds=0)

    return runner

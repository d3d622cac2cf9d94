"""Frozen reference engines and the byte-identity check built on them.

Two pieces:

* :mod:`repro.bench.reference` — the frozen pre-refactor dict/set synthesis
  engine, the frozen dict-keyed :class:`ReferenceSimulator`, and the frozen
  object-path adapters/verifier, kept as the behavioural baselines;
* :mod:`repro.bench.check` — named scenarios (``smoke``, ``search`` and
  ``full`` grids) that re-run the production paths against those baselines,
  one worker against a process pool and the guided against the uniform
  search, and report per check whether the outputs are byte-identical.

Run it via ``tacos-repro bench`` (exit 0 when every check agrees, 1 when any
disagrees).  It times nothing: ``perfbench/`` is the repository benchmark.
"""

from repro.bench.check import (
    GRIDS,
    BenchRecord,
    Scenario,
    check_scenario,
    get_grid,
    run_bench,
)
from repro.bench.reference import (
    REFERENCE_ENGINE,
    ReferenceSimulator,
    reference_algorithm_to_messages,
    reference_schedule_to_messages,
    reference_verify_algorithm,
)

__all__ = [
    "BenchRecord",
    "GRIDS",
    "REFERENCE_ENGINE",
    "ReferenceSimulator",
    "Scenario",
    "check_scenario",
    "get_grid",
    "reference_algorithm_to_messages",
    "reference_schedule_to_messages",
    "reference_verify_algorithm",
    "run_bench",
]

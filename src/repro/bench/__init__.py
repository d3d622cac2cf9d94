"""First-class benchmark subsystem for the synthesis core and the simulator.

Four pieces:

* :mod:`repro.bench.reference` — the frozen pre-refactor dict/set synthesis
  engine, the frozen dict-keyed :class:`ReferenceSimulator`, and the frozen
  object-path adapters/verifier, kept as the behavioural baselines;
* :mod:`repro.bench.grid` — named scenario grids (``smoke``, ``fig19``,
  ``full``, ``sim_stress``, ``pipeline``, ``dispatch``, ``search``)
  crossing topology families, NPU counts, collective sizes, logical
  schedules, end-to-end pipelines, pool dispatch overhead and
  guided-vs-uniform search;
* :mod:`repro.bench.runner` — times synthesis, simulation, full pipelines,
  pool dispatch and search tiers over a grid, asserts fixed-seed output
  equivalence (byte-identical across engines *and* across the serial and
  pool backends), and emits a machine-readable ``BENCH_*.json`` report
  (strict JSON);
* :mod:`repro.bench.compare` — diffs two reports per scenario, flags median
  regressions (the ``tacos-repro bench --compare`` trend gate), and walks
  the recorded artifact chain (``tacos-repro bench --history``).

Run it via ``tacos-repro bench`` (``--smoke`` for the CI-sized grid,
``--grid sim_stress`` for the simulator grid, ``--grid pipeline`` for the
end-to-end grid, ``--compare`` for the trend check, ``--history`` for the
cross-PR trajectory).
"""

from repro.bench.compare import (
    ScenarioDelta,
    compare_reports,
    find_previous_report,
    load_history,
    load_report,
    speedup_history,
)
from repro.bench.grid import (
    GRIDS,
    BenchScenario,
    PipelineScenario,
    SearchScenario,
    SimScenario,
    get_grid,
)
from repro.bench.reference import (
    REFERENCE_ENGINE,
    ReferenceSimulator,
    reference_algorithm_to_messages,
    reference_schedule_to_messages,
    reference_verify_algorithm,
)
from repro.bench.runner import BenchRecord, run_bench, summarize, write_report

__all__ = [
    "BenchRecord",
    "BenchScenario",
    "GRIDS",
    "PipelineScenario",
    "REFERENCE_ENGINE",
    "ReferenceSimulator",
    "ScenarioDelta",
    "SearchScenario",
    "SimScenario",
    "compare_reports",
    "find_previous_report",
    "get_grid",
    "load_history",
    "load_report",
    "reference_algorithm_to_messages",
    "reference_schedule_to_messages",
    "reference_verify_algorithm",
    "run_bench",
    "speedup_history",
    "summarize",
    "write_report",
]

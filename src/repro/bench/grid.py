"""Named benchmark scenario grids.

Five kinds of scenarios exist:

* :class:`BenchScenario` — one *synthesis* problem: a topology (registry
  shorthand), a collective, a per-NPU collective size, and a fixed seed.
  Both synthesis engines (flat and frozen reference) are timed on it.
* :class:`SimScenario` — one *simulation* problem: a logical schedule
  (Ring / Direct / RHD) executed on a physical topology.  Both simulator
  engines (array-backed and frozen reference) are timed on the same message
  list.
* :class:`PipelineScenario` — one *end-to-end pipeline* problem: synthesize,
  verify, simulate, and derive metrics.  The columnar-IR path runs against
  the frozen object path across every layer boundary.  Scenarios flagged
  ``flat_only`` are too large to time the frozen object path on; they only
  run under ``bench --no-reference``.
* :class:`DispatchScenario` — one *dispatch-overhead* problem: per-trial
  submitted payload bytes (per-call pickle vs broadcast plane), warm-vs-cold
  pool dispatch latency, sustained trials/sec through the warm pool, and a
  serial vs pool race with byte-identical-output assertions.
* :class:`SearchScenario` — one *guided-vs-uniform search race*: the same
  best-of-N synthesis run by the uniform tier and by the guided tier
  (incumbent pruning + floor termination), asserting byte-identical winners
  and recording quality-at-equal-wallclock, time-to-target, pruned-trial
  fraction, and effective trials/sec.

Seven grids are provided:

* ``smoke`` — tiny scenarios of all kinds for CI (a couple of seconds
  end-to-end);
* ``fig19`` — the paper's scalability grid (2D meshes and 3D hypercubes of
  growing size, 64 MB All-Reduce), the grid the synthesis headline speedup
  is reported on; it now runs 144 through 1024 NPUs, the largest meshes
  timed flat-only (``skip_reference``);
* ``full`` — ``fig19`` plus ring / torus / switch families crossed with two
  collective sizes and both All-Gather and All-Reduce;
* ``sim_stress`` — the simulator's own grid: logical Ring / Direct / RHD
  All-Reduces on 2D meshes up to 16x16 (well over 50k messages in total),
  the grid the simulator speedup trajectory is recorded on;
* ``pipeline`` — the end-to-end grid: meshes up to 20x20 against the
  reference path (28x28 with ``--no-reference``), sub-chunked schedules, and
  Reduce-Scatter / All-to-All / Broadcast scenarios, the grid the pipeline
  speedup trajectory is recorded on;
* ``dispatch`` — the execution-plane overhead grid: what the persistent
  pool backend and the payload broadcast plane change, measured honestly on
  any core count;
* ``search`` — the guided-search grid: fig19-family scenarios whose tight
  round-0 floors let floor termination collapse the search, plus
  high-variance gather / all-to-all scenarios where mid-trial incumbent
  pruning does the work.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Union

from repro.errors import ReproError

__all__ = [
    "BenchScenario",
    "DispatchScenario",
    "PipelineScenario",
    "SearchScenario",
    "SimScenario",
    "GRIDS",
    "get_grid",
]

_MB = 1e6


@dataclass(frozen=True)
class BenchScenario:
    """One synthesis problem of a benchmark grid."""

    name: str
    topology: str  #: registry shorthand, e.g. ``"mesh_2d:4,4"``
    collective: str  #: collective registry name, e.g. ``"all_reduce"``
    collective_size: float  #: per-NPU bytes
    seed: int = 0
    trials: int = 1
    chunks_per_npu: int = 1
    #: Run the scenario in every bench but never time the frozen reference
    #: path on it (minutes per repeat at this size): the record's reference
    #: timing / speedup stay ``None`` and no equivalence is asserted.  Unlike
    #: a pipeline ``flat_only`` scenario it is *not* excluded from default
    #: runs — the point is growing the timed grid past the reference ceiling.
    skip_reference: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class PipelineScenario:
    """One end-to-end *pipeline* problem of a benchmark grid.

    The whole chain is timed: synthesize (TACOS), verify, simulate the
    synthesized algorithm, and derive the standard metrics (utilization
    timeline + per-link busy times).  The columnar path (flat synthesis
    engine, vectorized verification, CSR adapters into the array simulator)
    runs against the frozen object path (reference synthesis engine,
    object-path verifier and adapters, dict-keyed reference simulator,
    nested metric scans), asserting byte-identical transfers,
    ``message_completion``, and verification verdicts.
    """

    name: str
    topology: str  #: registry shorthand, e.g. ``"mesh_2d:16,16"``
    collective: str  #: collective registry name, e.g. ``"reduce_scatter"``
    collective_size: float  #: per-NPU bytes
    chunks_per_npu: int = 1
    seed: int = 0
    trials: int = 1
    #: Too big to time the frozen object path on; included only when the
    #: bench runs with ``include_reference=False`` (``--no-reference``).
    flat_only: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class DispatchScenario:
    """One dispatch-overhead problem: what the persistent execution plane buys.

    Measures the *transport* around the workers rather than the work itself,
    honestly on any core count (1-CPU containers included):

    * **per-trial submitted payload bytes** — a per-trial pickle transport
      ships one full :class:`~repro.core.synthesizer.TrialPayload` pickle per
      trial; the broadcast plane ships one content-hash-addressed blob per
      fan-out plus thin ``(ref, seeds)`` chunks.  Both are measured exactly
      (via real pickles of what each transport submits).
    * **warm vs cold dispatch latency** — wall clock of a trivial
      ``workers``-wide fan-out on a freshly spun-up process pool (cold, the
      per-call cost) vs on the persistent pool after warm-up (median of
      ``repeats``): fork + bootstrap amortized away.
    * **sustained trials/sec** — the same best-of-``trials`` synthesis run
      through the warm pool backend at fixed N.

    The scenario also races serial vs pool on the full synthesis
    and asserts byte-identical winning algorithms
    (``TransferTable.to_bytes``), following the frozen-reference pattern.
    """

    name: str
    topology: str  #: registry shorthand, e.g. ``"mesh_2d:6,6"``
    collective: str  #: collective registry name, e.g. ``"all_gather"``
    collective_size: float  #: per-NPU bytes
    trials: int = 8  #: best-of-N randomized trials fanned across the backends
    workers: int = 2  #: pool width for the pool backend
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SearchScenario:
    """One guided-vs-uniform search race of a benchmark grid.

    The same best-of-``trials`` synthesis problem runs under the uniform
    tier (plain :class:`~repro.core.synthesizer.TacosSynthesizer`, stats
    collection on) and the guided tier
    (:class:`~repro.search.GuidedSynthesizer`: incumbent pruning + floor
    termination; no portfolio store, so the seed lists are identical and the
    winners must be byte-identical).  The record's ``search_metrics`` carry
    quality-at-equal-wallclock, time-to-target-quality, the pruned-trial
    fraction, and effective trials/sec for both tiers.
    """

    name: str
    topology: str  #: registry shorthand, e.g. ``"mesh_2d:6,6"``
    collective: str  #: collective registry name, e.g. ``"all_gather"``
    collective_size: float  #: per-NPU bytes
    trials: int = 32  #: best-of-N budget raced by both tiers
    chunks_per_npu: int = 1
    seed: int = 7

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SimScenario:
    """One simulation problem of a benchmark grid.

    The schedule is built by the named logical All-Reduce baseline
    (``ring`` / ``direct`` / ``rhd``), converted to dependency-linked
    messages once, and simulated on the topology by both simulator engines.
    """

    name: str
    topology: str  #: registry shorthand, e.g. ``"mesh_2d:16,16"``
    schedule: str  #: logical algorithm: ``"ring"``, ``"direct"``, or ``"rhd"``
    collective_size: float  #: per-NPU bytes
    chunks_per_npu: int = 1
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


#: Any scenario kind; ``repro.bench.runner.run_bench`` dispatches on type.
Scenario = Union[
    BenchScenario,
    SimScenario,
    PipelineScenario,
    DispatchScenario,
    SearchScenario,
]


def _smoke_grid() -> List[Scenario]:
    return [
        BenchScenario("ring8-ag-1MB", "ring:8", "all_gather", 1 * _MB),
        BenchScenario("mesh3x3-ar-1MB", "mesh_2d:3,3", "all_reduce", 1 * _MB),
        SimScenario("sim-ring-mesh3x3-1MB", "mesh_2d:3,3", "ring", 1 * _MB),
        PipelineScenario("pipe-mesh3x3-ar-1MB", "mesh_2d:3,3", "all_reduce", 1 * _MB),
        PipelineScenario("pipe-mesh3x3-rs-1MB", "mesh_2d:3,3", "reduce_scatter", 1 * _MB),
        DispatchScenario(
            "disp-mesh4x4-ag-1MB-t4", "mesh_2d:4,4", "all_gather", 1 * _MB, trials=4, workers=2
        ),
        # mesh6x6 on purpose: its All-Gather floor is tight (every trial
        # lands exactly on the round-0 bound), so smoke exercises floor
        # termination, not just the pruning bookkeeping.
        SearchScenario("search-mesh6x6-ag-1MB-t8", "mesh_2d:6,6", "all_gather", 1 * _MB, trials=8),
    ]


def _fig19_grid() -> List[Scenario]:
    # The paper's Fig. 19 families (2D Mesh, 3D Hypercube All-Reduce) grown
    # to paper scale: referenced scenarios stop where the frozen reference
    # engine stays affordable (24x24 = 576 NPUs, minutes per repeat); the
    # 28x28 and 32x32 (1024-NPU) meshes — including a sub-chunked 32x32 —
    # run flat-only via ``skip_reference`` so the timed grid reaches the
    # paper's largest topology in every recorded run.
    # The referenced range starts at 144 NPUs, where the pre-extension grid
    # stopped: one order of magnitude of growth, two topology families.
    scenarios: List[Scenario] = [
        BenchScenario(f"mesh{side}x{side}-ar-64MB", f"mesh_2d:{side},{side}", "all_reduce", 64 * _MB)
        for side in (12, 16, 20, 24)
    ]
    scenarios += [
        BenchScenario(
            f"hypercube{side}^3-ar-64MB", f"hypercube_3d:{side},{side},{side}", "all_reduce", 64 * _MB
        )
        for side in (6, 7)
    ]
    scenarios += [
        BenchScenario(
            "mesh28x28-ar-64MB", "mesh_2d:28,28", "all_reduce", 64 * _MB, skip_reference=True
        ),
        BenchScenario(
            "mesh32x32-ar-64MB", "mesh_2d:32,32", "all_reduce", 64 * _MB, skip_reference=True
        ),
        BenchScenario(
            "mesh32x32-ag-64MB-c2",
            "mesh_2d:32,32",
            "all_gather",
            64 * _MB,
            chunks_per_npu=2,
            skip_reference=True,
        ),
    ]
    return scenarios


def _full_grid() -> List[Scenario]:
    scenarios = list(_fig19_grid())
    # The small-mesh/hypercube range the extended fig19 grid graduated from.
    scenarios += [
        BenchScenario(f"mesh{side}x{side}-ar-64MB", f"mesh_2d:{side},{side}", "all_reduce", 64 * _MB)
        for side in (4, 5, 6, 8, 10)
    ]
    scenarios += [
        BenchScenario(
            f"hypercube{side}^3-ar-64MB", f"hypercube_3d:{side},{side},{side}", "all_reduce", 64 * _MB
        )
        for side in (3, 4)
    ]
    for num_npus in (8, 16, 32):
        scenarios.append(
            BenchScenario(f"ring{num_npus}-ag-4MB", f"ring:{num_npus}", "all_gather", 4 * _MB)
        )
        scenarios.append(
            BenchScenario(f"ring{num_npus}-ar-64MB", f"ring:{num_npus}", "all_reduce", 64 * _MB)
        )
    for side in (4, 6):
        scenarios.append(
            BenchScenario(f"torus{side}x{side}-ar-64MB", f"torus_2d:{side},{side}", "all_reduce", 64 * _MB)
        )
    for num_npus in (8, 16):
        scenarios.append(
            BenchScenario(f"switch{num_npus}-ag-4MB", f"switch:{num_npus}", "all_gather", 4 * _MB)
        )
        scenarios.append(
            BenchScenario(f"switch{num_npus}-ar-64MB", f"switch:{num_npus}", "all_reduce", 64 * _MB)
        )
    # Heterogeneous two-tier DGX-1: exercises the cheaper-link deferral path.
    scenarios.append(
        BenchScenario("dgx1-hetero-ar-64MB", "dgx1:heterogeneous=true", "all_reduce", 64 * _MB)
    )
    return scenarios


def _sim_stress_grid() -> List[Scenario]:
    # Logical schedules executed on mismatched meshes: ring neighbours are
    # mostly physically adjacent (short routes, queue-dominated), while
    # Direct and RHD partners are far apart (routing- and multi-hop-
    # dominated).  Message counts range from ~8k to ~261k per scenario
    # (~475k in total), so both the routing layer and the event loop are
    # exercised well past the 50k-message mark.
    return [
        SimScenario("sim-ring-mesh8x8-64MB", "mesh_2d:8,8", "ring", 64 * _MB),
        SimScenario("sim-ring-mesh16x16-64MB", "mesh_2d:16,16", "ring", 64 * _MB),
        SimScenario("sim-direct-mesh8x8-4MB", "mesh_2d:8,8", "direct", 4 * _MB, chunks_per_npu=2),
        SimScenario("sim-direct-mesh12x12-4MB", "mesh_2d:12,12", "direct", 4 * _MB),
        SimScenario("sim-rhd-mesh8x8-64MB", "mesh_2d:8,8", "rhd", 64 * _MB),
        SimScenario("sim-rhd-mesh16x16-64MB", "mesh_2d:16,16", "rhd", 64 * _MB),
    ]


def _pipeline_grid() -> List[Scenario]:
    # End-to-end synthesize + verify + simulate + metrics scenarios, with the
    # diversity the object path could not afford: meshes up to 20x20 (400
    # NPUs, ~160k transfers), sub-chunked schedules (chunks_per_npu > 1), and
    # the Reduce-Scatter / All-to-All / Broadcast patterns alongside the
    # All-Reduce/All-Gather staples.
    return [
        PipelineScenario("pipe-ring16-ar-64MB", "ring:16", "all_reduce", 64 * _MB),
        PipelineScenario("pipe-mesh6x6-ar-64MB", "mesh_2d:6,6", "all_reduce", 64 * _MB),
        PipelineScenario(
            "pipe-mesh6x6-ar-64MB-c2", "mesh_2d:6,6", "all_reduce", 64 * _MB, chunks_per_npu=2
        ),
        PipelineScenario("pipe-mesh8x8-rs-64MB", "mesh_2d:8,8", "reduce_scatter", 64 * _MB),
        PipelineScenario(
            "pipe-mesh8x8-rs-64MB-c2", "mesh_2d:8,8", "reduce_scatter", 64 * _MB, chunks_per_npu=2
        ),
        PipelineScenario("pipe-mesh8x8-bc-64MB", "mesh_2d:8,8", "broadcast", 64 * _MB),
        PipelineScenario("pipe-mesh5x5-a2a-16MB", "mesh_2d:5,5", "all_to_all", 16 * _MB),
        PipelineScenario("pipe-mesh12x12-ar-64MB", "mesh_2d:12,12", "all_reduce", 64 * _MB),
        PipelineScenario("pipe-mesh16x16-ag-64MB", "mesh_2d:16,16", "all_gather", 64 * _MB),
        PipelineScenario("pipe-mesh20x20-ag-64MB", "mesh_2d:20,20", "all_gather", 64 * _MB),
        # Past 20x20 the frozen object path costs minutes per repeat; these
        # grow the grid only where the reference is not timed (--no-reference).
        PipelineScenario(
            "pipe-mesh24x24-ag-64MB", "mesh_2d:24,24", "all_gather", 64 * _MB, flat_only=True
        ),
        PipelineScenario(
            "pipe-mesh28x28-ag-64MB", "mesh_2d:28,28", "all_gather", 64 * _MB, flat_only=True
        ),
        PipelineScenario(
            "pipe-mesh32x32-ag-64MB", "mesh_2d:32,32", "all_gather", 64 * _MB, flat_only=True
        ),
    ]


def _dispatch_grid() -> List[Scenario]:
    # Dispatch-overhead scenarios: payloads bulky enough that the per-trial
    # pickle cost is visible (hop tables and patterns grow with the mesh),
    # trial counts high enough that chunked thin submission amortizes, and
    # workers=2 so pools really fork even on a 1-CPU container.  The
    # all_reduce scenario fans out twice per synthesis (RS + AG phases), so
    # pool reuse *within* one measurement is exercised too.
    return [
        DispatchScenario("disp-mesh6x6-ag-16MB-t8", "mesh_2d:6,6", "all_gather", 16 * _MB),
        DispatchScenario("disp-mesh8x8-ag-16MB-t8", "mesh_2d:8,8", "all_gather", 16 * _MB),
        DispatchScenario("disp-mesh6x6-ar-16MB-t8", "mesh_2d:6,6", "all_reduce", 16 * _MB),
        DispatchScenario(
            "disp-ring16-bc-16MB-t16", "ring:16", "broadcast", 16 * _MB, trials=16
        ),
    ]


def _search_grid() -> List[Scenario]:
    # Guided-vs-uniform quality-per-wallclock races.  Two populations on
    # purpose: the fig19-family scenarios (mesh / hypercube All-Reduce and
    # the All-Gather staples) have tight round-0 floors — every trial lands
    # exactly on the bound, so floor termination collapses the search to
    # one full trial per phase — while the gather / all-to-all scenarios
    # have real inter-trial spread (up to ~60%) and no tight floor: mid-
    # trial incumbent pruning aborts most trials there, but the bound
    # upkeep roughly cancels the saved rounds at this scale (~1x wall),
    # which is exactly the adversarial coverage the byte-identity and
    # pruned-fraction accounting need.  Both tiers run the identical seed
    # list (no portfolio store), so winners must be byte-identical.
    #
    # Whether a float trial sum lands *exactly* on the round-0 floor is
    # ulp-sensitive to the chunk size (mesh6x6 fires at 1/2/16 MB but not
    # 4/8 MB); the mesh6x6 scenarios pin 2 MB so the floor demonstrably
    # fires.  A size where it does not fire is safe, just unaccelerated.
    return [
        SearchScenario("search-mesh6x6-ar-2MB-t32", "mesh_2d:6,6", "all_reduce", 2 * _MB),
        SearchScenario(
            "search-hypercube3^3-ar-4MB-t32", "hypercube_3d:3,3,3", "all_reduce", 4 * _MB
        ),
        SearchScenario(
            "search-mesh6x6-ag-2MB-t64", "mesh_2d:6,6", "all_gather", 2 * _MB, trials=64
        ),
        SearchScenario("search-ring16-ag-4MB-t64", "ring:16", "all_gather", 4 * _MB, trials=64),
        SearchScenario(
            "search-mesh6x6-ag-4MB-c2-t32", "mesh_2d:6,6", "all_gather", 4 * _MB, chunks_per_npu=2
        ),
        SearchScenario("search-mesh6x6-gather-4MB-t32", "mesh_2d:6,6", "gather", 4 * _MB),
        SearchScenario(
            "search-torus6x6-a2a-4MB-t16", "torus_2d:6,6", "all_to_all", 4 * _MB, trials=16
        ),
    ]


GRIDS = {
    "smoke": _smoke_grid,
    "fig19": _fig19_grid,
    "full": _full_grid,
    "sim_stress": _sim_stress_grid,
    "pipeline": _pipeline_grid,
    "dispatch": _dispatch_grid,
    "search": _search_grid,
}


def get_grid(name: str) -> List[Scenario]:
    """Resolve a grid by name; raises :class:`ReproError` for unknown names."""
    try:
        factory = GRIDS[name]
    except KeyError:
        raise ReproError(
            f"unknown benchmark grid {name!r}; available: {', '.join(sorted(GRIDS))}"
        ) from None
    return factory()

"""Byte-identity check of the production paths against the frozen references.

Every scenario re-runs one layer of the system twice and compares the two
outputs with exact equality, never a tolerance.  Four kinds exist:

* ``pipeline`` — synthesize, verify and simulate on the columnar path (flat
  synthesis engine, vectorized verifier, :func:`simulate_algorithm`) and on
  the frozen object path (reference engine, object-path verifier and
  adapter, :class:`~repro.bench.reference.ReferenceSimulator`); the
  transfers, ``collective_time``, verifier verdict, ``message_completion``
  and ``completion_time`` must agree;
* ``simulation`` — a logical Ring / Direct / RHD All-Reduce schedule, turned
  into one message list and run on the array simulator and on the reference
  simulator;
* ``backend`` — the same best-of-N synthesis on the serial and the pool
  backend; the winners' :meth:`~repro.core.transfers.TransferTable.to_bytes`
  must agree;
* ``search`` — the same best-of-N synthesis as a uniform search and as a
  guided search (incumbent pruning and floor termination, no seed
  portfolio); the winners must agree.

Each :class:`BenchRecord` maps every check name to a bool, so a failure names
the layer that diverged.  Three grids are provided: ``smoke`` (one scenario
per kind, the default), ``search`` (seven guided-vs-uniform races) and
``full`` (every scenario the references are affordable on: the paper's
Fig. 19 meshes and hypercubes up to 24x24, ring / torus / switch / DGX-1
families, three-tier 3D-RFS systems up to 2x4x16, the simulator stress grid, large and sub-chunked pipelines and
the backend races).  Nothing here is timed; ``perfbench/`` times the system.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.api.builtins import parse_topology_spec
from repro.api.parallel import BackendSpec, effective_backend
from repro.api.registry import COLLECTIVES
from repro.api.runner import build_topology
from repro.baselines import direct_all_reduce, rhd_all_reduce, ring_all_reduce
from repro.bench.reference import (
    REFERENCE_ENGINE,
    ReferenceSimulator,
    reference_algorithm_to_messages,
    reference_verify_algorithm,
)
from repro.core.config import SynthesisConfig
from repro.core.synthesizer import FLAT_ENGINE, TacosSynthesizer
from repro.core.verification import verify_algorithm
from repro.errors import ReproError, VerificationError
from repro.search import GuidedSynthesizer
from repro.simulator.adapters import schedule_to_messages, simulate_algorithm
from repro.simulator.engine import CongestionAwareSimulator
from repro.simulator.result import SimulationResult
from repro.topology.topology import Topology

__all__ = ["BenchRecord", "GRIDS", "Scenario", "check_scenario", "get_grid", "run_bench"]

_MB = 1e6


@dataclass(frozen=True)
class Scenario:
    """One named check: which layer to compare, on which problem."""

    name: str
    kind: str  #: ``"pipeline"``, ``"simulation"``, ``"backend"`` or ``"search"``
    topology: str  #: registry shorthand, e.g. ``"mesh_2d:4,4"``
    #: Collective registry name; for ``simulation`` scenarios the logical
    #: All-Reduce schedule instead (``"ring"``, ``"direct"`` or ``"rhd"``).
    collective: str
    collective_size: float  #: per-NPU bytes
    chunks_per_npu: int = 1
    seed: int = 0
    trials: int = 1
    workers: int = 2  #: pool width of ``backend`` scenarios


@dataclass(frozen=True)
class BenchRecord:
    """Outcome of one scenario: every check by name, ``True`` when equal."""

    scenario: str
    kind: str
    num_npus: int
    checks: Dict[str, bool]

    @property
    def equivalent(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        return [name for name, passed in self.checks.items() if not passed]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _pattern(scenario: Scenario, topology: Topology):
    factory = COLLECTIVES.get(scenario.collective)
    return factory(topology.num_npus, scenario.chunks_per_npu)


def _verdict(verifier, algorithm, topology, pattern) -> str:
    """Name of the error class a verifier raises, or ``""`` when it passes."""
    try:
        verifier(algorithm, topology, pattern)
        return ""
    except VerificationError as exc:
        return type(exc).__name__


def _simulations_agree(flat: SimulationResult, reference: SimulationResult) -> Dict[str, bool]:
    return {
        "message_completion": flat.message_completion == reference.message_completion,
        "completion_time": flat.completion_time == reference.completion_time,
    }


def _check_pipeline(scenario: Scenario, topology: Topology) -> Dict[str, bool]:
    pattern = _pattern(scenario, topology)
    config = SynthesisConfig(seed=scenario.seed, trials=scenario.trials)
    flat = TacosSynthesizer(config, engine=FLAT_ENGINE).synthesize(
        topology, pattern, scenario.collective_size
    )
    reference = TacosSynthesizer(config, engine=REFERENCE_ENGINE).synthesize(
        topology, pattern, scenario.collective_size
    )
    checks = {
        "transfers": flat.transfers == reference.transfers,
        "collective_time": flat.collective_time == reference.collective_time,
        "verdict": _verdict(verify_algorithm, flat, topology, pattern)
        == _verdict(reference_verify_algorithm, reference, topology, pattern),
    }
    reference_result = ReferenceSimulator(topology).run(
        reference_algorithm_to_messages(reference),
        collective_size=reference.collective_size,
    )
    checks.update(_simulations_agree(simulate_algorithm(topology, flat), reference_result))
    return checks


#: Logical All-Reduce schedules a ``simulation`` scenario can name.
_SCHEDULES: Dict[str, Callable] = {
    "ring": ring_all_reduce,
    "direct": direct_all_reduce,
    "rhd": rhd_all_reduce,
}


def _check_simulation(scenario: Scenario, topology: Topology) -> Dict[str, bool]:
    try:
        builder = _SCHEDULES[scenario.collective]
    except KeyError:
        raise ReproError(
            f"unknown logical schedule {scenario.collective!r}; "
            f"available: {', '.join(sorted(_SCHEDULES))}"
        ) from None
    schedule = builder(
        topology.num_npus, scenario.collective_size, chunks_per_npu=scenario.chunks_per_npu
    )
    # Both engines get the same message objects: they iterate the same
    # frozensets, which pins down dependency fan-out order.
    messages = schedule_to_messages(schedule)
    size = schedule.collective_size
    return _simulations_agree(
        CongestionAwareSimulator(topology).run(messages, collective_size=size),
        ReferenceSimulator(topology).run(messages, collective_size=size),
    )


def _check_backend(scenario: Scenario, topology: Topology) -> Dict[str, bool]:
    pattern = _pattern(scenario, topology)
    winners = {}
    for execution, workers in (("serial", None), ("pool", scenario.workers)):
        config = SynthesisConfig(
            seed=scenario.seed,
            trials=scenario.trials,
            trial_workers=workers,
            execution=execution,
        )
        algorithm = TacosSynthesizer(config, engine=FLAT_ENGINE).synthesize(
            topology, pattern, scenario.collective_size
        )
        winners[execution] = algorithm.table.to_bytes()
    return {"winner_bytes": winners["serial"] == winners["pool"]}


def _check_search(scenario: Scenario, topology: Topology) -> Dict[str, bool]:
    pattern = _pattern(scenario, topology)
    uniform = TacosSynthesizer(
        SynthesisConfig(seed=scenario.seed, trials=scenario.trials), engine=FLAT_ENGINE
    ).synthesize(topology, pattern, scenario.collective_size)
    guided = GuidedSynthesizer(
        SynthesisConfig(
            seed=scenario.seed,
            trials=scenario.trials,
            incumbent_pruning=True,
            floor_termination=True,
        ),
        FLAT_ENGINE,
    ).synthesize(topology, pattern, scenario.collective_size)
    return {
        "winner_bytes": uniform.table.to_bytes() == guided.table.to_bytes(),
        "collective_time": uniform.collective_time == guided.collective_time,
    }


_CHECKS: Dict[str, Callable[[Scenario, Topology], Dict[str, bool]]] = {
    "pipeline": _check_pipeline,
    "simulation": _check_simulation,
    "backend": _check_backend,
    "search": _check_search,
}


def check_scenario(scenario: Scenario) -> BenchRecord:
    """Run one scenario's checks (module-level, so the pool can ship it)."""
    try:
        check = _CHECKS[scenario.kind]
    except KeyError:
        raise ReproError(
            f"unknown scenario kind {scenario.kind!r}; available: {', '.join(_CHECKS)}"
        ) from None
    topology = build_topology(parse_topology_spec(scenario.topology))
    return BenchRecord(scenario.name, scenario.kind, topology.num_npus, check(scenario, topology))


def _search(name: str, topology: str, collective: str, size: float, **params) -> Scenario:
    """A guided-vs-uniform race: seed 7 and 32 trials unless overridden."""
    params = {"seed": 7, "trials": 32, **params}
    return Scenario(name, "search", topology, collective, size, **params)


def _smoke_grid() -> List[Scenario]:
    return [
        Scenario("pipe-mesh3x3-ar-1MB", "pipeline", "mesh_2d:3,3", "all_reduce", 1 * _MB),
        Scenario("sim-ring-mesh3x3-1MB", "simulation", "mesh_2d:3,3", "ring", 1 * _MB),
        Scenario(
            "backend-mesh4x4-ag-1MB-t4", "backend", "mesh_2d:4,4", "all_gather", 1 * _MB, trials=4
        ),
        # mesh6x6 on purpose: its All-Gather floor is tight (every trial
        # lands exactly on the round-0 bound), so smoke exercises floor
        # termination, not just the pruning bookkeeping.
        _search("search-mesh6x6-ag-1MB-t8", "mesh_2d:6,6", "all_gather", 1 * _MB, trials=8),
    ]


def _search_grid() -> List[Scenario]:
    # Two populations: the fig19-family scenarios have tight round-0
    # floors, so floor termination collapses the search to one full trial
    # per phase; the gather / all-to-all scenarios have real inter-trial
    # spread and no tight floor, so mid-trial incumbent pruning does the
    # work.  Whether a float trial sum lands *exactly* on the floor is
    # ulp-sensitive to the chunk size (mesh6x6 fires at 1/2/16 MB but not
    # 4/8 MB), so the mesh6x6 races pin 2 MB.
    return [
        _search("search-mesh6x6-ar-2MB-t32", "mesh_2d:6,6", "all_reduce", 2 * _MB),
        _search("search-hypercube3^3-ar-4MB-t32", "hypercube_3d:3,3,3", "all_reduce", 4 * _MB),
        _search("search-mesh6x6-ag-2MB-t64", "mesh_2d:6,6", "all_gather", 2 * _MB, trials=64),
        _search("search-ring16-ag-4MB-t64", "ring:16", "all_gather", 4 * _MB, trials=64),
        _search(
            "search-mesh6x6-ag-4MB-c2-t32", "mesh_2d:6,6", "all_gather", 4 * _MB, chunks_per_npu=2
        ),
        _search("search-mesh6x6-gather-4MB-t32", "mesh_2d:6,6", "gather", 4 * _MB),
        _search("search-torus6x6-a2a-4MB-t16", "torus_2d:6,6", "all_to_all", 4 * _MB, trials=16),
    ]


def _full_grid() -> List[Scenario]:
    def pipeline(name, topology, collective, size, **params) -> Scenario:
        return Scenario(name, "pipeline", topology, collective, size, **params)

    # The paper's Fig. 19 families (2D mesh, 3D hypercube All-Reduce), up to
    # the 576-NPU mesh where the reference engine still finishes in minutes,
    # and the small sizes below them.
    scenarios = [
        pipeline(f"mesh{side}x{side}-ar-64MB", f"mesh_2d:{side},{side}", "all_reduce", 64 * _MB)
        for side in (4, 5, 6, 8, 10, 12, 16, 20, 24)
    ]
    scenarios += [
        pipeline(
            f"hypercube{side}^3-ar-64MB", f"hypercube_3d:{side},{side},{side}", "all_reduce",
            64 * _MB,
        )
        for side in (3, 4, 6, 7)
    ]
    scenarios += [
        pipeline(f"torus{side}x{side}-ar-64MB", f"torus_2d:{side},{side}", "all_reduce", 64 * _MB)
        for side in (4, 6)
    ]
    scenarios += [
        pipeline(f"{family}{size}-{short}-{mb}MB", f"{family}:{size}", collective, mb * _MB)
        for family, sizes in (("ring", (8, 16, 32)), ("switch", (8, 16)))
        for size in sizes
        for short, collective, mb in (("ag", "all_gather", 4), ("ar", "all_reduce", 64))
    ]
    # Heterogeneous two-tier DGX-1: exercises the cheaper-link deferral path.
    scenarios.append(
        pipeline("dgx1-hetero-ar-64MB", "dgx1:heterogeneous=true", "all_reduce", 64 * _MB)
    )
    # Three-tier 3D-RFS (Fig. 15 / Table V): at least 128 open pairs per
    # round, so the deferral runs in the block prefilter, which DGX-1's 56
    # pairs never reach.
    scenarios += [
        pipeline(f"rfs{name}-{short}-64MB", f"rfs_3d:{dims}", collective, 64 * _MB)
        for name, dims, short, collective in (
            ("2x4x4", "2,4,4", "ar", "all_reduce"),
            ("2x4x8", "2,4,8", "ar", "all_reduce"),
            ("2x4x16", "2,4,16", "ag", "all_gather"),
        )
    ]
    # Sub-chunked schedules and the Reduce-Scatter / Broadcast / All-to-All /
    # large All-Gather patterns.
    scenarios += [
        pipeline(
            "pipe-mesh6x6-ar-64MB-c2", "mesh_2d:6,6", "all_reduce", 64 * _MB, chunks_per_npu=2
        ),
        pipeline("pipe-mesh8x8-rs-64MB", "mesh_2d:8,8", "reduce_scatter", 64 * _MB),
        pipeline(
            "pipe-mesh8x8-rs-64MB-c2", "mesh_2d:8,8", "reduce_scatter", 64 * _MB, chunks_per_npu=2
        ),
        pipeline("pipe-mesh8x8-bc-64MB", "mesh_2d:8,8", "broadcast", 64 * _MB),
        pipeline("pipe-mesh5x5-a2a-16MB", "mesh_2d:5,5", "all_to_all", 16 * _MB),
        pipeline("pipe-mesh16x16-ag-64MB", "mesh_2d:16,16", "all_gather", 64 * _MB),
        pipeline("pipe-mesh20x20-ag-64MB", "mesh_2d:20,20", "all_gather", 64 * _MB),
    ]
    # Logical schedules on mismatched meshes: ring neighbours are mostly
    # adjacent (queue-dominated), Direct and RHD partners far apart
    # (routing- and multi-hop-dominated); ~475k messages in total.
    scenarios += [
        Scenario("sim-ring-mesh8x8-64MB", "simulation", "mesh_2d:8,8", "ring", 64 * _MB),
        Scenario("sim-ring-mesh16x16-64MB", "simulation", "mesh_2d:16,16", "ring", 64 * _MB),
        Scenario(
            "sim-direct-mesh8x8-4MB", "simulation", "mesh_2d:8,8", "direct", 4 * _MB,
            chunks_per_npu=2,
        ),
        Scenario("sim-direct-mesh12x12-4MB", "simulation", "mesh_2d:12,12", "direct", 4 * _MB),
        Scenario("sim-rhd-mesh8x8-64MB", "simulation", "mesh_2d:8,8", "rhd", 64 * _MB),
        Scenario("sim-rhd-mesh16x16-64MB", "simulation", "mesh_2d:16,16", "rhd", 64 * _MB),
    ]
    # Serial vs pool; all_reduce fans out twice per synthesis (RS + AG).  The
    # 3D-RFS one ships cheap-link tiers and a link-reversed Reduce-Scatter
    # topology across the process boundary.
    scenarios += [
        Scenario(
            f"backend-{name}-16MB-t{trials}", "backend", topology, collective, 16 * _MB,
            trials=trials,
        )
        for name, topology, collective, trials in (
            ("mesh6x6-ag", "mesh_2d:6,6", "all_gather", 8),
            ("mesh8x8-ag", "mesh_2d:8,8", "all_gather", 8),
            ("mesh6x6-ar", "mesh_2d:6,6", "all_reduce", 8),
            ("ring16-bc", "ring:16", "broadcast", 16),
            ("rfs2x4x4-ar", "rfs_3d:2,4,4", "all_reduce", 4),
        )
    ]
    return scenarios


GRIDS: Dict[str, Callable[[], List[Scenario]]] = {
    "smoke": _smoke_grid,
    "search": _search_grid,
    "full": _full_grid,
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


def run_bench(
    grid: str = "smoke",
    *,
    scenarios: Optional[List[Scenario]] = None,
    workers: Optional[int] = None,
    execution: BackendSpec = None,
) -> List[BenchRecord]:
    """Check a grid (or explicit ``scenarios``); one record per scenario, in order.

    ``execution`` / ``workers`` fan the scenarios out across an execution
    backend (``workers`` alone implies the pool); records are identical
    either way.
    """
    selected = list(scenarios) if scenarios is not None else get_grid(grid)
    backend = effective_backend(execution, workers)
    if backend is None:
        return [check_scenario(scenario) for scenario in selected]
    return backend.map(check_scenario, selected, max_workers=workers)

"""Built-in registry entries: every topology, collective, and algorithm.

Importing this module (which :mod:`repro.api` does automatically) populates
the four registries with the library's built-in entries, so a spec like
``{"topology": {"name": "mesh", "params": {"dims": [3, 3]}}, ...}`` resolves
without further setup.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.ideal import (
    ideal_all_gather_time,
    ideal_all_reduce_time,
    ideal_reduce_scatter_time,
)
from repro.api.cache import ArtifactStore
from repro.api.registry import (
    ALGORITHMS,
    COLLECTIVES,
    SYNTHESIZERS,
    TOPOLOGIES,
    AlgorithmArtifact,
)
from repro.api.specs import TopologySpec
from repro.baselines.blueconnect import blueconnect_all_reduce
from repro.baselines.ccube import ccube_all_reduce
from repro.baselines.dbt import dbt_all_reduce
from repro.baselines.direct import direct_all_reduce
from repro.baselines.multitree import multitree_all_reduce
from repro.baselines.rhd import rhd_all_reduce
from repro.baselines.ring import ring_all_reduce
from repro.baselines.taccl_like import TacclLikeSynthesizer
from repro.baselines.themis import themis_all_reduce
from repro.collectives.all_gather import AllGather
from repro.collectives.all_reduce import AllReduce
from repro.collectives.broadcast import Broadcast, Reduce
from repro.collectives.gather_scatter import AllToAll, Gather, Scatter
from repro.collectives.pattern import CollectivePattern
from repro.collectives.reduce_scatter import ReduceScatter
from repro.core.config import SynthesisConfig
from repro.core.synthesizer import TacosSynthesizer, resolve_engine
from repro.errors import RegistryError, SpecError, TopologyError
from repro.search import GuidedSynthesizer
from repro.topology.builders import (
    build_2d_switch,
    build_3d_rfs,
    build_binary_hypercube,
    build_dgx1,
    build_dragonfly,
    build_fully_connected,
    build_hypercube_3d,
    build_mesh,
    build_mesh_2d,
    build_mesh_3d,
    build_ring,
    build_switch,
    build_torus,
    build_torus_2d,
    build_torus_3d,
)
from repro.topology.topology import Topology

__all__ = ["build_custom_topology", "parse_topology_spec", "parse_token"]


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
def build_custom_topology(
    num_npus: int,
    links: Sequence[Sequence[float]],
    topology_name: str = "Custom",
) -> Topology:
    """Build a topology from an explicit ``[source, dest, alpha, beta]`` link list.

    This is the fully-general escape hatch that lets a JSON document express
    any heterogeneous, asymmetric network; :func:`repro.api.specs.topology_to_spec`
    produces it from an in-memory :class:`Topology`.
    """
    topology = Topology(int(num_npus), name=str(topology_name))
    for entry in links:
        if len(entry) != 4:
            raise TopologyError(f"custom link entries must be [source, dest, alpha, beta], got {entry!r}")
        source, dest, alpha, beta = entry
        topology.add_link(int(source), int(dest), alpha=float(alpha), beta=float(beta))
    return topology


TOPOLOGIES.register(
    "ring", build_ring, positional=("num_npus",), description="Bidirectional ring"
)
TOPOLOGIES.register(
    "uni_ring",
    lambda num_npus, **kwargs: build_ring(num_npus, bidirectional=False, **kwargs),
    aliases=("uniring",),
    positional=("num_npus",),
    description="Unidirectional ring",
)
TOPOLOGIES.register(
    "fully_connected",
    build_fully_connected,
    aliases=("fc",),
    positional=("num_npus",),
    description="Fully-connected graph",
)
TOPOLOGIES.register(
    "switch", build_switch, positional=("num_npus",), description="Unwound switch (see unwind_degree)"
)
TOPOLOGIES.register("mesh", build_mesh, positional=("dims",), description="n-dimensional mesh")
TOPOLOGIES.register(
    "mesh_2d", build_mesh_2d, positional=("rows", "cols"), description="2D mesh (rows x cols)"
)
TOPOLOGIES.register(
    "mesh_3d", build_mesh_3d, positional=("x", "y", "z"), description="3D mesh"
)
TOPOLOGIES.register("torus", build_torus, positional=("dims",), description="n-dimensional torus")
TOPOLOGIES.register(
    "torus_2d", build_torus_2d, positional=("rows", "cols"), description="2D torus"
)
TOPOLOGIES.register("torus_3d", build_torus_3d, positional=("x", "y", "z"), description="3D torus")
TOPOLOGIES.register(
    "hypercube_3d",
    build_hypercube_3d,
    positional=("x", "y", "z"),
    description="Paper's 3D Hypercube (3D grid)",
)
TOPOLOGIES.register(
    "binary_hypercube",
    build_binary_hypercube,
    positional=("dimension",),
    description="Binary hypercube with 2**dimension NPUs",
)
TOPOLOGIES.register("dgx1", build_dgx1, positional=(), description="8-GPU DGX-1-like system")
TOPOLOGIES.register(
    "dragonfly",
    build_dragonfly,
    positional=("num_groups", "group_size"),
    description="DragonFly groups with global links",
)
TOPOLOGIES.register(
    "rfs_3d",
    build_3d_rfs,
    aliases=("3d_rfs",),
    positional=("ring_size", "fc_size", "switch_size"),
    description="3D Ring-FC-Switch hierarchy (Fig. 15 / Table V)",
)
TOPOLOGIES.register(
    "switch_2d",
    build_2d_switch,
    aliases=("2d_switch",),
    positional=("first_size", "second_size"),
    description="2D Switch hierarchy (Fig. 15)",
)
TOPOLOGIES.register(
    "custom",
    build_custom_topology,
    positional=(),
    description="Explicit [source, dest, alpha, beta] link list",
)


def parse_token(token: str) -> Any:
    """Parse one shorthand token: int, float, bool, AxBxC dims list, or string.

    Used for both topology shorthand arguments (``"mesh:4x4"``) and CLI
    ``--param`` values (``-p dims=2x2`` must become ``[2, 2]``).
    """
    text = token.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    parts = text.split("x")
    if len(parts) > 1 and all(part.strip().isdigit() for part in parts):
        return [int(part) for part in parts]
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def parse_topology_spec(text: str) -> TopologySpec:
    """Parse CLI shorthand like ``"ring:8"`` or ``"mesh:4x4"`` into a spec.

    The part before ``:`` is the registry name; comma-separated arguments
    after it are matched against the builder's declared positional parameter
    names, and ``key=value`` tokens become named parameters
    (``"switch:8,unwind_degree=2"``).
    """
    name, _, rest = str(text).strip().partition(":")
    entry = TOPOLOGIES.entry(name)
    positional_names = tuple(entry.metadata.get("positional", ()))
    params = {}
    positional_index = 0
    if rest:
        for token in rest.split(","):
            if "=" in token:
                key, _, value = token.partition("=")
                params[key.strip()] = parse_token(value)
            else:
                if positional_index >= len(positional_names):
                    raise SpecError(
                        f"too many positional arguments in topology shorthand {text!r}; "
                        f"{entry.name} takes {len(positional_names)}"
                    )
                params[positional_names[positional_index]] = parse_token(token)
                positional_index += 1
    return TopologySpec(name=entry.name, params=params)


# ----------------------------------------------------------------------
# Collectives
# ----------------------------------------------------------------------
COLLECTIVES.register("all_gather", AllGather, aliases=("allgather",))
COLLECTIVES.register("all_reduce", AllReduce, aliases=("allreduce",))
COLLECTIVES.register("reduce_scatter", ReduceScatter, aliases=("reducescatter",))
COLLECTIVES.register("broadcast", Broadcast)
COLLECTIVES.register("reduce", Reduce)
COLLECTIVES.register("gather", Gather)
COLLECTIVES.register("scatter", Scatter)
COLLECTIVES.register("all_to_all", AllToAll, aliases=("alltoall",))


# ----------------------------------------------------------------------
# Synthesizers
# ----------------------------------------------------------------------
SYNTHESIZERS.register("tacos", TacosSynthesizer, description="TACOS TEN-matching synthesizer")
SYNTHESIZERS.register(
    "guided",
    GuidedSynthesizer,
    description="Guided TACOS search: portfolio-primed, incumbent-pruned, floor-terminated",
)
SYNTHESIZERS.register(
    "taccl_like",
    TacclLikeSynthesizer,
    aliases=("taccl",),
    description="Step-synchronous congestion-oblivious synthesizer",
)


# ----------------------------------------------------------------------
# Algorithms
# ----------------------------------------------------------------------
def _require_all_reduce(name: str, pattern: CollectivePattern) -> None:
    if not isinstance(pattern, AllReduce):
        raise RegistryError(
            f"algorithm {name!r} only supports the all_reduce collective, got {pattern.name!r}"
        )


def _schedule_baseline(name: str, builder, *, needs_topology: bool = False, **fixed: Any):
    """Wrap a ``*_all_reduce`` schedule builder into the uniform algorithm shape."""

    def build(topology: Topology, pattern: CollectivePattern, collective_size: float) -> AlgorithmArtifact:
        _require_all_reduce(name, pattern)
        target = topology if needs_topology else topology.num_npus
        schedule = builder(
            target, collective_size, chunks_per_npu=pattern.chunks_per_npu, **fixed
        )
        return AlgorithmArtifact(schedule=schedule)

    build.__name__ = f"build_{name}_all_reduce"
    return build


ALGORITHMS.register(
    "ring",
    _schedule_baseline("ring", ring_all_reduce, bidirectional=True),
    description="Bidirectional Ring All-Reduce baseline",
)
ALGORITHMS.register(
    "uni_ring",
    _schedule_baseline("uni_ring", ring_all_reduce, bidirectional=False),
    aliases=("uniring",),
    description="Unidirectional Ring All-Reduce baseline",
)
ALGORITHMS.register(
    "direct",
    _schedule_baseline("direct", direct_all_reduce),
    description="Direct (1-step RS + 1-step AG) All-Reduce baseline",
)
ALGORITHMS.register(
    "rhd",
    _schedule_baseline("rhd", rhd_all_reduce),
    description="Recursive Halving-Doubling All-Reduce baseline",
)
ALGORITHMS.register(
    "dbt",
    _schedule_baseline("dbt", dbt_all_reduce),
    description="Double Binary Tree All-Reduce baseline",
)
ALGORITHMS.register(
    "multitree",
    _schedule_baseline("multitree", multitree_all_reduce, needs_topology=True),
    description="MultiTree BFS-tree All-Reduce baseline",
)


@ALGORITHMS.register("blueconnect", description="BlueConnect hierarchical All-Reduce (needs dims)")
def _blueconnect(
    topology: Topology,
    pattern: CollectivePattern,
    collective_size: float,
    *,
    dims: Sequence[int],
) -> AlgorithmArtifact:
    _require_all_reduce("blueconnect", pattern)
    _check_dims("blueconnect", dims, topology)
    schedule = blueconnect_all_reduce(
        dims, collective_size, chunks_per_npu=pattern.chunks_per_npu
    )
    return AlgorithmArtifact(schedule=schedule)


@ALGORITHMS.register("themis", description="Themis dimension-rotating All-Reduce (needs dims)")
def _themis(
    topology: Topology,
    pattern: CollectivePattern,
    collective_size: float,
    *,
    dims: Sequence[int],
) -> AlgorithmArtifact:
    _require_all_reduce("themis", pattern)
    _check_dims("themis", dims, topology)
    schedule = themis_all_reduce(dims, collective_size, chunks_per_npu=pattern.chunks_per_npu)
    return AlgorithmArtifact(schedule=schedule)


@ALGORITHMS.register("ccube", aliases=("c_cube",), description="C-Cube dual-tree All-Reduce (DGX-1)")
def _ccube(
    topology: Topology, pattern: CollectivePattern, collective_size: float
) -> AlgorithmArtifact:
    _require_all_reduce("ccube", pattern)
    schedule = ccube_all_reduce(
        collective_size, chunks_per_npu=pattern.chunks_per_npu, topology=topology
    )
    return AlgorithmArtifact(schedule=schedule)


def _check_dims(name: str, dims: Sequence[int], topology: Topology) -> None:
    product = 1
    for dim in dims:
        product *= int(dim)
    if product != topology.num_npus:
        raise RegistryError(
            f"algorithm {name!r} dims {tuple(dims)} describe {product} NPUs but the "
            f"topology has {topology.num_npus}"
        )


@ALGORITHMS.register("tacos", description="TACOS topology-aware synthesis (any collective)")
def _tacos(
    topology: Topology, pattern: CollectivePattern, collective_size: float, **params: Any
) -> AlgorithmArtifact:
    # `engine` is a registry name (flat / reference), not a
    # SynthesisConfig field: resolve it here so `-p engine=reference` (and the
    # CLI's --engine sugar) works through specs, caches, and pickled batches.
    engine_name = params.pop("engine", None)
    engine = resolve_engine(str(engine_name)) if engine_name is not None else None
    config = SynthesisConfig(**params) if params else None
    synthesizer = TacosSynthesizer(config, engine=engine)
    stats = synthesizer.synthesize_with_stats(topology, pattern, collective_size)
    return AlgorithmArtifact(
        algorithm=stats.algorithm,
        synthesis_seconds=stats.wall_clock_seconds,
        extras={"trials": float(stats.trials), "rounds": float(stats.rounds)},
        trial_stats=stats.trial_stats,
    )


@ALGORITHMS.register(
    "guided",
    description="Guided TACOS search: portfolio-primed, incumbent-pruned, floor-terminated",
)
def _guided(
    topology: Topology, pattern: CollectivePattern, collective_size: float, **params: Any
) -> AlgorithmArtifact:
    # Same engine seam as the tacos entry; `store_dir` points the seed
    # portfolio at an artifact-store directory (e.g. the --cache-dir of
    # earlier runs) and `portfolio_limit` caps the front-loaded seeds.
    # Pruning and floor termination default on — pass
    # `incumbent_pruning=false` to get the uniform best-of-N search.
    engine_name = params.pop("engine", None)
    engine = resolve_engine(str(engine_name)) if engine_name is not None else None
    store_dir = params.pop("store_dir", None)
    portfolio_limit = int(params.pop("portfolio_limit", 8))
    params.setdefault("incumbent_pruning", True)
    params.setdefault("floor_termination", bool(params["incumbent_pruning"]))
    config = SynthesisConfig(**params)
    store = ArtifactStore(store_dir) if store_dir else None
    synthesizer = GuidedSynthesizer(
        config, engine, store=store, portfolio_limit=portfolio_limit
    )
    stats = synthesizer.synthesize_with_stats(topology, pattern, collective_size)
    return AlgorithmArtifact(
        algorithm=stats.algorithm,
        synthesis_seconds=stats.wall_clock_seconds,
        extras={
            "trials": float(stats.trials),
            "rounds": float(stats.rounds),
            "full_trials": float(stats.full_trials),
            "pruned_trials": float(stats.pruned_trials),
            "portfolio_seeds": float(len(synthesizer.last_portfolio_seeds)),
        },
        trial_stats=stats.trial_stats,
    )


@ALGORITHMS.register(
    "taccl_like",
    aliases=("taccl",),
    description="TACCL-like step-synchronous synthesis (all_gather / all_reduce)",
)
def _taccl_like(
    topology: Topology,
    pattern: CollectivePattern,
    collective_size: float,
    *,
    restarts: int = 10,
    seed: int = 0,
) -> AlgorithmArtifact:
    synthesizer = TacclLikeSynthesizer(restarts=restarts, seed=seed)
    if isinstance(pattern, AllReduce):
        result = synthesizer.synthesize_all_reduce(
            topology, collective_size, chunks_per_npu=pattern.chunks_per_npu
        )
    elif isinstance(pattern, AllGather):
        result = synthesizer.synthesize_all_gather(
            topology, collective_size, chunks_per_npu=pattern.chunks_per_npu
        )
    else:
        raise RegistryError(
            f"algorithm 'taccl_like' supports all_gather and all_reduce, got {pattern.name!r}"
        )
    return AlgorithmArtifact(
        schedule=result.schedule,
        synthesis_seconds=result.wall_clock_seconds,
        extras={"restarts": float(result.restarts)},
    )


#: Analytic lower-bound times per supported collective pattern name.
_IDEAL_BOUNDS = {
    "AllReduce": ideal_all_reduce_time,
    "AllGather": ideal_all_gather_time,
    "ReduceScatter": ideal_reduce_scatter_time,
}


@ALGORITHMS.register("ideal", description="Theoretical ideal bound (Sec. V-A), no execution")
def _ideal(
    topology: Topology, pattern: CollectivePattern, collective_size: float
) -> AlgorithmArtifact:
    bound = _IDEAL_BOUNDS.get(pattern.name)
    if bound is None:
        raise RegistryError(
            f"algorithm 'ideal' supports {sorted(_IDEAL_BOUNDS)}, got {pattern.name!r}"
        )
    return AlgorithmArtifact(collective_time=bound(topology, collective_size))

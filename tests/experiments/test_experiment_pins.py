"""Pinned numeric outputs of every paper-reproduction experiment.

Each case runs one experiment at small parameters and compares a sha256
digest of everything it returns — names, shapes, every float bit for bit —
with a recorded value.  A refactor of the experiment plumbing must leave
these digests unchanged; a deliberate change of an experiment's numbers
re-records them in the same commit.

Wall-clock fields (``synthesis_seconds`` on :class:`Measurement` and on
fig19's points) vary between runs, so only whether they are set enters the
digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict

import numpy as np
import pytest

from repro.core.algorithm import CollectiveAlgorithm
from repro.core.config import SynthesisConfig
from repro.experiments import (
    fig01_heatmap,
    fig02_motivation,
    fig10_topologies,
    fig14_mesh_synthesis,
    fig15_heterogeneous,
    fig16_themis,
    fig17_multitree_ccube,
    fig18_asymmetric_utilization,
    fig19_scalability,
    fig20_end_to_end,
    fig21_breakdown,
    table05_multinode,
)

#: Fields that hold wall-clock time: only their presence is pinned.
WALL_CLOCK_FIELDS = frozenset({"synthesis_seconds"})


def _feed(digest: "hashlib._Hash", value: Any) -> None:
    """Write a type-tagged, order-preserving encoding of ``value``."""
    if value is None:
        digest.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        digest.update(b"B1" if value else b"B0")
    elif isinstance(value, (int, np.integer)):
        digest.update(f"I{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        digest.update(f"F{float(value).hex()};".encode())
    elif isinstance(value, str):
        encoded = value.encode()
        digest.update(f"S{len(encoded)}:".encode() + encoded)
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        digest.update(f"A{array.dtype.str}{array.shape}:".encode() + array.tobytes())
    elif isinstance(value, dict):
        digest.update(f"D{len(value)}:".encode())
        for key, item in value.items():
            _feed(digest, key)
            _feed(digest, item)
    elif isinstance(value, (list, tuple)):
        digest.update(f"L{len(value)}:".encode())
        for item in value:
            _feed(digest, item)
    elif isinstance(value, CollectiveAlgorithm):
        digest.update(b"G")
        for item in (
            value.num_npus,
            value.chunk_size,
            value.collective_size,
            value.pattern_name,
            value.topology_name,
            value.collective_time,
            value.table.to_bytes(),
        ):
            _feed(digest, item)
    elif isinstance(value, bytes):
        digest.update(f"Y{len(value)}:".encode() + value)
    elif dataclasses.is_dataclass(value):
        digest.update(f"C{type(value).__name__}:".encode())
        for item in dataclasses.fields(value):
            _feed(digest, item.name)
            field_value = getattr(value, item.name)
            if item.name in WALL_CLOCK_FIELDS:
                field_value = field_value is not None
            _feed(digest, field_value)
    else:
        raise TypeError(f"no pin encoding for {type(value).__name__}")


def output_digest(value: Any) -> str:
    """sha256 over an experiment's numeric output, wall-clock fields excluded."""
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


#: Small-parameter runs: every experiment id, plus explicit-config variants
#: of the modules that forward a ``SynthesisConfig`` into their specs.
CASES: Dict[str, Callable[[], Any]] = {
    "fig01": lambda: fig01_heatmap.run(num_npus=16, collective_size=64e6),
    "fig02a": lambda: fig02_motivation.run_topology_sweep(num_npus=16, collective_size=256e6),
    "fig02b": lambda: fig02_motivation.run_size_sweep(num_npus=16, collective_sizes=[1e3, 256e6]),
    "fig10": lambda: fig10_topologies.run(),
    "fig10-config": lambda: fig10_topologies.run(
        collective_size=2e6, synthesis_config=SynthesisConfig(trials=2, seed=11)
    ),
    "fig14": lambda: fig14_mesh_synthesis.run(),
    "fig15": lambda: fig15_heterogeneous.run(
        collective_size=128e6,
        taccl_restarts=1,
        topologies=fig15_heterogeneous.default_topologies()[:2],
    ),
    "table05": lambda: table05_multinode.run(
        node_counts=(2,), collective_size=64e6, taccl_restarts=1
    ),
    "fig16a": lambda: fig16_themis.run_bandwidth_sweep(
        side=2, collective_sizes=(64e6, 1e9), themis_high_chunks=8
    ),
    "fig16a-config": lambda: fig16_themis.run_bandwidth_sweep(
        side=2,
        collective_sizes=(64e6,),
        themis_high_chunks=8,
        synthesis_config=SynthesisConfig(trials=2, seed=5),
    ),
    "fig16b": lambda: fig16_themis.run_utilization(
        side=2, collective_size=64e6, num_samples=20
    ),
    "fig17a": lambda: fig17_multitree_ccube.run_multitree_comparison(
        side=3, collective_sizes=(1e6, 16e6), chunks_per_npu=2
    ),
    "fig17b": lambda: fig17_multitree_ccube.run_ccube_comparison(collective_sizes=(256e6,)),
    "fig18": lambda: fig18_asymmetric_utilization.run(
        collective_size=128e6,
        chunks_per_npu=1,
        num_samples=20,
        topologies=fig18_asymmetric_utilization.default_topologies(
            torus_side=2, mesh_side=3, hypercube_side=2
        ),
    ),
    "fig19": lambda: fig19_scalability.run(
        mesh_sides=(2, 3), hypercube_sides=(2,), collective_size=16e6, taccl_restarts=1
    ),
    "fig20": lambda: fig20_end_to_end.run(small_nodes=2, large_nodes=2, chunks_per_npu=1),
    "fig20-config": lambda: fig20_end_to_end.run(
        algorithms=("TACOS",),
        small_nodes=2,
        large_nodes=2,
        synthesis_config=SynthesisConfig(trials=2, seed=3),
    ),
    "fig21": lambda: fig21_breakdown.run(torus_dims=(2, 2, 2), chunks_per_npu=1),
}

PINS: Dict[str, str] = {
    "fig01": "cdca072a41bf69aba640bf46182e2a20aea4cce2c8fd710de1ee5eba17d59099",
    "fig02a": "b4fa3753c8dc7d225a409126eb70c5b5b6943f1d713d12d99f59752167fddc4c",
    "fig02b": "568379cd33711b1f4acf6c2be2bf53602fb5c74de2462221c22ebe0768d20e5a",
    "fig10": "381ae2c049b8e0c1e0d157d7f266560bdf561026d3c4961d6d2b0bb16e29cbc2",
    "fig10-config": "180abf2c1bcf2b5a7ea06ce1585a2577e295a12ab726f9e06e215ee6e121fead",
    "fig14": "68819aa5997d38fcc0085d18a836d5177f1127030ff3ce96eb39bb1f3d890a01",
    "fig15": "677a63a8a1f3c7f2a14cb6f638175c2738b41c1950926e5b3435f903fbe22e9d",
    "fig16a": "d25e50d5066f778bdbb486329b2e86621582ac70556d9fd0ea256a409a7156fb",
    "fig16a-config": "e98ee1fdae49ba01a3a3f057ff9c253fb7395608c81488462616cd27830fa3df",
    "fig16b": "7676e003969463abb5599ed8e75142c9ca8a5e2e9614775a9e6d01c52d028c7b",
    "fig17a": "901647d9e6235a2862b20cda4ca9af447e7bb4bb48b5c18261fbc7e206125501",
    "fig17b": "43a8451e9e2eb8f3250266c642d79c1b756fd6107465b965370f2cb5d8a6fd49",
    "fig18": "cc6b3836afe6d0709b558da97669407659f9cb88a7cce07c6f95ffc57cf001ad",
    "fig19": "5ac849cdcbcea07804696abdc2314e2c166a3bcb0b85526efed21b42e333370e",
    "fig20": "e489af147ae30640507387b8d72a59575701e67e3abcdf3718401ac056a1695f",
    "fig20-config": "977756e184645a80846fe9bae78d581fe52ee69ac434bf9eb129e1fd2ffcdc7a",
    "fig21": "9602893a324b8071b90f0fbf3d414e609c569fea9a14f84966e3d011e5d85517",
    "table05": "1399b3d9c272cff4efe867a8e6ccd1340d2ea5ba1074e3e0399a61540047e8aa",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_experiment_output_is_pinned(case):
    assert output_digest(CASES[case]()) == PINS[case]


def test_wall_clock_fields_do_not_enter_the_digest():
    point = fig19_scalability.ScalabilityPoint("2D Mesh", 4, 0.25, "TACOS")
    later = dataclasses.replace(point, synthesis_seconds=0.5)
    assert output_digest(point) == output_digest(later)
    assert output_digest(point) != output_digest(dataclasses.replace(point, num_npus=9))

"""Golden winner digests: fixed-seed syntheses keep their exact bytes.

Each case pins the SHA-256 of the winner's
:meth:`~repro.core.transfers.TransferTable.to_bytes`.  The equivalence
suites compare two live paths with each other; these digests compare the
live path with its own earlier output, so an exact fast path that changes
both sides alike (say the flat engine and the blockwise prefilter together)
still shows up.  A digest may change only with a deliberate behaviour
revision, never with an optimization.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import AlgorithmSpec, build_algorithm_artifact
from repro.collectives import AllReduce, Gather
from repro.topology import build_3d_rfs, build_mesh_2d

MB = 1e6

# (name, topology, pattern, size, algorithm, SHA-256 of the winner's table bytes)
GOLDEN = [
    # rfs128-ar's system: the cheap-link deferral in the block prefilter.
    (
        "rfs2x4x16-all_reduce-tacos-seed0",
        lambda: build_3d_rfs(2, 4, 16),
        AllReduce,
        256 * MB,
        AlgorithmSpec("tacos", {"seed": 0}),
        "7aa42cb5a0dcff345b8a8e56e0b36531a899cdb75fbc982633b70dc9357f9dd4",
    ),
    (
        "rfs2x4x8-all_reduce-guided-t8",
        lambda: build_3d_rfs(2, 4, 8),
        AllReduce,
        64 * MB,
        AlgorithmSpec("guided", {"trials": 8}),
        "0f372a9fa1ba74bbe59a97a98a6ff2cf10d7e49514b3b65901354768ba070089",
    ),
    # search-gather's search: the forwarding pass and incumbent pruning.
    (
        "mesh6x6-gather-guided-t32",
        lambda: build_mesh_2d(6, 6),
        Gather,
        4 * MB,
        AlgorithmSpec("guided", {"trials": 32}),
        "ea0a45abe3e541821ff23017d0efec73bb400695a4e148f55a48ece7becf5ddb",
    ),
]


@pytest.mark.parametrize(
    "topology_factory,pattern_cls,size,spec,digest",
    [case[1:] for case in GOLDEN],
    ids=[case[0] for case in GOLDEN],
)
def test_winner_bytes_match_golden_digest(topology_factory, pattern_cls, size, spec, digest):
    topology = topology_factory()
    algorithm = build_algorithm_artifact(
        spec, topology, pattern_cls(topology.num_npus), size
    ).algorithm
    assert hashlib.sha256(algorithm.table.to_bytes()).hexdigest() == digest

"""Batched pair activation == the scalar promotion loop, every round.

:meth:`MatchingState.activate_until` promotes large batches of due
acquisitions in one numpy pass over the TEN's out-neighbour CSR, writing
``_pair_state`` through a ``np.frombuffer`` view.  For every round of seeded
trials, these tests replay the same activation on a copy of the state with
the scalar loop (no CSR) and require identical ``_pair_state`` bytes,
``_held`` flags and remaining activation heap — on batches both above and
below :data:`~repro.core.matching._BATCH_ACTIVATION_MIN`.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.collectives import AllGather, Gather
from repro.core import SynthesisConfig, TacosSynthesizer, matching
from repro.core.matching import MatchingState
from repro.topology import build_3d_rfs, build_mesh_2d

MB = 1e6

_original_activate = MatchingState.activate_until


def _snapshot(state: MatchingState) -> MatchingState:
    clone = copy.copy(state)
    clone._pair_state = bytearray(state._pair_state)
    clone._held = state._held.copy()
    clone._activations = list(state._activations)
    return clone


@pytest.fixture
def checked_activation(monkeypatch):
    """Check every activation against the scalar loop; return the batch sizes."""
    batch_sizes = []

    def checked(self, time, out_adjacency, out_csr=None):
        assert out_csr is not None  # the matching round supplies the CSR
        scalar = _snapshot(self)
        threshold = time + matching._TIME_EPS
        batch_sizes.append(sum(1 for entry in self._activations if entry[0] <= threshold))
        _original_activate(scalar, time, out_adjacency)
        _original_activate(self, time, out_adjacency, out_csr)
        assert bytes(self._pair_state) == bytes(scalar._pair_state)
        np.testing.assert_array_equal(self._held, scalar._held)
        assert sorted(self._activations) == sorted(scalar._activations)

    monkeypatch.setattr(MatchingState, "activate_until", checked)
    return batch_sizes


# (name, topology, pattern, size, whether some rounds fall below the threshold)
CASES = [
    # Every round activates a multiple of the 32 NPUs: always batched.
    ("rfs2x4x4-all_gather", lambda: build_3d_rfs(2, 4, 4), AllGather, 64 * MB, False),
    # Rooted Gather trickles in: mostly scalar rounds, a few batched ones.
    ("mesh6x6-gather", lambda: build_mesh_2d(6, 6), Gather, 4 * MB, True),
]


@pytest.mark.parametrize(
    "topology_factory,pattern_cls,size,has_small_batches",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_batched_promotion_matches_scalar(
    checked_activation, topology_factory, pattern_cls, size, has_small_batches, seed
):
    topology = topology_factory()
    TacosSynthesizer(SynthesisConfig(seed=seed, trials=2)).synthesize(
        topology, pattern_cls(topology.num_npus), collective_size=size
    )
    batches = [count for count in checked_activation if count]
    assert any(count >= matching._BATCH_ACTIVATION_MIN for count in batches)
    small = any(count < matching._BATCH_ACTIVATION_MIN for count in batches)
    assert small == has_small_batches


@pytest.mark.parametrize("threshold", [1, 10**9])
def test_output_independent_of_batch_threshold(monkeypatch, threshold):
    topology = build_3d_rfs(2, 4, 4)
    pattern = AllGather(topology.num_npus)
    default = TacosSynthesizer(SynthesisConfig(seed=3)).synthesize(topology, pattern, 64 * MB)
    monkeypatch.setattr(matching, "_BATCH_ACTIVATION_MIN", threshold)
    forced = TacosSynthesizer(SynthesisConfig(seed=3)).synthesize(topology, pattern, 64 * MB)
    assert forced.table.to_bytes() == default.table.to_bytes()

"""Fixed-seed determinism guarantees of the synthesis core.

These tests guard the array-backed refactor (and any future one) against
accidental RNG-order changes: the same ``SynthesisConfig`` must produce
byte-identical algorithms run after run, on homogeneous and heterogeneous
topologies alike, and the serial and parallel trial paths must agree.
"""

import pytest

from repro.api.parallel import execution_scope
from repro.collectives import AllGather, AllReduce, Gather
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.topology import build_dgx1, build_mesh_2d, build_ring

MB = 1e6


def _synthesize(topology, pattern, config):
    return TacosSynthesizer(config).synthesize(topology, pattern, 4 * MB)


TOPOLOGY_CASES = [
    ("ring", lambda: build_ring(8)),
    ("mesh", lambda: build_mesh_2d(3, 3)),
    ("dgx1", lambda: build_dgx1()),
    # Two-tier DGX-1: heterogeneous, exercises the cheap-region deferrals.
    ("dgx1-hetero", lambda: build_dgx1(heterogeneous=True)),
]


class TestFixedSeedDeterminism:
    @pytest.mark.parametrize("name,builder", TOPOLOGY_CASES, ids=[c[0] for c in TOPOLOGY_CASES])
    def test_all_gather_transfers_are_identical_across_runs(self, name, builder):
        config = SynthesisConfig(seed=11)
        pattern = AllGather(builder().num_npus)
        first = _synthesize(builder(), pattern, config)
        second = _synthesize(builder(), pattern, config)
        assert first.transfers == second.transfers
        assert first.collective_time == second.collective_time

    @pytest.mark.parametrize("name,builder", TOPOLOGY_CASES, ids=[c[0] for c in TOPOLOGY_CASES])
    def test_all_reduce_transfers_are_identical_across_runs(self, name, builder):
        config = SynthesisConfig(seed=3, trials=2)
        pattern = AllReduce(builder().num_npus)
        first = _synthesize(builder(), pattern, config)
        second = _synthesize(builder(), pattern, config)
        assert first.transfers == second.transfers
        assert first.collective_time == second.collective_time

    def test_forwarding_pattern_is_deterministic(self):
        config = SynthesisConfig(seed=5)
        topology = build_ring(6)
        first = _synthesize(topology, Gather(6, root=2), config)
        second = _synthesize(topology, Gather(6, root=2), config)
        assert first.transfers == second.transfers

    def test_different_seeds_may_differ_but_stay_deterministic(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllGather(9)
        by_seed = {
            seed: _synthesize(topology, pattern, SynthesisConfig(seed=seed)).transfers
            for seed in (0, 1)
        }
        again = _synthesize(topology, pattern, SynthesisConfig(seed=1)).transfers
        assert by_seed[1] == again

    def test_parallel_trials_select_the_same_algorithm_as_serial(self):
        topology = build_mesh_2d(3, 3)
        pattern = AllReduce(9)
        config = SynthesisConfig(seed=2, trials=4)
        serial = _synthesize(topology, pattern, config)
        with execution_scope(workers=4):
            parallel = _synthesize(topology, pattern, config)
        assert serial.transfers == parallel.transfers
        assert serial.collective_time == parallel.collective_time

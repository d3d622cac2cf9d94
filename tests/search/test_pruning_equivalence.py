"""Incumbent pruning and floor termination are exact — property suite.

The determinism contract (docs/determinism.md, "Incumbent pruning is
exact"): over the *same seed list*, the guided mechanisms select a winner
byte-identical to the uniform search — on arbitrary topologies, with any
execution backend, and on ties.  The frozen reference here is the plain
``TacosSynthesizer`` with every guided knob off.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives import AllGather, AllReduce, Gather
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.topology import build_mesh, build_ring
from tests.conftest import random_connected_topology

_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _winner_bytes(topology, pattern, size, **config_kwargs):
    config = SynthesisConfig(**config_kwargs)
    result = TacosSynthesizer(config).synthesize_with_stats(topology, pattern, size)
    return result.algorithm.table.to_bytes(), result.algorithm.collective_time


_PRUNING_VARIANTS = (
    {"incumbent_pruning": True},
    {"incumbent_pruning": True, "floor_termination": True},
)


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=7),
    extra_links=st.integers(min_value=0, max_value=6),
    heterogeneous=st.booleans(),
    seed=st.integers(min_value=0, max_value=500),
    trials=st.integers(min_value=1, max_value=5),
)
def test_all_gather_winner_is_pruning_invariant(
    num_npus, extra_links, heterogeneous, seed, trials
):
    rng = random.Random(seed)
    topology = random_connected_topology(
        num_npus, rng, extra_links=extra_links, heterogeneous=heterogeneous
    )
    pattern = AllGather(num_npus)
    reference = _winner_bytes(topology, pattern, 2e6, seed=seed, trials=trials)
    for variant in _PRUNING_VARIANTS:
        assert _winner_bytes(
            topology, pattern, 2e6, seed=seed, trials=trials, **variant
        ) == reference


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=6),
    extra_links=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
    trials=st.integers(min_value=1, max_value=4),
)
def test_gather_winner_is_pruning_invariant(num_npus, extra_links, seed, trials):
    # Gather exercises the forwarding path, whose bound components
    # (hop-distance chain, work conservation) do the heavy lifting.
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=extra_links)
    pattern = Gather(num_npus)
    reference = _winner_bytes(topology, pattern, 2e6, seed=seed, trials=trials)
    for variant in _PRUNING_VARIANTS:
        assert _winner_bytes(
            topology, pattern, 2e6, seed=seed, trials=trials, **variant
        ) == reference


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=5),
    extra_links=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=500),
)
def test_all_reduce_winner_is_pruning_invariant(num_npus, extra_links, seed):
    # All-Reduce composes two phase searches; the floor fires per phase.
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=extra_links)
    pattern = AllReduce(num_npus)
    reference = _winner_bytes(topology, pattern, 2e6, seed=seed, trials=3)
    for variant in _PRUNING_VARIANTS:
        assert _winner_bytes(
            topology, pattern, 2e6, seed=seed, trials=3, **variant
        ) == reference


class TestTieBreaking:
    """Ties resolve by seed index — the pruning proof's load-bearing clause."""

    def test_symmetric_ring_tie_goes_to_first_seed(self):
        # On a homogeneous ring every All-Gather trial lands on the same
        # (bandwidth-optimal) collective time: an N-way tie.  The strict-<
        # scan keeps the first seed, with or without pruning.
        topology = build_ring(8)
        pattern = AllGather(8)
        results = {}
        for label, variant in (
            ("off", {}),
            ("prune", {"incumbent_pruning": True}),
            ("floor", {"incumbent_pruning": True, "floor_termination": True}),
        ):
            config = SynthesisConfig(seed=0, trials=5, **variant)
            result = TacosSynthesizer(config).synthesize_with_stats(
                topology, pattern, 4e6
            )
            results[label] = result
            assert result.algorithm.metadata["seed"] == 0
        times = {r.algorithm.collective_time for r in results.values()}
        assert len(times) == 1
        tables = {r.algorithm.table.to_bytes() for r in results.values()}
        assert len(tables) == 1
        # The floor variant proves the tie was skipped, not re-run.
        assert results["floor"].full_trials < results["off"].full_trials

    def test_floor_skip_records_every_seed(self):
        config = SynthesisConfig(
            seed=0, trials=5, incumbent_pruning=True, floor_termination=True
        )
        result = TacosSynthesizer(config).synthesize_with_stats(
            build_ring(8), AllGather(8), 4e6
        )
        assert [stats["seed"] for stats in result.trial_stats] == list(range(5))
        skipped = [s for s in result.trial_stats if s["pruned_at_round"] == 0]
        assert skipped  # the ring floor fires on trial 0
        for stats in skipped:
            assert stats["collective_time"] is None
            assert stats["rounds"] == 0


@pytest.mark.backend_equivalence
class TestBackendEquivalence:
    """Pruned winners are byte-identical across every execution backend."""

    SIZE = 2e6

    @pytest.fixture(scope="class")
    def reference(self):
        topology = build_mesh([3, 3])
        pattern = Gather(9)
        algorithm = TacosSynthesizer(SynthesisConfig(seed=1, trials=6)).synthesize(
            topology, pattern, self.SIZE
        )
        return topology, pattern, algorithm.table.to_bytes()

    @pytest.mark.parametrize("execution", ["serial", "pool"])
    def test_pruned_winner_matches_reference(self, execution, reference):
        topology, pattern, expected = reference
        config = SynthesisConfig(
            seed=1,
            trials=6,
            trial_workers=2,
            execution=execution,
            incumbent_pruning=True,
            floor_termination=True,
        )
        result = TacosSynthesizer(config).synthesize_with_stats(
            topology, pattern, self.SIZE
        )
        assert result.algorithm.table.to_bytes() == expected
        assert len(result.trial_stats) == 6
        # Two pool workers run waves of four seeds.  The floor is not met in
        # the first wave, so the second runs against the first's incumbent.
        assert result.trial_stats[4]["pruned_at_round"] != 0

    def test_wave_floor_skip_matches_serial_stats(self, reference):
        # A tied ring search under waves: the floor fires after the first
        # wave and the remaining seeds are skipped with the same bookkeeping
        # the serial path records.
        topology, pattern = build_ring(8), AllGather(8)

        def stats_for(backend):
            config = SynthesisConfig(
                seed=0,
                trials=6,
                trial_workers=2,
                execution=backend,
                incumbent_pruning=True,
                floor_termination=True,
            )
            return TacosSynthesizer(config).synthesize_with_stats(
                topology, pattern, self.SIZE
            )

        serial = stats_for("serial")
        parallel = stats_for("pool")
        assert (
            parallel.algorithm.table.to_bytes() == serial.algorithm.table.to_bytes()
        )
        assert [s["seed"] for s in parallel.trial_stats] == [
            s["seed"] for s in serial.trial_stats
        ]
        # Waves may complete more trials than the serial scan before the
        # floor check, but both must skip a non-empty tail.
        assert any(s["pruned_at_round"] == 0 for s in parallel.trial_stats)

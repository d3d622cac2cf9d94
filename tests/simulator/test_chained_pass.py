"""The level-synchronous chained pass == the FCFS event loop, byte for byte.

:meth:`CongestionAwareSimulator._execute_chained` replaces the event loop on
contention-free workloads (one-hop routes, ``alpha >= 0``, per-link
dependency chains).  These tests pin three things:

* wherever the pass runs, ``SimulationResult.to_bytes()`` and
  ``message_completion`` equal both the event loop's (the pass disabled by
  monkeypatching it to return ``None``) and the frozen
  :class:`~repro.bench.reference.ReferenceSimulator`'s;
* every violated precondition — and a dependency cycle — falls back to the
  event loop, which reports the same result or error;
* the pass *is* taken on the paper's 128-NPU All-Reduce, so a silent
  fallback cannot pass for a speedup.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import rhd_all_reduce, ring_all_reduce
from repro.bench.reference import ReferenceSimulator, reference_algorithm_to_messages
from repro.collectives import AllGather, AllReduce, AllToAll, Gather, ReduceScatter, Scatter
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.errors import SimulationError
from repro.simulator import (
    CongestionAwareSimulator,
    schedule_to_flat_workload,
    simulate_algorithm,
    simulate_schedule,
)
from repro.topology import Topology, build_3d_rfs, build_mesh_2d
from tests.conftest import random_connected_topology

MB = 1e6

_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

_COLLECTIVES = {
    "all_gather": AllGather,
    "all_reduce": AllReduce,
    "reduce_scatter": ReduceScatter,
    "gather": Gather,
    "scatter": Scatter,
    "all_to_all": AllToAll,
}

_NON_PERSONALIZED = {"all_gather", "all_reduce", "reduce_scatter"}

_original_chained = CongestionAwareSimulator._execute_chained


@pytest.fixture
def chained_calls(monkeypatch):
    """Record, per simulation, whether the chained pass produced the result."""
    calls = []

    def spy(*args):
        outcome = _original_chained(*args)
        calls.append(outcome is not None)
        return outcome

    monkeypatch.setattr(CongestionAwareSimulator, "_execute_chained", staticmethod(spy))
    return calls


def _event_loop_only(monkeypatch):
    monkeypatch.setattr(
        CongestionAwareSimulator, "_execute_chained", staticmethod(lambda *args: None)
    )


def _asymmetric_topology(rng: random.Random, num_npus: int, latency_links: int) -> Topology:
    """Random directed topology; ``latency_links`` of its links have ``beta == 0``."""
    base = random_connected_topology(num_npus, rng, extra_links=num_npus, heterogeneous=True)
    keys = list(base.link_keys())
    pure_latency = set(rng.sample(range(len(keys)), min(latency_links, len(keys))))
    topology = Topology(num_npus, name=f"Asymmetric({num_npus})")
    for index, link in enumerate(base.links()):
        if index in pure_latency:
            topology.add_link(link.source, link.dest, alpha=link.alpha * 2, beta=0.0)
        else:
            topology.add_link(link.source, link.dest, alpha=link.alpha, beta=link.beta)
    return topology


def _rfs_topology(rng: random.Random) -> Topology:
    bandwidths = (rng.choice([200.0, 150.0]), rng.choice([100.0, 75.0]), rng.choice([50.0, 25.0]))
    return build_3d_rfs(2, rng.choice([2, 4]), rng.choice([2, 3]), bandwidths_gbps=bandwidths)


def _assert_same_as_event_loop_and_reference(monkeypatch, topology, algorithm):
    fast = simulate_algorithm(topology, algorithm)
    with monkeypatch.context() as patch:
        _event_loop_only(patch)
        loop = simulate_algorithm(topology, algorithm)
    reference = ReferenceSimulator(topology).run(
        reference_algorithm_to_messages(algorithm), collective_size=algorithm.collective_size
    )
    assert fast.to_bytes() == loop.to_bytes()
    assert fast.message_completion == loop.message_completion
    # The reference engine's per-link dicts are keyed in first-use order,
    # so it is compared field by field, as in test_reference_equivalence.
    assert fast.message_completion == reference.message_completion
    assert fast.completion_time == reference.completion_time
    assert fast.link_bytes == reference.link_bytes
    assert fast.link_busy_intervals == reference.link_busy_intervals


class TestEquivalence:
    @_settings
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        family=st.sampled_from(["rfs", "asymmetric"]),
        collective=st.sampled_from(sorted(_COLLECTIVES)),
        latency_links=st.integers(min_value=0, max_value=3),
    )
    def test_synthesized_algorithms_byte_identical(
        self, monkeypatch, seed, family, collective, latency_links
    ):
        rng = random.Random(seed)
        if family == "rfs":
            topology = _rfs_topology(rng)
        else:
            topology = _asymmetric_topology(rng, rng.randint(4, 8), latency_links)
        pattern = _COLLECTIVES[collective](topology.num_npus)
        # The Sec. IV-F cheap-link deferral can stall personalized patterns
        # on heterogeneous topologies (a synthesis limitation, not a
        # simulator one), so those run without it.
        config = SynthesisConfig(
            seed=seed, prefer_lowest_cost_links=collective in _NON_PERSONALIZED
        )
        algorithm = TacosSynthesizer(config).synthesize(
            topology, pattern, collective_size=rng.choice([1, 8, 64]) * MB
        )
        _assert_same_as_event_loop_and_reference(monkeypatch, topology, algorithm)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heterogeneous_rfs_takes_the_pass(self, monkeypatch, chained_calls, seed):
        topology = build_3d_rfs(2, 4, 4)
        algorithm = TacosSynthesizer(SynthesisConfig(seed=seed)).synthesize(
            topology, AllReduce(topology.num_npus), collective_size=64 * MB
        )
        _assert_same_as_event_loop_and_reference(monkeypatch, topology, algorithm)
        assert chained_calls[0] is True

    def test_pure_latency_links_take_the_pass(self, monkeypatch, chained_calls):
        # beta == 0: serialization ends where it starts, so each successor on
        # a link starts exactly at its predecessor's arrival (alpha later).
        topology = Topology(3, name="latency-triangle")
        topology.add_link(0, 1, alpha=1e-6, beta=0.0)
        topology.add_link(1, 2, alpha=2e-6, beta=0.0)
        topology.add_link(2, 0, alpha=1e-6, bandwidth_gbps=50.0)
        sources, dests = [0, 0, 1, 2, 0], [1, 1, 2, 0, 1]
        # Link 0 -> 1 carries messages 0, 1, 4: each depends on the previous.
        dep_indptr, dep_indices = [0, 0, 1, 2, 3, 5], [0, 1, 2, 1, 3]
        fast = CongestionAwareSimulator(topology).run_flat(
            sources, dests, 1 * MB, dep_indptr, dep_indices
        )
        assert chained_calls == [True]
        with monkeypatch.context() as patch:
            _event_loop_only(patch)
            loop = CongestionAwareSimulator(topology).run_flat(
                sources, dests, 1 * MB, dep_indptr, dep_indices
            )
        assert fast.to_bytes() == loop.to_bytes()


class TestFallback:
    def test_multi_hop_route(self, chained_calls):
        topology = build_mesh_2d(3, 3)
        # 0 -> 8 crosses the mesh: four hops.
        CongestionAwareSimulator(topology).run_flat([0, 0], [8, 1], 1 * MB, [0, 0, 1], [0])
        assert chained_calls == [False]

    def test_missing_link_predecessor_dependency(self, chained_calls, monkeypatch):
        topology = build_mesh_2d(2, 2)
        # Both messages use link 0 -> 1 and neither depends on the other, so
        # they contend and the FCFS queue decides the second one's start.
        columns = ([0, 0], [1, 1], 1 * MB, [0, 0, 0], [])
        fast = CongestionAwareSimulator(topology).run_flat(*columns)
        assert chained_calls == [False]
        with monkeypatch.context() as patch:
            _event_loop_only(patch)
            loop = CongestionAwareSimulator(topology).run_flat(*columns)
        assert fast.to_bytes() == loop.to_bytes()
        starts, ends = fast.busy_columns()[(0, 1)]
        assert starts[1] == ends[0]  # queued behind the first message

    def test_dependency_on_a_non_predecessor_is_not_enough(self, chained_calls):
        topology = build_mesh_2d(2, 2)
        # Messages 0, 1, 2 share link 0 -> 1; message 2 depends on 0 but not
        # on its link predecessor 1.
        CongestionAwareSimulator(topology).run_flat(
            [0, 0, 0], [1, 1, 1], 1 * MB, [0, 0, 1, 2], [0, 0]
        )
        assert chained_calls == [False]

    @pytest.mark.parametrize(
        "schedule",
        [ring_all_reduce(16, 16 * MB), rhd_all_reduce(16, 16 * MB)],
        ids=["ring", "rhd"],
    )
    def test_logical_schedules(self, chained_calls, schedule):
        topology = build_mesh_2d(4, 4)
        result = simulate_schedule(topology, schedule)
        assert chained_calls == [False]
        workload = schedule_to_flat_workload(schedule)
        reference = CongestionAwareSimulator(topology).run_flat(
            workload.sources,
            workload.dests,
            workload.size,
            workload.dep_indptr,
            workload.dep_indices,
            collective_size=schedule.collective_size,
        )
        assert result.to_bytes() == reference.to_bytes()

    def test_dependency_cycle_raises_the_event_loop_error(self, chained_calls, monkeypatch):
        topology = build_mesh_2d(2, 2)
        # 0 -> 1 and 1 -> 0 wait on each other; message 2 is free.
        columns = ([0, 1, 2], [1, 0, 3], 1 * MB, [0, 1, 2, 2], [1, 0])
        with pytest.raises(SimulationError) as fast:
            CongestionAwareSimulator(topology).run_flat(*columns)
        assert chained_calls == [False]
        with monkeypatch.context() as patch:
            _event_loop_only(patch)
            with pytest.raises(SimulationError) as loop:
                CongestionAwareSimulator(topology).run_flat(*columns)
        assert str(fast.value) == str(loop.value)
        assert "never became ready (dependency cycle?)" in str(fast.value)


def test_rfs128_all_reduce_takes_the_pass(monkeypatch, chained_calls):
    """The paper's largest Table V system: the speedup path must be the pass."""
    topology = build_3d_rfs(2, 4, 16)
    algorithm = TacosSynthesizer(SynthesisConfig(seed=1)).synthesize(
        topology, AllReduce(topology.num_npus), collective_size=256 * MB
    )
    fast = simulate_algorithm(topology, algorithm)
    assert chained_calls == [True]
    with monkeypatch.context() as patch:
        _event_loop_only(patch)
        loop = simulate_algorithm(topology, algorithm)
    assert fast.to_bytes() == loop.to_bytes()

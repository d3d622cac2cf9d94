"""Byte-identical equivalence between the array-backed simulator and the
frozen pre-refactor :class:`~repro.bench.reference.ReferenceSimulator`.

The array engine's acceptance criterion: fixed message workloads must produce
*exactly* the same ``message_completion`` map, completion time, link bytes,
and busy intervals as the dict-keyed engine it replaced — no tolerance."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import direct_all_reduce, rhd_all_reduce, ring_all_reduce
from repro.bench.reference import (
    Message,
    ReferenceSimulator,
    reference_algorithm_to_messages,
    reference_schedule_to_messages,
)
from repro.collectives import AllGather, AllReduce
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.simulator import CongestionAwareSimulator
from repro.topology import (
    build_dgx1,
    build_mesh_2d,
    build_ring,
    build_switch,
)
from tests.conftest import random_connected_topology, run_messages

MB = 1e6

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_identical(topology, messages):
    flat = run_messages(CongestionAwareSimulator(topology), messages)
    reference = ReferenceSimulator(topology).run(messages)
    assert flat.message_completion == reference.message_completion
    assert flat.completion_time == reference.completion_time
    assert flat.link_bytes == reference.link_bytes
    assert flat.link_busy_intervals == reference.link_busy_intervals


SYNTHESIS_CASES = [
    ("ring8", lambda: build_ring(8), lambda n: AllGather(n)),
    ("mesh3x3", lambda: build_mesh_2d(3, 3), lambda n: AllReduce(n)),
    ("switch8", lambda: build_switch(8), lambda n: AllGather(n)),
    ("dgx1", lambda: build_dgx1(), lambda n: AllReduce(n)),
    ("dgx1-hetero", lambda: build_dgx1(heterogeneous=True), lambda n: AllReduce(n)),
]


class TestSynthesizedWorkloads:
    @pytest.mark.parametrize(
        "name,topology_factory,pattern_factory",
        SYNTHESIS_CASES,
        ids=[case[0] for case in SYNTHESIS_CASES],
    )
    def test_fixed_seed_tacos_algorithm_identical(self, name, topology_factory, pattern_factory):
        topology = topology_factory()
        pattern = pattern_factory(topology.num_npus)
        algorithm = TacosSynthesizer(SynthesisConfig(seed=41)).synthesize(
            topology, pattern, 4 * MB
        )
        assert_identical(topology, reference_algorithm_to_messages(algorithm))


class TestLogicalScheduleWorkloads:
    @pytest.mark.parametrize(
        "builder",
        [ring_all_reduce, direct_all_reduce, rhd_all_reduce],
        ids=["ring", "direct", "rhd"],
    )
    def test_logical_all_reduce_on_mesh_identical(self, builder):
        topology = build_mesh_2d(4, 4)
        schedule = builder(topology.num_npus, 4 * MB)
        assert_identical(topology, reference_schedule_to_messages(schedule))

    def test_multi_chunk_direct_identical(self):
        topology = build_mesh_2d(3, 3)
        # 9 NPUs is not a power of two, so exercise Direct with sub-chunking.
        schedule = direct_all_reduce(9, 4 * MB, chunks_per_npu=3)
        assert_identical(topology, reference_schedule_to_messages(schedule))

    def test_routing_message_size_override_identical(self):
        topology = build_mesh_2d(3, 3)
        messages = reference_schedule_to_messages(ring_all_reduce(9, 4 * MB))
        flat = run_messages(CongestionAwareSimulator(topology, routing_message_size=1.0), messages)
        reference = ReferenceSimulator(topology, routing_message_size=1.0).run(messages)
        assert flat.message_completion == reference.message_completion


def _random_dag_messages(topology, rng, count):
    """Random multi-hop workload with a random dependency DAG."""
    messages = []
    for index in range(count):
        source = rng.randrange(topology.num_npus)
        dest = rng.randrange(topology.num_npus)
        while dest == source:
            dest = rng.randrange(topology.num_npus)
        depends_on = frozenset(dep for dep in range(index) if rng.random() < 0.15)
        messages.append(
            Message(
                message_id=index,
                source=source,
                dest=dest,
                size=rng.choice([1e3, 1e5, 1e6, 4e6]),
                chunk=index,
                depends_on=depends_on,
            )
        )
    return messages


class TestPropertyEquivalence:
    @_settings
    @given(
        num_npus=st.integers(min_value=2, max_value=8),
        count=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_dag_workloads_agree(self, num_npus, count, seed):
        rng = random.Random(seed)
        topology = random_connected_topology(num_npus, rng, extra_links=4)
        messages = _random_dag_messages(topology, rng, count)
        assert_identical(topology, messages)

    @_settings
    @given(
        num_npus=st.integers(min_value=2, max_value=7),
        count=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_heterogeneous_random_workloads_agree(self, num_npus, count, seed):
        rng = random.Random(seed)
        topology = random_connected_topology(num_npus, rng, extra_links=3, heterogeneous=True)
        messages = _random_dag_messages(topology, rng, count)
        assert_identical(topology, messages)

"""Property-based tests for the congestion-aware simulator."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import ring_all_reduce
from repro.collectives import (
    AllGather,
    AllReduce,
    AllToAll,
    Broadcast,
    Gather,
    Reduce,
    ReduceScatter,
    Scatter,
)
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.simulator import CongestionAwareSimulator, Message, simulate_algorithm, simulate_schedule
from repro.topology import build_hypercube_3d, build_mesh_2d, build_ring, build_torus_2d
from tests.conftest import random_connected_topology

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _random_messages(topology, rng, count):
    messages = []
    for index in range(count):
        source = rng.randrange(topology.num_npus)
        dest = rng.randrange(topology.num_npus)
        while dest == source:
            dest = rng.randrange(topology.num_npus)
        depends_on = frozenset(
            dep for dep in range(index) if rng.random() < 0.1
        )
        messages.append(
            Message(
                message_id=index,
                source=source,
                dest=dest,
                size=rng.choice([1e3, 1e5, 1e6]),
                chunk=index,
                depends_on=depends_on,
            )
        )
    return messages


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=8),
    count=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_every_message_is_delivered_and_accounted(num_npus, count, seed):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=4)
    messages = _random_messages(topology, rng, count)
    result = CongestionAwareSimulator(topology).run(messages)

    # Every message completes, no earlier than its own minimum transmission time.
    assert set(result.message_completion) == {message.message_id for message in messages}
    for message in messages:
        direct = topology.shortest_path(message.source, message.dest, message.size)
        minimum = sum(
            topology.link(a, b).cost(message.size) for a, b in zip(direct, direct[1:])
        )
        assert result.message_completion[message.message_id] >= minimum - 1e-12

    # Byte conservation: bytes on links equal bytes injected times hops taken.
    total_link_bytes = sum(result.link_bytes.values())
    expected = 0.0
    for message in messages:
        route = topology.shortest_path(message.source, message.dest, message.size)
        expected += message.size * (len(route) - 1)
    assert abs(total_link_bytes - expected) < 1e-6

    # Completion time equals the last message completion.
    assert result.completion_time == max(result.message_completion.values())


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=8),
    count=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_busy_intervals_never_overlap(num_npus, count, seed):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=4, heterogeneous=True)
    messages = _random_messages(topology, rng, count)
    result = CongestionAwareSimulator(topology).run(messages)
    for intervals in result.link_busy_intervals.values():
        ordered = sorted(intervals)
        for (_, end_a), (start_b, _) in zip(ordered, ordered[1:]):
            assert start_b >= end_a - 1e-12


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dependencies_delay_dependents(num_npus, seed):
    # Note: asserting "a run with dependencies is never faster overall than
    # the same run without them" would be wrong — greedy FIFO link scheduling
    # is not monotone (a Graham-style anomaly: delaying one message can
    # reorder contention in everyone else's favour; observed up to ~33%).
    # What the simulator does guarantee is that a message cannot even start
    # before all of its dependencies have completed.
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=4)
    messages = _random_messages(topology, rng, 20)
    completion = CongestionAwareSimulator(topology).run(messages).message_completion
    for message in messages:
        if not message.depends_on:
            continue
        direct = topology.shortest_path(message.source, message.dest, message.size)
        minimum = sum(
            topology.link(a, b).cost(message.size) for a, b in zip(direct, direct[1:])
        )
        dependencies_done = max(completion[dep] for dep in message.depends_on)
        assert completion[message.message_id] >= dependencies_done + minimum - 1e-12


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_simulated_tacos_algorithm_matches_synthesized_time(num_npus, seed):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=4)
    algorithm = TacosSynthesizer(SynthesisConfig(seed=seed)).synthesize(
        topology, AllGather(num_npus), 4e6
    )
    result = simulate_algorithm(topology, algorithm)
    assert abs(result.completion_time - algorithm.collective_time) <= max(
        1e-12, algorithm.collective_time * 1e-9
    )


_OWN_TOPOLOGIES = {
    "mesh4x4": lambda: build_mesh_2d(4, 4),
    "torus4x4": lambda: build_torus_2d(4, 4),
    "ring8": lambda: build_ring(8),
    "hypercube2x2x3": lambda: build_hypercube_3d(2, 2, 3),
}

#: Collectives whose synthesized schedule has no slack for re-timing to remove.
_EXACT_RETIMING = {
    AllGather: True,
    ReduceScatter: True,
    AllReduce: True,
    Broadcast: True,
    Reduce: True,
    Gather: False,
    Scatter: False,
    AllToAll: False,
}


@pytest.mark.parametrize("pattern_cls", list(_EXACT_RETIMING), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("topology_name", sorted(_OWN_TOPOLOGIES))
def test_simulated_time_never_exceeds_synthesized_time(topology_name, pattern_cls):
    # The simulator re-times a TACOS algorithm on its own topology: each
    # transfer starts once its dependencies and its link predecessor are
    # done.  That can only remove slack, and on the non-personalized
    # collectives there is none to remove.
    topology = _OWN_TOPOLOGIES[topology_name]()
    pattern = pattern_cls(topology.num_npus)
    for seed in range(8):
        algorithm = TacosSynthesizer(SynthesisConfig(seed=seed)).synthesize(
            topology, pattern, 4e6
        )
        synthesized = algorithm.collective_time
        simulated = simulate_algorithm(topology, algorithm).completion_time
        assert simulated <= synthesized * (1 + 1e-9), (seed, simulated, synthesized)
        if _EXACT_RETIMING[pattern_cls]:
            assert simulated >= synthesized * (1 - 1e-9), (seed, simulated, synthesized)


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=10),
    scale=st.floats(min_value=1.5, max_value=10.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_collective_time_scales_monotonically_with_size(num_npus, scale, seed):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=3)
    base = simulate_schedule(topology, ring_all_reduce(num_npus, 8e6)).completion_time
    bigger = simulate_schedule(topology, ring_all_reduce(num_npus, 8e6 * scale)).completion_time
    assert bigger > base

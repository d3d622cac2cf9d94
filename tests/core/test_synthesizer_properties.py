"""Property-based tests: synthesized algorithms are correct on random topologies.

These are the strongest correctness guarantees in the suite: for arbitrary
strongly connected topologies (homogeneous and heterogeneous) and arbitrary
collective sizes, the TACOS synthesizer must produce algorithms that satisfy
every postcondition, respect causality, stay on physical links, and never put
two chunks on a link at the same time.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives import AllGather, AllReduce, Broadcast, ReduceScatter
from repro.core import SynthesisConfig, TacosSynthesizer, verify_algorithm
from tests.conftest import random_connected_topology

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=8),
    extra_links=st.integers(min_value=0, max_value=8),
    heterogeneous=st.booleans(),
    seed=st.integers(min_value=0, max_value=1_000),
    collective_size=st.floats(min_value=1e3, max_value=1e9),
)
def test_all_gather_is_always_correct(num_npus, extra_links, heterogeneous, seed, collective_size):
    rng = random.Random(seed)
    topology = random_connected_topology(
        num_npus, rng, extra_links=extra_links, heterogeneous=heterogeneous
    )
    pattern = AllGather(num_npus)
    synthesizer = TacosSynthesizer(SynthesisConfig(seed=seed))
    algorithm = synthesizer.synthesize(topology, pattern, collective_size)
    assert verify_algorithm(algorithm, topology, pattern)
    assert not algorithm.has_link_overlap()
    # Exactly one delivery per unsatisfied postcondition.
    assert algorithm.num_transfers == pattern.total_transfers_lower_bound()


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=7),
    extra_links=st.integers(min_value=0, max_value=6),
    heterogeneous=st.booleans(),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_reduce_scatter_is_always_correct(num_npus, extra_links, heterogeneous, seed):
    rng = random.Random(seed)
    topology = random_connected_topology(
        num_npus, rng, extra_links=extra_links, heterogeneous=heterogeneous
    )
    pattern = ReduceScatter(num_npus)
    algorithm = TacosSynthesizer(SynthesisConfig(seed=seed)).synthesize(topology, pattern, 4e6)
    assert verify_algorithm(algorithm, topology, pattern)


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=6),
    extra_links=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=1_000),
    chunks_per_npu=st.integers(min_value=1, max_value=2),
)
def test_all_reduce_is_always_correct(num_npus, extra_links, seed, chunks_per_npu):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=extra_links)
    pattern = AllReduce(num_npus, chunks_per_npu)
    algorithm = TacosSynthesizer(SynthesisConfig(seed=seed)).synthesize(topology, pattern, 8e6)
    assert verify_algorithm(algorithm, topology, pattern)


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=1_000),
    root=st.integers(min_value=0, max_value=7),
)
def test_broadcast_is_always_correct(num_npus, seed, root):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=3)
    pattern = Broadcast(num_npus, root=root % num_npus)
    algorithm = TacosSynthesizer(SynthesisConfig(seed=seed)).synthesize(topology, pattern, 1e6)
    assert verify_algorithm(algorithm, topology, pattern)


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_all_gather_never_beats_the_ingress_bound(num_npus, seed):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=4, heterogeneous=True)
    pattern = AllGather(num_npus)
    collective_size = 8e6
    algorithm = TacosSynthesizer(SynthesisConfig(seed=seed)).synthesize(
        topology, pattern, collective_size
    )
    # Every NPU must receive (n-1)/n of the buffer through its own incoming
    # links; no algorithm can beat the worst NPU's ingress serialization time.
    ingress_bound = max(
        collective_size * (num_npus - 1) / num_npus / topology.npu_ingress_bandwidth(npu)
        for npu in topology.npus
    )
    assert algorithm.collective_time >= ingress_bound - 1e-12


@_settings
@given(
    num_npus=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_synthesis_is_deterministic_for_a_seed(num_npus, seed):
    rng = random.Random(seed)
    topology = random_connected_topology(num_npus, rng, extra_links=4)
    config = SynthesisConfig(seed=seed)
    first = TacosSynthesizer(config).synthesize(topology, AllGather(num_npus), 2e6)
    second = TacosSynthesizer(config).synthesize(topology, AllGather(num_npus), 2e6)
    assert sorted(first.transfers) == sorted(second.transfers)

"""Flat columnar adapters vs the frozen object-path adapters.

The CSR derivation in :mod:`repro.simulator.adapters` must produce the exact
message order, endpoints, chunks, sizes and dependency sets of the
pre-refactor dict-of-list scans (frozen in :mod:`repro.bench.reference`),
compared column by column, and feeding those columns to ``run_flat`` must
yield byte-identical simulations."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import direct_all_reduce, rhd_all_reduce, ring_all_reduce
from repro.bench.reference import (
    ReferenceSimulator,
    reference_algorithm_to_messages,
    reference_schedule_to_messages,
)
from repro.collectives import AllGather, AllReduce, AllToAll, Broadcast, ReduceScatter
from repro.core import ChunkTransfer, CollectiveAlgorithm, SynthesisConfig, TacosSynthesizer
from repro.errors import SimulationError
from repro.simulator.adapters import (
    algorithm_to_flat_workload,
    schedule_to_flat_workload,
    simulate_algorithm,
    simulate_schedule,
)
from repro.simulator.engine import CongestionAwareSimulator
from repro.topology import build_dgx1, build_mesh_2d, build_ring
from tests.conftest import message_columns, run_messages

_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MB = 1e6


def assert_columns_match(workload, messages):
    """The flat workload equals the frozen adapter's messages, column by column."""
    sources, dests, sizes, dep_indptr, dep_indices = message_columns(messages)
    assert workload.sources.tolist() == sources
    assert workload.dests.tolist() == dests
    assert workload.chunks.tolist() == [message.chunk for message in messages]
    assert [workload.size] * len(messages) == sizes
    assert workload.dep_indptr.tolist() == dep_indptr
    # Within one message the dependency order is free; the sets must agree.
    flat = workload.dep_indices.tolist()
    for position in range(len(messages)):
        row = slice(dep_indptr[position], dep_indptr[position + 1])
        assert sorted(flat[row]) == dep_indices[row]


def _synthesized_cases():
    return [
        ("mesh3x3-ag", build_mesh_2d(3, 3), AllGather(9)),
        ("mesh3x3-ar", build_mesh_2d(3, 3), AllReduce(9)),
        ("mesh3x3-ar-c2", build_mesh_2d(3, 3), AllReduce(9, 2)),
        ("mesh3x3-rs", build_mesh_2d(3, 3), ReduceScatter(9)),
        ("mesh3x3-a2a", build_mesh_2d(3, 3), AllToAll(9)),
        ("mesh3x3-bc", build_mesh_2d(3, 3), Broadcast(9)),
        ("ring8-ag", build_ring(8), AllGather(8)),
        ("dgx1h-ar", build_dgx1(heterogeneous=True), AllReduce(8)),
    ]


@pytest.mark.parametrize(
    "name,topology,pattern", _synthesized_cases(), ids=[c[0] for c in _synthesized_cases()]
)
def test_algorithm_adapter_matches_frozen_reference(name, topology, pattern):
    algorithm = TacosSynthesizer(SynthesisConfig(seed=5)).synthesize(topology, pattern, 4 * MB)
    assert_columns_match(
        algorithm_to_flat_workload(algorithm), reference_algorithm_to_messages(algorithm)
    )


@pytest.mark.parametrize(
    "name,topology,pattern", _synthesized_cases(), ids=[c[0] for c in _synthesized_cases()]
)
def test_flat_simulation_is_byte_identical(name, topology, pattern):
    algorithm = TacosSynthesizer(SynthesisConfig(seed=5)).synthesize(topology, pattern, 4 * MB)
    flat = simulate_algorithm(topology, algorithm)
    messages = reference_algorithm_to_messages(algorithm)
    via_reference_columns = run_messages(
        CongestionAwareSimulator(topology), messages, collective_size=algorithm.collective_size
    )
    reference = ReferenceSimulator(topology).run(
        messages, collective_size=algorithm.collective_size
    )
    for other in (via_reference_columns, reference):
        assert flat.message_completion == other.message_completion
        assert flat.completion_time == other.completion_time
        assert flat.link_bytes == other.link_bytes


@pytest.mark.parametrize(
    "builder,kwargs",
    [
        (ring_all_reduce, {}),
        (ring_all_reduce, {"chunks_per_npu": 2}),
        (ring_all_reduce, {"bidirectional": False}),
        (direct_all_reduce, {}),
        (direct_all_reduce, {"chunks_per_npu": 3}),
        (rhd_all_reduce, {}),
    ],
    ids=["ring", "ring-c2", "uniring", "direct", "direct-c3", "rhd"],
)
def test_schedule_adapter_matches_frozen_reference(builder, kwargs):
    schedule = builder(8, 4 * MB, **kwargs)
    assert_columns_match(
        schedule_to_flat_workload(schedule), reference_schedule_to_messages(schedule)
    )
    topology = build_mesh_2d(2, 4)
    flat = simulate_schedule(topology, schedule)
    reference = ReferenceSimulator(topology).run(
        reference_schedule_to_messages(schedule), collective_size=schedule.collective_size
    )
    assert flat.message_completion == reference.message_completion
    assert flat.completion_time == reference.completion_time


def _random_timed_transfers(rng, count, num_npus, num_chunks):
    transfers = []
    for _ in range(count):
        start = rng.uniform(0.0, 4.0)
        end = start + rng.uniform(0.0, 2.0)
        source = rng.randrange(num_npus)
        dest = rng.randrange(num_npus)
        while dest == source:
            dest = rng.randrange(num_npus)
        transfers.append(
            ChunkTransfer(start, end, rng.randrange(num_chunks), source, dest)
        )
    return transfers


@_settings
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(0, 80),
    num_npus=st.integers(2, 7),
    num_chunks=st.integers(1, 6),
)
def test_adapter_dependency_equality_on_random_tables(seed, count, num_npus, num_chunks):
    """Hypothesis: any timed transfer set yields identical dependency graphs."""
    rng = random.Random(seed)
    transfers = _random_timed_transfers(rng, count, num_npus, num_chunks)
    algorithm = CollectiveAlgorithm(
        transfers=transfers,
        num_npus=num_npus,
        chunk_size=1e5,
        collective_size=1e5 * num_npus,
    )
    assert_columns_match(
        algorithm_to_flat_workload(algorithm), reference_algorithm_to_messages(algorithm)
    )


def test_flat_workload_shapes():
    schedule = ring_all_reduce(6, 6 * MB)
    workload = schedule_to_flat_workload(schedule)
    assert workload.num_messages == len(schedule.sends)
    assert workload.dep_indptr.shape[0] == workload.num_messages + 1
    assert int(workload.dep_indptr[-1]) == workload.dep_indices.shape[0]
    empty = algorithm_to_flat_workload(
        CollectiveAlgorithm(transfers=[], num_npus=2, chunk_size=1.0, collective_size=2.0)
    )
    assert empty.num_messages == 0
    assert empty.dep_indices.shape[0] == 0


class TestRunFlatValidation:
    def setup_method(self):
        self.topology = build_ring(4)
        self.simulator = CongestionAwareSimulator(self.topology)

    def test_rejects_degenerate_message(self):
        with pytest.raises(SimulationError):
            self.simulator.run_flat([0], [0], 1e6, [0, 0], [])

    def test_rejects_non_positive_size(self):
        with pytest.raises(SimulationError):
            self.simulator.run_flat([0], [1], 0.0, [0, 0], [])

    def test_rejects_self_dependency(self):
        with pytest.raises(SimulationError):
            self.simulator.run_flat([0, 1], [1, 2], 1e6, [0, 1, 2], [0, 1])

    def test_rejects_unknown_dependency(self):
        with pytest.raises(SimulationError):
            self.simulator.run_flat([0], [1], 1e6, [0, 1], [5])

    def test_rejects_malformed_indptr(self):
        with pytest.raises(SimulationError):
            self.simulator.run_flat([0, 1], [1, 2], 1e6, [0, 1], [0])

    def test_detects_dependency_cycle(self):
        with pytest.raises(SimulationError):
            self.simulator.run_flat([0, 1], [1, 2], 1e6, [0, 1, 2], [1, 0])

    def test_empty_workload(self):
        result = self.simulator.run_flat(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 1e6, [0], []
        )
        assert result.completion_time == 0.0
        assert result.message_completion == {}

"""The simulator's one event loop: edge cases and FCFS tie-breaking.

``CongestionAwareSimulator`` has a single Python heapq loop.  These cases pin
its behaviour where ordering is decided by ties alone — many equal-size
messages contending for the same links — against the frozen
:class:`~repro.bench.ReferenceSimulator`, plus the empty workload.
"""

import inspect
import random

import numpy as np
import pytest

from repro.bench import ReferenceSimulator
from repro.simulator import CongestionAwareSimulator, Message
from repro.topology import build_mesh_2d, build_ring

MB = 1024.0 * 1024.0


def _uniform_columns(rng, num_npus, count):
    """Equal-size messages with a random dependency DAG, as flat columns."""
    sources, dests, dep_indptr, dep_indices = [], [], [0], []
    for position in range(count):
        source = rng.randrange(num_npus)
        dest = rng.randrange(num_npus)
        while dest == source:
            dest = rng.randrange(num_npus)
        sources.append(source)
        dests.append(dest)
        if position and rng.random() < 0.6:
            picks = rng.randint(1, min(3, position))
            dep_indices.extend(sorted(rng.sample(range(position), picks)))
        dep_indptr.append(len(dep_indices))
    return sources, dests, dep_indptr, dep_indices


def _as_messages(sources, dests, dep_indptr, dep_indices):
    return [
        Message(
            message_id=position,
            source=source,
            dest=dest,
            size=MB,
            chunk=position,
            depends_on=frozenset(dep_indices[dep_indptr[position] : dep_indptr[position + 1]]),
        )
        for position, (source, dest) in enumerate(zip(sources, dests))
    ]


class TestEventLoop:
    @pytest.mark.parametrize(
        "topology_factory, seed",
        [(lambda: build_mesh_2d(3, 3), 7), (lambda: build_ring(6), 3)],
        ids=["mesh3x3", "ring6"],
    )
    def test_contended_links_follow_fcfs(self, topology_factory, seed):
        topology = topology_factory()
        columns = _uniform_columns(random.Random(seed), topology.num_npus, 120)
        flat = CongestionAwareSimulator(topology).run_flat(*columns[:2], MB, *columns[2:])
        reference = ReferenceSimulator(topology).run(_as_messages(*columns))
        assert flat.message_completion == reference.message_completion
        assert flat.completion_time == reference.completion_time
        assert flat.link_bytes == reference.link_bytes
        for key, (starts, ends) in flat.busy_columns().items():
            intervals = reference.link_busy_intervals[key]
            np.testing.assert_array_equal(starts, [start for start, _ in intervals])
            np.testing.assert_array_equal(ends, [end for _, end in intervals])

    def test_repeat_runs_are_byte_identical(self):
        topology = build_mesh_2d(3, 3)
        columns = _uniform_columns(random.Random(11), topology.num_npus, 80)
        simulator = CongestionAwareSimulator(topology)
        first = simulator.run_flat(*columns[:2], MB, *columns[2:], collective_size=4 * MB)
        second = simulator.run_flat(*columns[:2], MB, *columns[2:], collective_size=4 * MB)
        assert first.to_bytes() == second.to_bytes()

    def test_empty_workload(self):
        result = CongestionAwareSimulator(build_mesh_2d(2, 2)).run_flat([], [], MB, [0], [])
        assert result.completion_time == 0.0
        assert result.message_completion == {}

    def test_simulator_has_no_tier_switch(self):
        # One loop: the constructor takes the topology and routing size only.
        parameters = inspect.signature(CongestionAwareSimulator).parameters
        assert list(parameters) == ["topology", "routing_message_size"]

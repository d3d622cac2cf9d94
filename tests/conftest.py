"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np
import pytest

from repro.topology import (
    Topology,
    build_fully_connected,
    build_mesh_2d,
    build_ring,
)


@pytest.fixture
def ring4() -> Topology:
    """A 4-NPU bidirectional ring with default link parameters."""
    return build_ring(4)


@pytest.fixture
def uni_ring4() -> Topology:
    """A 4-NPU unidirectional ring."""
    return build_ring(4, bidirectional=False)


@pytest.fixture
def fully_connected4() -> Topology:
    """A 4-NPU fully-connected topology."""
    return build_fully_connected(4)


@pytest.fixture
def mesh3x3() -> Topology:
    """A 3x3 2D mesh (the Fig. 14 topology)."""
    return build_mesh_2d(3, 3)


def random_connected_topology(
    num_npus: int,
    rng: random.Random,
    *,
    extra_links: int = 0,
    heterogeneous: bool = False,
) -> Topology:
    """Build a random strongly connected topology for property-based tests.

    A random Hamiltonian cycle guarantees strong connectivity; ``extra_links``
    additional random directed links are sprinkled on top.  When
    ``heterogeneous`` is True, link bandwidths are drawn from a small set.
    """
    topology = Topology(num_npus, name=f"Random({num_npus})")
    order = list(range(num_npus))
    rng.shuffle(order)
    bandwidths = [25.0, 50.0, 100.0] if heterogeneous else [50.0]
    for index, npu in enumerate(order):
        nxt = order[(index + 1) % num_npus]
        topology.add_link(npu, nxt, alpha=0.5e-6, bandwidth_gbps=rng.choice(bandwidths))
    added = 0
    attempts = 0
    while added < extra_links and attempts < 20 * (extra_links + 1):
        attempts += 1
        source = rng.randrange(num_npus)
        dest = rng.randrange(num_npus)
        if source == dest or topology.has_link(source, dest):
            continue
        topology.add_link(source, dest, alpha=0.5e-6, bandwidth_gbps=rng.choice(bandwidths))
        added += 1
    return topology


Columns = Tuple[List[int], List[int], List[float], List[int], List[int]]


def message_columns(messages: Sequence) -> Columns:
    """``run_flat``'s five positional columns for a list of ``Message`` objects.

    ``messages`` are :class:`repro.bench.reference.Message` objects (the
    reference simulator's input form) whose ids equal their positions, as
    the adapters number them: ``run_flat`` names messages and dependencies
    by position.
    """
    sources, dests, sizes, dep_indptr, dep_indices = [], [], [], [0], []
    for position, message in enumerate(messages):
        if message.message_id != position:
            raise ValueError(f"message id {message.message_id} is not its position {position}")
        sources.append(message.source)
        dests.append(message.dest)
        sizes.append(message.size)
        dep_indices.extend(sorted(message.depends_on))
        dep_indptr.append(len(dep_indices))
    return sources, dests, sizes, dep_indptr, dep_indices


def run_messages(simulator, messages: Sequence, **kwargs):
    """Simulate ``messages`` (see :func:`message_columns`) through ``run_flat``."""
    return simulator.run_flat(*message_columns(messages), **kwargs)


def occupy(ten, link_id: int, time: float) -> float:
    """Commit one transfer on ``link_id`` at ``time``, as the matching round does.

    Marks the link busy until ``time + link_costs[link_id]``, registers that
    completion as an event and returns it.
    """
    end = time + ten.link_costs[link_id]
    ten.free_times[link_id] = end
    ten.push_event(end)
    return end


def assert_same_result(left, right) -> None:
    """Assert two ``SimulationResult`` objects are bit-identical, field by field.

    Floats compare by their IEEE bytes and every mapping by its key order
    too: message completions, per-link byte totals and the per-link busy
    columns.
    """

    def floats(values) -> bytes:
        return np.asarray(list(values), dtype=np.float64).tobytes()

    assert floats([left.completion_time, left.collective_size]) == floats(
        [right.completion_time, right.collective_size]
    )
    assert left.num_links == right.num_links
    for name in ("message_completion", "link_bytes"):
        left_map, right_map = getattr(left, name), getattr(right, name)
        assert list(left_map) == list(right_map), name
        assert floats(left_map.values()) == floats(right_map.values()), name
    left_columns, right_columns = left.busy_columns(), right.busy_columns()
    assert list(left_columns) == list(right_columns)
    for key, (starts, ends) in left_columns.items():
        assert floats(starts) == floats(right_columns[key][0]), key
        assert floats(ends) == floats(right_columns[key][1]), key

"""Bitwise round-trip of the topology wire format (``Topology.to_bytes``).

Pool workers key the trial payload that embeds it by content hash, so equal
topologies must serialize to identical bytes and the round-trip must
be exact — including heterogeneous link costs and ``beta == 0`` pure-latency
links, whose ``<f8`` columns must survive bit-for-bit.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.topology import build_mesh, build_ring
from repro.topology.topology import Topology
from tests.conftest import random_connected_topology

_settings = settings(max_examples=60, deadline=None)


@st.composite
def _topologies(draw):
    num_npus = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    extra = draw(st.integers(min_value=0, max_value=8))
    heterogeneous = draw(st.booleans())
    topology = random_connected_topology(
        num_npus, random.Random(seed), extra_links=extra, heterogeneous=heterogeneous
    )
    if draw(st.booleans()):
        # Sprinkle a beta == 0 pure-latency link (alpha > 0 required then).
        for source in range(num_npus):
            dest = (source + 1) % num_npus
            if not topology.has_link(dest, source):
                topology.add_link(dest, source, alpha=1.25e-6, beta=0.0)
                break
    return topology


def _links(topology):
    return [(link.source, link.dest, link.alpha, link.beta) for link in topology.links()]


class TestRoundTrip:
    @_settings
    @given(topology=_topologies())
    def test_round_trip_is_exact(self, topology):
        decoded = Topology.from_bytes(topology.to_bytes())
        assert decoded.num_npus == topology.num_npus
        assert decoded.name == topology.name
        assert _links(decoded) == _links(topology)  # float-exact, link-id order
        assert decoded.to_bytes() == topology.to_bytes()  # bitwise stable

    @_settings
    @given(topology=_topologies())
    def test_serialization_is_deterministic(self, topology):
        assert topology.to_bytes() == topology.copy().to_bytes()

    def test_heterogeneous_costs_round_trip(self):
        topology = Topology(3, name="hetero")
        topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=25.0)
        topology.add_link(1, 2, alpha=0.7e-6, bandwidth_gbps=100.0)
        topology.add_link(2, 0, alpha=1e-6, beta=0.0)  # pure-latency link
        decoded = Topology.from_bytes(topology.to_bytes())
        assert _links(decoded) == _links(topology)
        assert not decoded.is_homogeneous()

    def test_builders_round_trip(self):
        for topology in (build_ring(5), build_mesh([3, 3])):
            assert Topology.from_bytes(topology.to_bytes()).to_bytes() == topology.to_bytes()


class TestValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(TopologyError, match="magic"):
            Topology.from_bytes(b"NOTATOPO" + bytes(24))

    def test_truncated_payload_rejected(self):
        blob = build_ring(4).to_bytes()
        with pytest.raises(TopologyError, match="length"):
            Topology.from_bytes(blob[:-8])

    def test_trailing_garbage_rejected(self):
        blob = build_ring(4).to_bytes()
        with pytest.raises(TopologyError, match="length"):
            Topology.from_bytes(blob + b"\x00")

    def test_corrupt_link_column_rejected(self):
        # Point a source column entry at an out-of-range NPU: add_link's
        # re-validation must refuse to build a silently wrong network.
        topology = build_ring(3)
        blob = bytearray(topology.to_bytes())
        header = 8 + 24 + len(topology.name.encode("utf-8"))
        blob[header : header + 8] = (10**6).to_bytes(8, "little")
        with pytest.raises(TopologyError):
            Topology.from_bytes(bytes(blob))

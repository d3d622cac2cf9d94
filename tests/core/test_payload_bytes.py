"""Round-trip of the trial-payload wire format (``TrialPayload.to_bytes``).

This is the blob a pool fan-out ships with every chunk task; its content
hash is the payload's identity, so serialization must be deterministic and
the round-trip exact — topology columns, pattern conditions, hop tables,
cheaper-reachability tiers (float-exact cost keys).  The engine does not
cross: only :data:`FLAT_ENGINE` serializes, and every decoded payload runs it.
"""

import pytest

from repro.bench.reference import REFERENCE_ENGINE
from repro.collectives import AllGather, AllReduce
from repro.collectives.pattern import FrozenPattern
from repro.core import SynthesisConfig
from repro.core.synthesizer import (
    FLAT_ENGINE,
    SynthesisEngine,
    TrialPayload,
    _execute_trial,
)
from repro.errors import CollectiveError, SynthesisError
from repro.topology import build_mesh, build_ring
from repro.topology.topology import Topology

MB = 1e6


def _payload(topology, pattern, *, forwarding=False, cheap=False, size=MB):
    chunk_size = pattern.chunk_size(size)
    return TrialPayload(
        topology=topology,
        pattern=pattern,
        collective_size=size,
        chunk_size=chunk_size,
        hop_distances=topology.hop_distances() if forwarding else None,
        cheap_regions=(
            topology.cheaper_reachability_regions(chunk_size) if cheap else None
        ),
        engine=FLAT_ENGINE,
        prefer_lowest_cost=True,
        max_rounds=SynthesisConfig().max_rounds,
    )


def _hetero_topology():
    topology = Topology(4, name="hetero")
    topology.add_link(0, 1, alpha=0.5e-6, bandwidth_gbps=25.0)
    topology.add_link(1, 2, alpha=0.5e-6, bandwidth_gbps=100.0)
    topology.add_link(2, 3, alpha=0.7e-6, bandwidth_gbps=50.0)
    topology.add_link(3, 0, alpha=1e-6, bandwidth_gbps=25.0)
    return topology


class TestRoundTrip:
    def test_fields_survive_exactly(self):
        payload = _payload(build_ring(5), AllGather(5))
        decoded = TrialPayload.from_bytes(payload.to_bytes())
        assert decoded.topology.to_bytes() == payload.topology.to_bytes()
        assert isinstance(decoded.pattern, FrozenPattern)
        assert decoded.pattern.conditions_equal(payload.pattern)
        assert decoded.pattern.name == payload.pattern.name
        assert decoded.pattern.num_chunks == payload.pattern.num_chunks
        assert decoded.collective_size == payload.collective_size
        assert decoded.chunk_size == payload.chunk_size
        assert decoded.hop_distances is None and decoded.cheap_regions is None
        assert decoded.engine is FLAT_ENGINE
        assert decoded.prefer_lowest_cost == payload.prefer_lowest_cost
        assert decoded.max_rounds == payload.max_rounds

    def test_round_trip_is_byte_stable(self):
        for payload in (
            _payload(build_ring(4), AllGather(4)),
            _payload(build_mesh([3, 3]), AllReduce(9).all_gather_phase()),
            _payload(build_mesh([2, 3]), AllGather(6), forwarding=True),
            _payload(_hetero_topology(), AllGather(4), cheap=True),
        ):
            blob = payload.to_bytes()
            assert TrialPayload.from_bytes(blob).to_bytes() == blob

    def test_hop_distances_survive(self):
        payload = _payload(build_mesh([2, 3]), AllGather(6), forwarding=True)
        decoded = TrialPayload.from_bytes(payload.to_bytes())
        assert decoded.hop_distances == payload.hop_distances

    def test_cheap_region_tiers_survive_float_exact(self):
        payload = _payload(_hetero_topology(), AllGather(4), cheap=True)
        assert payload.cheap_regions  # heterogeneous costs produce tiers
        decoded = TrialPayload.from_bytes(payload.to_bytes())
        assert list(decoded.cheap_regions) == list(payload.cheap_regions)
        for cost, per_dest in payload.cheap_regions.items():
            assert decoded.cheap_regions[cost] == list(per_dest)

    def test_decoded_payload_runs_trials_byte_identically(self):
        payload = _payload(build_ring(5), AllGather(5))
        decoded = TrialPayload.from_bytes(payload.to_bytes())
        for seed in (0, 7):
            original, _ = _execute_trial(payload, seed)
            rebuilt, _ = _execute_trial(decoded, seed)
            assert rebuilt.table.to_bytes() == original.table.to_bytes()

    def test_frozen_pattern_has_no_size_rule(self):
        decoded = TrialPayload.from_bytes(_payload(build_ring(4), AllGather(4)).to_bytes())
        with pytest.raises(CollectiveError, match="chunk-size rule"):
            decoded.pattern.chunk_size(MB)


class TestValidation:
    @pytest.mark.parametrize(
        "engine",
        [REFERENCE_ENGINE, SynthesisEngine(name="ghost"), SynthesisEngine(name="flat")],
        ids=["reference", "ghost", "flat-namesake"],
    )
    def test_only_the_flat_engine_serializes(self, engine):
        # Workers always run FLAT_ENGINE, so any other engine object — even
        # one that shares its name — must refuse to cross the pool boundary.
        payload = _payload(build_ring(4), AllGather(4))
        payload = TrialPayload(**{**payload.__dict__, "engine": engine})
        with pytest.raises(SynthesisError, match="flat engine only"):
            payload.to_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(SynthesisError, match="magic"):
            TrialPayload.from_bytes(b"NOTAPAYL" + bytes(64))

    def test_truncated_blob_rejected(self):
        blob = _payload(build_ring(4), AllGather(4)).to_bytes()
        with pytest.raises(SynthesisError, match="truncated"):
            TrialPayload.from_bytes(blob[:-4])

    def test_trailing_garbage_rejected(self):
        blob = _payload(build_ring(4), AllGather(4)).to_bytes()
        with pytest.raises(SynthesisError, match="trailing"):
            TrialPayload.from_bytes(blob + b"\x00")

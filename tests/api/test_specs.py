"""Tests for the declarative spec dataclasses and their JSON round-trip."""

import json

import pytest

from repro.api.specs import (
    AlgorithmSpec,
    CollectiveSpec,
    RunSpec,
    SimulationSpec,
    TopologySpec,
    parse_size,
    topology_to_spec,
)
from repro.errors import SpecError, TopologyError
from repro.topology import Topology, build_dgx1, build_dragonfly, build_mesh, build_ring


def make_run_spec(**overrides):
    base = dict(
        topology=TopologySpec(name="mesh", params={"dims": (3, 3)}),
        collective=CollectiveSpec(name="all_reduce", collective_size=64e6, chunks_per_npu=2),
        algorithm=AlgorithmSpec(name="tacos", params={"trials": 3, "seed": 7}),
        simulation=SimulationSpec(),
        label="fig14-like",
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            TopologySpec(name="ring", params={"num_npus": 8}),
            TopologySpec(name="mesh", params={"dims": (4, 4)}),
            CollectiveSpec(name="all_gather", collective_size=1e6),
            CollectiveSpec(name="broadcast", params={"root": 2}),
            AlgorithmSpec(name="taccl_like", params={"restarts": 5}),
            SimulationSpec(routing_message_size=1e5),
        ],
    )
    def test_simple_specs_round_trip(self, spec):
        assert type(spec).from_dict(spec.to_dict()) == spec
        assert type(spec).from_json(spec.to_json()) == spec

    def test_run_spec_round_trips_through_dict_and_json(self):
        spec = make_run_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json(indent=2)) == spec

    def test_tuples_normalize_to_lists(self):
        spec = TopologySpec(name="mesh", params={"dims": (3, 3)})
        assert spec.params["dims"] == [3, 3]
        assert spec == TopologySpec(name="mesh", params={"dims": [3, 3]})

    def test_to_json_is_valid_json(self):
        document = json.loads(make_run_spec().to_json())
        assert document["topology"]["name"] == "mesh"
        assert document["algorithm"]["params"]["trials"] == 3

    def test_unknown_keys_are_ignored(self):
        data = TopologySpec(name="ring", params={"num_npus": 4}).to_dict()
        data["future_field"] = "whatever"
        assert TopologySpec.from_dict(data) == TopologySpec(name="ring", params={"num_npus": 4})

    def test_defaults_fill_in_missing_sections(self):
        spec = RunSpec.from_dict(
            {"topology": {"name": "ring", "params": {"num_npus": 4}},
             "collective": {"name": "all_gather"}}
        )
        assert spec.algorithm == AlgorithmSpec()
        assert spec.simulation == SimulationSpec()


class TestHashing:
    def test_hash_stable_across_round_trip(self):
        spec = make_run_spec()
        clone = RunSpec.from_json(spec.to_json())
        assert spec.spec_hash() == clone.spec_hash()
        assert hash(spec) == hash(clone)

    def test_hash_differs_for_different_specs(self):
        spec = make_run_spec()
        other = make_run_spec(label="other")
        assert spec.spec_hash() != other.spec_hash()

    def test_specs_usable_as_dict_keys(self):
        spec = make_run_spec()
        clone = RunSpec.from_dict(spec.to_dict())
        assert {spec: 1}[clone] == 1


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(SpecError):
            TopologySpec(name="")

    def test_non_json_param_rejected(self):
        with pytest.raises(SpecError):
            AlgorithmSpec(name="tacos", params={"fn": object()})

    def test_nonpositive_size_rejected(self):
        with pytest.raises(SpecError):
            CollectiveSpec(name="all_gather", collective_size=0)

    def test_run_spec_rejects_plain_dict_sections(self):
        with pytest.raises(SpecError):
            RunSpec(topology={"name": "ring"}, collective=CollectiveSpec(name="all_gather"))

    def test_from_dict_requires_topology_and_collective(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict({"collective": {"name": "all_gather"}})


# One small instance of every registered topology builder except "custom".
SMALL_BUILDER_PARAMS = {
    "binary_hypercube": {"dimension": 3},
    "dgx1": {},
    "dragonfly": {"num_groups": 3, "group_size": 2},
    "fully_connected": {"num_npus": 4},
    "hypercube_3d": {"x": 2, "y": 2, "z": 2},
    "mesh": {"dims": [2, 3]},
    "mesh_2d": {"rows": 3, "cols": 3},
    "mesh_3d": {"x": 2, "y": 2, "z": 2},
    "rfs_3d": {"ring_size": 2, "fc_size": 2, "switch_size": 2},
    "ring": {"num_npus": 5},
    "switch": {"num_npus": 4},
    "switch_2d": {"first_size": 2, "second_size": 4},
    "torus": {"dims": [3, 3]},
    "torus_2d": {"rows": 3, "cols": 4},
    "torus_3d": {"x": 2, "y": 2, "z": 3},
    "uni_ring": {"num_npus": 5},
}


def _assert_json_round_trip_is_exact(topology):
    """``topology_to_spec`` -> JSON -> build gives back ``topology`` exactly."""
    from repro.api.runner import build_topology

    text = topology_to_spec(topology).to_json()
    rebuilt = build_topology(TopologySpec.from_json(text))
    assert rebuilt == topology
    assert rebuilt.name == topology.name
    # Same order and bit-identical alpha/beta: the synthesizer's
    # tie-breaking sees the same network.
    assert [(link.source, link.dest, link.alpha, link.beta) for link in rebuilt.links()] == [
        (link.source, link.dest, link.alpha, link.beta) for link in topology.links()
    ]


class TestTopologyToSpec:
    def test_round_trips_an_arbitrary_topology(self):
        from repro.api.runner import build_topology

        topology = build_mesh((2, 3))
        spec = topology_to_spec(topology)
        rebuilt = build_topology(TopologySpec.from_dict(spec.to_dict()))
        assert rebuilt == topology
        assert rebuilt.name == topology.name

    def test_preserves_link_insertion_order(self):
        topology = build_ring(4)
        spec = topology_to_spec(topology)
        sources_dests = [(link[0], link[1]) for link in spec.params["links"]]
        assert sources_dests == list(topology.link_keys())

    @pytest.mark.parametrize(
        "factory",
        [lambda: build_dragonfly(3, 4), lambda: build_dgx1(heterogeneous=True)],
        ids=["dragonfly-3x4", "dgx1-hetero"],
    )
    def test_json_round_trip_keeps_every_link_exactly(self, factory):
        _assert_json_round_trip_is_exact(factory())

    @pytest.mark.parametrize("name", sorted(SMALL_BUILDER_PARAMS))
    def test_every_registered_builder_round_trips_exactly(self, name):
        from repro.api.runner import build_topology

        topology = build_topology(TopologySpec(name=name, params=SMALL_BUILDER_PARAMS[name]))
        _assert_json_round_trip_is_exact(topology)

    def test_the_builder_table_covers_the_registry(self):
        from repro.api.registry import TOPOLOGIES

        # "custom" is the round trip's own target, covered above.
        assert sorted(SMALL_BUILDER_PARAMS) == sorted(set(TOPOLOGIES.names()) - {"custom"})

    def test_pure_latency_link_is_strict_json(self):
        # A beta=0 link has infinite bandwidth; the spec carries beta itself,
        # so no bare `Infinity` constant reaches the document.
        from repro.api.runner import build_topology

        topology = Topology(2, name="control-plane")
        topology.add_link(0, 1, alpha=1e-6, beta=0.0)
        text = topology_to_spec(topology).to_json()

        def reject(constant):
            raise AssertionError(f"non-finite constant {constant!r} in the spec")

        json.loads(text, parse_constant=reject)
        rebuilt = build_topology(TopologySpec.from_json(text))
        assert rebuilt == topology
        assert rebuilt.link(0, 1).beta == 0.0

    @pytest.mark.parametrize(
        "links",
        [[[0]], [[0, 1, 1e-6]], [[0, 1, "fast", 1e-11]], [7], [[0, 5, 1e-6, 1e-11]]],
        ids=["one-field", "three-fields", "non-numeric", "not-a-list", "npu-out-of-range"],
    )
    def test_malformed_link_entry_rejected(self, links):
        from repro.api.runner import build_topology

        spec = TopologySpec(name="custom", params={"num_npus": 2, "links": links})
        with pytest.raises(TopologyError):
            build_topology(spec)

    def test_rebuilt_topology_synthesizes_the_same_winner(self):
        from repro.api.runner import build_topology
        from repro.collectives import AllGather
        from repro.core import TacosSynthesizer, verify_algorithm

        topology = build_mesh((2, 3))
        rebuilt = build_topology(TopologySpec.from_json(topology_to_spec(topology).to_json()))
        expected = TacosSynthesizer().synthesize(topology, AllGather(6), 6e6)
        algorithm = TacosSynthesizer().synthesize(rebuilt, AllGather(6), 6e6)
        assert algorithm.table.to_bytes() == expected.table.to_bytes()
        assert verify_algorithm(algorithm, rebuilt, AllGather(6))


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [("4MB", 4e6), ("1.5GB", 1.5e9), ("512KB", 512e3), ("100", 100.0),
         ("4e6", 4e6), ("2B", 2.0), ("1TB", 1e12), ("16 MB", 16e6)],
    )
    def test_accepts_human_sizes(self, text, expected):
        assert parse_size(text) == expected

    def test_rejects_garbage(self):
        with pytest.raises(SpecError):
            parse_size("lots")

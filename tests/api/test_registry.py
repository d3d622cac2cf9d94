"""Tests for the name-based registries and the @register plugin hook."""

import pytest

import repro.api
from repro.api import (
    ALGORITHMS,
    COLLECTIVES,
    TOPOLOGIES,
    AlgorithmArtifact,
    Registry,
    normalize_name,
)
from repro.errors import RegistryError
from repro.topology import Topology, build_ring


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [("Ring", "ring"), ("TACCL-like", "taccl_like"), ("  MultiTree ", "multitree"),
         ("uni ring", "uni_ring")],
    )
    def test_names_are_normalized(self, raw, expected):
        assert normalize_name(raw) == expected


class TestBuiltinResolution:
    def test_topology_builders_resolve(self):
        builder = TOPOLOGIES.get("ring")
        assert builder(4).num_npus == 4
        # aliases and case-insensitivity
        assert TOPOLOGIES.get("FC") is TOPOLOGIES.get("fully_connected")

    def test_collectives_resolve(self):
        pattern = COLLECTIVES.get("all_gather")(4, 1)
        assert pattern.name == "AllGather"
        assert COLLECTIVES.get("AllReduce") is COLLECTIVES.get("all_reduce")

    def test_historical_baseline_spellings_resolve(self):
        for name in ("Ring", "UniRing", "Direct", "RHD", "DBT", "MultiTree", "TACCL-like"):
            assert name in ALGORITHMS
            ALGORITHMS.get(name)

    def test_search_tiers_are_algorithm_names(self):
        # A search tier is an algorithm name; there is no synthesizer registry.
        assert ALGORITHMS.canonical_name("tacos") == "tacos"
        assert ALGORITHMS.canonical_name("guided") == "guided"
        assert ALGORITHMS.canonical_name("taccl") == "taccl_like"
        assert not hasattr(repro.api, "SYNTHESIZERS")

    def test_expected_builtin_coverage(self):
        assert {"ring", "mesh", "torus", "switch", "dgx1", "dragonfly", "custom"} <= set(
            TOPOLOGIES.names()
        )
        assert {"tacos", "taccl_like", "ideal", "ring", "direct", "rhd", "dbt",
                "multitree", "blueconnect", "themis", "ccube"} <= set(ALGORITHMS.names())


class TestUnknownNames:
    def test_error_lists_available_entries(self):
        with pytest.raises(RegistryError) as excinfo:
            TOPOLOGIES.get("moebius_strip")
        message = str(excinfo.value)
        assert "moebius_strip" in message
        assert "ring" in message and "mesh" in message

    def test_error_names_the_registry_kind(self):
        with pytest.raises(RegistryError, match="algorithm"):
            ALGORITHMS.get("nope")


class TestRegisterHook:
    def test_decorator_registration_and_unregister(self):
        registry = Registry("widget")

        @registry.register("double", aliases=("twice",), description="doubles things")
        def double(value):
            return 2 * value

        assert registry.get("double") is double
        assert registry.get("TWICE") is double
        assert registry.entry("double").description == "doubles things"
        registry.unregister("double")
        assert "double" not in registry
        assert "twice" not in registry

    def test_direct_registration(self):
        registry = Registry("widget")
        registry.register("identity", lambda value: value)
        assert registry.get("identity")(7) == 7

    def test_duplicate_names_rejected(self):
        registry = Registry("widget")
        registry.register("only", lambda: None)
        with pytest.raises(RegistryError):
            registry.register("only", lambda: None)
        with pytest.raises(RegistryError):
            registry.register("fresh", lambda: None, aliases=("only",))

    def test_plugin_topology_is_usable_by_the_runner(self):
        from repro.api import CollectiveSpec, RunSpec, TopologySpec, run

        @TOPOLOGIES.register("test_only_pair", positional=("num_npus",))
        def build_pair(num_npus=2):
            topology = Topology(2, name="Pair")
            topology.add_link(0, 1, alpha=1e-6, bandwidth_gbps=50.0, bidirectional=True)
            return topology

        try:
            result = run(
                RunSpec(
                    topology=TopologySpec(name="test_only_pair"),
                    collective=CollectiveSpec(name="all_gather", collective_size=1e6),
                )
            )
            assert result.topology == "Pair"
            assert result.collective_time > 0
        finally:
            TOPOLOGIES.unregister("test_only_pair")


class TestAlgorithmArtifact:
    def test_exactly_one_payload_enforced(self):
        with pytest.raises(RegistryError):
            AlgorithmArtifact()
        with pytest.raises(RegistryError):
            AlgorithmArtifact(collective_time=1.0, schedule=object())

    def test_baseline_artifacts_produce_schedules(self):
        from repro.collectives import AllReduce

        topology = build_ring(4)
        artifact = ALGORITHMS.get("ring")(topology, AllReduce(4), 4e6)
        assert artifact.schedule is not None
        assert artifact.algorithm is None

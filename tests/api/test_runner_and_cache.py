"""Tests for run()/run_batch() and the spec-hash result cache."""

import dataclasses

import pytest

import repro.api.runner as runner

from repro.api import (
    AlgorithmSpec,
    CollectiveSpec,
    ResultCache,
    RunResult,
    RunSpec,
    SimulationSpec,
    TopologySpec,
    run,
    run_batch,
    topology_to_spec,
)
from repro.errors import RegistryError, SpecError
from repro.topology import build_ring


def ring_spec(algorithm="tacos", collective="all_gather", num_npus=4, size=4e6, **params):
    return RunSpec(
        topology=TopologySpec(name="ring", params={"num_npus": num_npus}),
        collective=CollectiveSpec(name=collective, collective_size=size),
        algorithm=AlgorithmSpec(name=algorithm, params=params),
    )


class TestRun:
    def test_tacos_run_matches_direct_synthesis(self):
        from repro.collectives import AllGather
        from repro.core import TacosSynthesizer
        from repro.simulator.adapters import simulate_algorithm

        result = run(ring_spec())
        topology = build_ring(4)
        algorithm = TacosSynthesizer().synthesize(topology, AllGather(4), 4e6)
        expected = simulate_algorithm(topology, algorithm)
        assert result.collective_time == pytest.approx(expected.completion_time)
        assert result.num_npus == 4
        assert result.synthesis_seconds is not None

    def test_baseline_run_produces_utilization_extras(self):
        result = run(ring_spec(algorithm="ring", collective="all_reduce"))
        assert 0 < result.extras["avg_link_utilization"] <= 1
        assert result.synthesis_seconds is None

    def test_ideal_run_is_analytic(self):
        from repro.analysis.ideal import ideal_all_reduce_time

        result = run(ring_spec(algorithm="ideal", collective="all_reduce"))
        assert result.collective_time == pytest.approx(ideal_all_reduce_time(build_ring(4), 4e6))
        assert result.extras == {}

    def test_simulation_can_be_disabled_for_synthesized_algorithms(self):
        spec = dataclasses.replace(ring_spec(), simulation=SimulationSpec(simulate=False))
        result = run(spec)
        assert result.collective_time > 0
        assert "avg_link_utilization" not in result.extras

    def test_simulation_cannot_be_disabled_for_schedules(self):
        spec = dataclasses.replace(
            ring_spec(algorithm="ring", collective="all_reduce"),
            simulation=SimulationSpec(simulate=False),
        )
        with pytest.raises(SpecError):
            run(spec)

    def test_unknown_algorithm_name_is_a_registry_error(self):
        with pytest.raises(RegistryError, match="available"):
            run(ring_spec(algorithm="quantum"))

    def test_bad_algorithm_params_are_a_spec_error(self):
        with pytest.raises(SpecError, match="tacos"):
            run(ring_spec(algorithm="tacos", warp_factor=9))

    def test_custom_topology_spec_runs(self):
        topology = build_ring(6)
        spec = RunSpec(
            topology=topology_to_spec(topology),
            collective=CollectiveSpec(name="all_reduce", collective_size=6e6),
            algorithm=AlgorithmSpec(name="ring"),
        )
        result = run(spec)
        assert result.topology == topology.name
        assert result.num_npus == 6

    def test_result_round_trips_through_dict(self):
        result = run(ring_spec(algorithm="ring", collective="all_reduce"))
        clone = RunResult.from_dict(result.to_dict())
        assert clone == result


class TestCache:
    def test_memory_hit_returns_identical_flagged_result(self):
        cache = ResultCache()
        first = run(ring_spec(), cache=cache)
        second = run(ring_spec(), cache=cache)
        assert not first.cached
        assert second.cached
        assert first == second  # cached flag excluded from equality
        assert cache.hits == 1 and cache.misses == 1

    def test_disk_cache_survives_a_new_cache_instance(self, tmp_path):
        spec = ring_spec(algorithm="ring", collective="all_reduce")
        first = run(spec, cache=ResultCache(tmp_path))
        fresh = ResultCache(tmp_path)
        second = run(spec, cache=fresh)
        assert second.cached
        assert second == first
        assert fresh.hits == 1

    def test_different_specs_do_not_collide(self):
        cache = ResultCache()
        a = run(ring_spec(algorithm="ring", collective="all_reduce"), cache=cache)
        b = run(ring_spec(algorithm="direct", collective="all_reduce"), cache=cache)
        assert a != b
        assert len(cache) == 2
        assert cache.hits == 0

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        spec = ring_spec(algorithm="ring", collective="all_reduce")
        run(spec, cache=ResultCache(tmp_path))
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        fresh = ResultCache(tmp_path)
        result = run(spec, cache=fresh)
        assert not result.cached
        assert fresh.misses == 1

    def test_clear_drops_memory_and_optionally_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        run(ring_spec(algorithm="ring", collective="all_reduce"), cache=cache)
        assert len(cache) == 1
        cache.clear(disk=True)
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.json"))


class TestRunBatch:
    def test_batch_matches_per_call_run_on_repeated_specs(self):
        cache = ResultCache()
        spec = ring_spec(algorithm="ring", collective="all_reduce")
        single = run(spec, cache=cache)
        batch = run_batch([spec, ring_spec(), spec], cache=cache)
        assert batch[0] == single
        assert batch[2] == single
        assert batch[0].cached  # served from the pre-populated cache

    def test_duplicates_execute_once_without_a_cache(self):
        spec = ring_spec(algorithm="ring", collective="all_reduce")
        results = run_batch([spec, spec, spec])
        assert results[0] is results[1] is results[2]

    def test_parallel_batch_equals_sequential(self):
        specs = [
            ring_spec(algorithm=algorithm, collective="all_reduce", num_npus=num_npus)
            for algorithm in ("ring", "direct", "ideal")
            for num_npus in (4, 5)
        ]
        sequential = run_batch(specs)
        parallel = run_batch(specs, workers=4)
        assert parallel == sequential

    def test_order_is_preserved(self):
        specs = [ring_spec(algorithm="ideal", collective="all_reduce", num_npus=n)
                 for n in (4, 6, 8)]
        results = run_batch(specs, workers=2)
        assert [result.num_npus for result in results] == [4, 6, 8]

    def test_rejects_non_spec_items(self):
        with pytest.raises(SpecError):
            run_batch([{"topology": "ring"}])

    def test_return_exceptions_keeps_good_results(self):
        # RHD needs a power-of-two NPU count: the ring:6 cell fails, the rest survive.
        specs = [
            ring_spec(algorithm="rhd", collective="all_reduce", num_npus=6),
            ring_spec(algorithm="ring", collective="all_reduce", num_npus=6),
        ]
        with pytest.raises(Exception):
            run_batch(specs)  # default: first failure propagates
        results = run_batch(specs, return_exceptions=True, workers=2)
        assert isinstance(results[0], Exception)
        assert results[1].collective_time > 0


def _timings(results):
    """What a result reports, without its wall-clock synthesis times."""
    return [(result.algorithm, result.topology, result.collective_time) for result in results]


class TestBatchTopologyMemo:
    """A batch builds a topology on the first miss that needs it and keeps the last one built."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        original = runner.build_topology

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(runner, "build_topology", counting)
        return calls

    @staticmethod
    def _specs():
        return [
            ring_spec(algorithm=algorithm, collective="all_reduce", num_npus=num_npus)
            for num_npus in (4, 6)
            for algorithm in ("ring", "direct", "tacos")
        ]

    def test_misses_build_each_topology_once(self, built):
        specs = self._specs()
        results = run_batch(specs)
        assert built == [specs[0].topology, specs[3].topology]
        assert _timings(results) == _timings([run(spec) for spec in specs])

    def test_a_batch_of_hits_builds_nothing(self, built, tmp_path):
        specs = self._specs()
        run_batch(specs, cache=ResultCache(tmp_path))
        built.clear()
        assert all(result.cached for result in run_batch(specs, cache=ResultCache(tmp_path)))
        assert built == []

    def test_a_hit_among_misses_does_not_build(self, built):
        specs = self._specs()
        cache = ResultCache()
        run(specs[3], cache=cache)
        built.clear()
        run_batch(specs[3:4] + specs[:3], cache=cache)
        assert built == [specs[0].topology]

    def test_a_pool_chunk_builds_each_topology_once(self, built):
        specs = self._specs()
        results = runner._run_spec_chunk(None, False, specs)
        assert built == [specs[0].topology, specs[3].topology]
        assert _timings(results) == _timings([run(spec) for spec in specs])

    def test_the_batch_holds_only_the_last_topology_built(self, built):
        # A topology's derived tables grow with each message size asked for,
        # so a batch keeps one topology alive at a time, as a single run does.
        specs = self._specs()
        interleaved = [specs[0], specs[3], specs[1], specs[4]]
        results = run_batch(interleaved)
        assert built == [spec.topology for spec in interleaved]
        assert _timings(results) == _timings([run(spec) for spec in interleaved])

    def test_single_runs_build_every_time(self, built):
        spec = ring_spec(algorithm="ring", collective="all_reduce")
        run(spec)
        run(spec)
        assert built == [spec.topology, spec.topology]

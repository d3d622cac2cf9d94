"""One key, one read per store request: every cache request hashes its spec
once, hits never alias the stored entry, and the store reads back the same
bytes wherever its directory lives."""

import dataclasses
import hashlib
import inspect
import os
from pathlib import Path

import pytest

from repro.api import (
    AlgorithmSpec,
    CollectiveSpec,
    ResultCache,
    RunSpec,
    RunResult,
    TopologySpec,
    run,
    run_batch,
)
from repro.api.cache import encode_algorithm
from repro.api.specs import _SpecBase

MB = 1e6


def _spec(algorithm="tacos", num_npus=4, size=MB):
    return RunSpec(
        topology=TopologySpec("ring", {"num_npus": num_npus}),
        collective=CollectiveSpec("all_reduce", collective_size=size),
        algorithm=AlgorithmSpec(algorithm),
    )


def _sweep():
    """Six distinct specs, two of them synthesized (so they store algorithms)."""
    algorithms = ("tacos", "ring", "ideal")
    return [_spec(algorithm, size=size * MB) for algorithm in algorithms for size in (1, 2)]


@pytest.fixture
def hashed(monkeypatch):
    """The specs hashed while the test runs, one entry per ``spec_hash`` call."""
    calls = []
    original = _SpecBase.spec_hash

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(_SpecBase, "spec_hash", counting)
    return calls


# ----------------------------------------------------------------------
# One hash per request
# ----------------------------------------------------------------------
class TestOneHashPerRequest:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_run_batch_on_a_warm_store_hashes_each_spec_once(
        self, tmp_path, hashed, workers
    ):
        specs = _sweep()
        cold = run_batch(specs, cache=ResultCache(tmp_path))
        hashed.clear()
        cache = ResultCache(tmp_path)
        warm = run_batch(specs, cache=cache, workers=workers)
        assert hashed == specs
        assert warm == cold and all(result.cached for result in warm)
        assert (cache.hits, cache.misses) == (len(specs), 0)

    def test_run_batch_hashes_each_input_once_with_duplicates(self, tmp_path, hashed):
        specs = _sweep()
        run_batch(specs, cache=ResultCache(tmp_path))
        hashed.clear()
        run_batch(specs + specs[:2], cache=ResultCache(tmp_path))
        assert len(hashed) == len(specs) + 2

    @pytest.mark.parametrize("algorithm", ["tacos", "ring"])
    def test_a_run_miss_hashes_once_for_get_put_and_put_algorithm(
        self, tmp_path, hashed, algorithm
    ):
        spec = _spec(algorithm)
        cache = ResultCache(tmp_path)
        result = run(spec, cache=cache)
        assert hashed == [spec]
        assert cache.misses == 1 and not result.cached
        key = spec.spec_hash()
        assert (tmp_path / f"{key}.json").is_file()
        assert (tmp_path / f"{key}.algorithm.bin").is_file() == (algorithm == "tacos")

    def test_a_cold_run_batch_hashes_once_for_get_put_and_put_algorithm(
        self, tmp_path, hashed
    ):
        specs = _sweep()
        cache = ResultCache(tmp_path)
        cold = run_batch(specs, cache=cache)
        assert hashed == specs
        assert cache.misses == len(specs) and not any(result.cached for result in cold)
        assert len(list(tmp_path.glob("*.algorithm.bin"))) == 2

    def test_run_without_a_cache_hashes_nothing(self, hashed):
        run(_spec("ring"))
        assert hashed == []

    def test_load_algorithm_hashes_once_per_call(self, tmp_path, hashed):
        spec = _spec()
        run(spec, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        hashed.clear()
        for calls in (1, 2, 3):
            assert cache.load_algorithm(spec) is not None
            assert len(hashed) == calls

    def test_only_the_cache_reads_and_writes_take_an_internal_key(self):
        for function in (
            ResultCache.get,
            ResultCache.put,
            ResultCache.absorb,
            ResultCache.put_algorithm,
        ):
            parameter = inspect.signature(function).parameters["_key"]
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, function
            assert parameter.default is None, function
        assert list(inspect.signature(run).parameters) == ["spec", "cache"]
        assert list(inspect.signature(ResultCache.load_algorithm).parameters) == [
            "self",
            "spec",
        ]


# ----------------------------------------------------------------------
# Hits and stored entries share no mutable container
# ----------------------------------------------------------------------
def _mutate(result):
    result.extras["avg_link_utilization"] = -1.0
    result.trial_stats[0]["rounds"] = 999


def _untouched(result):
    return (
        result.extras["avg_link_utilization"] != -1.0 and result.trial_stats[0]["rounds"] != 999
    )


class TestHitsDoNotAlias:
    def test_memory_hits(self):
        spec = _spec()
        cache = ResultCache()
        original = run(spec, cache=cache)
        assert original.trial_stats  # the container under test is present
        first = cache.get(spec)
        _mutate(first)
        assert _untouched(cache.get(spec))
        assert _untouched(original)

    def test_mutating_the_put_result_leaves_the_entry(self):
        spec = _spec()
        cache = ResultCache()
        original = run(spec, cache=cache)
        _mutate(original)
        assert _untouched(cache.get(spec))

    def test_disk_hits(self, tmp_path):
        spec = _spec()
        original = run(spec, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        first = cache.get(spec)  # read from disk, kept in memory
        _mutate(first)
        second = cache.get(spec)  # served from memory
        assert _untouched(second) and second == original
        assert _untouched(ResultCache(tmp_path).get(spec))

    def test_absorbed_results(self):
        spec = _spec()
        result = run(spec)
        cache = ResultCache()
        cache.absorb(result)
        _mutate(result)
        assert _untouched(cache.get(spec))


def _full_result():
    """A result with a non-default value in every field."""
    return RunResult(
        spec=_spec(),
        algorithm="tacos",
        topology="Ring(4)",
        collective="AllReduce",
        num_npus=4,
        collective_size=MB,
        collective_time=2.5e-5,
        bandwidth_gbps=40.0,
        synthesis_seconds=0.125,
        extras={"trials": 2.0, "avg_link_utilization": 0.5},
        trial_stats=[
            {"seed": 0, "rounds": 7, "collective_time": 2.5e-5},
            {"seed": 1, "rounds": 8, "collective_time": 3.0e-5},
        ],
        cached=True,
    )


class TestRunResultCopy:
    @pytest.mark.parametrize("cached", [False, True])
    def test_every_field_is_carried_and_cached_is_the_requested_flag(self, cached):
        source = _full_result()
        copy = source.copy(cached=cached)
        assert type(copy) is RunResult
        for item in dataclasses.fields(RunResult):
            if item.name == "cached":
                assert copy.cached is cached
            else:
                assert getattr(copy, item.name) == getattr(source, item.name), item.name
        assert copy == source  # ``cached`` is excluded from equality
        assert source.cached is True

    def test_containers_are_new_objects(self):
        source = _full_result()
        copy = source.copy()
        assert copy.extras is not source.extras
        assert copy.trial_stats is not source.trial_stats
        for copied, original in zip(copy.trial_stats, source.trial_stats):
            assert copied is not original
        assert copy.spec is source.spec  # frozen: shared, never mutated

    def test_mutating_the_copy_leaves_the_source(self):
        source = _full_result()
        expected = source.to_dict()
        copy = source.copy()
        copy.extras["trials"] = -1.0
        copy.extras["added"] = 1.0
        copy.trial_stats[0]["rounds"] = 999
        copy.trial_stats[1].clear()
        copy.trial_stats.append({"seed": 9})
        copy.collective_time = 1.0
        assert source.to_dict() == expected

    def test_no_trial_stats_stays_none(self):
        source = dataclasses.replace(_full_result(), trial_stats=None)
        copy = source.copy(cached=True)
        assert copy.trial_stats is None and copy.cached is True
        assert copy == source


# ----------------------------------------------------------------------
# Store directories: str, Path, relative, spaces and non-ASCII names
# ----------------------------------------------------------------------
_DIRECTORY_KINDS = ["str", "path", "relative", "spaces-and-unicode"]


def _directory(kind, tmp_path, monkeypatch):
    if kind == "str":
        return str(tmp_path / "store")
    if kind == "path":
        return tmp_path / "store"
    if kind == "relative":
        monkeypatch.chdir(tmp_path)
        return os.path.join("nested", "store")
    return tmp_path / "a store with spaces" / "données é☃ 数据"


class TestStoreDirectories:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """Algorithm blobs from a plain ``Path`` store."""
        directory = tmp_path_factory.mktemp("reference")
        specs = _sweep()
        run_batch(specs, cache=ResultCache(directory))
        return {
            spec.spec_hash(): (directory / f"{spec.spec_hash()}.algorithm.bin").read_bytes()
            for spec in specs
            if spec.algorithm.name == "tacos"
        }

    @pytest.mark.parametrize("kind", _DIRECTORY_KINDS)
    def test_store_reads_back_results_and_algorithms(
        self, tmp_path, monkeypatch, reference, kind
    ):
        specs, blobs = _sweep(), reference
        directory = _directory(kind, tmp_path, monkeypatch)
        cold = run_batch(specs, cache=ResultCache(directory))
        cache = ResultCache(directory)
        warm = run_batch(specs, cache=cache)
        assert warm == cold and all(result.cached for result in warm)
        assert cache.misses == 0
        root = Path(directory).resolve()
        assert root.is_dir() and str(root).startswith(str(tmp_path.resolve()))
        for spec in specs:
            key = spec.spec_hash()
            algorithm = cache.load_algorithm(spec)
            if key not in blobs:
                assert algorithm is None
                continue
            assert (root / f"{key}.algorithm.bin").read_bytes() == blobs[key]
            assert encode_algorithm(algorithm) == blobs[key]

    @pytest.mark.parametrize("kind", _DIRECTORY_KINDS)
    def test_no_temporary_droppings(self, tmp_path, monkeypatch, kind):
        directory = _directory(kind, tmp_path, monkeypatch)
        run(_spec(), cache=ResultCache(directory))
        names = os.listdir(directory)
        assert not [name for name in names if name.endswith(".tmp")]
        assert sorted(name.rsplit(".", 1)[-1] for name in names if name != ".lock") == [
            "bin",
            "json",
        ]


def test_stored_document_bytes_are_pinned(tmp_path):
    # The file name is the key and the bytes are the document a store has
    # always written; a change here orphans or rewrites every stored result.
    spec = RunSpec(
        topology=TopologySpec("ring", {"num_npus": 8}),
        collective=CollectiveSpec("all_reduce", collective_size=MB),
        algorithm=AlgorithmSpec("ideal"),
    )
    run(spec, cache=ResultCache(tmp_path))
    (path,) = tmp_path.glob("*.json")
    assert path.name == "82718390065ea6ac4859933f56254c769cc8b9179b1232e956688ff0ea636bef.json"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "3eeebf5486e7bdd67d4c771d3581eee2091182aaf72adf2d463d63fd7b1c7e35"

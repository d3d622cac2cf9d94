"""One key, one read per store request: a cache hashes each spec object at
most once, hits never alias the stored entry, and the store reads back the
same bytes wherever its directory lives.

A stored result is ``<key>.json``, the ``RunResult.to_dict()`` document
without its ``spec`` section: the key names the spec, and a hit takes the
caller's.  Entries written with the section by earlier versions still hit.
"""

import dataclasses
import hashlib
import inspect
import json
import os
import sys
import threading
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
from repro.api.runner import build_algorithm_artifact, build_collective, build_topology
from repro.api.specs import _SpecBase

MB = 1e6


def _spec(algorithm="tacos", num_npus=4, size=MB):
    return RunSpec(
        topology=TopologySpec("ring", {"num_npus": num_npus}),
        collective=CollectiveSpec("all_reduce", collective_size=size),
        algorithm=AlgorithmSpec(algorithm),
    )


def _algorithm(spec):
    """The algorithm ``spec`` synthesizes, built outside any cache."""
    topology = build_topology(spec.topology)
    pattern = build_collective(spec.collective, topology.num_npus)
    size = spec.collective.collective_size
    return build_algorithm_artifact(spec.algorithm, topology, pattern, size).algorithm


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
        twins = _sweep()[:2]  # equal to specs[:2], but new objects
        results = run_batch(specs + specs[:2] + twins, cache=ResultCache(tmp_path))
        # A repeated object is hashed once; an equal new object once more.
        assert hashed == specs + twins
        assert results[6:8] == results[8:10] == results[:2]

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
        # At most one hash per spec object per cache: the first call hashes,
        # later calls reuse the key, and a new cache hashes again.
        spec = _spec()
        run(spec, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        hashed.clear()
        for _ in range(3):
            assert cache.load_algorithm(spec) is not None
            assert hashed == [spec]
        assert ResultCache(tmp_path).load_algorithm(spec) is not None
        assert hashed == [spec, spec]

    def test_load_algorithm_after_run_batch_hashes_nothing(self, tmp_path, hashed):
        specs = _sweep()
        run_batch(specs, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        run_batch(specs, cache=cache)
        hashed.clear()
        loaded = [cache.load_algorithm(spec) for spec in specs]
        assert hashed == []
        assert sum(algorithm is not None for algorithm in loaded) == 2

    def test_a_pool_run_batch_folds_results_without_hashing_again(self, tmp_path, hashed):
        specs = _sweep()
        cache = ResultCache(tmp_path)
        cold = run_batch(specs, cache=cache, workers=2)
        assert hashed == specs  # the workers' own caches hash in their processes
        assert all(result.spec is spec for result, spec in zip(cold, specs))
        hashed.clear()
        assert run_batch(specs, cache=cache) == cold
        assert hashed == [] and cache.hits == len(specs)

    def test_the_key_memo_is_bounded_by_the_stored_results(self, tmp_path, monkeypatch, hashed):
        # A long-lived cache fed new but equal spec objects keeps at most
        # KEY_MEMO_SLACK of them beyond one per stored result, then starts over.
        monkeypatch.setattr(ResultCache, "KEY_MEMO_SLACK", 3)
        cache = ResultCache()
        kept = _spec("ring")
        run(kept, cache=cache)
        for _ in range(10):
            assert cache.get(_spec("ring")) is not None
            assert len(cache._keys) <= len(cache) + 3
        hashed.clear()
        cache.get(kept)
        assert hashed == [kept]  # the memo started over, so ``kept`` is hashed anew

    def test_an_equal_spec_object_is_hashed_again(self, tmp_path, hashed):
        # The memo is by identity: an equal spec built anew is a new object.
        spec, twin = _spec(), _spec()
        run(spec, cache=ResultCache(tmp_path))
        cache = ResultCache(tmp_path)
        hashed.clear()
        assert cache.get(spec) == cache.get(twin)
        assert cache.get(spec) is not None and cache.get(twin) is not None
        assert len(hashed) == 2 and hashed[0] is spec and hashed[1] is twin

    def test_the_key_memo_is_the_only_way_a_key_reaches_the_cache(self):
        # No read or write takes a key: each one looks the spec up in the
        # cache's memo, so there is no second path that could disagree.
        for function in (
            ResultCache.get,
            ResultCache.put,
            ResultCache.absorb,
            ResultCache.put_algorithm,
        ):
            assert "_key" not in inspect.signature(function).parameters, function
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


def _pinned_spec():
    return RunSpec(
        topology=TopologySpec("ring", {"num_npus": 8}),
        collective=CollectiveSpec("all_reduce", collective_size=MB),
        algorithm=AlgorithmSpec("ideal"),
    )


def test_stored_document_bytes_are_pinned(tmp_path):
    # The file name is the key and the bytes are the document a store
    # writes; a change here orphans or rewrites every stored result.  The
    # digest is that of the earlier layout's document with its ``spec``
    # section removed (that document's digest was 3eeebf54...).
    run(_pinned_spec(), cache=ResultCache(tmp_path))
    (path,) = tmp_path.glob("*.json")
    assert path.name == "82718390065ea6ac4859933f56254c769cc8b9179b1232e956688ff0ea636bef.json"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "1d57e8e691ef98936986094c3d4d6dbd7ad670e5fa012057de129afe3fa472ea"


class TestDocumentLayout:
    def test_a_stored_document_has_no_spec_section(self, tmp_path):
        spec = _spec()
        result = run(spec, cache=ResultCache(tmp_path))
        (path,) = tmp_path.glob("*.json")
        document = json.loads(path.read_bytes())
        expected = result.to_dict()
        assert "spec" in expected  # the CLI's --json keeps it
        del expected["spec"]
        assert document == expected

    @pytest.mark.parametrize("spec", [_spec(), _pinned_spec()], ids=["tacos", "ideal"])
    def test_an_entry_with_a_spec_section_still_hits(self, tmp_path, spec):
        old, new = tmp_path / "old", tmp_path / "new"
        cold = run(spec, cache=ResultCache(new))
        run(spec, cache=ResultCache(old))
        (path,) = old.glob("*.json")
        path.write_text(json.dumps(cold.to_dict(), sort_keys=True))  # the earlier layout
        old_cache, new_cache = ResultCache(old), ResultCache(new)
        from_old, from_new = old_cache.get(spec), new_cache.get(spec)
        assert from_old is not None and from_old.cached
        assert from_old == from_new == cold
        assert from_old.to_dict() == from_new.to_dict()
        assert (old_cache.hits, old_cache.misses) == (1, 0)

    def test_from_dict_converts_like_the_constructor(self):
        source = _full_result()
        document = source.to_dict(with_spec=False)
        document.update(num_npus=4.0, collective_size=1, collective_time=0, bandwidth_gbps=40)
        rebuilt = RunResult.from_dict(document, spec=source.spec)
        assert type(rebuilt) is RunResult and rebuilt.cached is False
        assert rebuilt == dataclasses.replace(source, collective_size=1.0, collective_time=0.0)
        assert type(rebuilt.num_npus) is int and type(rebuilt.collective_size) is float
        assert type(rebuilt.collective_time) is float and type(rebuilt.bandwidth_gbps) is float
        assert rebuilt.extras is not document["extras"]
        assert RunResult.from_dict(source.to_dict()) == source
        with pytest.raises(KeyError):
            RunResult.from_dict(document)  # no spec section and none given


# ----------------------------------------------------------------------
# One cache shared by threads
# ----------------------------------------------------------------------
def _hammer(cache, computed, synthesized, threads=4, rounds=3):
    """Look up, store and reload every spec from ``threads`` threads at once.

    Each thread walks the specs in its own order.  Returns the number of
    lookups made, and raises if a thread failed or did not finish.
    """
    specs = list(computed)
    blobs = {spec: encode_algorithm(algorithm) for spec, algorithm in synthesized.items()}
    lookups, errors = [0] * threads, []
    barrier = threading.Barrier(threads)

    def work(index):
        try:
            order = specs[index:] + specs[:index]
            barrier.wait()
            for _ in range(rounds):
                for spec in order:
                    hit = cache.get(spec)
                    lookups[index] += 1
                    assert hit is None or (hit == computed[spec] and hit.cached)
                    cache.put(computed[spec])
                    assert cache.get(spec) == computed[spec]
                    lookups[index] += 1
                    if spec in synthesized:
                        cache.put_algorithm(spec, synthesized[spec])
                        assert encode_algorithm(cache.load_algorithm(spec)) == blobs[spec]
                    else:
                        assert cache.load_algorithm(spec) is None
        except Exception as exc:  # reported below, with the thread's traceback
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(index,)) for index in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the lock sections interleave
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    return sum(lookups)


@pytest.mark.parametrize("store", ["empty", "populated"])
def test_threads_sharing_one_disk_cache(tmp_path, store):
    # Overlapping specs on one disk-backed cache, from more threads than
    # cores.  A populated store makes the first lookups disk hits, an empty
    # one makes them misses.  Every lookup is counted once, so a lost
    # counter update shows; every put reads back equal.
    specs = _sweep()
    computed = {spec: run(spec) for spec in specs}
    synthesized = {spec: _algorithm(spec) for spec in specs if spec.algorithm.name == "tacos"}
    if store == "populated":
        writer = ResultCache(tmp_path / "shared")
        for spec in specs:
            writer.put(computed[spec])
    for attempt in range(8):
        directory = tmp_path / ("shared" if store == "populated" else f"empty-{attempt}")
        cache = ResultCache(directory)
        lookups = _hammer(cache, computed, synthesized)
        assert cache.hits + cache.misses == lookups
        fresh = ResultCache(directory)
        assert [fresh.get(spec) for spec in specs] == [computed[spec] for spec in specs]
        assert fresh.misses == 0

"""Seed-portfolio mining from the artifact store.

The portfolio is an optimization, never a correctness dependency: corrupt,
partial, or foreign entries must be skipped silently, and the returned seed
order must be deterministic for a given store state.
"""

import pytest

from repro.api.cache import ResultCache
from repro.api.specs import CollectiveSpec, RunSpec, TopologySpec
from repro.core.algorithm import CollectiveAlgorithm
from repro.core.transfers import TransferTable
from repro.search import topology_family, winning_seeds


def _spec(label):
    return RunSpec(
        topology=TopologySpec(name="ring", params={"num_npus": 4}),
        collective=CollectiveSpec(name="all_gather"),
        label=label,
    )


def _put_entry(cache, label, topology, metadata):
    """A minimal store entry: a run document plus an algorithm artifact.

    The artifact is written by the real producer,
    :meth:`ResultCache.put_algorithm`, under the hash of a spec made unique
    by ``label``; that hash is returned.
    """
    spec = _spec(label)
    key = spec.spec_hash()
    cache.store.write_json(key, {"topology": topology, "collective_time": 1.0})
    algorithm = CollectiveAlgorithm.from_table(
        TransferTable.empty(),
        num_npus=4,
        chunk_size=1.0,
        collective_size=4.0,
        pattern_name="AllGather",
        topology_name=topology,
        metadata=metadata,
    )
    cache.put_algorithm(spec, algorithm)
    return key


def _in_key_order(seed_of_key):
    """The seeds of ``{key: seed}`` in sorted key order, deduplicated first-seen."""
    seeds = []
    for key in sorted(seed_of_key):
        if seed_of_key[key] not in seeds:
            seeds.append(seed_of_key[key])
    return seeds


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "store")


@pytest.fixture()
def store(cache):
    return cache.store


class TestTopologyFamily:
    @pytest.mark.parametrize(
        ("name", "family"),
        [
            ("Mesh(6x6)", "Mesh"),
            ("Mesh(4x4)", "Mesh"),
            ("Ring(16)", "Ring"),
            ("DragonFly(4x4)", "DragonFly"),
            ("Hypercube(3x3x3)", "Hypercube"),
            ("custom", "custom"),
        ],
    )
    def test_prefix_before_parenthesis(self, name, family):
        assert topology_family(name) == family


class TestWinningSeeds:
    def test_empty_store(self, store):
        assert winning_seeds(store, "Mesh") == []

    def test_family_match_only(self, cache, store):
        first = _put_entry(cache, "a", "Mesh(6x6)", {"seed": 3})
        _put_entry(cache, "b", "Ring(16)", {"seed": 9})
        second = _put_entry(cache, "c", "Mesh(4x4)", {"seed": 5})
        assert winning_seeds(store, "Mesh") == _in_key_order({first: 3, second: 5})
        assert winning_seeds(store, "Ring") == [9]
        assert winning_seeds(store, "Torus") == []

    def test_deterministic_sorted_key_order(self, cache, store):
        # Written in descending key order; the scan sorts keys, not mtimes.
        labels = sorted(["a", "z"], key=lambda label: _spec(label).spec_hash(), reverse=True)
        for seed, label in enumerate(labels, start=1):
            _put_entry(cache, label, "Mesh(6x6)", {"seed": seed})
        assert winning_seeds(store, "Mesh") == [2, 1]

    def test_dedup_first_seen(self, cache, store):
        seed_of_key = {
            _put_entry(cache, "a", "Mesh(6x6)", {"seed": 7}): 7,
            _put_entry(cache, "b", "Mesh(4x4)", {"seed": 7}): 7,
            _put_entry(cache, "c", "Mesh(8x8)", {"seed": 2}): 2,
        }
        assert winning_seeds(store, "Mesh") == _in_key_order(seed_of_key)
        assert sorted(winning_seeds(store, "Mesh")) == [2, 7]

    def test_limit_truncates(self, cache, store):
        seed_of_key = {
            _put_entry(cache, f"k{index}", "Mesh(6x6)", {"seed": index}): index
            for index in range(6)
        }
        assert winning_seeds(store, "Mesh", limit=3) == _in_key_order(seed_of_key)[:3]
        assert winning_seeds(store, "Mesh", limit=0) == []
        assert winning_seeds(store, "Mesh", limit=-1) == []

    def test_bool_seed_is_not_a_seed(self, cache, store):
        # bool subclasses int; a JSON true must never become seed 1.
        _put_entry(cache, "a", "Mesh(6x6)", {"seed": True})
        _put_entry(cache, "b", "Mesh(6x6)", {"seed": 4})
        assert winning_seeds(store, "Mesh") == [4]

    def test_skips_corrupt_and_partial_entries(self, cache, store):
        # JSON document without an algorithm artifact.
        store.write_json("no-artifact", {"topology": "Mesh(6x6)"})
        # Algorithm artifact that does not decode.
        store.write_json("corrupt", {"topology": "Mesh(6x6)"})
        store.write_blob("corrupt", ResultCache.ALGORITHM_ARTIFACT, b"{not an artifact")
        # Metadata without a seed.
        _put_entry(cache, "no-seed", "Mesh(6x6)", {"rounds": 5})
        # Non-dict metadata (the decoder rejects the header).
        _put_entry(cache, "list-meta", "Mesh(6x6)", [1, 2])
        # Document without a topology string.
        store.write_json("no-topo", {"collective_time": 1.0})
        # One good entry among the wreckage.
        _put_entry(cache, "ok", "Mesh(6x6)", {"seed": 11})
        assert winning_seeds(store, "Mesh") == [11]

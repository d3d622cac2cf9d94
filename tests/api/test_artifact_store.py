"""The spec-hash-addressed artifact store: atomicity, locking, binary
blobs, algorithm artifacts, and concurrent multi-process writers sharing one
directory."""

import json
import logging
import os
import struct
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    AlgorithmSpec,
    ArtifactStore,
    CollectiveSpec,
    ResultCache,
    RunSpec,
    TopologySpec,
    build_algorithm_artifact,
    build_collective,
    build_topology,
    run,
)
from repro.api.cache import _ALGORITHM_MAGIC, _HEADER_LENGTH, encode_algorithm
from repro.core.algorithm import CollectiveAlgorithm
from repro.core.transfers import TransferTable

MB = 1e6


def _spec(num_npus=4):
    return RunSpec(
        topology=TopologySpec(name="ring", params={"num_npus": num_npus}),
        collective=CollectiveSpec(name="all_gather", collective_size=MB),
        algorithm=AlgorithmSpec(name="tacos"),
    )


class TestArtifactStore:
    def test_json_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write_json("k1", {"b": 2, "a": 1})
        assert store.read_json("k1") == {"a": 1, "b": 2}
        assert store.read_json("missing") is None
        assert store.keys() == ["k1"]

    def test_json_is_strict_by_default(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError):
            store.write_json("bad", {"x": float("inf")})
        store.write_json("ok", {"x": float("inf")}, strict=False)
        assert store.read_json("ok") == {"x": float("inf")}

    def test_corrupt_json_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / "broken.json").write_text("{not json")
        assert store.read_json("broken") is None

    def test_blob_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        data = np.asarray([0.0, 1.5]).tobytes() + np.asarray([3, 4], dtype=np.int64).tobytes()
        store.write_blob("k1", "algorithm", data)
        assert store.read_blob("k1", "algorithm") == data
        assert (tmp_path / "k1.algorithm.bin").read_bytes() == data
        assert store.read_blob("k1", "other") is None

    def test_unreadable_blob_is_a_miss(self, tmp_path, caplog):
        store = ArtifactStore(tmp_path)
        (tmp_path / "k1.algorithm.bin").mkdir()  # exists, but cannot be read
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert store.read_blob("k1", "algorithm") is None
        assert len(caplog.records) == 1 and "k1" in caplog.records[0].getMessage()

    def test_non_bytes_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(TypeError):
            store.write_blob("k1", "algorithm", {"a": 1})
        assert store.read_blob("k1", "algorithm") is None

    def test_no_temporary_droppings(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for index in range(5):
            store.write_json(f"k{index}", {"index": index})
            store.write_blob(f"k{index}", "payload", bytes(range(index + 1)))
        leftovers = [path.name for path in tmp_path.iterdir() if path.suffix == ".tmp"]
        assert leftovers == []

    def test_clear_removes_json_and_blobs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.write_json("k1", {"a": 1})
        store.write_blob("k1", "algorithm", b"\x00\x01")
        store.clear()
        assert store.read_json("k1") is None
        assert store.read_blob("k1", "algorithm") is None


class TestResultCacheOnStore:
    def test_algorithm_artifact_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        table = TransferTable.from_columns([0.0, 1.0], [1.0, 2.0], [0, 1], [0, 1], [1, 2])
        algorithm = CollectiveAlgorithm.from_table(
            table,
            num_npus=3,
            chunk_size=MB,
            collective_size=MB,
            pattern_name="AllGather",
            topology_name="Ring(3)",
        )
        cache.put_algorithm(spec, algorithm)
        loaded = cache.load_algorithm(spec)
        assert loaded is not None
        assert loaded.table.to_bytes() == table.to_bytes()
        assert loaded.num_npus == 3
        assert loaded.pattern_name == "AllGather"
        assert loaded.topology_name == "Ring(3)"

    def test_memory_only_cache_has_no_algorithm_store(self):
        cache = ResultCache()
        assert cache.load_algorithm(_spec()) is None

    def test_run_persists_synthesized_algorithm(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = run(spec, cache=cache)
        loaded = cache.load_algorithm(spec)
        assert loaded is not None
        assert loaded.collective_time == pytest.approx(result.collective_time)

    def test_reloaded_all_reduce_algorithm_is_verifiable(self, tmp_path):
        # Metadata (notably phase_boundary) must survive the artifact store:
        # without it a reloaded All-Reduce algorithm cannot be verified.
        from repro.api.builtins import parse_topology_spec
        from repro.api.registry import COLLECTIVES
        from repro.api.runner import build_topology
        from repro.core.verification import verify_algorithm

        spec = RunSpec(
            topology=TopologySpec(name="ring", params={"num_npus": 4}),
            collective=CollectiveSpec(name="all_reduce", collective_size=MB),
            algorithm=AlgorithmSpec(name="tacos"),
        )
        cache = ResultCache(tmp_path)
        run(spec, cache=cache)
        loaded = cache.load_algorithm(spec)
        assert loaded is not None
        assert "phase_boundary" in loaded.metadata
        topology = build_topology(spec.topology)
        pattern = COLLECTIVES.get("all_reduce")(4, 1)
        assert verify_algorithm(loaded, topology, pattern)

    def test_clear_disk_removes_algorithm_payloads(self, tmp_path):
        cache = ResultCache(tmp_path)
        run(_spec(), cache=cache)
        cache.clear(disk=True)
        assert cache.load_algorithm(_spec()) is None
        assert ResultCache(tmp_path).get(_spec()) is None


# ----------------------------------------------------------------------
# Algorithm artifacts: exact round-trips, corrupt files read as misses
# ----------------------------------------------------------------------
_times = st.floats(allow_nan=False)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_int64 = st.integers(-(2**63), 2**63 - 1)
_json_values = st.recursive(
    st.none() | st.booleans() | _int64 | _finite | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _algorithms(draw):
    rows = draw(st.lists(st.tuples(_times, _times, _int64, _int64, _int64), max_size=20))
    table = TransferTable.from_columns(
        [min(first, second) for first, second, *_ in rows],
        [max(first, second) for first, second, *_ in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
        [row[4] for row in rows],
    )
    metadata = draw(st.dictionaries(st.text(), _json_values, max_size=4))
    if draw(st.booleans()):  # what an All-Reduce concatenation records
        metadata["phase_boundary"] = draw(_finite)
        metadata["phase_names"] = (draw(st.text()), draw(st.text()))
    return CollectiveAlgorithm.from_table(
        table,
        num_npus=draw(st.integers(1, 2**40)),
        chunk_size=draw(_finite),
        collective_size=draw(_finite),
        pattern_name=draw(st.text()),
        topology_name=draw(st.text()),
        metadata=metadata,
    )


def _small_algorithm():
    table = TransferTable.from_columns([0.0, 1.0], [1.0, 2.5], [0, 1], [0, 1], [1, 2])
    return CollectiveAlgorithm.from_table(
        table,
        num_npus=3,
        chunk_size=MB,
        collective_size=3 * MB,
        pattern_name="AllReduce",
        topology_name="Ring(3)",
        metadata={"phase_boundary": 1.0, "phase_names": ("ReduceScatter", "AllGather")},
    )


def _split(blob):
    """``(header document, table bytes)`` of an algorithm artifact."""
    start = len(_ALGORITHM_MAGIC) + _HEADER_LENGTH.size
    (length,) = _HEADER_LENGTH.unpack_from(blob, len(_ALGORITHM_MAGIC))
    return json.loads(blob[start : start + length]), blob[start + length :]


def _assemble(header, table):
    """An artifact around raw ``header`` bytes and raw ``table`` bytes."""
    return _ALGORITHM_MAGIC + _HEADER_LENGTH.pack(len(header)) + header + table


def _with_header(**changes):
    """A corruption replacing header fields (``None`` drops the field)."""

    def corrupt(blob):
        header, table = _split(blob)
        header.update(changes)
        header = {key: value for key, value in header.items() if value is not None}
        return _assemble(json.dumps(header, allow_nan=True).encode(), table)

    return corrupt


def _backwards_row(blob):
    header, _ = _split(blob)
    table = TransferTable(
        np.asarray([0.0, 2.0]),
        np.asarray([1.0, 1.5]),  # the second transfer ends before it starts
        np.asarray([0, 1]),
        np.asarray([0, 1]),
        np.asarray([1, 2]),
    )
    return _assemble(json.dumps(header, allow_nan=False).encode(), table.to_bytes())


_PREFIX = len(_ALGORITHM_MAGIC) + _HEADER_LENGTH.size

CORRUPTIONS = {
    "bad-magic": lambda blob: b"NOTTACOS" + blob[len(_ALGORITHM_MAGIC) :],
    "empty": lambda blob: b"",
    "truncated-header-length": lambda blob: blob[: _PREFIX - 1],
    "truncated-header": lambda blob: blob[: _PREFIX + 5],
    "truncated-table": lambda blob: blob[:-1],
    "trailing-bytes": lambda blob: blob + b"\x00",
    "header-not-json": lambda blob: _assemble(b"{not json", _split(blob)[1]),
    "header-not-utf8": lambda blob: _assemble(b"\xff\xfe\xfd", _split(blob)[1]),
    "header-not-an-object": lambda blob: _assemble(b"[1, 2]", _split(blob)[1]),
    "header-missing-field": _with_header(metadata=None),
    "header-mistyped-field": _with_header(num_npus=True),
    "header-nan": _with_header(chunk_size=float("nan")),
    "header-infinity": _with_header(collective_size=float("inf")),
    "row-ends-before-start": _backwards_row,
}


class TestAlgorithmArtifacts:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(algorithm=_algorithms())
    def test_round_trip_is_exact(self, tmp_path, algorithm):
        cache = ResultCache(tmp_path)
        cache.put_algorithm(_spec(), algorithm)
        loaded = ResultCache(tmp_path).load_algorithm(_spec())
        assert loaded is not None
        assert loaded.table.to_bytes() == algorithm.table.to_bytes()
        assert type(loaded.num_npus) is int and loaded.num_npus == algorithm.num_npus
        for name in ("chunk_size", "collective_size"):
            assert struct.pack("<d", getattr(loaded, name)) == struct.pack(
                "<d", getattr(algorithm, name)
            )
        assert loaded.pattern_name == algorithm.pattern_name
        assert loaded.topology_name == algorithm.topology_name
        # Metadata comes back as JSON does: tuples as lists.
        assert loaded.metadata == json.loads(json.dumps(algorithm.metadata, allow_nan=False))

    def test_artifact_is_one_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_algorithm(_spec(), _small_algorithm())
        key = _spec().spec_hash()
        assert sorted(path.name for path in tmp_path.iterdir() if path.name != ".lock") == [
            f"{key}.algorithm.bin"
        ]
        blob = (tmp_path / f"{key}.algorithm.bin").read_bytes()
        assert blob == encode_algorithm(_small_algorithm())
        header, table = _split(blob)
        assert table == _small_algorithm().table.to_bytes()
        assert header["metadata"]["phase_names"] == ["ReduceScatter", "AllGather"]

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_artifact_is_a_logged_miss(self, tmp_path, caplog, corruption):
        cache = ResultCache(tmp_path)
        spec = _spec()
        key = spec.spec_hash()
        blob = CORRUPTIONS[corruption](encode_algorithm(_small_algorithm()))
        cache.store.write_blob(key, ResultCache.ALGORITHM_ARTIFACT, blob)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert cache.load_algorithm(spec) is None
        assert [record.levelno for record in caplog.records] == [logging.WARNING]
        assert key in caplog.records[0].getMessage()

    def test_legacy_npz_artifact_is_a_miss(self, tmp_path, caplog):
        spec = _spec()
        key = spec.spec_hash()
        first = run(spec, cache=ResultCache(tmp_path))
        (tmp_path / f"{key}.algorithm.bin").unlink()
        # The earlier layout: an uncompressed zip of the transfer columns.
        table = _small_algorithm().table
        np.savez(
            tmp_path / f"{key}.algorithm.npz",
            starts=table.starts,
            ends=table.ends,
            chunks=table.chunks,
            sources=table.sources,
            dests=table.dests,
        )
        cache = ResultCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert cache.load_algorithm(spec) is None
            second = run(spec, cache=cache)
        assert caplog.records == []  # absent, not corrupt
        assert second.cached and cache.hits == 1 and cache.misses == 0
        assert second == first

    def test_clear_disk_removes_json_blobs_and_legacy_npz(self, tmp_path):
        cache = ResultCache(tmp_path)
        run(_spec(), cache=cache)
        (tmp_path / f"{_spec(8).spec_hash()}.algorithm.npz").write_bytes(b"PK legacy")
        assert {path.suffix for path in tmp_path.iterdir()} >= {".json", ".bin", ".npz"}
        cache.clear(disk=True)
        assert [path.name for path in tmp_path.iterdir()] == [ArtifactStore.LOCK_NAME]


class TestCorruptEntryLogging:
    def test_absent_entries_are_silent_misses(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        with caplog.at_level(logging.DEBUG, logger="repro.api.cache"):
            assert cache.get(_spec()) is None
            assert cache.load_algorithm(_spec()) is None
        assert caplog.records == []

    @pytest.mark.parametrize(
        "document",
        [b"{not json", b"[1, 2]", b'{"spec": {}}'],
        ids=["not-json", "not-an-object", "missing-fields"],
    )
    def test_corrupt_result_document_logs_one_warning(self, tmp_path, caplog, document):
        spec = _spec()
        key = spec.spec_hash()
        (tmp_path / f"{key}.json").write_bytes(document)
        cache = ResultCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert cache.get(spec) is None
        assert [record.levelno for record in caplog.records] == [logging.WARNING]
        assert key in caplog.records[0].getMessage()
        assert cache.misses == 1
        # The miss is recomputed and overwrites the corrupt entry.
        assert run(spec, cache=cache).collective_time > 0
        assert ResultCache(tmp_path).get(spec) is not None


# ----------------------------------------------------------------------
# The raw reader: os.open + fstat-sized os.read, then reads until EOF
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def large_algorithm():
    """3D-RFS 2x4x16 All-Reduce: 32,512 transfers, an artifact over 1 MiB."""
    spec = RunSpec(
        topology=TopologySpec("rfs_3d", {"ring_size": 2, "fc_size": 4, "switch_size": 16}),
        collective=CollectiveSpec("all_reduce", collective_size=64 * MB),
        algorithm=AlgorithmSpec("tacos", {"trials": 1}),
    )
    topology = build_topology(spec.topology)
    pattern = build_collective(spec.collective, topology.num_npus)
    algorithm = build_algorithm_artifact(
        spec.algorithm, topology, pattern, spec.collective.collective_size
    ).algorithm
    assert algorithm.num_transfers == 32_512
    return spec, algorithm


def _under_reporting_fstat(report):
    """An ``os.fstat`` whose ``st_size`` is ``report(true size)``; records calls."""
    real_fstat = os.fstat
    calls = []

    def fstat(fd):
        fields = list(real_fstat(fd))
        calls.append(fields[6])
        fields[6] = report(fields[6])  # st_size
        return os.stat_result(fields)

    return fstat, calls


_UNDER_REPORTS = {
    "zero": lambda size: 0,
    "half": lambda size: size // 2,
    "one-short": lambda size: max(size - 1, 0),
}


class TestRawReader:
    def test_missing_entries_are_silent_misses(self, tmp_path, caplog):
        store = ArtifactStore(tmp_path / "never-created")
        with caplog.at_level(logging.DEBUG, logger="repro.api.cache"):
            assert store.read_json("absent") is None
            assert store.read_blob("absent", "algorithm") is None
        assert caplog.records == []

    @pytest.mark.parametrize("entry", ["empty", "invalid-utf8", "directory"])
    def test_unreadable_result_document_is_one_warning_and_a_miss(
        self, tmp_path, caplog, entry
    ):
        spec = _spec()
        path = tmp_path / f"{spec.spec_hash()}.json"
        if entry == "empty":
            path.write_bytes(b"")
        elif entry == "invalid-utf8":
            path.write_bytes(b'{"algorithm": "\xff\xfe"}')
        else:
            path.mkdir()
        cache = ResultCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert cache.get(spec) is None
        assert [record.levelno for record in caplog.records] == [logging.WARNING]
        message = caplog.records[0].getMessage()
        assert spec.spec_hash() in message and "treating it as a miss" in message
        assert (cache.hits, cache.misses) == (0, 1)

    def test_large_algorithm_blob_reads_back_byte_identical(self, tmp_path, large_algorithm):
        spec, algorithm = large_algorithm
        ResultCache(tmp_path).put_algorithm(spec, algorithm)
        key = spec.spec_hash()
        on_disk = (tmp_path / f"{key}.algorithm.bin").read_bytes()
        assert len(on_disk) > 1 << 20
        assert on_disk == encode_algorithm(algorithm)
        assert ArtifactStore(tmp_path).read_blob(key, ResultCache.ALGORITHM_ARTIFACT) == on_disk
        loaded = ResultCache(tmp_path).load_algorithm(spec)
        assert loaded.table.to_bytes() == algorithm.table.to_bytes()
        assert loaded.metadata == json.loads(json.dumps(algorithm.metadata))

    @pytest.mark.parametrize("report", sorted(_UNDER_REPORTS))
    def test_under_reported_size_is_still_read_whole(
        self, tmp_path, monkeypatch, large_algorithm, report
    ):
        spec, algorithm = large_algorithm
        store = ArtifactStore(tmp_path)
        document = {"name": "x" * 5000, "values": list(range(100))}
        store.write_json("doc", document)
        blob = encode_algorithm(algorithm)
        store.write_blob("big", "algorithm", blob)
        fstat, calls = _under_reporting_fstat(_UNDER_REPORTS[report])
        with monkeypatch.context() as patch:
            patch.setattr(os, "fstat", fstat)
            assert store.read_json("doc") == document
            assert store.read_blob("big", "algorithm") == blob
        assert calls == [(tmp_path / "doc.json").stat().st_size, len(blob)]

    def test_short_reads_are_continued_to_the_end(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        data = bytes(range(256)) * 300
        store.write_blob("k1", "payload", data)
        real_read = os.read
        monkeypatch.setattr(os, "read", lambda fd, size: real_read(fd, min(size, 1000)))
        assert store.read_blob("k1", "payload") == data


# ----------------------------------------------------------------------
# Concurrent writers: two processes, one cache directory, no corruption
# ----------------------------------------------------------------------
def _hammer_store(args):
    """Write many entries (some keys shared with the sibling process)."""
    directory, worker, rounds = args
    store = ArtifactStore(directory)
    for index in range(rounds):
        shared_key = f"shared{index % 5}"
        store.write_json(shared_key, {"worker": worker, "index": index})
        store.write_blob(
            shared_key, "columns", np.full(64, worker * 1000 + index, dtype=np.int64).tobytes()
        )
        store.write_json(f"own-{worker}-{index}", {"worker": worker})
    return worker


@pytest.mark.backend_equivalence
class TestConcurrentWriters:
    def test_two_processes_one_directory_no_corruption(self, tmp_path):
        rounds = 30
        with ProcessPoolExecutor(max_workers=2) as pool:
            outcome = list(
                pool.map(_hammer_store, [(str(tmp_path), 1, rounds), (str(tmp_path), 2, rounds)])
            )
        assert sorted(outcome) == [1, 2]
        store = ArtifactStore(tmp_path)
        # Every file parses; shared keys hold one complete document from
        # either writer (never a torn mixture), own keys are all present.
        for index in range(5):
            document = store.read_json(f"shared{index}")
            assert document is not None and document["worker"] in (1, 2)
            blob = store.read_blob(f"shared{index}", "columns")
            assert blob is not None and len(blob) == 64 * 8
            values = np.frombuffer(blob, dtype=np.int64)
            assert len(set(values.tolist())) == 1  # one writer's payload, whole
        for worker in (1, 2):
            for index in range(rounds):
                assert store.read_json(f"own-{worker}-{index}") == {"worker": worker}
        leftovers = [path.name for path in tmp_path.iterdir() if path.suffix == ".tmp"]
        assert leftovers == []

    def test_concurrent_caches_one_spec(self, tmp_path):
        # Two processes running the same spec against one cache directory
        # must both succeed and agree on the stored result document.
        with ProcessPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(_run_spec_in_worker, [str(tmp_path)] * 2))
        assert results[0] == results[1]
        stored = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert stored["collective_time"] == results[0]


def _run_spec_in_worker(directory):
    cache = ResultCache(directory)
    return run(_spec(), cache=cache).collective_time

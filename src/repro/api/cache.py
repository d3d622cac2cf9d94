"""Process-safe, spec-hash-addressed artifact store and the result cache on top.

Two layers:

* :class:`ArtifactStore` — the on-disk layer.  Every artifact is addressed by
  a :meth:`~repro.api.specs.RunSpec.spec_hash` key and stored as either a
  strict-JSON document (``<key>.json``) or a raw binary blob
  (``<key>.<name>.bin`` — plain bytes, never pickles).  Writes go to a unique
  temporary file and are renamed into place atomically under an advisory
  file lock, so any number of worker *processes* can share one directory:
  readers never observe a torn file, and concurrent writers of the same key
  serialize instead of corrupting each other.
* :class:`ResultCache` — the in-memory dictionary (always on) plus an
  optional :class:`ArtifactStore`, keeping the historical ``get``/``put``
  API of the run layer.  Cache reads return results flagged ``cached=True``;
  corrupt or unreadable disk entries are treated as misses and logged as
  one WARNING each (an absent entry is a silent miss).

One key per spec object: a cache hashes each spec object at most once and
a request reads its entry once.  A :class:`ResultCache` remembers the key of
each spec object it has keyed, by identity, and every read and write looks
there first; :func:`~repro.api.runner.run_batch` keys its specs through the
same memo to dedupe them.  So a :func:`~repro.api.runner.run` hashes its
spec once for the lookup, the result and the algorithm, and a
:meth:`ResultCache.load_algorithm` after a
:func:`~repro.api.runner.run_batch` on the same cache hashes nothing.  The
memo holds at most :attr:`ResultCache.KEY_MEMO_SLACK` spec objects beyond
one per stored result, then starts over.

A run result is stored as ``<key>.json``: the
:meth:`~repro.api.runner.RunResult.to_dict` document without its ``spec``
section (``algorithm``, ``topology``, ``collective``, ``num_npus``,
``collective_size``, ``collective_time``, ``bandwidth_gbps``,
``synthesis_seconds``, ``extras`` and, when present, ``trial_stats``),
because the key names the spec and a hit takes the caller's spec.
Documents written with a ``spec`` section by earlier versions are still
hits; the section is ignored.

A hit does only the work its bytes need.  The entry is read unbuffered:
``os.open``, one ``os.read`` sized by ``os.fstat``, then reads until end of
file, so a file larger than ``fstat`` reported still comes back whole.
Documents are parsed by one shared :class:`json.JSONDecoder` and algorithm
headers by one shared strict decoder.  Results are copied on the way in
and on every hit (:meth:`~repro.api.runner.RunResult.copy`, a dict copy of
the instance), so no two callers share an ``extras`` dict or a
``trial_stats`` list.

Beyond run results, the store persists synthesized algorithms
(:meth:`ResultCache.put_algorithm` / :meth:`ResultCache.load_algorithm`), so
repeated sessions — and concurrent sweep workers — share synthesis work, not
just its timing summary.  An algorithm artifact is one file,
``<key>.algorithm.bin`` (:func:`encode_algorithm`): a magic-and-version
prefix, a little-endian ``uint32`` header length, a strict-JSON header
(``num_npus``, ``chunk_size``, ``collective_size``, ``pattern_name``,
``topology_name``, ``metadata``), then the
:meth:`~repro.core.transfers.TransferTable.to_bytes` payload.  Loading it is
one read plus :func:`decode_algorithm`, which decodes each column straight
from the blob into an array of its own; the float columns are bit-exact.
Artifacts in the earlier ``.npz`` layout are not read (they are misses).
"""

from __future__ import annotations

import io
import json
import logging
import os
import struct
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.runner import RunResult
    from repro.api.specs import RunSpec
    from repro.core.algorithm import CollectiveAlgorithm

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "ArtifactStore",
    "ResultCache",
    "decode_algorithm",
    "encode_algorithm",
]

_log = logging.getLogger(__name__)

#: Magic prefix + format version of an algorithm artifact.
_ALGORITHM_MAGIC = b"TACOSAL1"
#: Little-endian byte length of the JSON header that follows the magic.
_HEADER_LENGTH = struct.Struct("<I")
#: Header fields of an algorithm artifact and the JSON types they must have.
_HEADER_FIELDS = (
    ("num_npus", int),
    ("chunk_size", float),
    ("collective_size", float),
    ("pattern_name", str),
    ("topology_name", str),
    ("metadata", dict),
)


def encode_algorithm(algorithm: "CollectiveAlgorithm") -> bytes:
    """Serialize ``algorithm`` as one binary artifact (see the module docstring).

    Metadata rides along as JSON (tuples come back as lists): an All-Reduce
    algorithm is unverifiable without its ``phase_boundary``, so dropping it
    would defeat the sharing.
    """
    header = json.dumps(
        {
            "num_npus": int(algorithm.num_npus),
            "chunk_size": float(algorithm.chunk_size),
            "collective_size": float(algorithm.collective_size),
            "pattern_name": str(algorithm.pattern_name),
            "topology_name": str(algorithm.topology_name),
            "metadata": algorithm.metadata,
        },
        default=str,
        allow_nan=False,
    ).encode("utf-8")
    return b"".join(
        (_ALGORITHM_MAGIC, _HEADER_LENGTH.pack(len(header)), header, algorithm.table.to_bytes())
    )


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite number {name} in the header")


#: Parses every JSON document the store reads.  The store writes UTF-8, so
#: documents are decoded as such, not passed through ``json.loads``'s
#: encoding detection.
_JSON_DECODER = json.JSONDecoder()
#: Parses algorithm headers, which are strict JSON: NaN and Infinity raise.
#: Built once; ``json.loads(..., parse_constant=...)`` builds one per call.
_HEADER_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
#: ``os.open`` flags of a store read (``O_BINARY`` matters where it exists).
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
#: Bytes asked for by each read past the size ``fstat`` reported: small, as
#: on a hit the first such read only confirms the end of the file.
_READ_TAIL = io.DEFAULT_BUFFER_SIZE


def _decode_algorithm_header(data: bytes) -> Tuple[Dict[str, Any], int]:
    """The validated JSON header of an :func:`encode_algorithm` artifact.

    Returns the header and the offset at which the transfer table starts.
    Raises :class:`ValueError` on a bad magic, a truncated header, a header
    that is not strict JSON, or a missing or mistyped field.
    """
    prefix = len(_ALGORITHM_MAGIC) + _HEADER_LENGTH.size
    if not data.startswith(_ALGORITHM_MAGIC):
        raise ValueError("not an algorithm artifact (bad magic)")
    if len(data) < prefix:
        raise ValueError("truncated header length")
    (length,) = _HEADER_LENGTH.unpack_from(data, len(_ALGORITHM_MAGIC))
    end = prefix + length
    if len(data) < end:
        raise ValueError(f"header declares {length} bytes, artifact has {len(data) - prefix}")
    header = _HEADER_DECODER.decode(str(data[prefix:end], "utf-8"))
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    for name, kind in _HEADER_FIELDS:
        value = header.get(name)
        # bool is an int subclass; a JSON true is never an NPU count.
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"header field {name!r} is missing or not a {kind.__name__}")
    return header, end


def decode_algorithm(data: bytes) -> "CollectiveAlgorithm":
    """Rebuild the algorithm in an :func:`encode_algorithm` artifact.

    Raises :class:`ValueError` when the header is invalid (see
    :func:`_decode_algorithm_header`) or the table is truncated, has trailing
    bytes, or holds a transfer ending before it starts.
    """
    from repro.core.algorithm import CollectiveAlgorithm
    from repro.core.transfers import TransferTable

    header, offset = _decode_algorithm_header(data)
    return CollectiveAlgorithm.from_table(
        TransferTable.from_bytes(memoryview(data)[offset:]),
        num_npus=header["num_npus"],
        chunk_size=header["chunk_size"],
        collective_size=header["collective_size"],
        pattern_name=header["pattern_name"],
        topology_name=header["topology_name"],
        metadata=header["metadata"],
    )


class _FileLock:
    """Advisory exclusive lock on a sidecar file (POSIX ``flock``).

    Serializes writers of one store across *processes*.  Where ``fcntl`` is
    unavailable the lock degrades to a no-op — writes remain torn-free (each
    is an atomic rename of a unique temporary file) but last-writer-wins races
    are no longer ordered.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._handle: Optional[int] = None

    def __enter__(self) -> "_FileLock":
        if fcntl is not None:
            self._handle = os.open(str(self._path), os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._handle, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._handle is not None:
            fcntl.flock(self._handle, fcntl.LOCK_UN)
            os.close(self._handle)
            self._handle = None


class ArtifactStore:
    """Hash-addressed directory of JSON documents and raw binary blobs.

    Parameters
    ----------
    directory:
        Root of the store; created on first write.
    """

    #: Name of the advisory write-lock sidecar file.
    LOCK_NAME = ".lock"

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        # Entry paths are plain strings under this prefix: joining a
        # ``pathlib.Path`` per read costs more than the read's bookkeeping.
        self._prefix = os.path.join(os.fspath(self.directory), "")
        self._tmp_counter = 0
        self._tmp_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Write machinery
    # ------------------------------------------------------------------
    def lock(self) -> _FileLock:
        """The store-wide advisory writer lock (held across one write)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        return _FileLock(self.directory / self.LOCK_NAME)

    def _path(self, name: str) -> str:
        """The path of the entry file ``name`` in the store directory."""
        return self._prefix + name

    def _tmp_path(self, name: str) -> str:
        """A collision-free temporary name unique per process, thread, and call."""
        with self._tmp_lock:
            self._tmp_counter += 1
            serial = self._tmp_counter
        return self._path(f".{name}.{os.getpid()}.{threading.get_ident()}.{serial}.tmp")

    def _write_atomic(self, name: str, data: bytes) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(name)
        tmp = self._tmp_path(name)
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            with self.lock():
                os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # a failed write never leaves droppings
                os.unlink(tmp)
        return Path(path)

    def _read(self, name: str) -> bytes:
        """The whole entry file ``name``: one unbuffered read sized by ``fstat``.

        Reads on until end of file, so a file that grew after the ``fstat``
        (or a short read) still comes back whole.
        """
        fd = os.open(self._path(name), _READ_FLAGS)
        try:
            parts = [os.read(fd, os.fstat(fd).st_size)]
            while True:
                tail = os.read(fd, _READ_TAIL)
                if not tail:
                    return b"".join(parts)  # one part: returned as is, not copied
                parts.append(tail)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # JSON documents
    # ------------------------------------------------------------------
    def write_json(self, key: str, payload: Dict[str, Any], *, strict: bool = True) -> Path:
        """Persist ``payload`` under ``key`` as sorted JSON (atomic).

        ``strict`` (the default) rejects NaN/Infinity so artifacts stay valid
        strict JSON; pass ``strict=False`` for documents that may carry
        legitimate non-finite values (e.g. the infinite bandwidth of a
        zero-time run result, which ``json.loads`` round-trips).
        """
        text = json.dumps(payload, sort_keys=True, allow_nan=not strict)
        return self._write_atomic(f"{key}.json", text.encode("utf-8"))

    def read_json(self, key: str) -> Optional[Dict[str, Any]]:
        """The JSON document stored under ``key``, or ``None`` (corrupt = miss)."""
        try:
            return _JSON_DECODER.decode(self._read(f"{key}.json").decode("utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            _log.warning("store entry %s.json is unreadable, treating it as a miss: %s", key, exc)
            return None

    # ------------------------------------------------------------------
    # Binary blobs
    # ------------------------------------------------------------------
    def write_blob(self, key: str, name: str, data: bytes) -> Path:
        """Persist ``data`` under ``(key, name)`` as ``<key>.<name>.bin`` (atomic)."""
        return self._write_atomic(f"{key}.{name}.bin", data)

    def read_blob(self, key: str, name: str) -> Optional[bytes]:
        """The bytes stored under ``(key, name)``, or ``None`` (unreadable = miss)."""
        try:
            return self._read(f"{key}.{name}.bin")
        except FileNotFoundError:
            return None
        except OSError as exc:
            _log.warning(
                "store entry %s.%s.bin is unreadable, treating it as a miss: %s", key, name, exc
            )
            return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Keys with a JSON document present, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(path.stem for path in self.directory.glob("*.json"))

    def _entries(self) -> Iterator[Path]:
        yield from self.directory.glob("*.json")
        yield from self.directory.glob("*.bin")
        yield from self.directory.glob("*.npz")  # the earlier artifact layout

    def clear(self) -> None:
        """Delete every stored artifact (JSON, blobs, old ``.npz``), keeping the directory."""
        if not self.directory.is_dir():
            return
        with self.lock():
            for path in self._entries():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent delete
                    pass

    def __repr__(self) -> str:
        return f"ArtifactStore(directory={str(self.directory)!r})"


class ResultCache:
    """In-memory plus optional on-disk cache of :class:`RunResult` objects.

    Parameters
    ----------
    directory:
        When given, results are also persisted through a process-safe
        :class:`ArtifactStore` under this directory (created on demand),
        surviving process restarts and shared safely between concurrent
        workers.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.store = ArtifactStore(self.directory) if self.directory is not None else None
        self._memory: Dict[str, "RunResult"] = {}
        # id(spec) -> (spec, key): holding the spec keeps its id from being
        # reused by another object while the entry lives.
        self._keys: Dict[int, Tuple["RunSpec", str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    #: Spec objects the key memo may hold beyond one per stored result;
    #: past that it starts over (see :meth:`_key_of`).
    KEY_MEMO_SLACK = 4096

    def _key_of(self, spec: "RunSpec") -> str:
        """The store key of ``spec``, hashed at most once per spec object.

        The memo holds each spec it keys.  The stored results hold one spec
        per key anyway, so the memo is bounded by them: when it holds
        :attr:`KEY_MEMO_SLACK` more entries than there are results (a
        long-lived cache fed new but equal spec objects), it is emptied and
        those specs are hashed again when next seen.  Dict reads and writes
        are atomic, so racing threads at worst both hash a spec.
        """
        keys = self._keys
        entry = keys.get(id(spec))
        if entry is not None and entry[0] is spec:
            return entry[1]
        key = spec.spec_hash()
        if len(keys) >= len(self._memory) + self.KEY_MEMO_SLACK:
            keys.clear()
        keys[id(spec)] = (spec, key)
        return key

    def get(self, spec: "RunSpec") -> Optional["RunResult"]:
        """Cached result for ``spec``, flagged ``cached=True``, or None.

        Every hit is a fresh copy: mutating it never changes the stored
        entry or a later hit.
        """
        key = self._key_of(spec)
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self.hits += 1
            elif self.store is None:
                self.misses += 1
                return None
        if result is None:
            result = self._read_disk(spec, key)
            with self._lock:
                if result is None:
                    self.misses += 1
                    return None
                self._memory[key] = result
                self.hits += 1
        return result.copy(cached=True)

    def put(self, result: "RunResult") -> None:
        """Store a copy of ``result`` under its spec's hash (memory and, if set, disk).

        The disk document has no ``spec`` section (see the module
        docstring).
        """
        key = self._key_of(result.spec)
        stored = result.copy()
        with self._lock:
            self._memory[key] = stored
        if self.store is not None:
            self.store.write_json(key, stored.to_dict(with_spec=False), strict=False)

    def absorb(self, result: "RunResult") -> None:
        """Fold an externally computed result into the in-memory layer only.

        For results that are already persisted — e.g. computed by a worker
        process whose own :class:`ResultCache` wrote through the shared
        artifact store — so the calling cache gains the memory-layer hit
        without re-serializing and re-writing the disk entry.
        """
        key = self._key_of(result.spec)
        with self._lock:
            self._memory[key] = result.copy()

    def _read_disk(self, spec: "RunSpec", key: str) -> Optional["RunResult"]:
        from repro.api.runner import RunResult

        data = self.store.read_json(key)
        if data is None:
            return None
        try:
            # The key is the hash of ``spec``: the document carries no spec
            # (an old one's copy is ignored), the caller's is reused.
            return RunResult.from_dict(data, spec=spec)
        except (ValueError, KeyError, TypeError) as exc:
            _log.warning(
                "store entry %s.json is not a run result, treating it as a miss: %r", key, exc
            )
            return None

    # ------------------------------------------------------------------
    # Algorithm artifacts (one binary blob each)
    # ------------------------------------------------------------------
    #: Blob name under which algorithm artifacts are stored.
    ALGORITHM_ARTIFACT = "algorithm"

    def put_algorithm(self, spec: "RunSpec", algorithm: "CollectiveAlgorithm") -> None:
        """Persist a synthesized algorithm under the spec hash (:func:`encode_algorithm`).

        A no-op without a disk store (the in-memory layer caches results, not
        algorithms).
        """
        if self.store is None:
            return
        key = self._key_of(spec)
        self.store.write_blob(key, self.ALGORITHM_ARTIFACT, encode_algorithm(algorithm))

    def load_algorithm(self, spec: "RunSpec") -> Optional["CollectiveAlgorithm"]:
        """Rebuild the stored algorithm for ``spec``, or ``None`` when absent or corrupt."""
        if self.store is None:
            return None
        key = self._key_of(spec)
        data = self.store.read_blob(key, self.ALGORITHM_ARTIFACT)
        if data is None:
            return None
        try:
            return decode_algorithm(data)
        except ValueError as exc:
            _log.warning(
                "store entry %s.%s.bin is corrupt, treating it as a miss: %s",
                key,
                self.ALGORITHM_ARTIFACT,
                exc,
            )
            return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory layer (and, when ``disk=True``, the stored files)."""
        with self._lock:
            self._memory.clear()
            self._keys.clear()
            self.hits = 0
            self.misses = 0
        if disk and self.store is not None:
            self.store.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __repr__(self) -> str:
        where = f", directory={str(self.directory)!r}" if self.directory else ""
        return f"ResultCache(entries={len(self)}, hits={self.hits}, misses={self.misses}{where})"

"""Pluggable execution backends for every fan-out site in the pipeline.

The paper's synthesizer is trial-based and embarrassingly parallel: best-of-N
synthesis, batch sweeps (:func:`repro.api.runner.run_batch`), and the
byte-identity check's scenario grids (:mod:`repro.bench.check`) are all
independent work items.  This
module is the single seam those sites fan out through, with two tiers:

* :class:`SerialBackend` — a plain loop (the default);
* :class:`PoolBackend` — process pools that stay warm across ``map`` calls
  (keyed by worker count, lazily forked, re-forked after worker death), so
  repeated fan-outs pay the spin-up cost once.

Both backends preserve input order in the result list and propagate worker
exceptions to the caller, so swapping one for another never changes *what* is
computed — only where.  The pool additionally requires the mapped function
and its items to be picklable; fan-out sites meet that contract with
module-level task functions and columnar byte payloads
(:meth:`repro.core.transfers.TransferTable.to_bytes`).

Call sites that cannot thread explicit knobs through their API (e.g. the
synthesizer driven via a declarative spec) consult the *ambient* policy
installed by :func:`execution_scope`; the CLI's ``--workers`` / ``--execution``
flags wrap their commands in such a scope.

Kept free of intra-package imports (except :mod:`repro.errors`) so lower
layers can import it without cycles.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import util as _mp_util
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

from repro.errors import ReproError

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "PoolBackend",
    "SerialBackend",
    "chunk_items",
    "current_execution",
    "default_worker_count",
    "effective_backend",
    "execution_scope",
    "map_parallel",
    "resolve_backend",
    "shutdown_pools",
]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Anything :func:`resolve_backend` accepts: a backend name, an instance, or
#: ``None`` (meaning "no explicit choice").
BackendSpec = Union[None, str, "ExecutionBackend"]


def default_worker_count() -> int:
    """Workers used when a pool size is not given: the usable CPU count."""
    try:
        return len(os.sched_getaffinity(0))  # respects cgroup/affinity limits
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _effective_workers(max_workers: Optional[int], num_items: int) -> int:
    """Pool size actually used: requested (or CPU count), capped by the items."""
    workers = max_workers if max_workers is not None else default_worker_count()
    return max(1, min(int(workers), num_items))


class ExecutionBackend:
    """Strategy object deciding *where* a fan-out's work items execute.

    Subclasses implement :meth:`map`; the contract is exactly that of
    ``list(map(fn, items))`` — input order preserved, exceptions propagated —
    regardless of the underlying concurrency.  Fan-out sites treat every
    backend other than ``serial`` as crossing a process boundary: they map
    picklable module-level functions and ship columnar byte payloads.
    """

    #: Registry name (``"serial"`` / ``"pool"``).
    name: str = "abstract"

    def map(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Iterable[_ItemT],
        *,
        max_workers: Optional[int] = None,
    ) -> List[_ResultT]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SerialBackend(ExecutionBackend):
    """Run every item in the calling thread, one after another."""

    name = "serial"

    def map(self, fn, items, *, max_workers=None):
        return [fn(item) for item in items]


class PoolBackend(ExecutionBackend):
    """Process pools that stay warm across ``map`` calls (the parallel tier).

    Instead of paying the full executor spin-up — fork, pipe setup, worker
    bootstrap — on *every* fan-out, this backend keeps one long-lived
    :class:`~concurrent.futures.ProcessPoolExecutor` per requested worker
    count, created lazily on first use and reused by every later
    fan-out of the same width, so repeated dispatches (sweeps, services,
    best-of-N searches) pay it once.  Warm workers cannot change results:
    every trial is seeded explicitly and best-of selection is
    order-independent, so the determinism contract holds regardless of which
    worker ran what (see docs/determinism.md).

    Lifecycle: pools are shut down at process exit (a pool worker's exit
    included) or explicitly via :meth:`shutdown` / :func:`shutdown_pools`.  A pool whose
    workers died (:class:`~concurrent.futures.process.BrokenProcessPool`) is
    discarded and re-forked once per ``map`` call — transient deaths recover,
    a task that reliably kills its worker still raises.  The instance is
    fork-aware: state inherited into a child process is discarded there (the
    executor handles belong to the parent), so a pool worker that itself fans
    out simply forks fresh pools of its own.
    """

    name = "pool"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: Dict[int, ProcessPoolExecutor] = {}
        self._owner_pid = os.getpid()
        self._atexit_registered = False

    def map(self, fn, items, *, max_workers=None):
        items = list(items)
        workers = _effective_workers(max_workers, len(items))
        if workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        try:
            return list(self._pool(workers).map(fn, items))
        except BrokenProcessPool:
            # A worker died mid-fan-out (OOM kill, crash).  Re-fork the pool
            # and retry the whole map once — results are deterministic, so a
            # retry is indistinguishable from a slow first attempt.
            self._discard(workers)
            return list(self._pool(workers).map(fn, items))

    def pool_widths(self) -> List[int]:
        """Worker counts with a live pool (observability/tests)."""
        with self._lock:
            self._reset_if_forked()
            return sorted(self._pools)

    def shutdown(self, wait: bool = True) -> None:
        """Shut down every live pool; the next ``map`` re-creates lazily."""
        with self._lock:
            self._reset_if_forked()
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=wait)

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        with self._lock:
            self._reset_if_forked()
            pool = self._pools.get(workers)
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
                self._pools[workers] = pool
                if not self._atexit_registered:
                    self._atexit_registered = True
                    # A multiprocessing finalizer rather than ``atexit``: a
                    # pool worker leaves through ``os._exit`` and never runs
                    # ``atexit`` handlers, but it does run these finalizers
                    # before joining its children, so the pools a worker
                    # forked for a nested fan-out are shut down instead of
                    # joined forever.  The priority runs it before the
                    # queues' own finalizers (10) stop their feeder threads,
                    # which would swallow the workers' stop sentinels.
                    _mp_util.Finalize(self, self.shutdown, exitpriority=20)
            return pool

    def _discard(self, workers: int) -> None:
        with self._lock:
            self._reset_if_forked()
            pool = self._pools.pop(workers, None)
        if pool is not None:
            pool.shutdown(wait=False)

    def _reset_if_forked(self) -> None:
        # Called with the lock held.  In a forked child the inherited
        # executors are the parent's; drop the handles without shutting down.
        if os.getpid() != self._owner_pid:
            self._owner_pid = os.getpid()
            self._pools = {}
            self._atexit_registered = False


#: The built-in backends, shared instances.  The pool backend owns the
#: long-lived worker pools, so every caller resolving ``"pool"`` shares the
#: same warm tier.
BACKENDS = {backend.name: backend for backend in (SerialBackend(), PoolBackend())}


def shutdown_pools(wait: bool = True) -> None:
    """Shut down the shared :class:`PoolBackend`'s warm pools explicitly."""
    pool_backend = BACKENDS["pool"]
    assert isinstance(pool_backend, PoolBackend)
    pool_backend.shutdown(wait=wait)


def resolve_backend(spec: BackendSpec) -> Optional[ExecutionBackend]:
    """Resolve a backend name or instance; ``None`` passes through as ``None``."""
    if spec is None or isinstance(spec, ExecutionBackend):
        return spec
    try:
        return BACKENDS[str(spec)]
    except KeyError:
        raise ReproError(
            f"unknown execution backend {spec!r}; available: {', '.join(sorted(BACKENDS))}"
        ) from None


def effective_backend(
    execution: BackendSpec, workers: Optional[int]
) -> Optional[ExecutionBackend]:
    """The one conventional resolution every fan-out site shares.

    An explicit ``execution`` wins; ``workers`` greater than 1 alone implies
    the pool backend (a requested pool width is never silently ignored);
    otherwise ``None`` (callers treat that as serial).  Centralized so
    ``run_bench``, ``map_parallel``, and the ambient :func:`execution_scope`
    can never drift apart on the promotion rule.
    """
    backend = resolve_backend(execution)
    if backend is not None:
        return backend
    if workers is not None and workers > 1:
        return BACKENDS["pool"]
    return None


# ----------------------------------------------------------------------
# Ambient execution policy
# ----------------------------------------------------------------------
_SCOPE = threading.local()


def current_execution() -> Tuple[Optional[ExecutionBackend], Optional[int]]:
    """The ambient ``(backend, workers)`` policy, ``(None, None)`` outside a scope.

    Thread-local by design: worker threads (and fresh worker processes) start
    with no ambient policy, so a parallel fan-out never implicitly nests
    another parallel fan-out inside its own workers.
    """
    return getattr(_SCOPE, "value", None) or (None, None)


@contextmanager
def execution_scope(
    execution: BackendSpec = None, workers: Optional[int] = None
) -> Iterator[Tuple[Optional[ExecutionBackend], Optional[int]]]:
    """Install an ambient execution policy for the enclosed block.

    Code that takes no explicit knobs (e.g. the synthesizer's randomized-trial
    fan-out when its :class:`~repro.core.config.SynthesisConfig` does not pin
    one) resolves its backend through :func:`current_execution`.  Scopes nest;
    ``None`` fields inherit from the enclosing scope.  ``workers`` greater
    than 1 without a backend selects the pool backend — the same
    "workers alone implies the pool" convention every explicit fan-out site
    follows — so a requested pool width is never silently ignored.
    """
    previous = getattr(_SCOPE, "value", None)
    backend = resolve_backend(execution)
    if previous is not None:
        if backend is None:
            backend = previous[0]
        if workers is None:
            workers = previous[1]
    backend = effective_backend(backend, workers)
    _SCOPE.value = (backend, workers)
    try:
        yield _SCOPE.value
    finally:
        _SCOPE.value = previous


# ----------------------------------------------------------------------
# Mapping front door
# ----------------------------------------------------------------------
def map_parallel(
    fn: Callable[[_ItemT], _ResultT],
    items: Iterable[_ItemT],
    *,
    max_workers: Optional[int] = None,
    backend: BackendSpec = None,
) -> List[_ResultT]:
    """Apply ``fn`` to every item, preserving input order in the result list.

    With an explicit ``backend`` (name or instance) the items run there.
    Without one, ``max_workers`` greater than 1 selects the pool backend and
    anything else runs serially.  Exceptions propagate to the caller either
    way.
    """
    items = list(items)
    resolved = effective_backend(backend, max_workers) or BACKENDS["serial"]
    return resolved.map(fn, items, max_workers=max_workers)


def chunk_items(
    items: Iterable[_ItemT], workers: Optional[int], *, chunks_per_worker: int = 4
) -> List[List[_ItemT]]:
    """Split ``items`` into contiguous chunks for thin chunked submission.

    Process fan-outs submit chunks instead of single items so per-task IPC
    (task pickle, result pickle, future bookkeeping) is amortized while load
    still balances: ``chunks_per_worker`` chunks per worker keeps the tail
    short when chunk runtimes vary.  Chunks are contiguous and in input
    order, so concatenating per-chunk results reproduces the plain ``map``
    order exactly — chunking can never reorder outcomes.
    """
    items = list(items)
    if not items:
        return []
    width = workers if workers is not None else default_worker_count()
    target = max(1, min(len(items), max(1, int(width)) * max(1, int(chunks_per_worker))))
    base, extra = divmod(len(items), target)
    chunks: List[List[_ItemT]] = []
    start = 0
    for index in range(target):
        size = base + (1 if index < extra else 0)
        if size:
            chunks.append(items[start : start + size])
        start += size
    return chunks

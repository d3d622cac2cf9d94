"""One fan-out seam, one setting: the worker count.

The paper's synthesizer is trial-based and embarrassingly parallel: best-of-N
synthesis, batch sweeps (:func:`repro.api.runner.run_batch`), and the
byte-identity check's scenario grids (:mod:`repro.bench.check`) are all
independent work items.  Every such site fans out through
:func:`map_parallel`, and ``workers`` alone decides where the items run:

* absent or 1 — a plain loop in the calling thread;
* N > 1 — a process pool of width N (capped by the item count) that stays
  warm across fan-outs (:class:`WarmPools`: lazily forked, re-forked after
  worker death), so repeated fan-outs pay the spin-up cost once.

Either way input order is preserved in the result list and worker
exceptions propagate to the caller, so the worker count never changes
*what* is computed — only where.  The pool additionally requires the mapped
function and its items to be picklable; fan-out sites meet that contract
with module-level task functions and columnar byte payloads
(:meth:`repro.core.transfers.TransferTable.to_bytes`).

Call sites that cannot thread a worker count through their API (e.g. the
synthesizer driven via a declarative spec) read the *ambient* count
installed by :func:`execution_scope`; the CLI's ``--workers`` flags wrap
their commands in such a scope.

Kept free of intra-package imports so lower layers can import it without
cycles.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing import util as _mp_util
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TypeVar

__all__ = [
    "WarmPools",
    "chunk_items",
    "current_workers",
    "execution_scope",
    "map_parallel",
    "shutdown_pools",
]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


class WarmPools:
    """Process pools that stay warm across ``map`` calls (the parallel tier).

    Instead of paying the full executor spin-up — fork, pipe setup, worker
    bootstrap — on *every* fan-out, this keeps one long-lived
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

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pools: Dict[int, ProcessPoolExecutor] = {}
        self._owner_pid = os.getpid()
        self._atexit_registered = False

    def map(self, fn, items, workers: int):
        items = list(items)
        workers = max(1, min(int(workers), len(items)))
        if workers <= 1:
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
                pool = ProcessPoolExecutor(max_workers=workers, initializer=_leave_scope)
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


#: The shared warm pools every fan-out with ``workers > 1`` runs on.
_POOLS = WarmPools()


def shutdown_pools(wait: bool = True) -> None:
    """Shut down the shared warm pools explicitly."""
    _POOLS.shutdown(wait=wait)


# ----------------------------------------------------------------------
# Ambient worker count
# ----------------------------------------------------------------------
_SCOPE = threading.local()


def _leave_scope() -> None:
    """Pool-worker initializer: drop the ambient worker count inherited by fork.

    A forked worker starts with a copy of the forking thread's state, so a
    pool first used inside an :func:`execution_scope` would otherwise run
    every task under that scope and nest fan-outs in its workers.
    """
    _SCOPE.value = None


def current_workers() -> Optional[int]:
    """The ambient worker count, ``None`` outside a scope.

    Thread-local by design: worker threads (and fresh worker processes) start
    with no ambient count, so a parallel fan-out never implicitly nests
    another parallel fan-out inside its own workers.
    """
    return getattr(_SCOPE, "value", None)


@contextmanager
def execution_scope(workers: Optional[int] = None) -> Iterator[Optional[int]]:
    """Install an ambient worker count for the enclosed block.

    Code that takes no explicit count (the synthesizer's randomized-trial
    fan-out) reads it through :func:`current_workers`.  Scopes nest;
    ``None`` inherits the enclosing scope's count.
    """
    previous = getattr(_SCOPE, "value", None)
    _SCOPE.value = previous if workers is None else workers
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
    workers: Optional[int] = None,
) -> List[_ResultT]:
    """Apply ``fn`` to every item, preserving input order in the result list.

    ``workers`` greater than 1 runs the items on the shared warm pool of
    that width; anything else runs them in a plain loop.  Exceptions
    propagate to the caller either way.
    """
    if workers is None or workers <= 1:
        return [fn(item) for item in items]
    return _POOLS.map(fn, items, workers)


def chunk_items(
    items: Iterable[_ItemT], workers: int, *, chunks_per_worker: int = 4
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
    target = max(1, min(len(items), max(1, int(workers)) * max(1, int(chunks_per_worker))))
    base, extra = divmod(len(items), target)
    chunks: List[List[_ItemT]] = []
    start = 0
    for index in range(target):
        size = base + (1 if index < extra else 0)
        if size:
            chunks.append(items[start : start + size])
        start += size
    return chunks

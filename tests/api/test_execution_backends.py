"""The worker count: unit behaviour plus one-worker == pool determinism for
every fan-out site (the ``backend_equivalence`` marker is what CI's
pool smoke job selects)."""

import dataclasses
import inspect
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.api import (
    AlgorithmSpec,
    CollectiveSpec,
    ResultCache,
    RunSpec,
    TopologySpec,
    parallel,
    run_batch,
)
from repro.api.parallel import (
    WarmPools,
    chunk_items,
    current_workers,
    execution_scope,
    map_parallel,
    shutdown_pools,
)
from repro.bench.reference import REFERENCE_ENGINE
from repro.collectives import AllGather, Gather, ReduceScatter
from repro.core import GuidedSynthesizer, SynthesisConfig, TacosSynthesizer
from repro.core.synthesizer import SynthesisEngine
from repro.errors import ReproError, SynthesisError
from repro.topology import build_3d_rfs, build_dgx1, build_mesh, build_ring

MB = 1e6


def _square(value):
    return value * value


def _ambient_workers(_):
    return current_workers()


def _boom(value):
    raise RuntimeError(f"boom {value}")


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


# ----------------------------------------------------------------------
# The one setting
# ----------------------------------------------------------------------
class TestWorkerCount:
    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_map_preserves_order(self, workers):
        assert map_parallel(_square, range(7), workers=workers) == [
            0, 1, 4, 9, 16, 25, 36,
        ]

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_exceptions_propagate(self, workers):
        with pytest.raises(RuntimeError, match="boom"):
            map_parallel(_boom, [1, 2], workers=workers)

    def test_one_worker_runs_the_plain_loop(self):
        shutdown_pools()
        assert map_parallel(_square, range(4)) == [0, 1, 4, 9]
        assert map_parallel(_square, range(4), workers=1) == [0, 1, 4, 9]
        assert parallel._POOLS.pool_widths() == []
        # More than one worker is the warm pool at that width.
        assert map_parallel(_square, range(4), workers=2) == [0, 1, 4, 9]
        assert parallel._POOLS.pool_widths() == [2]
        shutdown_pools()

    def test_pool_width_is_capped_by_the_items(self):
        pools = WarmPools()
        try:
            assert pools.map(_square, [3, 4], 4) == [9, 16]
            assert pools.pool_widths() == [2]
            # A single item runs in the calling process.
            assert pools.map(_square, [5], 4) == [25]
            assert pools.pool_widths() == [2]
        finally:
            pools.shutdown()

    @pytest.mark.parametrize(
        "num_items, workers, sizes",
        [(0, 2, []), (3, 2, [1, 1, 1]), (10, 2, [2, 2, 1, 1, 1, 1, 1, 1]), (9, 1, [3, 2, 2, 2])],
    )
    def test_chunks_are_contiguous_balanced_and_in_order(self, num_items, workers, sizes):
        # At most four chunks per worker, sizes differing by one at most, and
        # concatenation restores the input order.
        chunks = chunk_items(range(num_items), workers)
        assert [len(chunk) for chunk in chunks] == sizes
        assert [item for chunk in chunks for item in chunk] == list(range(num_items))

    def test_execution_scope_nests_and_restores(self):
        assert current_workers() is None
        with execution_scope(3) as workers:
            assert workers == current_workers() == 3
            with execution_scope(2):
                assert current_workers() == 2
            with execution_scope():
                assert current_workers() == 3  # None inherits the enclosing count
            with execution_scope(1):
                assert current_workers() == 1
            assert current_workers() == 3
        assert current_workers() is None

    def test_the_worker_count_is_the_only_setting(self):
        assert list(inspect.signature(map_parallel).parameters) == ["fn", "items", "workers"]
        assert list(inspect.signature(execution_scope).parameters) == ["workers"]
        batch = inspect.signature(run_batch).parameters
        assert "workers" in batch and "max_workers" not in batch and "execution" not in batch
        for name in (
            "BACKENDS",
            "BackendSpec",
            "ExecutionBackend",
            "SerialBackend",
            "current_execution",
            "default_worker_count",
            "effective_backend",
            "resolve_backend",
        ):
            assert not hasattr(parallel, name), name


# ----------------------------------------------------------------------
# Fan-out site equivalence (CI runs these in its pool smoke job)
# ----------------------------------------------------------------------
def _specs():
    return [
        RunSpec(
            topology=TopologySpec(name="ring", params={"num_npus": num_npus}),
            collective=CollectiveSpec(name="all_gather", collective_size=MB),
            algorithm=AlgorithmSpec(name="tacos"),
        )
        for num_npus in (4, 5)
    ] + [
        RunSpec(
            topology=TopologySpec(name="ring", params={"num_npus": 4}),
            collective=CollectiveSpec(name="all_reduce", collective_size=MB),
            algorithm=AlgorithmSpec(name="ring"),
        )
    ]


def _strip_timing(results):
    return [
        dataclasses.replace(
            result,
            synthesis_seconds=None,
            trial_stats=[
                {key: value for key, value in stats.items() if key != "wall_seconds"}
                for stats in result.trial_stats or []
            ],
        )
        for result in results
    ]


@pytest.mark.backend_equivalence
class TestRunBatchEquivalence:
    def test_serial_pool_identical(self):
        specs = _specs()
        serial = run_batch(specs)
        one = run_batch(specs, workers=1)
        pool = run_batch(specs, workers=2)
        assert _strip_timing(serial) == _strip_timing(one) == _strip_timing(pool)

    def test_pool_workers_share_disk_cache(self, tmp_path):
        specs = _specs()
        cache = ResultCache(tmp_path)
        first = run_batch(specs, workers=2, cache=cache)
        assert not any(result.cached for result in first)
        # Worker-computed results were folded back into the calling cache's
        # memory layer without rewriting the disk entries the workers
        # already persisted through the shared store.
        disk_state = {path.name: path.stat().st_mtime_ns for path in tmp_path.glob("*.json")}
        assert disk_state  # workers did persist
        again = run_batch(specs, cache=cache)
        assert all(result.cached for result in again)
        assert {
            path.name: path.stat().st_mtime_ns for path in tmp_path.glob("*.json")
        } == disk_state
        assert _strip_timing(first) == _strip_timing(
            [dataclasses.replace(result, cached=False) for result in again]
        )
        # The synthesized algorithm itself is shared through the store.
        algorithm = cache.load_algorithm(specs[0])
        assert algorithm is not None and algorithm.num_transfers > 0

    def test_pool_batch_serves_memory_only_cache_hits(self):
        # A memory-only cache is invisible to worker processes; the parent
        # must serve its hits itself instead of recomputing every spec.
        specs = _specs()
        cache = ResultCache()
        first = run_batch(specs, workers=2, cache=cache)
        assert not any(result.cached for result in first)
        again = run_batch(specs, workers=2, cache=cache)
        assert all(result.cached for result in again)
        assert _strip_timing(first) == _strip_timing(
            [dataclasses.replace(result, cached=False) for result in again]
        )

    def test_return_exceptions_across_process_boundary(self):
        bad = RunSpec(
            topology=TopologySpec(name="ring", params={"num_npus": 6}),
            collective=CollectiveSpec(name="all_reduce", collective_size=MB),
            # RHD needs a power-of-two NPU count: this cell must fail alone.
            algorithm=AlgorithmSpec(name="rhd"),
        )
        specs = _specs() + [bad]
        results = run_batch(specs, workers=2, return_exceptions=True)
        assert isinstance(results[-1], ReproError)
        assert all(not isinstance(result, Exception) for result in results[:-1])


@pytest.mark.backend_equivalence
class TestTrialFanOutEquivalence:
    def test_best_of_n_synthesis_byte_identical(self):
        topology = build_ring(6)
        pattern = AllGather(6)
        config = SynthesisConfig(seed=0, trials=4)
        outcomes = {}
        for workers in (None, 1, 2):
            with execution_scope(workers):
                outcomes[workers] = TacosSynthesizer(config).synthesize(topology, pattern, MB)
        serial = outcomes[None]
        for name, algorithm in outcomes.items():
            assert algorithm.transfers == serial.transfers, name
            assert algorithm.table.to_bytes() == serial.table.to_bytes(), name
            assert algorithm.metadata == serial.metadata, name

    def test_ambient_scope_drives_unconfigured_synthesis(self):
        topology = build_ring(5)
        pattern = AllGather(5)
        config = SynthesisConfig(seed=1, trials=3)
        baseline = TacosSynthesizer(config).synthesize(topology, pattern, MB)
        with execution_scope(2):
            scoped = TacosSynthesizer(config).synthesize(topology, pattern, MB)
        assert scoped.table.to_bytes() == baseline.table.to_bytes()

    def test_trial_stats_identical_across_backends(self):
        # Uniform search: every seed runs to completion on both tiers.  (A
        # pruned pool search shares its incumbent per wave, so it may prune
        # later than the serial scan; only its winner is pinned.)
        def stats(workers):
            with execution_scope(workers):
                result = TacosSynthesizer(
                    SynthesisConfig(seed=0, trials=6)
                ).synthesize_with_stats(build_mesh([3, 3]), Gather(9), MB)
            return [
                (entry["seed"], entry["rounds"], entry["collective_time"], entry["pruned_at_round"])
                for entry in result.trial_stats
            ]

        serial = stats(1)
        assert [entry[0] for entry in serial] == list(range(6))
        assert stats(2) == serial

    @pytest.mark.parametrize(
        "topology_factory, pattern_cls",
        [
            (lambda: build_dgx1(heterogeneous=True), AllGather),
            (lambda: build_3d_rfs(2, 4, 4), ReduceScatter),
        ],
        ids=["dgx1-hetero-allgather", "rfs2x4x4-reducescatter"],
    )
    def test_heterogeneous_payload_crosses_the_pool(self, topology_factory, pattern_cls):
        # Cheap-region tiers and (for Reduce-Scatter) the reversed topology
        # of the dual All-Gather travel in the blob to the pool workers.
        topology = topology_factory()
        pattern = pattern_cls(topology.num_npus)
        results = {}
        for workers in (1, 2):
            with execution_scope(workers):
                results[workers] = TacosSynthesizer(
                    SynthesisConfig(seed=0, trials=4)
                ).synthesize(topology, pattern, 16 * MB)
        assert results[2].table.to_bytes() == results[1].table.to_bytes()
        assert results[2].metadata == results[1].metadata

    @pytest.mark.parametrize(
        "synthesizer_cls", [TacosSynthesizer, GuidedSynthesizer], ids=["uniform", "pruned"]
    )
    def test_failed_pool_fan_out_leaks_nothing(self, synthesizer_cls):
        # Every trial overruns max_rounds inside a pool worker: the error
        # must reach the caller, and the pool must stay usable afterwards.
        config = SynthesisConfig(trials=4, max_rounds=1)
        with execution_scope(2):
            with pytest.raises(SynthesisError, match="exceeded 1 time spans"):
                synthesizer_cls(config).synthesize(build_mesh([3, 3]), Gather(9), MB)
        assert map_parallel(_square, range(4), workers=2) == [0, 1, 4, 9]

    @pytest.mark.parametrize(
        "engine",
        [REFERENCE_ENGINE, SynthesisEngine(name="ghost")],
        ids=["reference", "ghost"],
    )
    def test_non_flat_engine_runs_serially_but_not_on_the_pool(self, engine):
        # Pool workers run the flat engine only, so no other engine crosses
        # the process boundary; a serial run needs no serialization, accepts
        # it, and (both engines being byte-identical to flat) returns the
        # flat winner.
        topology = build_ring(4)
        serial = TacosSynthesizer(SynthesisConfig(trials=2), engine=engine).synthesize(
            topology, AllGather(4), MB
        )
        flat = TacosSynthesizer(SynthesisConfig(trials=2)).synthesize(topology, AllGather(4), MB)
        assert serial.table.to_bytes() == flat.table.to_bytes()
        with execution_scope(2):
            with pytest.raises(SynthesisError, match="flat engine only"):
                TacosSynthesizer(SynthesisConfig(trials=2), engine=engine).synthesize(
                    topology, AllGather(4), MB
                )


@pytest.mark.backend_equivalence
class TestPoolLifecycle:
    """The persistent tier's contract: warm reuse, thread safety, recovery."""

    def test_workers_forked_inside_a_scope_start_without_it(self):
        # The pool forks on first use; a worker must not inherit the ambient
        # policy of the thread that forked it, or every later task on the
        # warm pool (e.g. a reference-engine synthesis) would fan out again.
        pools = WarmPools()
        try:
            with execution_scope(2):
                inside = pools.map(_ambient_workers, range(4), 2)
            outside = pools.map(_ambient_workers, range(4), 2)
        finally:
            pools.shutdown()
        assert inside == outside == [None] * 4

    def test_pool_reused_across_consecutive_fan_outs(self):
        pools = WarmPools()
        try:
            assert pools.map(_square, range(6), 2) == [0, 1, 4, 9, 16, 25]
            first_pool = pools._pools[2]
            assert pools.map(_square, range(8), 2) == [0, 1, 4, 9, 16, 25, 36, 49]
            # Same executor object: the second fan-out paid no spin-up.
            assert pools._pools[2] is first_pool
            assert pools.pool_widths() == [2]
        finally:
            pools.shutdown()
        assert pools.pool_widths() == []

    def test_two_calling_threads_share_one_pool(self):
        pools = WarmPools()
        results = {}
        errors = []

        def fan_out(tag, offset):
            try:
                results[tag] = pools.map(_square, range(offset, offset + 6), 2)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=fan_out, args=("a", 0)),
                threading.Thread(target=fan_out, args=("b", 10)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert results["a"] == [value * value for value in range(6)]
            assert results["b"] == [value * value for value in range(10, 16)]
            # Both threads went through one lazily created pool.
            assert pools.pool_widths() == [2]
        finally:
            pools.shutdown()

    def test_worker_death_recovers_with_correct_results(self):
        pools = WarmPools()
        try:
            assert pools.map(_square, range(2), 2) == [0, 1]
            # Kill the warm workers out from under the pools: the next map
            # hits BrokenProcessPool, re-forks once, and still returns the
            # right answers.
            for process in pools._pools[2]._processes.values():
                process.terminate()
            assert pools.map(_square, range(6), 2) == [0, 1, 4, 9, 16, 25]
            assert pools.pool_widths() == [2]
        finally:
            pools.shutdown()

    def test_shared_instance_shutdown_allows_reuse(self):
        assert map_parallel(_square, range(4), workers=2) == [0, 1, 4, 9]
        assert 2 in parallel._POOLS.pool_widths()
        shutdown_pools()
        assert parallel._POOLS.pool_widths() == []
        # The next fan-out lazily re-creates the pool.
        assert map_parallel(_square, range(4), workers=2) == [0, 1, 4, 9]
        assert parallel._POOLS.pool_widths() == [2]
        shutdown_pools()

    def test_process_exits_after_a_nested_fan_out(self):
        # A pool worker that fans out forks a pool of its own.  Workers leave
        # through os._exit, skipping atexit, so unless that inner pool is
        # shut down by a multiprocessing finalizer the worker joins its idle
        # children forever and the outer process never exits.
        script = (
            "from repro.api.parallel import map_parallel\n"
            "def inner(x):\n"
            "    return x * x\n"
            "def outer(x):\n"
            "    return sum(map_parallel(inner, range(x, x + 4), workers=2))\n"
            "if __name__ == '__main__':\n"
            "    print(map_parallel(outer, range(2), workers=2))\n"
        )
        env = _subprocess_env()
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)  # the hung workers too
            process.communicate()
            pytest.fail("the process hung at exit after a nested fan-out")
        assert process.returncode == 0, stderr
        assert stdout.strip() == "[14, 30]"

    def test_a_cli_synthesis_leaves_no_worker_behind(self):
        # A 2-worker CLI synthesis starts the warm pool; the command records
        # its workers' PIDs before it returns.  Once the process has exited,
        # none of them may still be running.
        script = (
            "import sys\n"
            "from repro.api import parallel\n"
            "from repro.cli import main\n"
            "code = main(['synthesize', '-t', 'mesh:3x3', '-c', 'all_gather',\n"
            "             '-p', 'trials=4', '-w', '2'])\n"
            "pids = [pid for pool in parallel._POOLS._pools.values() for pid in pool._processes]\n"
            "print('PIDS', *pids)\n"
            "sys.exit(code)\n"
        )
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_subprocess_env(), start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("the synthesis did not exit")
        assert process.returncode == 0, stderr
        (line,) = [line for line in stdout.splitlines() if line.startswith("PIDS")]
        pids = [int(token) for token in line.split()[1:]]
        assert len(pids) == 2
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                continue
            alive.append(pid)
        assert alive == [], f"pool workers still running after exit: {alive}"


@pytest.mark.backend_equivalence
class TestBenchFanOutEquivalence:
    def test_bench_records_identical_across_backends(self):
        from repro.bench import run_bench

        # The smoke grid's backend scenario fans out on a pool of its own,
        # so under the pool this also nests one fan-out inside another.
        serial = run_bench("smoke")
        pool = run_bench("smoke", workers=2)
        assert serial == pool
        assert all(record.equivalent for record in pool)

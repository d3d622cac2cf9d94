"""Execution backends: unit behaviour plus serial == pool determinism for
every fan-out site (the ``backend_equivalence`` marker is what CI's
pool-backend smoke job selects)."""

import dataclasses
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
    run_batch,
)
from repro.api.parallel import (
    BACKENDS,
    PoolBackend,
    SerialBackend,
    current_execution,
    effective_backend,
    execution_scope,
    map_parallel,
    resolve_backend,
    shutdown_pools,
)
from repro.collectives import AllGather, Gather, ReduceScatter
from repro.core import SynthesisConfig, TacosSynthesizer
from repro.core.synthesizer import SynthesisEngine
from repro.errors import ReproError, SynthesisError
from repro.topology import build_3d_rfs, build_dgx1, build_mesh, build_ring

MB = 1e6


def _square(value):
    return value * value


def _boom(value):
    raise RuntimeError(f"boom {value}")


# ----------------------------------------------------------------------
# Backend units
# ----------------------------------------------------------------------
class TestBackends:
    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_map_preserves_order(self, name):
        backend = BACKENDS[name]
        assert backend.map(_square, range(7), max_workers=3) == [
            0, 1, 4, 9, 16, 25, 36,
        ]

    @pytest.mark.parametrize("name", ["serial", "pool"])
    def test_exceptions_propagate(self, name):
        with pytest.raises(RuntimeError, match="boom"):
            BACKENDS[name].map(_boom, [1, 2], max_workers=2)

    def test_registry_instances(self):
        assert sorted(BACKENDS) == ["pool", "serial"]
        assert isinstance(BACKENDS["serial"], SerialBackend)
        assert isinstance(BACKENDS["pool"], PoolBackend)

    def test_resolve_backend(self):
        assert resolve_backend(None) is None
        assert resolve_backend("pool") is BACKENDS["pool"]
        assert resolve_backend(BACKENDS["serial"]) is BACKENDS["serial"]
        for name in ("gpu", "thread", "process"):
            with pytest.raises(ReproError):
                resolve_backend(name)

    def test_workers_alone_imply_pool(self):
        assert effective_backend(None, None) is None
        assert effective_backend(None, 1) is None
        assert effective_backend(None, 2) is BACKENDS["pool"]
        assert effective_backend("serial", 4) is BACKENDS["serial"]

    def test_map_parallel_policy(self):
        # Without an explicit backend: serial unless max_workers > 1.
        assert map_parallel(_square, [1, 2, 3]) == [1, 4, 9]
        assert map_parallel(_square, [1, 2, 3], max_workers=2) == [1, 4, 9]
        assert map_parallel(_square, [1, 2, 3], backend="pool", max_workers=2) == [1, 4, 9]

    def test_execution_scope_nests_and_restores(self):
        assert current_execution() == (None, None)
        with execution_scope(execution="pool", workers=3):
            backend, workers = current_execution()
            assert backend.name == "pool" and workers == 3
            with execution_scope(workers=2):
                backend, workers = current_execution()
                assert backend.name == "pool" and workers == 2
            with execution_scope(execution="serial"):
                backend, workers = current_execution()
                assert backend.name == "serial" and workers == 3
            backend, workers = current_execution()
            assert backend.name == "pool" and workers == 3
        assert current_execution() == (None, None)

    def test_scope_workers_alone_imply_pool(self):
        # A requested pool width is never silently ignored: workers without
        # a backend select the pool, matching every explicit fan-out site.
        with execution_scope(workers=4):
            backend, workers = current_execution()
            assert backend.name == "pool" and workers == 4
        with execution_scope(workers=1):
            assert current_execution()[0] is None

    @pytest.mark.parametrize("name", ["gpu", "thread", "process"])
    def test_config_rejects_unknown_execution(self, name):
        with pytest.raises(SynthesisError):
            SynthesisConfig(execution=name)


# ----------------------------------------------------------------------
# Fan-out site equivalence (CI runs these in its pool-backend smoke job)
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
        serial = run_batch(specs, execution="serial")
        pool = run_batch(specs, max_workers=2, execution="pool")
        workers_alone = run_batch(specs, max_workers=2)  # workers alone = pool
        assert _strip_timing(serial) == _strip_timing(pool) == _strip_timing(workers_alone)

    def test_pool_workers_share_disk_cache(self, tmp_path):
        specs = _specs()
        cache = ResultCache(tmp_path)
        first = run_batch(specs, max_workers=2, execution="pool", cache=cache)
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
        first = run_batch(specs, max_workers=2, execution="pool", cache=cache)
        assert not any(result.cached for result in first)
        again = run_batch(specs, max_workers=2, execution="pool", cache=cache)
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
        results = run_batch(
            specs, max_workers=2, execution="pool", return_exceptions=True
        )
        assert isinstance(results[-1], ReproError)
        assert all(not isinstance(result, Exception) for result in results[:-1])


@pytest.mark.backend_equivalence
class TestTrialFanOutEquivalence:
    def test_best_of_n_synthesis_byte_identical(self):
        topology = build_ring(6)
        pattern = AllGather(6)
        outcomes = {}
        for name, config in {
            "serial": SynthesisConfig(seed=0, trials=4),
            "workers-alone": SynthesisConfig(seed=0, trials=4, trial_workers=2),
            "pool": SynthesisConfig(
                seed=0, trials=4, trial_workers=2, execution="pool"
            ),
        }.items():
            outcomes[name] = TacosSynthesizer(config).synthesize(topology, pattern, MB)
        serial = outcomes["serial"]
        for name, algorithm in outcomes.items():
            assert algorithm.transfers == serial.transfers, name
            assert algorithm.table.to_bytes() == serial.table.to_bytes(), name
            assert algorithm.metadata == serial.metadata, name

    def test_ambient_scope_drives_unconfigured_synthesis(self):
        topology = build_ring(5)
        pattern = AllGather(5)
        config = SynthesisConfig(seed=1, trials=3)
        baseline = TacosSynthesizer(config).synthesize(topology, pattern, MB)
        with execution_scope(execution="pool", workers=2):
            scoped = TacosSynthesizer(config).synthesize(topology, pattern, MB)
        assert scoped.table.to_bytes() == baseline.table.to_bytes()

    def test_explicit_serial_config_ignores_scope(self):
        topology = build_ring(4)
        pattern = AllGather(4)
        config = SynthesisConfig(seed=2, trials=2, execution="serial")
        with execution_scope(execution="pool", workers=2):
            algorithm = TacosSynthesizer(config).synthesize(topology, pattern, MB)
        baseline = TacosSynthesizer(
            SynthesisConfig(seed=2, trials=2)
        ).synthesize(topology, pattern, MB)
        assert algorithm.transfers == baseline.transfers

    def test_trial_stats_identical_across_backends(self):
        # Uniform search: every seed runs to completion on both tiers.  (A
        # pruned pool search shares its incumbent per wave, so it may prune
        # later than the serial scan; only its winner is pinned.)
        def stats(execution):
            config = SynthesisConfig(
                seed=0, trials=6, trial_workers=2, execution=execution
            )
            result = TacosSynthesizer(config).synthesize_with_stats(
                build_mesh([3, 3]), Gather(9), MB
            )
            return [
                (entry["seed"], entry["rounds"], entry["collective_time"], entry["pruned_at_round"])
                for entry in result.trial_stats
            ]

        serial = stats("serial")
        assert [entry[0] for entry in serial] == list(range(6))
        assert stats("pool") == serial

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
        results = {
            execution: TacosSynthesizer(
                SynthesisConfig(seed=0, trials=4, trial_workers=2, execution=execution)
            ).synthesize(topology, pattern, 16 * MB)
            for execution in ("serial", "pool")
        }
        assert results["pool"].table.to_bytes() == results["serial"].table.to_bytes()
        assert results["pool"].metadata == results["serial"].metadata

    @pytest.mark.parametrize("pruning", [False, True], ids=["uniform", "pruned"])
    def test_failed_pool_fan_out_leaks_nothing(self, pruning):
        # Every trial overruns max_rounds inside a pool worker: the error
        # must reach the caller, and the pool must stay usable afterwards.
        config = SynthesisConfig(
            trials=4,
            trial_workers=2,
            execution="pool",
            max_rounds=1,
            incumbent_pruning=pruning,
        )
        with pytest.raises(SynthesisError, match="exceeded 1 time spans"):
            TacosSynthesizer(config).synthesize(build_mesh([3, 3]), Gather(9), MB)
        assert BACKENDS["pool"].map(_square, range(4), max_workers=2) == [0, 1, 4, 9]

    def test_unregistered_engine_runs_serially_but_not_on_the_pool(self):
        # Pool workers resolve the engine by registry name, so an anonymous
        # engine cannot cross the process boundary; a serial run needs no
        # serialization and accepts it.
        ghost = SynthesisEngine(name="ghost")
        topology = build_ring(4)
        serial = TacosSynthesizer(SynthesisConfig(trials=2), engine=ghost).synthesize(
            topology, AllGather(4), MB
        )
        flat = TacosSynthesizer(SynthesisConfig(trials=2)).synthesize(topology, AllGather(4), MB)
        assert serial.table.to_bytes() == flat.table.to_bytes()
        pooled = SynthesisConfig(trials=2, trial_workers=2, execution="pool")
        with pytest.raises(SynthesisError, match="registry name"):
            TacosSynthesizer(pooled, engine=ghost).synthesize(topology, AllGather(4), MB)


@pytest.mark.backend_equivalence
class TestPoolLifecycle:
    """The persistent tier's contract: warm reuse, thread safety, recovery."""

    def test_pool_reused_across_consecutive_fan_outs(self):
        backend = PoolBackend()
        try:
            assert backend.map(_square, range(6), max_workers=2) == [
                0, 1, 4, 9, 16, 25,
            ]
            first_pool = backend._pools[2]
            assert backend.map(_square, range(8), max_workers=2) == [
                0, 1, 4, 9, 16, 25, 36, 49,
            ]
            # Same executor object: the second fan-out paid no spin-up.
            assert backend._pools[2] is first_pool
            assert backend.pool_widths() == [2]
        finally:
            backend.shutdown()
        assert backend.pool_widths() == []

    def test_two_calling_threads_share_one_pool(self):
        backend = PoolBackend()
        results = {}
        errors = []

        def fan_out(tag, offset):
            try:
                results[tag] = backend.map(
                    _square, range(offset, offset + 6), max_workers=2
                )
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
            assert backend.pool_widths() == [2]
        finally:
            backend.shutdown()

    def test_worker_death_recovers_with_correct_results(self):
        backend = PoolBackend()
        try:
            assert backend.map(_square, range(2), max_workers=2) == [0, 1]
            # Kill the warm workers out from under the backend: the next map
            # hits BrokenProcessPool, re-forks once, and still returns the
            # right answers.
            for process in backend._pools[2]._processes.values():
                process.terminate()
            assert backend.map(_square, range(6), max_workers=2) == [
                0, 1, 4, 9, 16, 25,
            ]
            assert backend.pool_widths() == [2]
        finally:
            backend.shutdown()

    def test_shared_instance_shutdown_allows_reuse(self):
        backend = BACKENDS["pool"]
        assert backend.map(_square, range(4), max_workers=2) == [0, 1, 4, 9]
        assert 2 in backend.pool_widths()
        shutdown_pools()
        assert backend.pool_widths() == []
        # The next fan-out lazily re-creates the pool.
        assert backend.map(_square, range(4), max_workers=2) == [0, 1, 4, 9]
        shutdown_pools()

    def test_process_exits_after_a_nested_fan_out(self):
        # A pool worker that fans out forks a pool of its own.  Workers leave
        # through os._exit, skipping atexit, so unless that inner pool is
        # shut down by a multiprocessing finalizer the worker joins its idle
        # children forever and the outer process never exits.
        script = (
            "from repro.api.parallel import BACKENDS\n"
            "def inner(x):\n"
            "    return x * x\n"
            "def outer(x):\n"
            "    return sum(BACKENDS['pool'].map(inner, range(x, x + 4), max_workers=2))\n"
            "if __name__ == '__main__':\n"
            "    print(BACKENDS['pool'].map(outer, range(2), max_workers=2))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
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


@pytest.mark.backend_equivalence
class TestBenchFanOutEquivalence:
    def test_bench_records_identical_across_backends(self):
        from repro.bench import run_bench

        # The smoke grid's backend scenario fans out on a pool of its own,
        # so under the pool this also nests one fan-out inside another.
        serial = run_bench("smoke")
        workers_alone = run_bench("smoke", workers=2)  # workers alone = pool
        pool = run_bench("smoke", workers=2, execution="pool")
        assert serial == workers_alone == pool
        assert all(record.equivalent for record in pool)

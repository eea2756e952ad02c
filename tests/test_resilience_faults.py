"""Failure propagation under the parallel engine: fail once, say where.

A chunk is never retried: every attempt would replay the same compiled
tape on the same inputs. The first failing chunk raises
:class:`ParallelExecutionError` naming the chunk and its mesh range, and
no chunk task is left in flight once the dispatch resolves. Failures are
injected by replacing the worker entry point (``poisoned_chunks`` in
``conftest.py``). The options that configured the deleted retry ladder
and fault injection stay rejected.
"""

from __future__ import annotations

import importlib
import threading
import time

import numpy as np
import pytest

from repro import observability as obs
from repro.apps.registry import all_apps
from repro.dataflow.scheduler import GroupError, GroupRun, MixScheduler
from repro.dse import Evaluator
from repro.parallel import executor
from repro.parallel.executor import (
    ParallelExecutionError,
    run_program_parallel,
    submit_stacked,
)
from repro.parallel.pool import WorkerPool, shutdown_shared_pools
from repro.serve import ServerConfig
from repro.stencil.compiled import DEFAULT_CACHE
from repro.stencil.numpy_eval import run_program

APP_MESHES = {
    "poisson2d": (20, 16),
    "jacobi3d": (14, 12, 8),
    "rtm": (12, 12, 10),
}


@pytest.fixture(autouse=True)
def _observability_off():
    obs.enable(fresh=True)
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module", autouse=True)
def _drain_pools():
    yield
    shutdown_shared_pools()


def _batch(app_key, batch, seed=40):
    app = all_apps()[app_key]
    shape = APP_MESHES[app_key]
    program = app.program_on(shape)
    envs = [app.fields(shape, seed=seed + s) for s in range(batch)]
    return program, envs


def _member(envs, args) -> int:
    """Batch index of the first mesh a ``run_chunk_fields`` call carried."""
    return next(i for i, env in enumerate(envs) if env is args[4][0])


def _fail_members(monkeypatch, envs, doomed, exc=None) -> list:
    """Chunks whose first mesh is in ``doomed`` raise; others run for real.

    Returns the batch index of every call's first mesh, in call order.
    """
    real = executor.run_chunk_fields
    calls: list = []
    lock = threading.Lock()

    def run(*args, **kwargs):
        member = _member(envs, args)
        with lock:
            calls.append(member)
        if member in doomed:
            raise exc if exc is not None else RuntimeError(
                f"chunk at mesh {member} failed"
            )
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "run_chunk_fields", run)
    return calls


def _assert_env_equal(gold, got):
    assert set(gold) == set(got)
    for name in gold:
        assert np.array_equal(gold[name].data, got[name].data), name


def _close_and_assert_quiet(pool: WorkerPool) -> None:
    """Nothing in flight, and no worker thread outlives ``pool``'s close."""
    executor = pool._executor  # noqa: SLF001 - white-box lifecycle check
    threads = list(executor._threads) if executor else []  # noqa: SLF001
    pool.shutdown()
    assert pool.inflight == 0
    assert not any(t.is_alive() for t in threads)


class TestFailurePropagation:
    def test_failed_dispatch_runs_each_chunk_once(self, poisoned_chunks):
        program, envs = _batch("jacobi3d", 4)
        pool = WorkerPool(max_workers=2)
        pending = submit_stacked(
            program, envs, 2, pool=pool,
            max_stack_bytes=0,  # per-mesh chunks: four tasks
        )
        # let every task fail before collecting, so none is cancelled
        deadline = time.monotonic() + 10.0
        while pool.inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        with pytest.raises(
            ParallelExecutionError, match=r"chunk 1/4 \(meshes 0\.\.0,"
        ) as err:
            pending.result()
        assert isinstance(err.value.__cause__, RuntimeError)
        # one call per chunk: collection retried nothing
        members = sorted(
            next(i for i, env in enumerate(envs) if env is args[4][0])
            for args in poisoned_chunks
        )
        assert members == [0, 1, 2, 3]
        assert pool.inflight == 0
        _close_and_assert_quiet(pool)

    def test_failed_dispatch_leaves_nothing_in_flight(self, poisoned_chunks):
        program, envs = _batch("jacobi3d", 4)
        pool = WorkerPool(max_workers=2)
        with pytest.raises(ParallelExecutionError):
            run_program_parallel(
                program, envs, 2, pool=pool,
                max_stack_bytes=0,  # per-mesh chunks: several tasks
            )
        _close_and_assert_quiet(pool)

    def test_poisoned_chunks_fail_on_the_shared_pool(self, poisoned_chunks):
        program, envs = _batch("poisson2d", 2)
        with pytest.raises(ParallelExecutionError) as err:
            run_program_parallel(program, envs, 2, max_workers=2)
        assert err.value.backend == "thread"
        assert "poisoned chunk" in str(err.value)

    @pytest.mark.parametrize("doomed", [0, 1, 2, 3])
    @pytest.mark.parametrize("app_key", ["poisson2d", "jacobi3d", "rtm"])
    def test_failure_on_any_chunk_names_that_chunk(
        self, monkeypatch, app_key, doomed
    ):
        program, envs = _batch(app_key, 4)
        calls = _fail_members(monkeypatch, envs, {doomed})
        pool = WorkerPool(max_workers=2)
        with pytest.raises(
            ParallelExecutionError,
            match=rf"chunk {doomed + 1}/4 \(meshes {doomed}\.\.{doomed},",
        ):
            run_program_parallel(
                program, envs, 1, pool=pool,
                max_stack_bytes=0,  # per-mesh chunks: four tasks
            )
        # no chunk ran twice, and every chunk up to the failing one ran
        assert len(calls) == len(set(calls))
        assert set(range(doomed + 1)) <= set(calls)
        _close_and_assert_quiet(pool)

    @pytest.mark.parametrize("exc_type", [
        RuntimeError, ValueError, MemoryError, FloatingPointError,
        KeyError, OSError, ZeroDivisionError,
    ])
    def test_worker_exception_is_the_cause(self, monkeypatch, exc_type):
        program, envs = _batch("poisson2d", 2)
        raised = exc_type("worker blew up")
        _fail_members(monkeypatch, envs, {0, 1}, exc=raised)
        with pytest.raises(ParallelExecutionError) as err:
            run_program_parallel(program, envs, 2, max_workers=2)
        assert err.value.__cause__ is raised
        assert repr(raised) in str(err.value)

    @pytest.mark.parametrize("batch,cap", [(4, 2), (5, 2), (6, 3)])
    def test_stacked_chunk_failure_names_its_mesh_range(
        self, monkeypatch, batch, cap
    ):
        program, envs = _batch("jacobi3d", batch)
        nbytes = DEFAULT_CACHE.plan_for(program, envs[0]).nbytes
        nchunks = -(-batch // cap)
        last_start = (nchunks - 1) * cap
        _fail_members(monkeypatch, envs, {last_start})
        with pytest.raises(
            ParallelExecutionError,
            match=(
                rf"chunk {nchunks}/{nchunks} "
                rf"\(meshes {last_start}\.\.{batch - 1},"
            ),
        ):
            run_program_parallel(
                program, envs, 1, max_workers=2, max_stack_bytes=cap * nbytes,
            )

    def test_error_carries_backend_and_elapsed(self, poisoned_chunks):
        program, envs = _batch("poisson2d", 2)
        with pytest.raises(ParallelExecutionError) as err:
            run_program_parallel(program, envs, 2, max_workers=2)
        assert err.value.backend == "thread"
        assert err.value.elapsed is not None and err.value.elapsed >= 0.0
        assert "backend thread" in str(err.value)
        assert "s after submit" in str(err.value)

    def test_failure_emits_one_worker_failure_and_no_recovery_telemetry(
        self, poisoned_chunks
    ):
        obs.enable(fresh=True)
        program, envs = _batch("poisson2d", 2)
        with pytest.raises(ParallelExecutionError):
            run_program_parallel(
                program, envs, 2, max_workers=2, max_stack_bytes=0,
            )
        (event,) = obs.ring_sink().of_kind("parallel.worker_failure")
        assert event["backend"] == "thread"
        assert event["meshes"] == [event["chunk"], event["chunk"]]
        assert obs.metrics_registry().value(
            "parallel.worker_failures", backend="thread"
        ) == 1
        kinds = obs.ring_sink().kinds()
        assert not [k for k in kinds if k.startswith("resilience.")]
        assert "exec.fault_injected" not in kinds
        names = {name for name, _, _ in obs.metrics_registry().items()}
        assert not [n for n in names if n.startswith("resilience.")]

    @pytest.mark.parametrize("failures", [1, 2, 3])
    def test_each_failing_dispatch_fails_once(self, flaky_chunks, failures):
        """Every crash surfaces on the dispatch that met it; the pool then
        serves the next dispatch bit-identically."""
        failed = flaky_chunks(failures)
        program, envs = _batch("poisson2d", 1)
        with WorkerPool(max_workers=2) as pool:
            for _ in range(failures):
                with pytest.raises(ParallelExecutionError, match="flaky chunk"):
                    run_program_parallel(program, envs, 2, pool=pool)
            (got,) = run_program_parallel(program, envs, 2, pool=pool)
            assert pool.inflight == 0
        assert len(failed) == failures
        _assert_env_equal(
            run_program(program, envs[0], 2, engine="interpreter"), got
        )

    @pytest.mark.parametrize("app_key", ["poisson2d", "jacobi3d", "rtm"])
    def test_dispatch_after_a_failure_matches_interpreter(
        self, flaky_chunks, app_key
    ):
        flaky_chunks(1)
        program, envs = _batch(app_key, 2)
        with pytest.raises(ParallelExecutionError):
            run_program_parallel(program, envs, 1, max_workers=2)
        got = run_program_parallel(program, envs, 1, max_workers=2)
        for env, res in zip(envs, got):
            _assert_env_equal(
                run_program(program, env, 1, engine="interpreter"), res
            )


class TestRecoveryKnobsAreGone:
    """The retry ladder, fault injection and their options stay deleted.

    Each call binds its arguments before running anything, so a removed
    keyword fails with ``TypeError`` naming it.
    """

    @pytest.mark.parametrize("call,kwarg", [
        (lambda **kw: submit_stacked(None, [], 1, **kw), "policy"),
        (lambda **kw: submit_stacked(None, [], 1, **kw), "fault_plan"),
        (lambda **kw: run_program_parallel(None, [], 1, **kw), "policy"),
        (lambda **kw: run_program_parallel(None, [], 1, **kw), "fault_plan"),
        (lambda **kw: ServerConfig(**kw), "retry_policy"),
        (lambda **kw: ServerConfig(**kw), "fault_plan"),
        (lambda **kw: MixScheduler(**kw), "retry_policy"),
        (lambda **kw: MixScheduler(**kw), "fault_plan"),
        (lambda **kw: Evaluator.mix_scheduler(None, **kw), "retry_policy"),
        (lambda **kw: Evaluator.mix_scheduler(None, **kw), "fault_plan"),
        (lambda **kw: Evaluator.validate_mix(None, {}, **kw), "retry_policy"),
        (lambda **kw: Evaluator.validate_mix(None, {}, **kw), "fault_plan"),
    ], ids=[
        "submit_stacked-policy", "submit_stacked-fault_plan",
        "run_program_parallel-policy", "run_program_parallel-fault_plan",
        "ServerConfig-retry_policy", "ServerConfig-fault_plan",
        "MixScheduler-retry_policy", "MixScheduler-fault_plan",
        "mix_scheduler-retry_policy", "mix_scheduler-fault_plan",
        "validate_mix-retry_policy", "validate_mix-fault_plan",
    ])
    def test_removed_keyword_is_rejected(self, call, kwarg):
        with pytest.raises(TypeError, match=kwarg):
            call(**{kwarg: None})

    @pytest.mark.parametrize("module", ["policy", "faults"])
    def test_recovery_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.resilience.{module}")

    def test_resilience_exports_only_cancellation(self):
        import repro.resilience as resilience

        assert resilience.__all__ == ["CancelToken", "ExecutionCancelled"]

    @pytest.mark.parametrize("cls,attr", [
        (GroupRun, "retries"),
        (GroupError, "attempts"),
        (GroupError, "backend"),
    ])
    def test_ladder_record_fields_are_gone(self, cls, attr):
        assert attr not in cls.__dataclass_fields__

    @pytest.mark.parametrize("attr", ["attempts", "final_backend"])
    def test_parallel_error_carries_no_attempt_context(self, attr):
        err = ParallelExecutionError("chunk failed", backend="thread")
        assert not hasattr(err, attr)

    def test_fault_plan_env_variable_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "crash@*x99")
        program, envs = _batch("poisson2d", 2)
        got = run_program_parallel(program, envs, 2, max_workers=2)
        for env, res in zip(envs, got):
            _assert_env_equal(
                run_program(program, env, 2, engine="interpreter"), res
            )

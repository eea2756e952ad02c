"""The parallel engine: bit-identity, degenerate paths, failure handling.

The contract: ``run_program_parallel`` produces per-mesh results
bit-identical (``np.array_equal``, no tolerance) to the serial chunked
``run_program_stacked`` — and therefore to the golden interpreter — on
every registered application and on random programs, with identical
chunk-schedule accounting; worker failures surface as
:class:`ParallelExecutionError` and never poison the shared pool for
later dispatches.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import all_apps
from repro.mesh.mesh import Field, MeshSpec
from repro.parallel.executor import (
    ParallelExecutionError,
    plan_token_for,
    run_program_parallel,
    submit_stacked,
)
from repro.parallel.pool import WorkerPool, shutdown_shared_pools
from repro.parallel.worker import bind_instance, instance_cache_size
from repro.resilience import ExecutionCancelled
from repro.stencil.builders import jacobi2d_5pt
from repro.stencil.compiled import CompiledPlanCache, run_program_stacked
from repro.stencil.numpy_eval import run_program
from repro.stencil.program import single_kernel_program
from repro.util.errors import ValidationError

#: small-but-representative functional meshes per registered app
APP_MESHES = {
    "poisson2d": (20, 16),
    "jacobi3d": (14, 12, 8),
    "rtm": (12, 12, 10),
}


@pytest.fixture(scope="module", autouse=True)
def _drain_pools():
    yield
    shutdown_shared_pools()


def _assert_env_equal(gold, got):
    assert set(gold) == set(got)
    for name in gold:
        assert np.array_equal(gold[name].data, got[name].data), name


class TestBitIdentity:
    @pytest.mark.parametrize("app_key", ["poisson2d", "jacobi3d", "rtm"])
    def test_apps_match_serial_and_interpreter(self, app_key):
        app = all_apps()[app_key]
        shape = APP_MESHES[app_key]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=60 + s) for s in range(5)]
        niter = 4
        cache = CompiledPlanCache()
        limit = cache.plan_for(program, envs[0]).nbytes * 2  # chunks of 2+2+1
        stats: dict = {}
        parallel = run_program_parallel(
            program, envs, niter, cache=cache, max_stack_bytes=limit,
            stats=stats, max_workers=2,
        )
        assert stats["backend"] == "thread"
        assert stats["workers"] == 2
        serial_stats: dict = {}
        serial = run_program_stacked(
            program, envs, niter, cache=cache, max_stack_bytes=limit,
            stats=serial_stats,
        )
        # identical chunk schedule, identical accounting
        assert stats["chunks"] == serial_stats["chunks"] == [2, 2, 1]
        assert stats["dispatches"] == serial_stats["dispatches"]
        for env, par, ser in zip(envs, parallel, serial):
            _assert_env_equal(ser, par)
            gold = run_program(program, env, niter, engine="interpreter")
            _assert_env_equal(gold, par)

    def test_single_mesh_batch(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        env = app.fields(shape, seed=3)
        got = run_program_parallel(program, [env], 3, max_workers=2)
        gold = run_program(program, env, 3, engine="interpreter")
        _assert_env_equal(gold, got[0])

    @pytest.mark.parametrize("app_key", ["poisson2d", "jacobi3d", "rtm"])
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_per_mesh_chunks_reassemble_in_order_at_any_width(
        self, app_key, workers
    ):
        """One chunk per mesh finishes in any order on any pool width; the
        results still come back in submit order, bit-identically."""
        app = all_apps()[app_key]
        shape = APP_MESHES[app_key]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=20 + s) for s in range(5)]
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 2, max_stack_bytes=0, stats=stats,
            max_workers=workers,
        )
        assert stats["backend"] == "thread"
        assert stats["workers"] == workers
        assert stats["chunks"] == [1] * len(envs)
        assert len(stats["chunk_seconds"]) == len(envs)
        for env, res in zip(envs, got):
            gold = run_program(program, env, 2, engine="interpreter")
            _assert_env_equal(gold, res)

    @pytest.mark.parametrize(
        "app_key,shape",
        [
            ("jacobi3d", (50, 50, 50)),
            ("rtm", (32, 32, 32)),
            ("poisson2d", (400, 400)),
        ],
    )
    def test_large_meshes_match_interpreter(self, app_key, shape):
        """Meshes past 256 KiB a chunk stay on threads, bit-identically."""
        app = all_apps()[app_key]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=80 + s) for s in range(2)]
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, envs[0])
        assert plan.nbytes >= 1 << 18
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 2, cache=cache, max_stack_bytes=plan.nbytes,
            stats=stats, max_workers=2,
        )
        assert stats["backend"] == "thread"
        assert stats["chunks"] == [1, 1]
        for env, res in zip(envs, got):
            gold = run_program(program, env, 2, engine="interpreter")
            _assert_env_equal(gold, res)


class TestDegeneratePaths:
    def test_niter_zero_returns_inputs_without_dispatch(self):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(3)]
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 0, stats=stats, max_workers=2
        )
        assert stats == {
            "chunks": [], "dispatches": 0, "stacked_meshes": 0,
            "backend": "serial", "workers": 1, "chunk_seconds": [],
        }
        for env, res in zip(envs, got):
            assert set(res) == set(env)
            for name in env:
                assert np.array_equal(res[name].data, env[name].data)

    def test_negative_niter_and_empty_batch_raise(self):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        env = app.fields(shape, seed=0)
        with pytest.raises(ValidationError):
            run_program_parallel(program, [env], -1)
        with pytest.raises(ValidationError):
            run_program_parallel(program, [], 2)

    def test_mixed_dtype_falls_back_to_interpreter(self):
        app = all_apps()["rtm"]
        shape = APP_MESHES["rtm"]
        program = app.program_on(shape)
        envs = []
        for s in range(3):
            env = dict(app.fields(shape, seed=s))
            # retype one constant field: the binding no longer shares one
            # dtype, which the serial engine hands to the interpreter
            name = next(n for n in env if n != "U")
            f = env[name]
            spec64 = MeshSpec(f.spec.shape, f.spec.components, np.float64)
            env[name] = Field(name, spec64, f.data.astype(np.float64))
            envs.append(env)
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 2, stats=stats, max_workers=2
        )
        assert stats["backend"] == "serial"
        assert stats["dispatches"] == len(envs)
        for env, res in zip(envs, got):
            gold = run_program(program, env, 2, engine="interpreter")
            _assert_env_equal(gold, res)

    def test_single_worker_degrades_to_serial_in_process(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(4)]
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 3, stats=stats, max_workers=1
        )
        assert stats["backend"] == "serial"
        assert stats["workers"] == 1
        serial = run_program_stacked(program, envs, 3)
        for par, ser in zip(got, serial):
            _assert_env_equal(ser, par)


    def test_explicit_one_lane_pool_still_fans_out(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(3)]
        stats: dict = {}
        with WorkerPool(max_workers=1) as pool:
            got = run_program_parallel(
                program, envs, 3, stats=stats, pool=pool, max_stack_bytes=0,
            )
            assert pool.started  # the chunks really ran on the pool
        assert stats["backend"] == "thread"
        assert stats["chunks"] == [1, 1, 1]
        serial = run_program_stacked(program, envs, 3)
        for par, ser in zip(got, serial):
            _assert_env_equal(ser, par)


class TestFailureHandling:
    def test_thread_worker_exception_names_the_chunk(
        self, monkeypatch, poisoned_chunks
    ):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(4)]
        with pytest.raises(ParallelExecutionError, match=r"chunk 1/"):
            run_program_parallel(program, envs, 2, max_workers=2)
        monkeypatch.undo()
        # the same shared pool serves later dispatches untouched
        got = run_program_parallel(program, envs, 2, max_workers=2)
        gold = run_program(program, envs[0], 2, engine="interpreter")
        _assert_env_equal(gold, got[0])


    def test_dedicated_pool_serves_the_next_dispatch_after_a_failure(
        self, monkeypatch, poisoned_chunks
    ):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(4)]
        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(ParallelExecutionError):
                run_program_parallel(
                    program, envs, 2, pool=pool, max_stack_bytes=0,
                )
            monkeypatch.undo()
            got = run_program_parallel(
                program, envs, 2, pool=pool, max_stack_bytes=0,
            )
            serial = run_program_stacked(program, envs, 2)
            for par, ser in zip(got, serial):
                _assert_env_equal(ser, par)
            assert pool.started


class TestPlanTokens:
    def test_equal_bindings_share_a_token(self):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        env = app.fields(shape, seed=0)
        a = plan_token_for(app.program_on(shape), env)
        b = plan_token_for(app.program_on(shape), env)
        assert a == b

    def test_distinct_bindings_get_distinct_tokens(self, with_coefficients):
        app = all_apps()["jacobi3d"]
        base = plan_token_for(
            app.program_on((14, 12, 8)), app.fields((14, 12, 8), seed=0)
        )
        other_shape = plan_token_for(
            app.program_on((12, 10, 8)), app.fields((12, 10, 8), seed=0)
        )
        other_coeffs = plan_token_for(
            with_coefficients(app.program_on((14, 12, 8)), k1=0.5),
            app.fields((14, 12, 8), seed=0),
        )
        assert len({base, other_shape, other_coeffs}) == 3

    def test_worker_instance_cache_reuses_bound_plans(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        env = app.fields(shape, seed=0)
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, env)
        before = instance_cache_size()
        first = bind_instance("tok-a", plan, 2)
        again = bind_instance("tok-a", plan, 2)
        other = bind_instance("tok-a", plan, 3)
        assert first is again
        assert first is not other
        assert instance_cache_size() == before + 2


class TestPendingBatches:
    def test_groups_overlap_and_collect_in_order(self):
        apps = all_apps()
        cache = CompiledPlanCache()
        pending = []
        for app_key in ("poisson2d", "jacobi3d"):
            app = apps[app_key]
            shape = APP_MESHES[app_key]
            program = app.program_on(shape)
            envs = [app.fields(shape, seed=s) for s in range(3)]
            pending.append(
                (program, envs,
                 submit_stacked(program, envs, 3, cache=cache, max_workers=2))
            )
        for program, envs, batch in pending:
            results = batch.result()
            assert results is batch.result()  # idempotent
            for env, res in zip(envs, results):
                gold = run_program(program, env, 3, engine="interpreter")
                _assert_env_equal(gold, res)

    def test_close_abandons_cleanly(self):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(4)]
        batch = submit_stacked(
            program, envs, 3, max_workers=2,
            max_stack_bytes=0,  # per-mesh chunks: several tasks in flight
        )
        batch.close()
        assert batch.result() == []


class TestPropertyParallelEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        mesh_shape=st.tuples(
            st.integers(min_value=9, max_value=13),
            st.integers(min_value=7, max_value=11),
        ),
        batch=st.integers(min_value=1, max_value=5),
        niter=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_workloads_bit_identical(
        self, mesh_shape, batch, niter, seed
    ):
        mesh = MeshSpec(mesh_shape)
        program = single_kernel_program("par_prop", mesh, jacobi2d_5pt())
        envs = [
            {"U": Field.random("U", mesh, seed=seed + b, lo=-1.0, hi=1.0)}
            for b in range(batch)
        ]
        cache = CompiledPlanCache()
        limit = cache.plan_for(program, envs[0]).nbytes  # per-mesh-ish chunks
        got = run_program_parallel(
            program, envs, niter, cache=cache, max_stack_bytes=limit,
            max_workers=2,
        )
        for env, res in zip(envs, got):
            gold = run_program(program, env, niter, engine="interpreter")
            _assert_env_equal(gold, res)


class TestCooperativeCancellation:
    """PendingBatch.cancel: queued chunks cancelled, clean ExecutionCancelled."""

    @pytest.fixture
    def pool(self):
        pool = WorkerPool(max_workers=2)
        yield pool
        pool.shutdown()

    @pytest.fixture
    def gate(self, pool, monkeypatch):
        """Chunks block on entry until the gate opens (torn down before
        ``pool``, so its close never waits on a closed gate)."""
        from repro.parallel import executor

        gate = threading.Event()
        real = executor.run_chunk_fields

        def gated(*args, **kwargs):
            gate.wait(timeout=10.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor, "run_chunk_fields", gated)
        yield gate
        gate.set()

    def _submit_many_chunks(self, pool, batch=6, niter=20):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(batch)]
        return submit_stacked(
            program, envs, niter, pool=pool,
            max_stack_bytes=0,  # per-mesh chunks: one task each
        )

    def test_cancel_cancels_pending_chunk_futures(self, pool, gate):
        """Cancelling a batch cancels its never-started chunk tasks at once
        and no worker thread outlives the pool's close."""
        pending = self._submit_many_chunks(pool, batch=12)
        threads = list(pool._executor._threads)  # noqa: SLF001
        pending.cancel("test teardown")
        futures = [chunk.future for chunk in pending.pending]
        # the two lanes block at the gate, so no chunk past 1 has started:
        # the other ten were still queued and are cancelled right here,
        # not at collect time
        assert all(f.cancelled() for f in futures[2:])
        gate.set()
        with pytest.raises(ExecutionCancelled):
            pending.result()
        assert all(f.done() for f in futures)
        pool.shutdown()
        assert not any(t.is_alive() for t in threads)

    def test_result_after_cancel_is_sticky(self, pool, gate):
        pending = self._submit_many_chunks(pool, batch=3)
        pending.cancel()
        gate.set()
        for _ in range(2):  # the cancelled outcome is stable across calls
            with pytest.raises(ExecutionCancelled):
                pending.result()
        assert not any(
            chunk.future is not None and not chunk.future.done()
            for chunk in pending.pending
        )

    def test_cancel_reason_reaches_the_error(self, pool, gate):
        pending = self._submit_many_chunks(pool, batch=3)
        pending.cancel("client went away")
        gate.set()
        with pytest.raises(ExecutionCancelled, match="client went away"):
            pending.result()

    def test_close_after_cancel_is_idempotent_and_drains(self, pool, gate):
        pending = self._submit_many_chunks(pool, batch=4)
        pending.cancel()
        gate.set()
        pending.close()
        pending.close()
        assert all(chunk.future is None for chunk in pending.pending)
        assert pool.inflight == 0

    def test_cancel_on_a_pre_resolved_batch_is_a_noop(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=0)]
        pending = submit_stacked(program, envs, 0, max_workers=2)
        pending.cancel("nothing to stop")
        assert not pending.cancel_token.is_set()
        (res,) = pending.result()
        _assert_env_equal(envs[0], res)

    def test_cancel_after_results_is_a_noop(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(2)]
        pending = submit_stacked(program, envs, 4, max_workers=2)
        results = pending.result()
        pending.cancel("too late")
        assert pending.result() is results
        for env, res in zip(envs, results):
            gold = run_program(program, env, 4, engine="interpreter")
            _assert_env_equal(gold, res)

    def test_pre_set_token_refuses_submit(self):
        from repro.resilience import CancelToken

        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=0)]
        token = CancelToken()
        token.set("called off before dispatch")
        with pytest.raises(ExecutionCancelled):
            submit_stacked(program, envs, 4, max_workers=2, cancel=token)

    def test_serial_stacked_polls_token_at_chunk_boundaries(self):
        from repro.resilience import CancelToken

        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(3)]
        token = CancelToken()
        token.set("stop before the first chunk")
        with pytest.raises(ExecutionCancelled):
            run_program_stacked(
                program, envs, 4, max_stack_bytes=0, cancel=token
            )


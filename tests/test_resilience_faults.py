"""Fault-injection recovery: every fault class heals, bit-identically.

The tentpole contract: a dispatch that suffers an injected worker crash,
slow (hung) chunk or corrupt result recovers automatically — retry on the
thread pool, then degradation to the serial rung — and the final per-mesh
results are bit-identical to the golden interpreter. Recovery is visible
through ``resilience.*`` / ``exec.fault_injected`` metrics and events,
and no chunk task is left in flight once a dispatch resolves, healthy or
not.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.apps.registry import all_apps
from repro.parallel.executor import (
    ParallelExecutionError,
    run_program_parallel,
)
from repro.parallel.pool import WorkerPool, shutdown_shared_pools
from repro.resilience import FaultPlan, RetryPolicy
from repro.stencil.compiled import CompiledPlanCache
from repro.stencil.numpy_eval import run_program

APP_MESHES = {
    "poisson2d": (20, 16),
    "jacobi3d": (14, 12, 8),
    "rtm": (12, 12, 10),
}

#: fast recovery for tests: no backoff sleeps, checksums verified
FAST = RetryPolicy(backoff_base=0.0, verify_checksums=True)


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


def _assert_golden(program, envs, got, niter):
    for env, res in zip(envs, got):
        gold = run_program(program, env, niter, engine="interpreter")
        assert set(gold) == set(res)
        for name in gold:
            assert np.array_equal(gold[name].data, res[name].data), name


def _close_and_assert_quiet(pool: WorkerPool) -> None:
    """Nothing in flight, and no worker thread outlives ``pool``'s close."""
    executor = pool._executor  # noqa: SLF001 - white-box lifecycle check
    threads = list(executor._threads) if executor else []  # noqa: SLF001
    pool.shutdown()
    assert pool.inflight == 0
    assert not any(t.is_alive() for t in threads)


class TestFaultClassRecovery:
    def test_worker_crash_recovers(self):
        obs.enable()
        program, envs = _batch("poisson2d", 4)
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 3, max_workers=2, stats=stats,
            policy=FAST, fault_plan=FaultPlan.parse("crash@0"),
        )
        _assert_golden(program, envs, got, 3)
        assert stats["retries"] >= 1
        reg = obs.metrics_registry()
        assert reg.value("exec.fault_injected", kind="crash", backend="thread") == 1
        # a thread crash surfaces as the raised exception itself ("error")
        assert reg.value("resilience.retries", backend="thread", kind="error") >= 1
        assert obs.ring_sink().of_kind("resilience.retry")
        assert obs.ring_sink().of_kind("exec.fault_injected")

    def test_corrupt_result_detected_and_recovered(self):
        obs.enable()
        program, envs = _batch("poisson2d", 4)
        got = run_program_parallel(
            program, envs, 3, max_workers=2,
            policy=FAST, fault_plan=FaultPlan.parse("corrupt@0"),
        )
        _assert_golden(program, envs, got, 3)
        assert obs.metrics_registry().value(
            "resilience.retries", backend="thread", kind="corrupt"
        ) >= 1

    def test_corrupt_without_checksums_goes_undetected(self):
        # the negative control: checksum verification is what catches it
        program, envs = _batch("poisson2d", 2)
        no_verify = RetryPolicy(backoff_base=0.0, verify_checksums=False)
        got = run_program_parallel(
            program, envs, 2, max_workers=2,
            policy=no_verify, fault_plan=FaultPlan.parse("corrupt@0"),
        )
        gold = run_program(program, envs[0], 2, engine="interpreter")
        diverged = any(
            not np.array_equal(gold[name].data, got[0][name].data)
            for name in gold
        )
        assert diverged

    def test_slow_chunk_times_out_and_degrades(self):
        obs.enable()
        program, envs = _batch("jacobi3d", 2)
        policy = RetryPolicy(
            backoff_base=0.0, chunk_timeout=0.05, max_attempts=1,
        )
        pool = WorkerPool(max_workers=2)
        t0 = time.perf_counter()
        got = run_program_parallel(
            program, envs, 2, pool=pool, max_stack_bytes=0,
            policy=policy, fault_plan=FaultPlan.parse("slow@*:1.0"),
        )
        elapsed = time.perf_counter() - t0
        _assert_golden(program, envs, got, 2)
        assert elapsed < 0.9  # nobody waited out the sleep
        reg = obs.metrics_registry()
        assert reg.value("resilience.timeouts", backend="thread") >= 1
        assert obs.ring_sink().of_kind("resilience.timeout")
        degraded = obs.ring_sink().of_kind("resilience.degraded")
        assert degraded and degraded[0]["from_backend"] == "thread"
        _close_and_assert_quiet(pool)

    def test_abandoned_slow_thread_never_touches_rescued_fields(self):
        """A hung attempt is abandoned, not killed: the chunk is rescued on
        the serial rung bit-identically, and the abandoned thread finishes
        later without mutating any returned Field."""
        obs.enable()
        program, envs = _batch("jacobi3d", 2)
        policy = RetryPolicy(
            backoff_base=0.0, chunk_timeout=0.05, max_attempts=1,
        )
        pool = WorkerPool(max_workers=2)
        got = run_program_parallel(
            program, envs, 3, pool=pool, max_stack_bytes=0,
            policy=policy, fault_plan=FaultPlan.parse("slow@0:0.5"),
        )
        degraded = obs.ring_sink().of_kind("resilience.degraded")
        assert [(e["chunk"], e["to_backend"]) for e in degraded] == [
            (0, "serial")
        ]
        # the sleeping attempt is still running on its lane
        assert pool.inflight >= 1
        snapshot = [
            {name: field.data.copy() for name, field in env.items()}
            for env in got
        ]
        _close_and_assert_quiet(pool)  # waits the abandoned thread out
        for env, before in zip(got, snapshot):
            for name, field in env.items():
                assert np.array_equal(field.data, before[name]), name
        _assert_golden(program, envs, got, 3)

    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_crash_on_any_chunk_recovers_in_place(self, index):
        obs.enable()
        program, envs = _batch("jacobi3d", 4)
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 2, max_workers=2, max_stack_bytes=0, stats=stats,
            policy=FAST, fault_plan=FaultPlan.parse(f"crash@{index}"),
        )
        # the rescued chunk lands in its own slot: order is preserved
        _assert_golden(program, envs, got, 2)
        assert stats["retries"] == 1
        retries = obs.ring_sink().of_kind("resilience.retry")
        assert [e["chunk"] for e in retries] == [index]
        assert retries[0]["backend"] == "thread"

    def test_slow_chunk_without_deadline_is_waited_out(self):
        obs.enable()
        program, envs = _batch("poisson2d", 2)
        stats: dict = {}
        got = run_program_parallel(
            program, envs, 2, max_workers=2, max_stack_bytes=0, stats=stats,
            policy=FAST, fault_plan=FaultPlan.parse("slow@0:0.1"),
        )
        _assert_golden(program, envs, got, 2)
        # no chunk_timeout: the sleep is only latency, never a failure
        assert "retries" not in stats
        assert not obs.ring_sink().of_kind("resilience.timeout")
        assert obs.metrics_registry().value(
            "exec.fault_injected", kind="slow", backend="thread"
        ) == 1

    def test_serial_rung_never_draws_a_fault(self):
        obs.enable()
        program, envs = _batch("poisson2d", 2)
        policy = RetryPolicy(
            backoff_base=0.0, max_attempts=1, verify_checksums=True,
        )
        got = run_program_parallel(
            program, envs, 2, max_workers=2, max_stack_bytes=0,
            policy=policy, fault_plan=FaultPlan.parse("corrupt@*x99"),
        )
        _assert_golden(program, envs, got, 2)
        reg = obs.metrics_registry()
        # one corrupted thread attempt per chunk; each serial rescue is clean
        assert reg.value("exec.fault_injected", kind="corrupt", backend="thread") == 2
        degraded = obs.ring_sink().of_kind("resilience.degraded")
        assert sorted(e["chunk"] for e in degraded) == [0, 1]
        assert {e["to_backend"] for e in degraded} == {"serial"}

    def test_crash_and_slow_together_recover(self):
        """The chaos-smoke plan: a crash and a deadline miss in one run."""
        obs.enable()
        program, envs = _batch("jacobi3d", 3)
        policy = RetryPolicy(backoff_base=0.0, chunk_timeout=0.05)
        pool = WorkerPool(max_workers=2)
        got = run_program_parallel(
            program, envs, 2, pool=pool, max_stack_bytes=0,
            policy=policy, fault_plan=FaultPlan.parse("crash@0,slow@1:0.5"),
        )
        _assert_golden(program, envs, got, 2)
        reg = obs.metrics_registry()
        assert reg.value("exec.fault_injected", kind="crash", backend="thread") == 1
        assert reg.value("exec.fault_injected", kind="slow", backend="thread") == 1
        assert reg.value("resilience.timeouts", backend="thread") >= 1
        retried = {e["chunk"] for e in obs.ring_sink().of_kind("resilience.retry")}
        assert {0, 1} <= retried
        _close_and_assert_quiet(pool)

    def test_ladder_reaches_serial_when_workers_keep_dying(self):
        obs.enable()
        program, envs = _batch("poisson2d", 3)
        # four crashes outlast two thread attempts; the serial rung runs
        # in-parent and never draws a fault
        got = run_program_parallel(
            program, envs, 2, max_workers=2,
            policy=FAST, fault_plan=FaultPlan.parse("crash@*x4"),
        )
        _assert_golden(program, envs, got, 2)
        degraded = obs.ring_sink().of_kind("resilience.degraded")
        assert any(e["to_backend"] == "serial" for e in degraded)


class TestExhaustionAndLeaks:
    def test_exhausted_ladder_raises_with_attempt_context(self):
        program, envs = _batch("poisson2d", 2)
        policy = RetryPolicy(
            backoff_base=0.0, max_attempts=2, ladder=("thread",)
        )
        with pytest.raises(ParallelExecutionError) as err:
            run_program_parallel(
                program, envs, 2, max_workers=2,
                policy=policy, fault_plan=FaultPlan.parse("crash@*x99"),
            )
        assert err.value.backend == "thread"
        assert err.value.attempts == 2
        assert err.value.final_backend == "thread"
        assert "2 attempts" in str(err.value)

    def test_failed_dispatch_leaves_nothing_in_flight(self, poisoned_chunks):
        program, envs = _batch("jacobi3d", 4)
        policy = RetryPolicy(backoff_base=0.0, max_attempts=1, ladder=())
        pool = WorkerPool(max_workers=2)
        with pytest.raises(ParallelExecutionError):
            run_program_parallel(
                program, envs, 2, pool=pool,
                max_stack_bytes=0,  # per-mesh chunks: several tasks
                policy=policy,
            )
        _close_and_assert_quiet(pool)

    def test_recovered_dispatch_leaves_nothing_in_flight(self):
        program, envs = _batch("jacobi3d", 4)
        pool = WorkerPool(max_workers=2)
        got = run_program_parallel(
            program, envs, 2, pool=pool, max_stack_bytes=0,
            policy=FAST, fault_plan=FaultPlan.parse("crash@0,corrupt@2"),
        )
        _assert_golden(program, envs, got, 2)
        _close_and_assert_quiet(pool)

    def test_disabled_policy_fails_fast(self):
        program, envs = _batch("poisson2d", 2)
        with pytest.raises(ParallelExecutionError) as err:
            run_program_parallel(
                program, envs, 2, max_workers=2,
                policy=RetryPolicy.disabled(),
                fault_plan=FaultPlan.parse("crash@0"),
            )
        assert err.value.attempts == 1


class TestPoisonedChunksStillFail:
    """A failure on every rung (serial included) still surfaces."""

    def test_poisoned_chunks_exhaust_the_full_ladder(self, poisoned_chunks):
        program, envs = _batch("poisson2d", 2)
        with pytest.raises(ParallelExecutionError) as err:
            run_program_parallel(
                program, envs, 2, max_workers=2,
                policy=RetryPolicy(backoff_base=0.0),
            )
        assert err.value.final_backend == "serial"


class TestPropertyFaultBitIdentity:
    """Satellite: faulted parallel runs match the interpreter, all apps."""

    @pytest.mark.parametrize("app_key", ["poisson2d", "jacobi3d", "rtm"])
    @settings(max_examples=6, deadline=None)
    @given(
        fault=st.sampled_from(
            ["crash@0", "crash@*x2", "corrupt@*", "corrupt@0", "slow@1:0.01",
             "crash@0,corrupt@1"]
        ),
        batch=st.integers(min_value=2, max_value=4),
        niter=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_faulted_runs_bit_identical_to_interpreter(
        self, app_key, fault, batch, niter, seed
    ):
        app = all_apps()[app_key]
        shape = APP_MESHES[app_key]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=70 + seed + b) for b in range(batch)]
        cache = CompiledPlanCache()
        limit = cache.plan_for(program, envs[0]).nbytes  # per-mesh-ish chunks
        got = run_program_parallel(
            program, envs, niter, cache=cache, max_stack_bytes=limit,
            max_workers=2,
            policy=FAST, fault_plan=FaultPlan.parse(fault),
        )
        _assert_golden(program, envs, got, niter)

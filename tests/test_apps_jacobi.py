"""Application tests: Jacobi-7pt-3D."""

import numpy as np
import pytest

from repro.apps.jacobi3d import jacobi3d_app
from repro.stencil.numpy_eval import run_program


class TestPreset:
    def test_table2_parameters(self):
        app = jacobi3d_app()
        assert app.V == 8 and app.p == 29
        assert app.paper_clock_mhz == 246.0

    def test_table3_tiled_parameters(self):
        app = jacobi3d_app()
        design = app.design(tile=(768, 768))
        assert design.V == 64 and design.p == 3
        assert design.memory == "HBM"

    def test_program_order(self):
        assert jacobi3d_app().program.order == 2


class TestNumerics:
    def test_coefficient_sum_preserves_constants(self):
        app = jacobi3d_app((10, 10, 8))
        from repro.mesh.mesh import Field, MeshSpec

        spec = MeshSpec((10, 10, 8))
        fields = {"U": Field.full("U", spec, 5.0)}
        out = run_program(app.program_on((10, 10, 8)), fields, 4)
        assert np.allclose(out["U"].data, 5.0)

    def test_accelerator_equals_golden(self):
        app = jacobi3d_app((12, 10, 8))
        fields = app.fields((12, 10, 8), seed=3)
        design = app.design(p=4, V=2)
        res, _ = app.accelerator((12, 10, 8), design).run(fields, 8)
        gold = run_program(app.program_on((12, 10, 8)), fields, 8)
        assert np.array_equal(res["U"].data, gold["U"].data)


class TestPaperShape:
    def test_gpu_overtakes_fpga_at_scale(self):
        # Fig 4(a): FPGA wins at 50^3, the GPU wins from ~150^3 up
        app = jacobi3d_app()
        small = app.workload((50, 50, 50), 29000)
        large = app.workload((250, 250, 250), 29000)
        f_small = app.accelerator((50, 50, 50)).estimate(small)
        g_small = app.gpu_model().predict(small)
        f_large = app.accelerator((250, 250, 250)).estimate(large)
        g_large = app.gpu_model().predict(large)
        assert f_small.seconds < g_small.seconds
        assert g_large.seconds < f_large.seconds

    def test_crossover_location(self):
        # the paper's crossover sits near 100^3 (FPGA 0.77 vs GPU 0.76)
        app = jacobi3d_app()
        w = app.workload((100, 100, 100), 29000)
        f = app.accelerator((100, 100, 100)).estimate(w)
        g = app.gpu_model().predict(w)
        assert abs(f.seconds - g.seconds) / f.seconds < 0.25

    def test_fpga_more_energy_efficient_at_50_batch(self):
        # Table V: 50B on 200^3 -> FPGA ~2x more energy efficient
        app = jacobi3d_app()
        w = app.workload((200, 200, 200), 2900, batch=50)
        f = app.accelerator((200, 200, 200)).estimate(w)
        g = app.gpu_model().predict(w)
        assert g.energy_j / f.energy_j > 1.5

    def test_tiled_fpga_slower_than_gpu(self):
        # Section V-B: the 640^2-tile design was ~40% slower than the GPU
        app = jacobi3d_app()
        w = app.workload((600, 600, 600), 120)
        design = app.design(tile=(640, 640))
        f = app.accelerator((600, 600, 600), design).estimate(w)
        g = app.gpu_model().predict(w)
        assert f.seconds > g.seconds

    def test_baseline_mesh_size_limited_by_eq7(self):
        # 600^3 cannot run un-tiled: plane buffers exceed on-chip memory
        from repro.arch.device import ALVEO_U280
        from repro.model.design import DesignSpace
        from repro.util.errors import InfeasibleDesignError

        app = jacobi3d_app()
        program = app.program_on((600, 600, 600))
        space = DesignSpace(program, ALVEO_U280)
        w = app.workload((600, 600, 600), 120)
        with pytest.raises(InfeasibleDesignError):
            space.check(app.design(), w)

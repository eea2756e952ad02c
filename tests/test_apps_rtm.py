"""Application tests: RTM forward pass (Algorithm 1)."""

import numpy as np
import pytest

from repro.apps.rtm import (
    RTM_COMPONENTS,
    RTM_II,
    RTM_MAX_PLANE_EDGE,
    build_rtm_program,
    rtm_app,
)
from repro.model.resources import gdsp_program
from repro.stencil.numpy_eval import run_program
from repro.util.errors import ValidationError


class TestProgramStructure:
    def test_gdsp_matches_table2(self):
        assert gdsp_program(build_rtm_program((8, 8, 8))) == 2444

    def test_six_components(self):
        prog = build_rtm_program((8, 8, 8))
        assert prog.mesh.components == RTM_COMPONENTS

    def test_25pt_8th_order_stencil(self):
        prog = build_rtm_program((8, 8, 8))
        stage1 = prog.groups[0].kernels[0]
        assert stage1.order == 8
        pattern = stage1.spec().pattern("Y")
        # 25-point star: the paper's fpml footprint
        assert pattern.points == 25

    def test_rho_mu_self_stencils(self):
        prog = build_rtm_program((8, 8, 8))
        stage1 = prog.groups[0].kernels[0]
        assert stage1.spec().pattern("rho").is_self_stencil
        assert stage1.spec().pattern("mu").is_self_stencil

    def test_rk4_combination_weights(self):
        # final Y update reads K1..K4 with 1/6,1/3,1/3,1/6
        prog = build_rtm_program((8, 8, 8))
        stage4 = prog.groups[0].kernels[3]
        y_out = stage4.output("Y")
        text = str(y_out.exprs[0])
        for k in ("K1", "K2", "K3", "K4"):
            assert k in text

    def test_plane_limit(self):
        build_rtm_program((RTM_MAX_PLANE_EDGE, RTM_MAX_PLANE_EDGE, 8))
        with pytest.raises(ValidationError):
            build_rtm_program((RTM_MAX_PLANE_EDGE + 1, 8, 8))

    def test_program_built_once_per_mesh_shape(self):
        # equal shapes, however spelled, share one frozen program
        first = rtm_app((12, 12, 10)).program
        assert rtm_app([12, 12, 10]).program is first
        assert build_rtm_program((np.int64(12), 12, 10)) is first
        assert build_rtm_program((12, 12, 11)) is not first

    @pytest.mark.parametrize("spelling", [
        [12, 12, 10],
        (np.int64(12), np.int64(12), np.int64(10)),
        (np.int32(12), np.int32(12), np.int32(10)),
        np.array([12, 12, 10]),
    ], ids=["list", "int64", "int32", "ndarray"])
    def test_shape_spellings_normalize_to_one_program(self, spelling):
        assert build_rtm_program(spelling) is build_rtm_program((12, 12, 10))

    @pytest.mark.parametrize("shape", [(12, 12, 11), (12, 11, 10), (11, 12, 10)])
    def test_distinct_shapes_get_distinct_programs(self, shape):
        prog = build_rtm_program(shape)
        assert prog is not build_rtm_program((12, 12, 10))
        assert prog.mesh.shape == shape
        assert build_rtm_program(shape) is prog

    def test_memoized_program_matches_a_fresh_build(self):
        from repro.apps.rtm import _rtm_program
        from repro.stencil.plan import program_token

        fresh = _rtm_program.__wrapped__((12, 12, 10))
        memo = build_rtm_program((12, 12, 10))
        assert fresh is not memo
        assert program_token(fresh) == program_token(memo)
        assert fresh.mesh == memo.mesh

    def test_oversized_plane_raises_on_every_call(self):
        # a failed build is not cached: each call validates again
        for _ in range(2):
            with pytest.raises(ValidationError):
                rtm_app((RTM_MAX_PLANE_EDGE + 1, 8, 8))


class TestNumerics:
    def test_rk4_stability_small_dt(self):
        app = rtm_app((12, 12, 10))
        fields = app.fields((12, 12, 10), seed=7)
        out = run_program(app.program_on((12, 12, 10)), fields, 20)
        assert np.all(np.isfinite(out["Y"].data))
        # with dt=1e-3 and bounded coefficients the field stays bounded
        assert np.abs(out["Y"].data).max() < 10.0

    def test_accelerator_equals_golden(self):
        app = rtm_app((12, 12, 10))
        fields = app.fields((12, 12, 10), seed=8)
        res, _ = app.accelerator((12, 12, 10)).run(fields, 6)
        gold = run_program(app.program_on((12, 12, 10)), fields, 6)
        assert np.array_equal(res["Y"].data, gold["Y"].data)

    def test_constants_unchanged(self):
        app = rtm_app((12, 12, 10))
        fields = app.fields((12, 12, 10), seed=9)
        res, _ = app.accelerator((12, 12, 10)).run(fields, 3)
        assert np.array_equal(res["rho"].data, fields["rho"].data)
        assert np.array_equal(res["mu"].data, fields["mu"].data)


class TestDesign:
    def test_v1_p3_preset(self):
        app = rtm_app()
        d = app.design()
        assert d.V == 1 and d.p == 3
        assert d.initiation_interval == RTM_II

    def test_module_fits_one_slr(self):
        from repro.arch.device import ALVEO_U280
        from repro.arch.floorplan import SLRFloorplan
        from repro.model.resources import module_mem_bytes

        app = rtm_app((64, 64, 32))
        plan = SLRFloorplan(
            ALVEO_U280,
            modules=3,
            module_dsp=2444,
            module_mem_bytes=module_mem_bytes(app.program),
        )
        assert plan.module_fits_one_slr
        assert plan.slrs_used == 3

    def test_paper_runtime_band(self):
        # Fig 5(a): 50^3 at 1800 iterations measured 0.76 s
        app = rtm_app((50, 50, 50))
        w = app.workload((50, 50, 50), 1800)
        sim = app.accelerator((50, 50, 50)).estimate(w)
        assert abs(sim.seconds - 0.76) / 0.76 < 0.15

    def test_fpga_competitive_with_gpu(self):
        # Fig 5(a): FPGA and GPU within ~25% of each other at 50^3
        app = rtm_app((50, 50, 50))
        w = app.workload((50, 50, 50), 1800)
        f = app.accelerator((50, 50, 50)).estimate(w)
        g = app.gpu_model().predict(w)
        assert 0.5 < f.seconds / g.seconds < 1.5

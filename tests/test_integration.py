"""Integration tests across the full stack.

End-to-end flows a downstream user would run: describe a stencil, explore
the design space, simulate, compare against the model and GPU baseline, and
generate HLS code — for all three paper applications plus a custom kernel.
"""

import numpy as np
import pytest

from repro.apps.jacobi3d import jacobi3d_app
from repro.apps.poisson2d import poisson2d_app
from repro.apps.rtm import rtm_app
from repro.arch.device import ALVEO_U280
from repro.dataflow.accelerator import FPGAAccelerator
from repro.hls.project import HLSProject
from repro.mesh.mesh import Field, MeshSpec
from repro.dse import Evaluator, ExhaustiveSearch, Study, model_space
from repro.model.design import DesignPoint, DesignSpace
from repro.stencil.builders import star_offsets, weighted_star_kernel
from repro.stencil.numpy_eval import run_program
from repro.stencil.program import single_kernel_program


class TestEndToEndCustomKernel:
    """The README quickstart flow on a user-defined stencil."""

    def _kernel(self):
        offsets = star_offsets(2, 2)
        weights = {tuple(o): 1.0 / len(offsets) for o in offsets}
        return weighted_star_kernel("custom9", "U", 2, 2, weights=weights)

    def test_full_flow(self, tmp_path):
        spec = MeshSpec((64, 32))
        program = single_kernel_program("custom", spec, self._kernel())
        workload_field = Field.random("U", spec, seed=77)

        # 1. explore the design space
        from repro.model.design import Workload

        w = Workload(spec, niter=40)
        space = model_space(program, ALVEO_U280, w)
        study = Study(space, Evaluator(program, ALVEO_U280, w)).run(ExhaustiveSearch())
        ranked = study.top(3)
        assert ranked
        design = ranked[0].result.design

        # 2. simulate with a small functional design (niter % p == 0)
        sim_design = DesignPoint(2, 4, design.clock_mhz)
        acc = FPGAAccelerator(program, sim_design)
        result, report = acc.run({"U": workload_field}, 40)

        # 3. results are bit-identical to the golden model
        gold = run_program(program, {"U": workload_field}, 40, engine="interpreter")
        assert np.array_equal(result["U"].data, gold["U"].data)

        # 4. generate synthesizable sources
        files = HLSProject(program, sim_design).write_to(tmp_path)
        assert (tmp_path / "kernel.cpp").exists()
        assert len(files) == 4


class TestModelSimulatorAgreement:
    """The paper's +-15% model-accuracy claim, replayed against our simulator."""

    @pytest.mark.parametrize(
        "app_factory, mesh, niter",
        [
            (poisson2d_app, (200, 100), 60000),
            (poisson2d_app, (400, 400), 60000),
            (jacobi3d_app, (100, 100, 100), 29000),
            (jacobi3d_app, (250, 250, 250), 29000),
            (rtm_app, (32, 32, 32), 1800),
            (rtm_app, (50, 50, 200), 1800),
        ],
    )
    def test_pred_within_15pct_of_sim_kernel_time(self, app_factory, mesh, niter):
        app = app_factory(mesh)
        w = app.workload(mesh, niter)
        pred = app.predictor(mesh).predict(w)
        sim = app.accelerator(mesh).estimate(w)
        # compare kernel time (the model excludes host overhead)
        rel = abs(pred.seconds - sim.kernel_seconds) / sim.kernel_seconds
        assert rel < 0.15


class TestBatchedIntegration:
    def test_poisson_batch_of_heterogeneous_content(self):
        app = poisson2d_app((16, 12))
        acc = app.accelerator((16, 12), app.design(p=4, V=2))
        batch = [app.fields((16, 12), seed=s) for s in range(6)]
        results, report = acc.run_batch(batch, 8)
        for env, res in zip(batch, results):
            gold = run_program(app.program_on((16, 12)), env, 8, engine="interpreter")
            assert np.array_equal(res["U"].data, gold["U"].data)
        assert report.passes == 2

    def test_rtm_batch(self):
        # the radius-4 stencil needs every extent > 8
        app = rtm_app((12, 12, 10))
        acc = app.accelerator((12, 12, 10))
        batch = [app.fields((12, 12, 10), seed=s) for s in range(3)]
        results, _ = acc.run_batch(batch, 3)
        for env, res in zip(batch, results):
            gold = run_program(app.program_on((12, 12, 10)), env, 3, engine="interpreter")
            assert np.array_equal(res["Y"].data, gold["Y"].data)


class TestTiledIntegration:
    def test_poisson_tiled_multi_pass(self):
        app = poisson2d_app((96, 20))
        design = app.design(tile=(40,), p=4, V=2)
        acc = app.accelerator((96, 20), design)
        fields = app.fields((96, 20), seed=13)
        res, report = acc.run(fields, 12)
        gold = run_program(app.program_on((96, 20)), fields, 12, engine="interpreter")
        assert np.array_equal(res["U"].data, gold["U"].data)
        assert report.cycles > 0

    def test_jacobi_tiled_3d_multi_pass(self):
        app = jacobi3d_app((36, 30, 6))
        design = app.design(tile=(16, 14), p=2, V=2)
        acc = app.accelerator((36, 30, 6), design)
        fields = app.fields((36, 30, 6), seed=14)
        res, _ = acc.run(fields, 6)
        gold = run_program(app.program_on((36, 30, 6)), fields, 6, engine="interpreter")
        assert np.array_equal(res["U"].data, gold["U"].data)


class TestDesignSpaceSanity:
    def test_paper_designs_feasible_on_u280(self):
        cases = [
            (poisson2d_app((200, 100)), (200, 100), 60),
            (jacobi3d_app((250, 250, 250)), (250, 250, 250), 29),
            (rtm_app((64, 64, 32)), (64, 64, 32), 3),
        ]
        for app, mesh, niter in cases:
            space = DesignSpace(app.program_on(mesh), ALVEO_U280)
            w = app.workload(mesh, niter)
            space.check(app.design(), w)  # must not raise

    def test_explored_designs_beat_naive(self):
        app = poisson2d_app((400, 400))
        w = app.workload((400, 400), 600)
        program = app.program_on((400, 400))
        space = model_space(program, ALVEO_U280, w)
        study = Study(space, Evaluator(program, ALVEO_U280, w)).run(ExhaustiveSearch())
        best = study.best()
        naive = app.predictor((400, 400), DesignPoint(1, 1, 300.0)).predict(w)
        assert best.value("runtime") < naive.seconds / 50

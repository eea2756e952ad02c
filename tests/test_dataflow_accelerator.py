"""Unit tests for the top-level simulated accelerator."""

import numpy as np
import pytest

from repro.dataflow.accelerator import FPGAAccelerator, HostModel
from repro.mesh.mesh import Field, MeshSpec
from repro.model.design import DesignPoint, Workload
from repro.model.tiling import TileDesign
from repro.stencil.numpy_eval import run_program
from repro.util.errors import ValidationError


class TestRun:
    def test_results_match_golden(self, poisson_program, field2d):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        result, report = acc.run({"U": field2d}, 6)
        gold = run_program(poisson_program, {"U": field2d}, 6, engine="interpreter")
        assert np.array_equal(result["U"].data, gold["U"].data)
        assert report.cycles > 0

    def test_report_includes_host_overhead(self, poisson_program, field2d):
        host = HostModel(invocation_s=0.5, per_pass_s=0.0)
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0), host=host)
        _, report = acc.run({"U": field2d}, 6)
        assert report.seconds == pytest.approx(report.kernel_seconds + 0.5)

    def test_report_passes(self, poisson_program, field2d):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        _, report = acc.run({"U": field2d}, 9)
        assert report.passes == 3

    def test_bandwidth_and_energy_derived(self, poisson_program, field2d):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        _, report = acc.run({"U": field2d}, 6)
        assert report.logical_bandwidth == pytest.approx(
            report.logical_bytes / report.seconds
        )
        assert report.energy_j == pytest.approx(report.power_w * report.seconds)

    def test_tiled_run(self):
        spec = MeshSpec((48, 10))
        from repro.stencil.builders import jacobi2d_5pt
        from repro.stencil.program import single_kernel_program

        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=41)
        design = DesignPoint(2, 2, 250.0, "DDR4", TileDesign((16,)))
        acc = FPGAAccelerator(prog, design)
        result, report = acc.run({"U": f}, 4)
        gold = run_program(prog, {"U": f}, 4, engine="interpreter")
        assert np.array_equal(result["U"].data, gold["U"].data)
        assert report.cycles > 0

    @pytest.mark.parametrize("engine", ["interpreter", "parallel"])
    def test_tiled_run_on_other_engines(self, engine):
        """The tiler hands its engine straight to the stencil entry points;
        ``"parallel"`` runs each tile on the tape."""
        from repro.stencil.builders import jacobi2d_5pt
        from repro.stencil.program import single_kernel_program

        spec = MeshSpec((48, 10))
        prog = single_kernel_program("p", spec, jacobi2d_5pt())
        f = Field.random("U", spec, seed=41)
        design = DesignPoint(2, 2, 250.0, "DDR4", TileDesign((16,)))
        acc = FPGAAccelerator(prog, design, engine=engine)
        result, _ = acc.run({"U": f}, 4)
        gold = run_program(prog, {"U": f}, 4, engine="interpreter")
        assert np.array_equal(result["U"].data, gold["U"].data)


class TestRunBatch:
    def test_batch_results(self, poisson_program, spec2d):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        batch = [{"U": Field.random("U", spec2d, seed=i)} for i in range(3)]
        results, report = acc.run_batch(batch, 6)
        assert len(results) == 3
        assert report.cycles > 0

    def test_batch_rejected_on_tiled_design(self, poisson_program, spec2d):
        design = DesignPoint(2, 2, 250.0, "DDR4", TileDesign((8,)))
        acc = FPGAAccelerator(poisson_program, design)
        with pytest.raises(ValidationError, match="batched"):
            acc.run_batch([{"U": Field.random("U", spec2d, seed=0)}], 2)

    def test_each_mesh_solved_independently(self, poisson_program, spec2d):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        batch = [{"U": Field.random("U", spec2d, seed=i)} for i in range(5)]
        results, _ = acc.run_batch(batch, 6)
        for env, res in zip(batch, results):
            gold = run_program(poisson_program, env, 6, engine="interpreter")
            assert np.array_equal(res["U"].data, gold["U"].data)

    def test_no_cross_mesh_contamination(self, poisson_program, spec2d):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        a = {"U": Field.full("U", spec2d, 1.0)}
        b = {"U": Field.full("U", spec2d, 100.0)}
        pair, _ = acc.run_batch([a, b], 3)
        solo, _ = acc.run_batch([a], 3)
        assert np.array_equal(pair[0]["U"].data, solo[0]["U"].data)

    def test_rejects_empty_batch(self, poisson_program):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        with pytest.raises(ValidationError, match="at least one mesh"):
            acc.run_batch([], 3)

    def test_rejects_mixed_specs(self, poisson_program, spec2d):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        batch = [
            {"U": Field.random("U", spec2d, seed=1)},
            {"U": Field.random("U", MeshSpec((6, 6)), seed=2)},
        ]
        with pytest.raises(ValidationError, match="same spec"):
            acc.run_batch(batch, 3)

    def test_rejects_missing_field(self, poisson_program):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        with pytest.raises(ValidationError, match="needs field 'U'"):
            acc.run_batch([{}], 3)

    def test_batch_rides_one_stacked_plan(self, poisson_program, spec2d):
        """The default engine advances the whole batch on one plan.

        One cache entry (the batch-major plan), not one per mesh — the
        footprint heuristic reads the memoized unbound plan, which binds no
        buffers and counts no miss — and the per-mesh results still match
        the golden interpreter bitwise.
        """
        from repro.stencil.compiled import CompiledPlanCache

        cache = CompiledPlanCache()
        acc = FPGAAccelerator(
            poisson_program, DesignPoint(2, 3, 250.0), plan_cache=cache
        )
        batch = [{"U": Field.random("U", spec2d, seed=i)} for i in range(6)]
        results, report = acc.run_batch(batch, 6)
        assert cache.misses == 1
        assert report.passes == 2
        for env, res in zip(batch, results):
            gold = run_program(poisson_program, env, 6, engine="interpreter")
            assert np.array_equal(res["U"].data, gold["U"].data)

    def test_engines_agree_bitwise(self, jacobi_program, spec3d):
        design = DesignPoint(2, 2, 250.0)
        batch = [{"U": Field.random("U", spec3d, seed=i)} for i in range(4)]
        runs = {
            engine: FPGAAccelerator(jacobi_program, design, engine=engine)
            .run_batch(batch, 4)[0]
            for engine in ("interpreter", "compiled", "parallel")
        }
        for engine, results in runs.items():
            for got, gold in zip(results, runs["interpreter"]):
                assert np.array_equal(got["U"].data, gold["U"].data), engine

    def test_interpreter_engine_replays_per_mesh(self, poisson_program, spec2d):
        """``engine="interpreter"`` walks the golden path mesh by mesh and
        binds no plan."""
        from repro.stencil.compiled import CompiledPlanCache

        cache = CompiledPlanCache()
        acc = FPGAAccelerator(
            poisson_program, DesignPoint(2, 3, 250.0),
            engine="interpreter", plan_cache=cache,
        )
        batch = [{"U": Field.random("U", spec2d, seed=i)} for i in range(3)]
        results, _ = acc.run_batch(batch, 3)
        assert len(cache) == 0 and cache.misses == 0
        for env, res in zip(batch, results):
            gold = run_program(poisson_program, env, 3, engine="interpreter")
            assert np.array_equal(res["U"].data, gold["U"].data)

    def test_report_matches_the_batched_estimate(self, poisson_program, spec2d):
        """The batch report is the batched workload's estimate (eq. 15),
        whose streamed pipeline cycles undercut four separate runs."""
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        batch = [{"U": Field.random("U", spec2d, seed=i)} for i in range(4)]
        _, report = acc.run_batch(batch, 6)
        assert report == acc.estimate(Workload(spec2d, 6, 4))
        pipe = acc.pipeline
        assert pipe.total_cycles(spec2d.shape, 6, 4) < 4 * pipe.total_cycles(
            spec2d.shape, 6, 1
        )


class TestEstimate:
    def test_estimate_matches_run_report(self, poisson_program, field2d, poisson_app):
        acc = FPGAAccelerator(poisson_program, DesignPoint(2, 3, 250.0))
        _, run_report = acc.run({"U": field2d}, 6)
        w = poisson_app.workload(field2d.spec.shape, 6)
        est = acc.estimate(w)
        assert est.cycles == run_report.cycles
        assert est.seconds == run_report.seconds

    def test_estimate_paper_scale_without_numerics(self, poisson_app):
        # 20000^2 at 6000 iterations would be infeasible functionally;
        # the estimate path answers instantly
        design = poisson_app.design(tile=(8000,))
        acc = poisson_app.accelerator((20000, 20000), design)
        est = acc.estimate(poisson_app.workload((20000, 20000), 6000))
        assert 15.0 < est.seconds < 30.0  # paper-derived ~21 s

    def test_memory_bound_designs_slower(self, poisson_app):
        # V=16 needs 32 GB/s; two HBM channels supply ~28.75 GB/s, so the
        # streaming rate, not the pipeline, limits a hypothetical V=16 run
        w = poisson_app.workload((400, 400), 600)
        fast = poisson_app.accelerator((400, 400), DesignPoint(8, 10, 250.0)).estimate(w)
        # same pipeline at double V: fewer compute cycles, same traffic
        wide = poisson_app.accelerator((400, 400), DesignPoint(16, 10, 250.0)).estimate(w)
        assert wide.seconds <= fast.seconds  # still no slower overall

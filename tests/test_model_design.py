"""Unit tests for design points and design-space exploration."""

import pytest

from repro.arch.device import ALVEO_U280
from repro.dse import Evaluator, ExhaustiveSearch, Study, model_space
from repro.model.design import DesignPoint, DesignSpace, Workload
from repro.model.tiling import TileDesign
from repro.util.errors import InfeasibleDesignError, ValidationError


class TestDesignPoint:
    def test_clock_hz(self):
        d = DesignPoint(8, 60, 250.0)
        assert d.clock_hz == 250e6

    def test_tiled_flag(self):
        assert not DesignPoint(8, 60, 250.0).is_tiled
        assert DesignPoint(8, 60, 250.0, tile=TileDesign((1024,))).is_tiled

    def test_with_clock(self):
        d = DesignPoint(8, 60, 300.0).with_clock(250.0)
        assert d.clock_mhz == 250.0 and d.V == 8

    def test_rejects_bad_memory(self):
        with pytest.raises(ValidationError):
            DesignPoint(8, 60, 250.0, memory="SRAM")

    def test_rejects_ii_below_one(self):
        with pytest.raises(ValidationError):
            DesignPoint(8, 60, 250.0, initiation_interval=0.9)


class TestWorkload:
    def test_total_points(self, poisson_app):
        w = poisson_app.workload((200, 100), 60, batch=10)
        assert w.total_points == 200_000

    def test_footprint(self, poisson_app):
        w = poisson_app.workload((200, 100), 60)
        assert w.footprint_bytes == 200 * 100 * 4

    def test_rejects_zero_iters(self, poisson_app):
        with pytest.raises(ValidationError):
            poisson_app.workload((4, 4), 0)


class TestFeasibility:
    def _space(self, poisson_app, shape=(200, 100)):
        return DesignSpace(poisson_app.program_on(shape), ALVEO_U280), poisson_app

    def test_paper_design_feasible(self, poisson_app):
        space, app = self._space(poisson_app)
        w = app.workload((200, 100), 60)
        space.check(app.design(), w)  # must not raise

    def test_dsp_bound_enforced(self, poisson_app):
        space, app = self._space(poisson_app)
        w = app.workload((200, 100), 60)
        with pytest.raises(InfeasibleDesignError, match="eq. 6") as info:
            space.check(DesignPoint(8, 200, 250.0), w)
        assert info.value.check == "dsp"

    def test_mem_bound_enforced(self, jacobi_app):
        program = jacobi_app.program_on((500, 500, 500))
        space = DesignSpace(program, ALVEO_U280)
        w = jacobi_app.workload((500, 500, 500), 29)
        # plane buffers of 500^2 are 1 MB per module: p=60 cannot fit
        with pytest.raises(InfeasibleDesignError, match="on-chip") as info:
            space.check(DesignPoint(8, 60, 246.0), w)
        assert info.value.check == "buffer"

    def test_bandwidth_bound_enforced(self, poisson_app):
        # DDR4's two channels (38.4 GB/s) feed at most V=16 at 250 MHz;
        # V=32 needs 64 GB/s and must be rejected by the eq. (4) check
        space, app = self._space(poisson_app)
        w = app.workload((200, 100), 60)
        with pytest.raises(InfeasibleDesignError, match="eq. 4") as info:
            space.check(DesignPoint(32, 10, 250.0, memory="DDR4"), w)
        assert info.value.check == "bandwidth"

    def test_capacity_bound_enforced(self, poisson_app):
        space, app = self._space(poisson_app, (40000, 40000))
        w = app.workload((40000, 40000), 60)
        # 1.6 GB mesh x ping-pong fits DDR4 but not 8 GB HBM x 3 copies? it does;
        # use an absurd batch to blow past HBM capacity
        w = app.workload((40000, 40000), 60, batch=4)
        with pytest.raises(InfeasibleDesignError, match="resident") as info:
            space.check(DesignPoint(1, 1, 250.0, memory="HBM"), w)
        assert info.value.check == "capacity"

    def test_check_is_the_resource_checks_then_bandwidth(self, poisson_app):
        space, app = self._space(poisson_app)
        w = app.workload((200, 100), 60)
        starved = DesignPoint(32, 10, 250.0, memory="DDR4")
        space.check_resources(starved, w)  # only eq. (4) objects, and it reads the clock
        with pytest.raises(InfeasibleDesignError, match="eq. 4"):
            space.check_bandwidth(starved)
        space.check_bandwidth(starved.with_clock(100.0))
        # failing both, a design is reported for the earlier check, as ever
        both = DesignPoint(32, 200, 250.0, memory="DDR4")
        with pytest.raises(InfeasibleDesignError, match="eq. 6"):
            space.check(both, w)


def _explore(program, workload, tiled=False) -> Study:
    """The exhaustive study of the model's design space for one workload."""
    space = model_space(program, ALVEO_U280, workload, tiled=tiled)
    evaluator = Evaluator(program, ALVEO_U280, workload)
    return Study(space, evaluator).run(ExhaustiveSearch())


class TestExploration:
    def test_explore_returns_ranked(self, poisson_app):
        w = poisson_app.workload((200, 100), 60)
        ranked = _explore(poisson_app.program_on((200, 100)), w).top(5)
        assert ranked
        times = [t.value("runtime") for t in ranked]
        assert times == sorted(times)

    def test_explore_prefers_deep_unroll(self, poisson_app):
        w = poisson_app.workload((400, 400), 600)
        best = _explore(poisson_app.program_on((400, 400)), w).best()
        # deep unrolling wins for compute-bound stencils
        assert best.result.design.p > 8

    def test_explore_tiled(self, poisson_app):
        w = poisson_app.workload((15000, 15000), 60)
        ranked = _explore(poisson_app.program_on((15000, 15000)), w, tiled=True).top(3)
        assert ranked
        assert all(t.result.design.is_tiled for t in ranked)

    def test_candidates_all_feasible(self, poisson_app):
        space = DesignSpace(poisson_app.program_on((200, 100)), ALVEO_U280)
        w = poisson_app.workload((200, 100), 60)
        feasible = _explore(space.program, w).feasible_trials()
        assert feasible
        for trial in feasible:
            space.check(trial.result.design, w)  # must not raise

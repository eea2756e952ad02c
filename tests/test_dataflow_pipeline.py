"""Unit tests for compute units, modules and the iterative pipeline."""

import numpy as np
import pytest

from repro.dataflow.compute import ComputeUnit
from repro.dataflow.module import StencilModule
from repro.dataflow.pipeline import IterativePipeline
from repro.stencil.builders import jacobi2d_5pt
from repro.stencil.numpy_eval import run_program
from repro.util.errors import ValidationError


class TestComputeUnit:
    def test_stream_cycles_vectorized(self):
        cu = ComputeUnit(jacobi2d_5pt(), V=8)
        assert cu.stream_cycles((200, 100)) == 25 * 100

    def test_stream_cycles_padding(self):
        cu = ComputeUnit(jacobi2d_5pt(), V=8)
        assert cu.stream_cycles((201, 100)) == 26 * 100

    def test_fill_lines_is_half_order(self):
        assert ComputeUnit(jacobi2d_5pt(), 1).fill_lines() == 1

    def test_flops(self):
        assert ComputeUnit(jacobi2d_5pt(), 1).flops_per_cell == 6


class TestStencilModule:
    def test_fill_sums_stages(self, rtm_small_app):
        module = StencilModule(rtm_small_app.program, V=1)
        assert module.fill_lines() == 16  # 4 stages x D/2=4

    def test_single_stage_fill(self, poisson_program):
        assert StencilModule(poisson_program, 8).fill_lines() == 1

    def test_dsp_cost(self, poisson_program):
        assert StencilModule(poisson_program, 8).dsp_cost == 8 * 14


class TestIterativePipeline:
    def test_run_equals_golden(self, poisson_program, field2d):
        pipe = IterativePipeline(poisson_program, V=2, p=4)
        out = pipe.run({"U": field2d}, 8)
        gold = run_program(poisson_program, {"U": field2d}, 8, engine="interpreter")
        assert np.array_equal(out["U"].data, gold["U"].data)

    def test_rejects_non_multiple_niter(self, poisson_program, field2d):
        pipe = IterativePipeline(poisson_program, V=2, p=4)
        with pytest.raises(ValidationError, match="multiple"):
            pipe.run({"U": field2d}, 6)

    def test_pass_cycles_matches_eq2(self, poisson_program):
        from repro.model.cycles import baseline_cycles_2d

        pipe = IterativePipeline(poisson_program, V=8, p=60)
        per_pass = pipe.pass_cycles((200, 100))
        total = pipe.total_cycles((200, 100), 60000)
        assert total == 1000 * per_pass
        assert total == baseline_cycles_2d(200, 100, 60000, 8, 60, 2)

    def test_pass_cycles_matches_eq3(self, jacobi_program):
        from repro.model.cycles import baseline_cycles_3d

        pipe = IterativePipeline(jacobi_program, V=8, p=29)
        assert pipe.total_cycles((250, 250, 250), 29000) == baseline_cycles_3d(
            250, 250, 250, 29000, 8, 29, 2
        )

    @pytest.mark.parametrize("engine", ["interpreter", "compiled", "parallel"])
    def test_run_batch_matches_golden_on_every_engine(
        self, poisson_program, spec2d, engine
    ):
        from repro.mesh.mesh import Field

        pipe = IterativePipeline(poisson_program, V=2, p=3, engine=engine)
        batch = [{"U": Field.random("U", spec2d, seed=i)} for i in range(3)]
        for env, res in zip(batch, pipe.run_batch(batch, 6)):
            gold = run_program(poisson_program, env, 6, engine="interpreter")
            assert np.array_equal(res["U"].data, gold["U"].data)

    def test_batched_cycles_match_eq15(self, poisson_program):
        from repro.model.cycles import batched_cycles_2d

        pipe = IterativePipeline(poisson_program, V=8, p=60)
        cycles = pipe.total_cycles((200, 100), 60000, batch=1000)
        assert cycles == batched_cycles_2d(200, 100, 1000, 60000, 8, 60, 2)

    def test_batched_cheaper_than_sequential(self, poisson_program):
        pipe = IterativePipeline(poisson_program, V=8, p=60)
        batched = pipe.total_cycles((200, 100), 60, batch=100)
        sequential = 100 * pipe.total_cycles((200, 100), 60, batch=1)
        assert batched < sequential

    def test_batched_cycles_share_fill(self, poisson_program):
        pipe = IterativePipeline(poisson_program, V=8, p=60)
        one = pipe.pass_cycles((200, 100), batch=1)
        ten = pipe.pass_cycles((200, 100), batch=10)
        assert ten < 10 * one

    def test_ii_scaling(self, rtm_small_app):
        pipe = IterativePipeline(rtm_small_app.program, V=1, p=3)
        base = pipe.pass_cycles((64, 64, 32), ii=1.0)
        slow = pipe.pass_cycles((64, 64, 32), ii=1.6)
        assert slow > base

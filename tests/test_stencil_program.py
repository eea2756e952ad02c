"""Unit tests for StencilProgram structure and external memory contract."""

import pytest

from repro.apps.rtm import build_rtm_program
from repro.mesh.mesh import MeshSpec
from repro.stencil.builders import jacobi2d_5pt, jacobi3d_7pt
from repro.stencil.kernel import single_output_kernel
from repro.stencil.program import (
    FusedGroup,
    StencilLoop,
    StencilProgram,
    single_kernel_program,
)
from repro.util.errors import ValidationError


class TestSingleKernelProgram:
    def test_structure(self, poisson_program):
        assert poisson_program.num_stencil_loops == 1
        assert poisson_program.state_fields == ("U",)
        assert poisson_program.constant_fields == ()

    def test_order(self, poisson_program):
        assert poisson_program.order == 2

    def test_external_contract(self, poisson_program):
        assert poisson_program.external_reads() == ("U",)
        assert poisson_program.external_writes() == ("U",)
        # read + write of a 4-byte scalar per cell per pass
        assert poisson_program.bytes_per_cell_pass() == 8

    def test_fused_stage_orders_single(self, poisson_program):
        assert poisson_program.fused_stage_orders == (2,)

    def test_rejects_multi_output_kernel(self):
        prog = build_rtm_program((8, 8, 8))
        with pytest.raises(ValidationError):
            single_kernel_program("x", prog.mesh, prog.groups[0].kernels[0])


class TestRTMProgram:
    def test_four_fused_loops(self):
        prog = build_rtm_program((8, 8, 8))
        assert prog.num_stencil_loops == 4
        assert prog.fused_stage_orders == (8, 8, 8, 8)

    def test_external_contract(self):
        prog = build_rtm_program((8, 8, 8))
        assert prog.external_reads() == ("Y", "rho", "mu")
        assert prog.external_writes() == ("Y",)
        # Y in (24) + rho (4) + mu (4) + Y out (24)
        assert prog.bytes_per_cell_pass() == 56

    def test_intermediates_stay_on_chip(self):
        prog = build_rtm_program((8, 8, 8))
        inter = prog.intermediate_fields()
        assert set(inter) == {"K1", "T", "K2", "K3", "K4"}

    def test_plane_limit_enforced(self):
        with pytest.raises(ValidationError, match="64"):
            build_rtm_program((128, 128, 16))

    def test_coefficient_values_merged(self):
        prog = build_rtm_program((8, 8, 8))
        coeffs = prog.coefficient_values()
        assert "dt" in coeffs and "l0" in coeffs


class TestValidation:
    def test_state_field_must_be_produced(self, spec2d):
        k = single_output_kernel("k", "W", jacobi2d_5pt().outputs[0].exprs[0])
        group = FusedGroup((StencilLoop(k),))
        with pytest.raises(ValidationError, match="never produced"):
            StencilProgram("bad", spec2d, (group,), ("U",))

    def test_constant_field_must_not_be_written(self, spec2d, poisson_kernel):
        group = FusedGroup((StencilLoop(poisson_kernel),))
        with pytest.raises(ValidationError, match="written"):
            StencilProgram("bad", spec2d, (group,), ("U",), ("U",))

    def test_rank_mismatch(self, spec2d, jacobi_kernel):
        group = FusedGroup((StencilLoop(jacobi_kernel),))
        with pytest.raises(ValidationError, match="rank"):
            StencilProgram("bad", spec2d, (group,), ("U",))

    def test_requires_groups(self, spec2d):
        with pytest.raises(ValidationError):
            StencilProgram("bad", spec2d, (), ("U",))

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            FusedGroup(())


class TestRebind:
    def test_with_mesh(self, poisson_program):
        bigger = poisson_program.with_mesh(MeshSpec((400, 400)))
        assert bigger.mesh.shape == (400, 400)
        assert bigger.name == poisson_program.name

    def test_with_mesh_rank_checked(self, poisson_program):
        with pytest.raises(ValidationError):
            poisson_program.with_mesh(MeshSpec((4, 4, 4)))

    def test_group_produced_fields_ordered(self):
        prog = build_rtm_program((8, 8, 8))
        fields = prog.groups[0].produced_fields()
        assert fields[0] == "K1"
        assert "Y" in fields


class TestCachedAnalysis:
    """Per-program facts are computed once and stay out of the program's value."""

    @staticmethod
    def _read_everything(program):
        return (
            program.order, program.fused_stage_orders, program.bytes_per_cell_pass(),
            program.window_lines, program.module_line_bytes, program.required_inputs,
            tuple((g.kernels, g.order, g.stage_orders) for g in program.groups),
        )

    def test_reads_leave_the_value_alone(self):
        import pickle

        from repro.stencil.plan import program_token

        warm, fresh = build_rtm_program((8, 8, 8)), build_rtm_program((8, 8, 8))
        token = program_token(fresh)
        answers = self._read_everything(warm)
        assert warm == fresh and repr(warm) == repr(fresh)
        assert program_token(warm) is token  # interned: one token per structure
        clone = pickle.loads(pickle.dumps(warm))
        assert clone == fresh and program_token(clone) == token
        assert self._read_everything(clone) == answers
        for program in (warm, fresh):  # coefficient dicts: never hashable
            with pytest.raises(TypeError):
                hash(program)

    def test_with_mesh_answers_for_its_own_mesh(self, poisson_program):
        import numpy as np

        from repro.model.resources import module_mem_bytes

        self._read_everything(poisson_program)
        base = module_mem_bytes(poisson_program)
        longer = poisson_program.with_mesh(MeshSpec((36, 10)))  # rows 12 -> 36
        assert longer.order == poisson_program.order
        assert module_mem_bytes(longer) == 3 * base
        double = poisson_program.with_mesh(MeshSpec((12, 10), dtype=np.float64))
        assert double.module_line_bytes == 2 * poisson_program.module_line_bytes
        assert double.bytes_per_cell_pass() == 2 * poisson_program.bytes_per_cell_pass()
        assert module_mem_bytes(poisson_program) == base  # the original still answers

    def _study_parts(self):
        from repro.arch.device import ALVEO_U280
        from repro.dse import Evaluator, model_space
        from repro.workload import WorkloadSpec

        program = build_rtm_program((32, 32, 32))
        workload = WorkloadSpec(program.mesh, 60)
        space = model_space(
            program, ALVEO_U280, workload,
            tiled=(False, True), boards=(1, 2), batches=(1, 4),
        )
        make = lambda **kw: Evaluator(program, ALVEO_U280, workload, **kw)
        return space, make

    def test_a_study_walks_no_tree_after_its_first_trial(self, spy_on_tree_walks):
        from repro.dse import ExhaustiveSearch, Study

        space, make = self._study_parts()
        assert space.size >= 200
        study = Study(space, make())
        study.ask(next(iter(space.grid())))
        walks = spy_on_tree_walks()
        study.run(ExhaustiveSearch(), 200)
        assert len(study.trials) == 201
        assert walks == []

    def test_concurrent_readers_agree(self):
        from concurrent.futures import ThreadPoolExecutor

        space, make = self._study_parts()
        configs = list(space.grid())[:200]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(make().evaluate, configs))
        assert threaded == [make().evaluate(c) for c in configs]

"""Mix-aware DSE: workloads= scoring, mix_space, weighted_sum scalarization."""

from __future__ import annotations

import math

import pytest

from repro.arch.device import ALVEO_U280
from repro.dse import (
    ENERGY,
    RUNTIME,
    Evaluator,
    Objective,
    ParetoFront,
    Study,
    strategy_by_name,
    weighted_sum,
)
from repro.dse.space import mix_space
from repro.util.errors import ValidationError
from repro.workload import WorkloadMix

#: small cross-app mix: jacobi dominates the load, RTM caps feasibility
MIX = WorkloadMix.parse(
    "jacobi3d:48x48x48:100x4,jacobi3d:64x64x64:60x2@2,rtm:32x32x32:36x2"
)

GOOD = {"memory": "HBM", "V": 1, "p": 3, "tiled": False}
#: feasible for jacobi alone, far beyond RTM's DSP budget
JACOBI_ONLY = {"memory": "HBM", "V": 8, "p": 8, "tiled": False}


def _program_for(spec):
    from repro.apps.registry import app_by_name

    return app_by_name(spec.app).program_on(spec.mesh.shape)


@pytest.fixture
def evaluator():
    return Evaluator(
        _program_for(MIX.heaviest()),
        ALVEO_U280,
        workloads=MIX,
        objectives=(RUNTIME, ENERGY),
    )


class TestMixEvaluator:
    def test_requires_some_workload(self):
        program = _program_for(MIX.heaviest())
        with pytest.raises(ValidationError):
            Evaluator(program, ALVEO_U280)
        with pytest.raises(ValidationError):
            Evaluator(
                program, ALVEO_U280, MIX.heaviest(), workloads=MIX
            )

    def test_representative_is_heaviest_spec(self, evaluator):
        assert evaluator.workload == MIX.heaviest()
        assert evaluator.mix == MIX

    def test_runtime_is_weighted_sum_over_specs(self, evaluator):
        """One design (one clock) serves the mix; runtime sums per spec."""
        from repro.model.runtime import RuntimePredictor

        result = evaluator.evaluate(GOOD)
        assert result.feasible
        design = result.design
        total = 0.0
        for spec, weight in MIX.group_by_spec().items():
            from repro.apps.registry import app_by_name

            predictor = RuntimePredictor(
                _program_for(spec),
                ALVEO_U280,
                design,
                logical_bytes_per_cell_iter=app_by_name(
                    spec.app
                ).gpu_traffic.logical_bytes_per_cell_iter,
            )
            total += weight * predictor.predict(spec).seconds
        assert math.isclose(total, result.value("runtime"), rel_tol=1e-12)

    def test_design_must_serve_every_spec(self, evaluator):
        """A config feasible for the heavy member alone must not win."""
        result = evaluator.evaluate(JACOBI_ONLY)
        assert not result.feasible
        assert "DSP" in result.reason

    def test_caps_take_the_minimum_over_specs(self, evaluator):
        program = _program_for(MIX.heaviest())
        jacobi_only = Evaluator(
            program, ALVEO_U280, MIX.heaviest(), objectives=(RUNTIME,)
        )
        # RTM's G_dsp must cap the mix well below jacobi's own cap
        assert evaluator.unroll_cap(V=1) < jacobi_only.unroll_cap(V=1)
        assert evaluator.vector_cap("HBM") <= jacobi_only.vector_cap("HBM")

    def test_tiled_batch_axis_mix_is_infeasible(self, evaluator):
        """A batch-axis config can't be tiled, exactly as on single workloads."""
        result = evaluator.evaluate(
            {"memory": "HBM", "V": 1, "p": 3, "tiled": True, "batch": 2}
        )
        assert not result.feasible
        assert "tiled" in result.reason

    def test_tiled_mix_keeps_analytic_scoring_like_single_path(self):
        """Spec-level batches score tiled analytically, as workload= does.

        The same batched workload spelled workloads= must not lose tiled
        configurations the workload= spelling scores.
        """
        spec = WorkloadMix.parse("poisson2d:1000x1000:500x4").heaviest()
        program = _program_for(spec)
        config = {"memory": "DDR4", "V": 8, "p": 60, "tiled": True}
        single = Evaluator(program, ALVEO_U280, spec, objectives=(RUNTIME,))
        as_mix = Evaluator(
            program, ALVEO_U280, workloads=[spec], objectives=(RUNTIME,)
        )
        a, b = single.evaluate(config), as_mix.evaluate(config)
        assert a.feasible == b.feasible
        if a.feasible:
            assert math.isclose(
                a.value("runtime"), b.value("runtime"), rel_tol=1e-12
            )

    def test_batch_axis_scales_every_spec(self, evaluator):
        base = evaluator.evaluate(GOOD)
        scaled = evaluator.evaluate({**GOOD, "batch": 2})
        assert scaled.feasible
        # runtime grows with the doubled batch, and by less than 2.2x
        # (fills amortize) but more than 1.5x
        ratio = scaled.value("runtime") / base.value("runtime")
        assert 1.5 < ratio < 2.2

    def test_study_on_mix_space_end_to_end(self, evaluator):
        space = mix_space(MIX, ALVEO_U280)
        study = Study(space, evaluator)
        study.run(strategy_by_name("greedy", seed=0), 30)
        best = study.best()
        assert best is not None
        assert best.config["V"] * best.config["p"] <= 8  # RTM-capped region
        # the journal fingerprint pins the mix
        assert study.fingerprint()["workloads"] == MIX.token()

    def test_validate_mix_runs_chunked_and_bit_identical(self):
        small = WorkloadMix.parse(
            "poisson2d:24x16:8x3,jacobi3d:16x14x10:6x2,rtm:12x12x10:4x2"
        )
        evaluator = Evaluator(
            _program_for(small.heaviest()),
            ALVEO_U280,
            workloads=small,
            objectives=(RUNTIME,),
        )
        run = evaluator.validate_mix(GOOD)
        assert run.validated
        assert run.meshes == 7
        assert run.dispatches <= run.meshes
        with pytest.raises(ValidationError):
            Evaluator(
                _program_for(small.heaviest()), ALVEO_U280,
                small.heaviest(), objectives=(RUNTIME,),
            ).validate_mix(GOOD)

    def test_mix_space_unions_per_program_axes(self):
        space = mix_space(MIX, ALVEO_U280)
        jac_space_vs = set()
        from repro.dse.space import model_space

        for spec in MIX.group_by_spec():
            s = model_space(_program_for(spec), ALVEO_U280, spec)
            jac_space_vs.update(s["V"].values)
            assert set(s["V"].values) <= set(space["V"].values)
            assert set(s["p"].values) <= set(space["p"].values)
        assert set(space["V"].values) == jac_space_vs


class TestWeightedSum:
    def _ctx_free_objective(self, name, values):
        """An objective reading a canned per-design value (no model)."""
        return Objective(name, "min", lambda c, v=values: v[c], unit="")

    def test_reorders_a_dominance_tied_front(self):
        """Two designs tied under dominance get a total order from weights.

        Design A: fast but power-hungry; design B: slow but frugal. The
        Pareto front keeps both (neither dominates); a weighted-sum primary
        ranks them — and flipping the weights flips the winner.
        """
        runtime = {"A": 1.0, "B": 2.0}
        power = {"A": 10.0, "B": 3.0}
        o_rt = self._ctx_free_objective("rt", runtime)
        o_pw = self._ctx_free_objective("pw", power)

        front = ParetoFront((o_rt, o_pw))
        front.add({"rt": runtime["A"], "pw": power["A"]}, payload="A")
        front.add({"rt": runtime["B"], "pw": power["B"]}, payload="B")
        assert len(front) == 2  # dominance leaves the pair tied

        speed_first = weighted_sum((o_rt, o_pw), (1.0, 0.01))
        power_first = weighted_sum((o_rt, o_pw), (0.01, 1.0))
        by_speed = sorted("AB", key=lambda d: speed_first.value(d))
        by_power = sorted("AB", key=lambda d: power_first.value(d))
        assert by_speed == ["A", "B"]
        assert by_power == ["B", "A"]

    def test_direction_folding_of_maximized_components(self):
        """Maximized components enter the sum negated (lower == better)."""
        bw = Objective("bw", "max", lambda c: {"A": 5.0, "B": 9.0}[c])
        rt = self._ctx_free_objective("rt", {"A": 1.0, "B": 1.0})
        scalar = weighted_sum((rt, bw), (1.0, 1.0))
        assert scalar.value("B") < scalar.value("A")
        assert scalar.direction == "min"

    def test_usable_as_evaluator_primary(self):
        mix = WorkloadMix.parse("jacobi3d:48x48x48:100x2")
        primary = weighted_sum((RUNTIME, ENERGY), (1.0, 0.001))
        evaluator = Evaluator(
            _program_for(mix.heaviest()),
            ALVEO_U280,
            workloads=mix,
            objectives=(primary, RUNTIME, ENERGY),
        )
        result = evaluator.evaluate(GOOD)
        assert result.feasible
        expected = result.value("runtime") + 0.001 * result.value("energy")
        assert math.isclose(result.score, expected, rel_tol=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            weighted_sum((), ())
        with pytest.raises(ValidationError):
            weighted_sum((RUNTIME,), (1.0, 2.0))
        with pytest.raises(ValidationError):
            weighted_sum((RUNTIME,), (float("nan"),))
        with pytest.raises(ValidationError):
            Objective("x", "min", lambda c: 0.0, aggregate="median")

    def test_default_name_spells_the_weights(self):
        scalar = weighted_sum((RUNTIME, ENERGY), (0.7, 0.3))
        assert scalar.name == "weighted(runtime*0.7+energy*0.3)"


class TestReviewRegressions:
    def test_mix_and_single_spelling_score_identically(self):
        """The same workload via workload= or workloads= is one trial."""
        from repro.dse import BANDWIDTH

        spec = WorkloadMix.parse("rtm:64x64x64:36x2").heaviest()
        program = _program_for(spec)
        objectives = (RUNTIME, ENERGY, BANDWIDTH)
        single = Evaluator(program, ALVEO_U280, spec, objectives=objectives)
        as_mix = Evaluator(
            program, ALVEO_U280, workloads=[spec], objectives=objectives
        )
        a = single.evaluate(GOOD)
        b = as_mix.evaluate(GOOD)
        assert a.feasible and b.feasible
        for name in ("runtime", "energy", "bandwidth"):
            assert math.isclose(a.value(name), b.value(name), rel_tol=1e-12)

    def test_mixed_rank_tiled_mix_has_clear_reason(self):
        mix = WorkloadMix.parse("poisson2d:4000x2000:100,jacobi3d:96x96x96:100")
        evaluator = Evaluator(
            _program_for(mix.heaviest()), ALVEO_U280, workloads=mix,
            objectives=(RUNTIME,),
        )
        result = evaluator.evaluate(
            {"memory": "HBM", "V": 1, "p": 2, "tiled": True}
        )
        assert not result.feasible
        assert "mixed-rank" in result.reason

    def test_representative_ranks_by_per_mesh_footprint(self):
        """A huge batch of small meshes must not outrank one big mesh."""
        mix = WorkloadMix.parse(
            "jacobi3d:96x96x96:100,poisson2d:100x50:100x500"
        )
        assert mix.heaviest().app == "jacobi3d"
        evaluator = Evaluator(
            _program_for(mix.heaviest()), ALVEO_U280, workloads=mix,
            objectives=(RUNTIME,),
        )
        assert evaluator.workload.app == "jacobi3d"

    def test_appless_mix_validates_with_synthesized_fields(self):
        """workloads= accepts app-less specs end to end, validation included."""
        from repro.mesh.mesh import MeshSpec
        from repro.model.design import Workload

        program = _program_for(
            WorkloadMix.parse("poisson2d:24x16:8").heaviest()
        )
        mix = [Workload(MeshSpec((24, 16)), 6, 3), Workload(MeshSpec((16, 12)), 4, 2)]
        evaluator = Evaluator(
            program, ALVEO_U280, workloads=mix, objectives=(RUNTIME,)
        )
        run = evaluator.validate_mix(GOOD)
        assert run.validated and run.meshes == 5

    def test_workload_for_refuses_mix_evaluators(self):
        mix = WorkloadMix.parse("jacobi3d:16x14x10:12x3,rtm:12x12x10:6x2")
        evaluator = Evaluator(
            _program_for(mix.heaviest()), ALVEO_U280, workloads=mix,
            objectives=(RUNTIME,),
        )
        with pytest.raises(ValidationError, match="mix"):
            evaluator.workload_for({"batch": 4})

    def test_mix_space_supports_appless_specs_with_base_program(self):
        from repro.mesh.mesh import MeshSpec
        from repro.model.design import Workload

        program = _program_for(
            WorkloadMix.parse("poisson2d:24x16:8").heaviest()
        )
        mix = [Workload(MeshSpec((24, 16)), 6), Workload(MeshSpec((48, 32)), 6)]
        space = mix_space(mix, ALVEO_U280, program=program)
        assert "V" in space and "p" in space
        with pytest.raises(ValidationError, match="program="):
            mix_space(mix, ALVEO_U280)

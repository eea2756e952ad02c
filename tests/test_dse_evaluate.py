"""Unit tests for the memoizing evaluator."""

import math

import pytest

from repro.arch.device import ALVEO_U280
from repro.dataflow.accelerator import FPGAAccelerator
from repro.dse.evaluate import Evaluator
from repro.dse.objectives import ENERGY, RUNTIME, compute_bound_only, max_power
from repro.dse.space import model_space
from repro.model.design import Workload
from repro.util.errors import ValidationError


@pytest.fixture
def setup(jacobi_app):
    program = jacobi_app.program_on((64, 64, 64))
    workload = Workload(program.mesh, 100)
    evaluator = Evaluator(
        program, ALVEO_U280, workload, objectives=(RUNTIME, ENERGY)
    )
    space = model_space(program, ALVEO_U280, workload)
    return program, workload, evaluator, space


GOOD = {"memory": "HBM", "V": 8, "p": 4, "tiled": False}
#: V*p far beyond the DSP inventory
BAD = {"memory": "HBM", "V": 512, "p": 4096, "tiled": False}


class TestEvaluate:
    def test_feasible_trial_scores_all_objectives(self, setup):
        _, _, evaluator, _ = setup
        result = evaluator.evaluate(GOOD)
        assert result.feasible
        assert result.design.V == 8 and result.design.memory == "HBM"
        assert set(result.values) == {"runtime", "energy"}
        assert result.score == result.values["runtime"]
        assert math.isfinite(result.score)

    def test_infeasible_trial_has_reason_and_inf_score(self, setup):
        _, _, evaluator, _ = setup
        result = evaluator.evaluate(BAD)
        assert not result.feasible
        assert result.design is None
        assert result.reason
        assert math.isinf(result.score)

    def test_same_config_never_evaluated_twice(self, setup):
        _, _, evaluator, _ = setup
        evaluator.evaluate(GOOD)
        evaluator.evaluate(dict(GOOD))
        evaluator.evaluate({k: GOOD[k] for k in reversed(list(GOOD))})
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 2

    def test_evaluate_many_dedupes_and_aligns(self, setup):
        _, _, evaluator, _ = setup
        batch = [GOOD, BAD, dict(GOOD), GOOD]
        results = evaluator.evaluate_many(batch)
        assert len(results) == 4
        assert results[0] is results[2] is results[3]
        assert evaluator.evaluations == 2  # one per distinct config

    def test_infeasible_trials_are_counted_by_check(self, setup):
        from repro import observability as obs

        _, _, evaluator, _ = setup
        too_wide = dict(GOOD, V=64, p=8)  # V*p*Gdsp over the DSP inventory
        starved = dict(GOOD, memory="DDR4", V=64, p=1)  # eq. (4)
        obs.enable()
        try:
            # BAD's p=4096 plane buffers overflow on-chip memory before the
            # DSP check is reached; a repeated configuration is a cache hit
            for config in (GOOD, too_wide, dict(too_wide), starved, BAD):
                evaluator.evaluate(config)
        finally:
            obs.disable()
        assert evaluator.infeasible == {"dsp": 1, "bandwidth": 1, "buffer": 1}
        assert evaluator.evaluations == 4
        registry = obs.metrics_registry()
        for check in ("dsp", "bandwidth", "buffer"):
            assert registry.value("dse.trials", feasible=False, check=check) == 1
        assert registry.value("dse.trials", feasible=True, check="") == 1

    def test_each_new_config_goes_through_evaluate_once(self, setup):
        """Tracers wrap ``evaluate`` on the instance (the contract benchmark
        does): batches and studies must route every new configuration
        through that attribute, exactly once."""
        from repro.dse.strategies import ExhaustiveSearch
        from repro.dse.study import Study

        _, _, evaluator, space = setup
        seen = []
        inner = evaluator.evaluate

        def wrapped(config, *args, **kwargs):
            seen.append(dict(config))
            return inner(config, *args, **kwargs)

        evaluator.evaluate = wrapped
        study = Study(space, evaluator)
        study.ask(space.config_at(space.size - 1))
        study.run(ExhaustiveSearch(batch=16), 40)
        study.ask(space.config_at(0))  # already seen: free
        assert seen == [t.config for t in study.trials]
        assert len(seen) == 41

    def test_needs_objectives(self, setup):
        program, workload, _, _ = setup
        with pytest.raises(ValidationError):
            Evaluator(program, ALVEO_U280, workload, objectives=())

    def test_seed_installs_and_respects_incumbent(self, setup):
        _, _, evaluator, _ = setup
        result = evaluator.evaluate(GOOD)
        assert not evaluator.seed(result)  # already cached
        fresh = Evaluator(
            evaluator.program, ALVEO_U280, evaluator.workload,
            objectives=(RUNTIME, ENERGY),
        )
        assert fresh.seed(result)
        assert fresh.evaluate(GOOD) is result
        assert fresh.evaluations == 0  # answered from the seeded cache


class TestConstraints:
    def test_violating_design_is_infeasible(self, setup):
        program, workload, _, _ = setup
        constrained = Evaluator(
            program, ALVEO_U280, workload, constraints=(max_power(1.0),)
        )
        result = constrained.evaluate(GOOD)
        assert not result.feasible
        assert "power" in result.reason

    def test_compute_bound_only_passes_compute_bound(self, setup):
        program, workload, evaluator, _ = setup
        constrained = Evaluator(
            program, ALVEO_U280, workload, constraints=(compute_bound_only(),)
        )
        baseline = evaluator.evaluate(GOOD)
        assert baseline.feasible and not baseline.memory_bound
        assert constrained.evaluate(GOOD).feasible


class TestBoardsAxis:
    def test_more_boards_run_faster(self, setup):
        program, workload, _, _ = setup
        evaluator = Evaluator(program, ALVEO_U280, workload)
        single = evaluator.evaluate(dict(GOOD, boards=1))
        quad = evaluator.evaluate(dict(GOOD, boards=4))
        assert single.feasible and quad.feasible
        assert quad.value("runtime") < single.value("runtime")

    def test_boards_one_matches_no_axis(self, setup):
        program, workload, _, _ = setup
        evaluator = Evaluator(program, ALVEO_U280, workload)
        with_axis = evaluator.evaluate(dict(GOOD, boards=1))
        without = evaluator.evaluate(GOOD)
        assert with_axis.value("runtime") == without.value("runtime")


class TestBatchAxis:
    def test_batch_axis_scales_the_scored_workload(self, setup):
        """A ``batch`` value re-scores the design on the batched workload.

        More meshes take longer in total but amortize the fill latency, so
        a batch-B trial must sit strictly between 1x and Bx the single-mesh
        runtime (eq. (15)).
        """
        program, workload, evaluator, _ = setup
        single = evaluator.evaluate(GOOD)
        batched = evaluator.evaluate(dict(GOOD, batch=8))
        assert batched.feasible
        assert evaluator.workload_for(dict(GOOD, batch=8)).batch == 8
        assert single.value("runtime") < batched.value("runtime")
        assert batched.value("runtime") < 8 * single.value("runtime")

    def test_batch_one_matches_no_axis(self, setup):
        _, _, evaluator, _ = setup
        with_axis = evaluator.evaluate(dict(GOOD, batch=1))
        without = evaluator.evaluate(GOOD)
        assert with_axis.value("runtime") == without.value("runtime")

    def test_tiled_batched_configs_are_infeasible(self, jacobi_app):
        """tiled x batch>1 has no executable surface, so it must not score.

        ``FPGAAccelerator.run_batch`` raises on tiled designs; a config the
        runtime cannot execute must not win a Pareto front, and the
        accelerator its design denotes refuses to run a batch on it.
        """
        program = jacobi_app.program_on((400, 400, 400))
        workload = Workload(program.mesh, 100)
        evaluator = Evaluator(program, ALVEO_U280, workload)
        tiled = {"memory": "HBM", "V": 1, "p": 2, "tiled": True}
        assert evaluator.evaluate(tiled).feasible
        batched = evaluator.evaluate(dict(tiled, batch=4))
        assert not batched.feasible
        assert "tiled" in batched.reason
        assert evaluator.evaluate(dict(tiled, batch=1)).feasible
        acc = FPGAAccelerator(program, evaluator.design_for(tiled))
        with pytest.raises(ValidationError, match="tiled"):
            acc.run_batch([{}], 2)  # refused before the batch is read
        # only the *axis* is gated: a study-level batched workload keeps its
        # pre-existing analytic scoring on tiled designs
        study_batched = Evaluator(program, ALVEO_U280, Workload(program.mesh, 100, 4))
        assert study_batched.evaluate(tiled).feasible

    def test_accelerator_realizes_the_batched_trial(self, jacobi_app):
        """The trial's accelerator backs the batch axis, bit-identically.

        A study exploring batch sizes can validate its best design on the
        very batched workload it was scored for: ``run_batch`` executes
        the batch through one stacked tape and matches the golden
        interpreter.
        """
        import numpy as np

        from repro.stencil.compiled import CompiledPlanCache
        from repro.stencil.numpy_eval import run_program

        shape = (16, 14, 8)
        program = jacobi_app.program_on(shape)
        workload = Workload(program.mesh, 100)
        evaluator = Evaluator(program, ALVEO_U280, workload)
        config = dict(GOOD, batch=4)
        assert evaluator.evaluate(config).feasible
        cache = CompiledPlanCache()
        design = evaluator.design_for(config)
        assert design.V == GOOD["V"] and design.p == GOOD["p"]
        acc = FPGAAccelerator(program, design, plan_cache=cache)
        batch = [jacobi_app.fields(shape, seed=s) for s in range(4)]
        results, report = acc.run_batch(batch, design.p * 2)
        assert report.passes == 2
        assert cache.misses == 1  # one stacked plan for the whole batch
        for env, res in zip(batch, results):
            gold = run_program(program, env, design.p * 2, engine="interpreter")
            assert np.array_equal(res["U"].data, gold["U"].data)


class TestModelBounds:
    def test_unroll_cap_honors_hard_dsp_limit(self, setup):
        _, _, evaluator, _ = setup
        for V in (1, 8, 32):
            cap = evaluator.unroll_cap(V)
            result = evaluator.evaluate(
                {"memory": "HBM", "V": V, "p": cap, "tiled": False}
            )
            # the cap itself must never be DSP-infeasible
            assert "DSPs exceeds" not in result.reason

    def test_vector_cap_shrinks_with_unroll(self, setup):
        _, _, evaluator, _ = setup
        assert evaluator.vector_cap("HBM", p=64) <= evaluator.vector_cap("HBM", p=1)

    def test_tiled_config_derives_tile(self, jacobi_app):
        program = jacobi_app.program_on((400, 400, 400))
        workload = Workload(program.mesh, 100)
        evaluator = Evaluator(program, ALVEO_U280, workload)
        design = evaluator.design_for(
            {"memory": "HBM", "V": 1, "p": 2, "tiled": True}
        )
        assert design.tile is not None
        assert min(design.tile.tile) > 2 * program.order

"""Partial-failure semantics at the mix layer: isolate, don't abort.

A live job population must survive one bad workload. ``strict=False``
turns a group failure into a :class:`GroupError` record on
``MixRunResult.errors`` while the neighbouring groups complete
bit-identically; ``strict=True`` keeps the fail-fast contract. The same
semantics surface through ``Evaluator.validate_mix`` and ``repro mix``.
"""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.arch.device import ALVEO_U280
from repro.cli import main
from repro.dataflow.scheduler import GroupError, MixScheduler
from repro.dse import ENERGY, RUNTIME, Evaluator
from repro.parallel.executor import (
    ParallelExecutionError,
    plan_token_for,
)
from repro.parallel.pool import shutdown_shared_pools
from repro.resilience import FaultPlan, RetryPolicy
from repro.util.errors import ValidationError
from repro.workload import WorkloadMix

#: two job groups with distinct plan tokens (different apps and meshes)
MIX = WorkloadMix.parse("poisson2d:20x16:2x2,jacobi3d:12x10x8:2x2")

#: no retries, no ladder: the first failure is final (fast tests)
FRAGILE = RetryPolicy(backoff_base=0.0, max_attempts=1, ladder=())


@pytest.fixture(autouse=True)
def _observability_off():
    obs.enable(fresh=True)
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module", autouse=True)
def _drain_pools():
    yield
    shutdown_shared_pools()


def _token_of(spec):
    # member 0 of a group built by a seed-0 scheduler uses seed 0
    return plan_token_for(spec.program(), spec.fields(seed=0))


def _doomed_spec():
    return next(s for s in MIX.specs if s.app == "poisson2d")


class TestBestEffortIsolation:
    def test_failing_group_is_isolated_with_error_record(self):
        obs.enable()
        doomed = _doomed_spec()
        plan = FaultPlan.parse(f"crash@{_token_of(doomed)}/*x99")
        scheduler = MixScheduler(
            engine="parallel", max_workers=2, strict=False,
            retry_policy=FRAGILE, fault_plan=plan,
        )
        run = scheduler.run(MIX)
        assert not run.ok
        assert len(run.errors) == 1
        (error,) = run.errors
        assert isinstance(error, GroupError)
        assert error.spec.job_key == doomed.job_key
        assert error.attempts == 1
        assert error.backend == "thread"
        assert error.describe().startswith(error.spec.describe())
        # the healthy group still completed, with full accounting
        (survivor,) = run.groups
        assert survivor.spec.app == "jacobi3d"
        assert survivor.meshes == 2
        assert obs.metrics_registry().value(
            "mix.group_failures", engine="parallel"
        ) == 1
        assert obs.ring_sink().of_kind("mix.group_failure")

    def test_strict_run_raises_on_the_same_fault(self):
        doomed = _doomed_spec()
        plan = FaultPlan.parse(f"crash@{_token_of(doomed)}/*x99")
        scheduler = MixScheduler(
            engine="parallel", max_workers=2, strict=True,
            retry_policy=FRAGILE, fault_plan=plan,
        )
        with pytest.raises(ParallelExecutionError):
            scheduler.run(MIX)

    def test_retries_surface_on_group_runs(self):
        doomed = _doomed_spec()
        plan = FaultPlan.parse(f"crash@{_token_of(doomed)}/0")
        scheduler = MixScheduler(
            engine="parallel", max_workers=2,
            retry_policy=RetryPolicy(backoff_base=0.0), fault_plan=plan,
        )
        run = scheduler.run(MIX, validate=True)  # recovery is bit-identical
        assert run.ok
        by_app = {g.spec.app: g for g in run.groups}
        assert by_app["poisson2d"].retries >= 1
        assert by_app["jacobi3d"].retries == 0

    def test_compiled_engine_isolates_too(self):
        doomed = _doomed_spec()

        def program_for(spec):
            if spec.job_key == doomed.job_key:
                raise ValidationError("injected resolver failure")
            return spec.program()

        run = MixScheduler(
            engine="compiled", strict=False, program_for=program_for
        ).run(MIX)
        assert not run.ok
        (error,) = run.errors
        assert "injected resolver failure" in error.error
        assert error.attempts is None  # never reached the parallel engine
        (survivor,) = run.groups
        assert survivor.spec.app == "jacobi3d"


class TestValidateMixSemantics:
    @pytest.fixture
    def evaluator(self):
        spec = MIX.heaviest()
        return Evaluator(
            spec.program(), ALVEO_U280,
            workloads=MIX, objectives=(RUNTIME, ENERGY),
        )

    GOOD = {"memory": "HBM", "V": 1, "p": 3, "tiled": False}

    def test_best_effort_validate_mix_reports_errors(
        self, evaluator, poisoned_chunks
    ):
        run = evaluator.validate_mix(
            self.GOOD, engine="parallel", max_workers=2, strict=False,
            retry_policy=FRAGILE,
        )
        assert not run.ok
        assert len(run.errors) == len(MIX.job_groups())
        assert run.groups == ()

    def test_strict_validate_mix_raises(self, evaluator, poisoned_chunks):
        with pytest.raises(ParallelExecutionError):
            evaluator.validate_mix(
                self.GOOD, engine="parallel", max_workers=2,
                retry_policy=FRAGILE,
            )


class TestMixCli:
    MIX_ARG = "poisson2d:20x16:2x2,jacobi3d:12x10x8:2x2"

    def test_strict_mix_exits_nonzero_under_faults(self, poisoned_chunks, capsys):
        code = main(
            ["mix", self.MIX_ARG, "--engine", "parallel", "--max-workers", "2", "--strict"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_best_effort_mix_exits_zero_with_failure_rows(
        self, poisoned_chunks, capsys
    ):
        code = main(["mix", self.MIX_ARG, "--engine", "parallel", "--max-workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "group failed (isolated)" in out

    def test_fault_plan_flag_recovers_and_reports_retries(self, capsys):
        code = main(
            ["mix", self.MIX_ARG, "--engine", "parallel", "--max-workers", "2", "--validate",
             "--fault-plan", "crash@0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out
        assert "recovered:" in out
        assert "validated: every mesh bit-identical" in out

    def test_validated_footer_is_honest_about_failed_groups(
        self, poisoned_chunks, capsys
    ):
        # all groups fail: no "every mesh bit-identical" claim may print
        code = main(
            ["mix", self.MIX_ARG, "--engine", "parallel",
             "--max-workers", "2", "--validate"]
        )
        assert code == 0
        assert "bit-identical" not in capsys.readouterr().out

    def test_malformed_env_plan_is_a_usage_error(self, monkeypatch, capsys):
        # a bad REPRO_FAULT_PLAN is an operator mistake, not a group
        # failure to be isolated silently in best-effort mode
        from repro.resilience import ENV_PLAN

        monkeypatch.setenv(ENV_PLAN, "bogus-plan")
        code = main(
            ["mix", self.MIX_ARG, "--engine", "parallel", "--max-workers", "2"]
        )
        assert code == 2
        assert "cannot parse fault" in capsys.readouterr().err

    def test_bad_fault_plan_is_a_usage_error(self, capsys):
        code = main(
            ["mix", self.MIX_ARG, "--engine", "parallel", "--max-workers", "2",
             "--fault-plan", "fly@0"]
        )
        assert code == 2
        assert "fault" in capsys.readouterr().err

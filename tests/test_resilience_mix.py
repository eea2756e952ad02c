"""Partial-failure semantics at the mix layer: isolate, don't abort.

A live job population must survive one bad workload. ``strict=False``
turns a group failure into a :class:`GroupError` record on
``MixRunResult.errors`` while the neighbouring groups complete
bit-identically; ``strict=True`` raises on the first failure. The same
semantics surface through ``Evaluator.validate_mix`` and ``repro mix``.
"""

from __future__ import annotations

import numpy as np
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
from repro.util.errors import ValidationError
from repro.workload import WorkloadMix

#: two job groups with distinct plan tokens (different apps and meshes)
MIX = WorkloadMix.parse("poisson2d:20x16:2x2,jacobi3d:12x10x8:2x2")


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


def _doomed_spec(app="poisson2d"):
    return next(s for s in MIX.specs if s.app == app)


def _doom(monkeypatch, spec) -> None:
    """Every parallel chunk of ``spec``'s group raises; others run."""
    from repro.parallel import executor

    real = executor.run_chunk_fields
    token = _token_of(spec)

    def run(*args, **kwargs):
        if args[0] == token:
            raise RuntimeError("doomed group")
        return real(*args, **kwargs)

    monkeypatch.setattr(executor, "run_chunk_fields", run)


@pytest.fixture
def doomed_group(monkeypatch):
    """Every parallel chunk of the poisson2d group raises; others run."""
    _doom(monkeypatch, _doomed_spec())


class TestBestEffortIsolation:
    def test_failing_group_is_isolated_with_error_record(self, doomed_group):
        obs.enable()
        doomed = _doomed_spec()
        scheduler = MixScheduler(engine="parallel", max_workers=2, strict=False)
        run = scheduler.run(MIX)
        assert not run.ok
        assert len(run.errors) == 1
        (error,) = run.errors
        assert isinstance(error, GroupError)
        assert error.spec.job_key == doomed.job_key
        assert "doomed group" in error.error
        assert error.describe().startswith(error.spec.describe())
        # the healthy group still completed, with full accounting
        (survivor,) = run.groups
        assert survivor.spec.app == "jacobi3d"
        assert survivor.meshes == 2
        assert obs.metrics_registry().value(
            "mix.group_failures", engine="parallel"
        ) == 1
        assert obs.ring_sink().of_kind("mix.group_failure")

    def test_strict_run_raises_on_the_same_fault(self, doomed_group):
        scheduler = MixScheduler(engine="parallel", max_workers=2, strict=True)
        with pytest.raises(ParallelExecutionError, match="doomed group"):
            scheduler.run(MIX)

    @pytest.mark.parametrize("doomed_app,survivor_app", [
        ("poisson2d", "jacobi3d"),
        ("jacobi3d", "poisson2d"),
    ])
    def test_survivor_is_bit_identical_to_a_healthy_run(
        self, monkeypatch, doomed_app, survivor_app
    ):
        healthy = MixScheduler(engine="compiled").run(MIX)
        want = next(g for g in healthy.groups if g.spec.app == survivor_app)
        _doom(monkeypatch, _doomed_spec(doomed_app))
        run = MixScheduler(
            engine="parallel", max_workers=2, strict=False
        ).run(MIX)
        (error,) = run.errors
        assert error.spec.app == doomed_app
        (got,) = run.groups
        assert got.spec.app == survivor_app
        for got_env, want_env in zip(got.results, want.results):
            assert set(got_env) == set(want_env)
            for name in want_env:
                assert np.array_equal(got_env[name].data, want_env[name].data)

    def test_isolated_run_validates_its_survivors(self, doomed_group):
        run = MixScheduler(
            engine="parallel", max_workers=2, strict=False
        ).run(MIX, validate=True)
        assert run.validated
        (survivor,) = run.groups
        assert survivor.spec.app == "jacobi3d"
        assert len(run.errors) == 1

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
        )
        assert not run.ok
        assert len(run.errors) == len(MIX.job_groups())
        assert run.groups == ()

    def test_strict_validate_mix_raises(self, evaluator, poisoned_chunks):
        with pytest.raises(ParallelExecutionError):
            evaluator.validate_mix(self.GOOD, engine="parallel", max_workers=2)


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

    def test_healthy_parallel_mix_prints_no_recovery_line(self, capsys):
        code = main(
            ["mix", self.MIX_ARG, "--engine", "parallel", "--max-workers", "2",
             "--validate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered:" not in out
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

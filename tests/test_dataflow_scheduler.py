"""MixScheduler: grouping, chunked dispatch accounting, golden validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataflow.scheduler import MixScheduler
from repro.mesh.mesh import MeshSpec
from repro.stencil import compiled
from repro.stencil.compiled import (
    STACKED_BYTES_LIMIT,
    CompiledPlanCache,
    stacked_chunk_sizes,
    team_chunk_sizes,
)
from repro.stencil.numpy_eval import run_program
from repro.util.errors import ValidationError
from repro.workload import WorkloadMix, WorkloadSpec

#: a three-app mix with duplicate job shapes to exercise merging
MIX = WorkloadMix.parse(
    "poisson2d:24x16:8x2,jacobi3d:16x14x10:6x3,poisson2d:24x16:8x2@2,"
    "rtm:12x12x10:4x2"
)


#: an RTM group whose stacked footprint is several times the default budget
OVER_BUDGET = WorkloadSpec.parse("rtm:12x12x10:4x12")


@pytest.mark.parametrize("engine", ["compiled", "native", "parallel"])
def test_over_budget_group_is_cut_by_the_module_budget(engine):
    """Every stacking engine cuts an over-budget group from
    ``STACKED_BYTES_LIMIT`` alone; the native engine reads it per core."""
    run = MixScheduler(engine=engine, max_workers=2).run(OVER_BUDGET)
    (group,) = run.groups
    plan = CompiledPlanCache().plan_for(
        OVER_BUDGET.program(), OVER_BUDGET.fields(seed=0)
    )
    want = stacked_chunk_sizes(OVER_BUDGET.batch, plan.nbytes, STACKED_BYTES_LIMIT)
    assert len(want) > 1  # genuinely over budget
    if engine == "native":
        from repro.stencil.native import team_size

        want = team_chunk_sizes(
            OVER_BUDGET.batch, plan.nbytes, team_size(), STACKED_BYTES_LIMIT
        )
    assert group.chunks == tuple(want)
    assert group.dispatches == len(want)


class TestScheduling:
    def test_groups_merge_and_results_match_interpreter(self):
        run = MixScheduler().run(MIX, validate=True)
        assert run.validated
        # poisson entries merge into one 4-mesh group
        by_app = {g.spec.app: g for g in run.groups}
        assert set(by_app) == {"poisson2d", "jacobi3d", "rtm"}
        assert by_app["poisson2d"].meshes == 4
        assert run.meshes == 9
        assert sum(g.dispatches for g in run.groups) == run.dispatches
        # independent golden check (validate=True already asserted inside)
        for group in run.groups:
            program = group.spec.program()
            state = program.state_fields[0]
            for index, result in enumerate(group.results):
                env = group.spec.fields(seed=index)
                gold = run_program(
                    program, env, group.spec.niter, engine="interpreter"
                )
                assert np.array_equal(gold[state].data, result[state].data)

    def test_chunked_vs_per_mesh_dispatch_counts(self, monkeypatch):
        chunked = MixScheduler().run(MIX)
        # a budget below one mesh footprint degrades to per-mesh replay
        monkeypatch.setattr(compiled, "STACKED_BYTES_LIMIT", 0)
        per_mesh = MixScheduler().run(MIX)
        assert per_mesh.dispatches == per_mesh.meshes == chunked.meshes
        assert chunked.dispatches < per_mesh.dispatches
        # results agree between scheduling policies, bitwise
        for a, b in zip(chunked.groups, per_mesh.groups):
            assert a.spec == b.spec
            for ra, rb in zip(a.results, b.results):
                for name in ra:
                    assert np.array_equal(ra[name].data, rb[name].data)

    def test_interpreter_engine_is_per_mesh(self):
        run = MixScheduler(engine="interpreter").run(MIX)
        assert run.dispatches == run.meshes
        assert all(set(g.chunks) == {1} for g in run.groups)

    def test_group_for_lookup(self):
        run = MixScheduler().run(MIX)
        spec = WorkloadSpec.parse("poisson2d:24x16:8")
        assert run.group_for(spec).meshes == 4
        with pytest.raises(ValidationError):
            run.group_for(WorkloadSpec.parse("poisson2d:100x80:8"))

    def test_shared_plan_cache_reused_across_runs(self):
        cache = CompiledPlanCache()
        scheduler = MixScheduler(plan_cache=cache)
        scheduler.run(MIX)
        misses = cache.misses
        scheduler.run(MIX)
        assert cache.misses == misses  # second run fully warm

    def test_custom_fields_and_program(self):
        """App-less specs schedule with caller-supplied resolvers."""
        from repro.apps.poisson2d import poisson2d_app

        app = poisson2d_app((20, 16))
        program = app.program_on((20, 16))
        spec = WorkloadSpec(MeshSpec((20, 16)), niter=4, batch=3)

        def fields_for(s, i):
            return app.fields(s.mesh.shape, seed=100 + i)

        run = MixScheduler(
            program_for=lambda s: program, fields_for=fields_for
        ).run(spec, validate=True)
        assert run.meshes == 3
        state = program.state_fields[0]
        gold = run_program(
            program, fields_for(spec, 0), 4, engine="interpreter"
        )
        assert np.array_equal(
            gold[state].data, run.groups[0].results[0][state].data
        )

    def test_appless_spec_without_resolvers_fails(self):
        spec = WorkloadSpec(MeshSpec((20, 16)), niter=4)
        with pytest.raises(ValidationError):
            MixScheduler().run(spec)

    def test_bad_engine_rejected(self):
        with pytest.raises(ValidationError):
            MixScheduler(engine="verilog")

    def test_validation_catches_divergence(self, monkeypatch):
        """A corrupted engine result must raise, not pass silently."""
        import repro.dataflow.scheduler as scheduler_mod

        spec = WorkloadSpec.parse("poisson2d:20x16:4x2")
        real = scheduler_mod.run_program_stacked

        def corrupted(*args, **kwargs):
            results = real(*args, **kwargs)
            state = next(iter(results[0]))
            results[0][state].data[1, 1, 0] += 1.0
            return results

        monkeypatch.setattr(scheduler_mod, "run_program_stacked", corrupted)
        with pytest.raises(ValidationError, match="diverges"):
            MixScheduler().run(spec, validate=True)


class TestParallelScheduling:
    """The parallel engine behind the scheduler: order, accounting, errors."""

    @pytest.fixture(autouse=True, scope="class")
    def _drain_pools(self):
        from repro.parallel.pool import shutdown_shared_pools

        yield
        shutdown_shared_pools()

    def test_parallel_matches_compiled_bitwise(self):
        serial = MixScheduler().run(MIX, validate=True)
        parallel = MixScheduler(max_workers=2, engine="parallel").run(
            MIX, validate=True
        )
        assert parallel.validated
        # identical group order, membership and dispatch accounting —
        # chunks are scheduled at submit time, so out-of-order completion
        # cannot perturb any of it
        assert [g.spec for g in parallel.groups] == [g.spec for g in serial.groups]
        assert [g.chunks for g in parallel.groups] == [g.chunks for g in serial.groups]
        assert parallel.dispatches == serial.dispatches
        for gp, gs in zip(parallel.groups, serial.groups):
            for rp, rs in zip(gp.results, gs.results):
                for name in rs:
                    assert np.array_equal(rp[name].data, rs[name].data)

    def test_single_worker_parallel_degrades_but_stays_correct(self):
        serial = MixScheduler().run(MIX)
        degraded = MixScheduler(max_workers=1, engine="parallel").run(MIX)
        assert degraded.dispatches == serial.dispatches
        for gp, gs in zip(degraded.groups, serial.groups):
            for rp, rs in zip(gp.results, gs.results):
                for name in rs:
                    assert np.array_equal(rp[name].data, rs[name].data)

    def test_worker_failure_names_the_workload(self, poisoned_chunks):
        from repro.parallel.executor import ParallelExecutionError

        spec = WorkloadSpec.parse("poisson2d:24x16:8x2")
        with pytest.raises(ParallelExecutionError, match=spec.describe()):
            MixScheduler(max_workers=2, engine="parallel").run(spec)


class TestCancellation:
    """A cancel token threads through the scheduler and is never isolated."""

    def test_pre_set_token_raises_before_any_work(self):
        from repro.resilience import CancelToken, ExecutionCancelled

        token = CancelToken()
        token.set("called off")
        for engine in ("compiled", "parallel", "interpreter"):
            scheduler = MixScheduler(engine=engine, max_workers=2)
            with pytest.raises(ExecutionCancelled):
                scheduler.run(MIX, cancel=token)

    def test_cancellation_is_not_isolated_under_non_strict(self):
        """strict=False isolates workload *failures*; a cancel is a caller
        decision and must abort the whole mix, not skip one group."""
        from repro.resilience import CancelToken, ExecutionCancelled

        token = CancelToken()
        token.set("called off")
        scheduler = MixScheduler(engine="compiled", strict=False)
        with pytest.raises(ExecutionCancelled):
            scheduler.run(MIX, cancel=token)

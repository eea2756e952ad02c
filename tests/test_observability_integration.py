"""Observability wired through the execution stack, end to end.

Covers the PR's cross-layer contracts: the serial and parallel engines
report identical dispatch accounting through the registry-backed
``stats=`` view; an enabled run produces an event log whose span tree
covers compile → chunk dispatch → worker execution; the mix layer reports
per-group latency percentiles; failures carry backend/elapsed context;
and the disabled default stays inert.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import observability as obs
from repro.apps.registry import all_apps
from repro.dataflow.scheduler import MixScheduler
from repro.observability.events import read_events
from repro.parallel.executor import (
    ParallelExecutionError,
    run_program_parallel,
)
from repro.parallel.pool import shutdown_shared_pools
from repro.stencil.compiled import CompiledPlanCache, run_program_stacked
from repro.workload import WorkloadMix

APP_MESHES = {
    "poisson2d": (20, 16),
    "jacobi3d": (14, 12, 8),
    "rtm": (12, 12, 10),
}


@pytest.fixture(autouse=True)
def _observability_off():
    """Every test starts disabled with freshly reset state."""
    obs.enable(fresh=True)  # fresh=True swaps in empty registry/tracer/ring
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module", autouse=True)
def _drain_pools():
    yield
    shutdown_shared_pools()


def _batch(app_key, batch):
    app = all_apps()[app_key]
    shape = APP_MESHES[app_key]
    program = app.program_on(shape)
    envs = [app.fields(shape, seed=5 + s) for s in range(batch)]
    return program, envs


class TestStatsParity:
    """Satellite: serial and parallel report identical accounting."""

    def test_serial_and_parallel_stats_agree(self):
        program, envs = _batch("jacobi3d", 5)
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, envs[0])
        limit = plan.nbytes * 2
        serial_stats: dict = {}
        serial = run_program_stacked(
            program, envs, 3, cache=cache, max_stack_bytes=limit,
            stats=serial_stats,
        )
        parallel_stats: dict = {}
        parallel = run_program_parallel(
            program, envs, 3, cache=cache, max_stack_bytes=limit,
            stats=parallel_stats, max_workers=2,
        )
        for key in ("chunks", "dispatches", "stacked_meshes"):
            assert serial_stats[key] == parallel_stats[key], key
        for ser, par in zip(serial, parallel):
            for name in ser:
                assert np.array_equal(ser[name].data, par[name].data)

    @pytest.mark.parametrize("enabled", [False, True])
    def test_registry_view_preserves_stats_keys(self, enabled):
        """The registry-backed stats view keeps the stable key contract
        whether or not recording is on."""
        if enabled:
            obs.enable()
        program, envs = _batch("poisson2d", 4)
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, envs[0])
        stats: dict = {}
        run_program_stacked(
            program, envs, 2, cache=cache,
            max_stack_bytes=plan.nbytes * 2, stats=stats,
        )
        assert set(stats) == {
            "chunks", "dispatches", "stacked_meshes", "chunk_seconds"
        }
        assert stats["dispatches"] == len(stats["chunks"])
        assert len(stats["chunk_seconds"]) == len(stats["chunks"])
        assert all(s >= 0 for s in stats["chunk_seconds"])
        if enabled:
            reg = obs.metrics_registry()
            assert reg.value("exec.dispatches", backend="compiled") == (
                stats["dispatches"]
            )
            assert reg.value("exec.meshes", backend="compiled") == len(envs)


class TestDisabledDefault:
    def test_disabled_records_nothing(self):
        program, envs = _batch("poisson2d", 3)
        run_program_stacked(program, envs, 2, cache=CompiledPlanCache())
        assert not obs.is_enabled()
        assert list(obs.metrics_registry().items()) == []
        assert obs.tracer().records() == []
        assert obs.ring_sink().records == []

    def test_span_helper_is_null_context_when_disabled(self):
        with obs.span("anything", k=1):
            pass
        assert obs.tracer().records() == []

    def test_enable_fresh_resets_state(self):
        obs.enable()
        obs.inc("x")
        obs.enable(fresh=True)
        assert list(obs.metrics_registry().items()) == []


class TestEventLogCoverage:
    def test_plan_compile_reports_component_runs(self, tmp_path):
        """A trace shows whether components merged: RTM's K outputs are one
        six-component run each, component 0 carrying the rho addend."""
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(path))
        program, envs = _batch("rtm", 1)
        CompiledPlanCache().plan_for(program, envs[0])
        obs.disable()
        (plan,) = [e for e in read_events(path) if e["kind"] == "plan.compile"]
        runs = plan["runs"]
        assert runs["rtm_stage1:K1"] == [[6, 0]]
        assert runs["rtm_stage4:Y"] == [[6, None]]
        assert len(runs) == 8

    def test_trace_covers_compile_dispatch_and_worker(self, tmp_path):
        """The hard constraint: an enabled parallel run's event log spans
        compile → chunk dispatch → worker execution (thread workers)."""
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=str(path))
        program, envs = _batch("jacobi3d", 4)
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, envs[0])
        run_program_parallel(
            program, envs, 3, cache=cache,
            max_stack_bytes=plan.nbytes * 2, stats={},
            max_workers=2,
        )
        obs.disable()
        events = list(read_events(path))
        kinds = {e["kind"] for e in events}
        assert {"plan.compile", "exec.dispatch", "span"} <= kinds
        spans = [e for e in events if e["kind"] == "span"]
        by_id = {s["span_id"]: s for s in spans}
        workers = [s for s in spans if s["name"] == "worker.chunk"]
        assert workers, "no worker-side spans were adopted"
        for w in workers:
            assert w["attrs"]["backend"] == "thread"
            parent = by_id[w["parent_id"]]
            assert parent["name"] == "parallel.submit"
        assert all(e["v"] == 1 for e in events)

    def test_cache_hit_and_miss_counters(self):
        obs.enable()
        program, envs = _batch("poisson2d", 2)
        cache = CompiledPlanCache()
        run_program_stacked(program, envs, 2, cache=cache)
        run_program_stacked(program, envs, 2, cache=cache)
        reg = obs.metrics_registry()
        assert reg.value("plan.cache_misses") >= 1
        assert reg.value("plan.cache_hits") >= 1
        kinds = obs.ring_sink().kinds()
        assert "plan.cache_miss" in kinds


class TestMixLatency:
    def test_group_latency_percentiles(self):
        mix = WorkloadMix.parse("jacobi3d:14x12x8:3x4,poisson2d:20x16:2x3")
        run = MixScheduler(seed=1).run(mix)
        for group in run.groups:
            assert len(group.chunk_seconds) == len(group.chunks)
            lat = group.latency_percentiles()
            assert set(lat) == {"p50", "p95", "p99"}
            assert lat["p50"] <= lat["p99"]
        table = run.latency_percentiles()
        assert len(table) == 2
        for quantiles in table.values():
            assert not math.isnan(quantiles["p50"])

    def test_interpreter_engine_times_each_mesh(self):
        mix = WorkloadMix.parse("poisson2d:20x16:2x3")
        run = MixScheduler(engine="interpreter", seed=1).run(mix)
        (group,) = run.groups
        assert group.chunks == (1, 1, 1)
        assert len(group.chunk_seconds) == 3
        assert all(s > 0 for s in group.chunk_seconds)

    def test_group_run_tolerates_partial_stats(self):
        """A stats dict without ``chunks`` must not fabricate per-mesh
        chunks (satellite: the old fallback invented ``[1]*B``)."""
        run = MixScheduler._group_run(object(), [{}, {}, {}], {"dispatches": 2})
        assert run.chunks == ()
        assert run.dispatches == 2
        assert run.chunk_seconds == ()


class TestFailureContext:
    def test_error_carries_backend_and_elapsed(self, poisoned_chunks):
        program, envs = _batch("poisson2d", 4)
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, envs[0])
        with pytest.raises(ParallelExecutionError) as info:
            run_program_parallel(
                program, envs, 2, cache=cache,
                max_stack_bytes=plan.nbytes * 2,
                max_workers=2,
            )
        assert info.value.backend == "thread"
        assert info.value.elapsed is not None and info.value.elapsed >= 0
        assert "backend thread" in str(info.value)

    def test_worker_failure_event_emitted(self, poisoned_chunks):
        obs.enable()
        program, envs = _batch("poisson2d", 4)
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, envs[0])
        with pytest.raises(ParallelExecutionError):
            run_program_parallel(
                program, envs, 2, cache=cache,
                max_stack_bytes=plan.nbytes * 2,
                max_workers=2,
            )
        obs.disable()
        failures = obs.ring_sink().of_kind("parallel.worker_failure")
        assert failures and failures[0]["backend"] == "thread"
        assert obs.metrics_registry().value(
            "parallel.worker_failures", backend="thread"
        ) >= 1


class TestCLI:
    def test_mix_trace_writes_event_log(self, tmp_path, capsys):
        from repro.cli import main

        # a mesh shape unique to this test, so the process-wide plan cache
        # cannot have it warm and plan.compile is guaranteed to fire
        path = tmp_path / "mix-trace.jsonl"
        code = main([
            "mix", "poisson2d:22x18:2x3", "--trace", str(path)
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "p50 ms" in out
        assert str(path) in out
        kinds = {e["kind"] for e in read_events(path)}
        assert {"plan.compile", "exec.dispatch", "span"} <= kinds
        assert not obs.is_enabled()  # the CLI turned it back off

    def test_metrics_command_dumps_registry_and_trace(self, capsys):
        from repro.cli import main

        code = main(["metrics", "poisson2d:20x16:2x3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro_exec_dispatches" in out
        assert "mix.run" in out
        assert not obs.is_enabled()

    def test_dse_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "dse-trace.jsonl"
        code = main([
            "dse", "--workloads", "poisson2d:20x16:2x2",
            "--strategy", "random", "--trials", "3",
            "--trace", str(path),
        ])
        assert code == 0
        kinds = {e["kind"] for e in read_events(path)}
        assert "dse.trial" in kinds


class TestDispatchLabels:
    """The registry names the engine that ran, once per dispatch."""

    def test_native_stacked_dispatch_is_labelled_native(self):
        obs.enable()
        program, envs = _batch("poisson2d", 3)
        run_program_stacked(
            program, envs, 2, cache=CompiledPlanCache(), engine="native"
        )
        reg = obs.metrics_registry()
        assert reg.value("exec.dispatches", backend="native") == 1
        assert math.isnan(reg.value("exec.dispatches", backend="compiled"))
        (dispatch,) = obs.ring_sink().of_kind("exec.dispatch")
        assert dispatch["backend"] == "native"
        (stacked,) = [
            s for s in obs.tracer().records() if s.name == "exec.stacked"
        ]
        assert stacked.attrs["engine"] == "native"

    @pytest.mark.parametrize("batch", [1, 4])
    def test_single_lane_dispatch_is_recorded_once(self, batch):
        obs.enable()
        program, envs = _batch("poisson2d", batch)
        cache = CompiledPlanCache()
        plan = cache.plan_for(program, envs[0])
        stats: dict = {}
        run_program_parallel(
            program, envs, 2, cache=cache, max_stack_bytes=plan.nbytes * 2,
            stats=stats, max_workers=1,
        )
        assert stats["backend"] == "serial" and stats["workers"] == 1
        recorded = sum(
            metric.value
            for name, _labels, metric in obs.metrics_registry().items()
            if name == "exec.dispatches"
        )
        assert recorded == len(stats["chunks"])

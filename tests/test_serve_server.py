"""Tests for the async serving layer (repro.serve.server).

Covers the ISSUE's acceptance surface: bit-identical results through the
coalescing path, deterministic overload rejection with exactly-once
resolution and leak-free drain, deadline shedding, queued/in-flight
cancellation, blocking admission, the breaker trip -> half-open -> recover
cycle under a deterministic crash plan, and a Hypothesis-driven
deadline/cancel race in which every job resolves exactly once.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.dataflow import scheduler
from repro.dataflow.scheduler import MixScheduler
from repro.parallel import pool as parallel_pool
from repro.resilience import ExecutionCancelled
from repro.serve import (
    DeadlineExceeded,
    QueueFullError,
    Server,
    ServerClosedError,
    ServerConfig,
)
from repro.stencil import compiled
from repro.util.errors import ValidationError
from repro.workload import WorkloadSpec

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture(autouse=True)
def _fresh_observability():
    obs.enable(fresh=True)
    obs.disable()
    yield


def _serve(coro):
    return asyncio.run(coro)


def _assert_pools_idle(timeout: float = 2.0) -> None:
    """No shared worker pool still holds a chunk task of a served job."""
    deadline = time.monotonic() + timeout
    pools = list(parallel_pool._SHARED.values())  # noqa: SLF001
    # a slot is released by the future's done callback, which runs just
    # after the collector wakes: allow it a moment to land
    while any(p.inflight for p in pools) and time.monotonic() < deadline:
        time.sleep(0.005)
    assert [p.inflight for p in pools] == [0] * len(pools)


def _assert_envs_equal(got, want):
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_array_equal(got[name].data, want[name].data)


class TestResults:
    def test_coalesced_results_bit_identical_to_direct_run(self):
        """Three batch-1 submits of one job key coalesce into one stacked
        dispatch whose slices match a direct merged scheduler run."""
        spec = WorkloadSpec.parse("poisson2d:16x12:12")

        async def _run():
            config = ServerConfig(
                engine="compiled", batch_window=0.02, validate=True
            )
            async with Server(config) as server:
                handles = [await server.submit(spec) for _ in range(3)]
                return [await h for h in handles]

        per_job = _serve(_run())
        merged = WorkloadSpec.of("poisson2d", (16, 12), 12, batch=3)
        golden = MixScheduler(engine="compiled", seed=0).run([merged])
        want = list(golden.groups[0].results)
        assert [len(chunk) for chunk in per_job] == [1, 1, 1]
        for index, chunk in enumerate(per_job):
            _assert_envs_equal(chunk[0], want[index])

    def test_mixed_job_keys_all_complete(self):
        async def _run():
            config = ServerConfig(engine="compiled", batch_window=0.005)
            async with Server(config) as server:
                handles = [
                    await server.submit(text)
                    for text in (
                        "poisson2d:16x12:10",
                        "jacobi3d:10x10x6:8x2",
                        "poisson2d:16x12:10",
                        "poisson2d:12x10:6",
                    )
                ]
                results = [await h for h in handles]
                health = server.health()
            return results, health

        results, health = _serve(_run())
        assert [len(r) for r in results] == [1, 2, 1, 1]
        assert health["jobs"]["completed"] == 4
        assert health["jobs"]["failed"] == 0
        assert health["outstanding_jobs"] == 0

    def test_string_and_spec_submits_are_equivalent(self):
        async def _run():
            async with Server(ServerConfig(engine="compiled")) as server:
                # await the first before submitting the second so each runs
                # as its own batch-1 dispatch with the same seeded mesh
                a = await (await server.submit("poisson2d:12x10:6"))
                b = await (
                    await server.submit(WorkloadSpec.of("poisson2d", (12, 10), 6))
                )
                return a, b

        got_a, got_b = _serve(_run())
        _assert_envs_equal(got_a[0], got_b[0])


class TestOverload:
    def test_reject_is_deterministic_and_drain_is_leak_free(self):
        """The ISSUE's overload acceptance: a bounded queue rejects the
        overflow deterministically, every job resolves exactly once, and
        close(drain=True) leaves no pool task in flight and no open span."""
        offered = 12
        depth = 2

        async def _run():
            obs.enable(fresh=True)
            config = ServerConfig(
                engine="compiled", queue_depth=depth, batch_window=0.005
            )
            server = Server(config)
            handles, rejected = [], 0
            # back-to-back submits with no awaited suspension in between:
            # exactly `depth` fit, the rest must reject
            for _ in range(offered):
                try:
                    handles.append(await server.submit("poisson2d:16x12:10"))
                except QueueFullError:
                    rejected += 1
            results = [await h for h in handles]
            await server.close(drain=True)
            return server, rejected, results

        server, rejected, results = _serve(_run())
        try:
            assert rejected == offered - depth
            assert len(results) == depth
            health = server.health()
            assert health["state"] == "closed"
            assert health["jobs"]["admitted"] == depth
            assert health["jobs"]["rejected"] == rejected
            assert health["jobs"]["completed"] == depth
            assert health["outstanding_jobs"] == 0
            assert health["inflight_groups"] == 0
            _assert_pools_idle()
            assert obs.tracer().current_span_id() is None
            kinds = obs.ring_sink().kinds()
            assert kinds.count("serve.job_rejected") == rejected
            assert "serve.drain_begin" in kinds
            assert "serve.closed" in kinds
        finally:
            obs.disable()

    def test_per_tenant_bounds_are_independent(self):
        async def _run():
            config = ServerConfig(
                engine="compiled", queue_depth=1, batch_window=0.05
            )
            async with Server(config) as server:
                first = await server.submit("poisson2d:12x10:6", tenant="a")
                with pytest.raises(QueueFullError):
                    await server.submit("poisson2d:12x10:6", tenant="a")
                other = await server.submit("poisson2d:12x10:6", tenant="b")
                await first
                await other
                return server.health()

        health = _serve(_run())
        assert health["jobs"]["rejected"] == 1
        assert health["jobs"]["completed"] == 2


class TestDeadlines:
    def test_queued_job_past_deadline_is_shed_without_executing(self):
        async def _run():
            # a batch window far longer than the deadline keeps the job
            # queued until the monitor sheds it
            config = ServerConfig(
                engine="compiled", batch_window=0.5, monitor_interval=0.005
            )
            async with Server(config) as server:
                handle = await server.submit(
                    "poisson2d:16x12:10", deadline=0.03
                )
                with pytest.raises(DeadlineExceeded):
                    await handle
                return server.health()

        health = _serve(_run())
        assert health["jobs"]["shed"] == 1
        assert health["jobs"]["completed"] == 0

    def test_deadline_must_be_positive(self):
        async def _run():
            async with Server(ServerConfig(engine="compiled")) as server:
                with pytest.raises(ValidationError):
                    await server.submit("poisson2d:12x10:6", deadline=0.0)

        _serve(_run())


class TestCancellation:
    def test_cancel_queued_job(self):
        async def _run():
            config = ServerConfig(engine="compiled", batch_window=0.5)
            async with Server(config) as server:
                handle = await server.submit("poisson2d:16x12:10")
                assert handle.cancel("changed my mind")
                assert not handle.cancel()  # already resolved
                with pytest.raises(asyncio.CancelledError):
                    await handle
                return server.health()

        health = _serve(_run())
        assert health["jobs"]["cancelled"] == 1
        assert health["jobs"]["completed"] == 0

    def test_cancel_inflight_job_cancels_its_batch(self, monkeypatch):
        # tiny stacking budget -> many chunk boundaries -> the worker
        # thread sees the batch token quickly
        monkeypatch.setattr(compiled, "STACKED_BYTES_LIMIT", 8_192)
        # the dispatch waits at its start until the job is cancelled, so
        # the job is in flight when cancelled however fast the engine runs
        started = threading.Event()
        release = threading.Event()
        real = scheduler.run_program_stacked

        def gated(*args, **kwargs):
            started.set()
            release.wait(timeout=10.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(scheduler, "run_program_stacked", gated)

        async def _run():
            config = ServerConfig(
                engine="compiled",
                batch_window=0.001,
                monitor_interval=0.005,
            )
            async with Server(config) as server:
                handle = await server.submit("jacobi3d:12x12x8:200x2")
                deadline = time.monotonic() + 10.0
                while not started.is_set():
                    assert time.monotonic() < deadline, "never dispatched"
                    await asyncio.sleep(0.001)
                group = next(iter(server._inflight))
                assert handle.cancel("mid-flight")
                release.set()
                with pytest.raises(asyncio.CancelledError):
                    await handle
                # the reaped group token is what stops the worker thread
                assert group.token.is_set()
                health = server.health()
            return health

        health = _serve(_run())
        assert health["jobs"]["cancelled"] == 1
        _assert_pools_idle()


class TestAdmissionBlock:
    def test_block_admission_waits_for_space(self):
        async def _run():
            config = ServerConfig(
                engine="compiled",
                queue_depth=1,
                admission="block",
                batch_window=0.002,
                monitor_interval=0.005,
            )
            async with Server(config) as server:
                first = await server.submit("poisson2d:16x12:10")
                # the queue is full; this submit must wait until the loop
                # drains the first job, then be admitted, not rejected
                second = await asyncio.wait_for(
                    server.submit("poisson2d:16x12:10"), timeout=5.0
                )
                await first
                await second
                return server.health()

        health = _serve(_run())
        assert health["jobs"]["admitted"] == 2
        assert health["jobs"]["rejected"] == 0
        assert health["jobs"]["completed"] == 2

    def test_blocked_submit_wakes_on_close(self):
        """A submitter parked for queue space is event-woken by close —
        no poll cadence — and raises ServerClosedError."""

        async def _run():
            config = ServerConfig(
                engine="compiled",
                queue_depth=1,
                admission="block",
                batch_window=5.0,  # the queued job never dispatches
            )
            server = Server(config)
            first = await server.submit("poisson2d:12x10:6")
            blocked = asyncio.ensure_future(server.submit("poisson2d:12x10:6"))
            await asyncio.sleep(0.05)
            assert not blocked.done()
            await asyncio.wait_for(server.close(drain=False), timeout=2.0)
            with pytest.raises(ServerClosedError):
                await blocked
            with pytest.raises(asyncio.CancelledError):
                await first

        _serve(_run())

    def test_blocked_submit_is_bounded_by_its_deadline(self):
        """A blocked submitter whose deadline passes while it waits for
        space resolves DeadlineExceeded at the deadline, not at the next
        space signal."""

        async def _run():
            config = ServerConfig(
                engine="compiled",
                queue_depth=1,
                admission="block",
                batch_window=5.0,
            )
            server = Server(config)
            try:
                await server.submit("poisson2d:12x10:6")
                with pytest.raises(DeadlineExceeded):
                    await asyncio.wait_for(
                        server.submit("poisson2d:12x10:6", deadline=0.05),
                        timeout=2.0,
                    )
                return server.health()
            finally:
                await server.close(drain=False)

        health = _serve(_run())
        assert health["jobs"]["shed"] == 1


class TestDispatchRaces:
    def test_cancel_in_dequeue_gap_keeps_sibling_slices_aligned(self):
        """A cancel landing between the dequeue tick and the group body
        must not shift sibling jobs' result slices: offsets are accounted
        over the specs actually dispatched, not the original group."""
        spec = "poisson2d:16x12:12"

        async def _run():
            config = ServerConfig(
                engine="compiled", batch_window=0.2, validate=True
            )
            async with Server(config) as server:
                handles = [await server.submit(spec) for _ in range(3)]
                # reproduce the gap: pull the tick ourselves while the
                # batching loop sleeps its window, cancel a picked job,
                # then run the group body exactly as the loop would
                jobs = server._dequeue_tick()
                assert len(jobs) == 3
                assert handles[0].cancel("raced the dispatch")
                await server._run_group(jobs)
                with pytest.raises(asyncio.CancelledError):
                    await handles[0]
                return [await h for h in handles[1:]]

        per_job = _serve(_run())
        merged = WorkloadSpec.of("poisson2d", (16, 12), 12, batch=2)
        golden = MixScheduler(engine="compiled", seed=0).run([merged])
        want = list(golden.groups[0].results)
        assert [len(chunk) for chunk in per_job] == [1, 1]
        for index, chunk in enumerate(per_job):
            _assert_envs_equal(chunk[0], want[index])

    def test_cancelled_probe_dispatch_releases_the_probe_slot(self):
        """A probe whose dispatch dies ExecutionCancelled must release the
        half-open slot; otherwise the breaker wedges and the parallel
        backend can never recover."""

        class _CancelledScheduler:
            def run(self, specs, validate, cancel):
                raise ExecutionCancelled("every member job died mid-probe")

        async def _run():
            config = ServerConfig(
                engine="parallel",
                batch_window=0.005,
                failure_threshold=1,
                reset_timeout=0.01,
            )
            server = Server(config)
            try:
                server._schedulers["parallel"] = _CancelledScheduler()
                server.breaker.record_failure()  # threshold 1: trips open
                await asyncio.sleep(0.02)  # past reset_timeout
                assert server.breaker.state == "half_open"
                handle = await server.submit("poisson2d:12x10:6")
                with pytest.raises(asyncio.CancelledError):
                    await handle
                assert server.breaker.state == "half_open"
                assert server.breaker.begin_probe()  # slot free, not leaked
                server.breaker.abort_probe()
            finally:
                await server.close(drain=False)

        _serve(_run())

    def test_internal_error_fails_the_tick_and_the_loop_survives(self):
        """An exception escaping a group dispatch resolves that tick's
        jobs with the error instead of wedging the batching loop; the
        next submit is served normally."""

        async def _run():
            config = ServerConfig(engine="compiled", batch_window=0.005)
            async with Server(config) as server:
                real = server._run_group

                async def _broken_group(jobs):
                    raise RuntimeError("injected dispatch bug")

                server._run_group = _broken_group
                handle = await server.submit("poisson2d:12x10:6")
                with pytest.raises(RuntimeError, match="injected dispatch bug"):
                    await asyncio.wait_for(handle.result(), timeout=5.0)
                server._run_group = real
                result = await asyncio.wait_for(
                    (await server.submit("poisson2d:12x10:6")).result(),
                    timeout=5.0,
                )
                assert len(result) == 1
                return server.health()

        health = _serve(_run())
        assert health["jobs"]["failed"] == 1
        assert health["jobs"]["completed"] == 1
        assert health["outstanding_jobs"] == 0


class TestDispatchPolicy:
    """The default loop dispatches on wake; batches form from load."""

    def test_jobs_queued_during_a_dispatch_coalesce_on_the_next_tick(
        self, monkeypatch
    ):
        """With no window, a job that finds the server idle runs alone,
        and every compatible job submitted while it runs rides one merged
        stacked dispatch on the next tick."""
        started = threading.Event()
        release = threading.Event()
        real = scheduler.run_program_stacked
        stacked = []

        def gated(program, envs, *args, **kwargs):
            stacked.append(len(envs))
            started.set()
            release.wait(timeout=10.0)
            return real(program, envs, *args, **kwargs)

        monkeypatch.setattr(scheduler, "run_program_stacked", gated)
        followers = 4

        async def _run():
            obs.enable(fresh=True)
            async with Server(ServerConfig(validate=True)) as server:
                first = await server.submit("poisson2d:16x12:8")
                deadline = time.monotonic() + 10.0
                while not started.is_set():
                    assert time.monotonic() < deadline, "never dispatched"
                    await asyncio.sleep(0.001)
                handles = [
                    await server.submit("poisson2d:16x12:8")
                    for _ in range(followers)
                ]
                release.set()
                results = [await first] + [await h for h in handles]
                dispatched = [
                    e["jobs"]
                    for e in obs.ring_sink().of_kind("serve.group_dispatch")
                ]
                return results, dispatched, server.health()

        try:
            results, dispatched, health = _serve(_run())
        finally:
            release.set()
            obs.disable()
        assert dispatched == [1, followers]
        assert stacked == [1, followers]
        assert [len(r) for r in results] == [1] * (followers + 1)
        assert health["jobs"]["completed"] == followers + 1

    @pytest.mark.parametrize("window", [None, 0.004], ids=["default", "windowed"])
    def test_a_lone_job_waits_only_for_a_configured_window(
        self, monkeypatch, window
    ):
        """On the default config the loop awaits no sleep between waking
        and dispatching a lone job; a configured window is the only sleep
        the loop takes."""
        config = ServerConfig() if window is None else ServerConfig(batch_window=window)
        real_sleep = asyncio.sleep
        loop_sleeps = []

        async def _run():
            obs.enable(fresh=True)
            server = Server(config)

            async def recording_sleep(delay, *args, **kwargs):
                if asyncio.current_task() is server._loop_task:
                    loop_sleeps.append(delay)
                return await real_sleep(delay, *args, **kwargs)

            monkeypatch.setattr(asyncio, "sleep", recording_sleep)
            async with server:
                result = await (await server.submit("poisson2d:12x10:6"))
            dispatched = [
                e["jobs"] for e in obs.ring_sink().of_kind("serve.group_dispatch")
            ]
            return result, dispatched

        try:
            result, dispatched = _serve(_run())
        finally:
            obs.disable()
        assert len(result) == 1
        assert dispatched == [1]
        if window is None:
            assert loop_sleeps == []
        else:
            assert loop_sleeps and set(loop_sleeps) == {window}

    def test_one_mesh_budget_serves_one_job_a_tick(self):
        async def _run():
            obs.enable(fresh=True)
            async with Server(ServerConfig(max_batch_meshes=1)) as server:
                handles = [
                    await server.submit("poisson2d:12x10:6") for _ in range(3)
                ]
                results = [await h for h in handles]
            dispatched = [
                e["jobs"] for e in obs.ring_sink().of_kind("serve.group_dispatch")
            ]
            return results, dispatched

        try:
            results, dispatched = _serve(_run())
        finally:
            obs.disable()
        assert [len(r) for r in results] == [1, 1, 1]
        assert dispatched == [1, 1, 1]


class TestConfigValidation:
    """Loop fields that would spin or stall the batching loop are refused."""

    def test_defaults_serve_on_compiled_without_a_window(self):
        config = ServerConfig()
        assert config.engine == "compiled"
        assert config.batch_window == 0

    @pytest.mark.parametrize("value", [0, -1])
    def test_max_batch_meshes_below_one_is_rejected(self, value):
        with pytest.raises(ValidationError, match="max_batch_meshes"):
            ServerConfig(max_batch_meshes=value)

    @pytest.mark.parametrize("value", [-0.001, float("nan")])
    def test_negative_batch_window_is_rejected(self, value):
        with pytest.raises(ValidationError, match="batch_window"):
            ServerConfig(batch_window=value)

    @pytest.mark.parametrize("value", [0.0, -0.02, float("nan")])
    def test_non_positive_monitor_interval_is_rejected(self, value):
        with pytest.raises(ValidationError, match="monitor_interval"):
            ServerConfig(monitor_interval=value)


class TestLifecycle:
    def test_closed_server_rejects_submits(self):
        async def _run():
            server = Server(ServerConfig(engine="compiled"))
            handle = await server.submit("poisson2d:12x10:6")
            await handle
            await server.close()
            with pytest.raises(ServerClosedError):
                await server.submit("poisson2d:12x10:6")
            await server.close()  # idempotent

        _serve(_run())

    def test_close_without_drain_cancels_queued_jobs(self):
        async def _run():
            config = ServerConfig(engine="compiled", batch_window=0.5)
            server = Server(config)
            handles = [
                await server.submit("poisson2d:16x12:10") for _ in range(3)
            ]
            await server.close(drain=False)
            outcomes = []
            for handle in handles:
                try:
                    await handle
                    outcomes.append("ok")
                except asyncio.CancelledError:
                    outcomes.append("cancelled")
            return outcomes, server.health()

        outcomes, health = _serve(_run())
        assert outcomes == ["cancelled"] * 3
        assert health["state"] == "closed"
        assert health["outstanding_jobs"] == 0
        _assert_pools_idle()

    def test_server_is_bound_to_one_loop(self):
        server = Server(ServerConfig(engine="compiled"))

        async def _first():
            handle = await server.submit("poisson2d:12x10:6")
            await handle

        asyncio.run(_first())

        async def _second():
            with pytest.raises(ValidationError):
                await server.submit("poisson2d:12x10:6")

        asyncio.run(_second())


class TestCircuitBreaker:
    def test_trip_half_open_recover_cycle_under_crash_plan(self, flaky_chunks):
        """Two chunk crashes trip the breaker twice (the second on the
        half-open probe); degraded dispatches still serve bit-identical
        results (validate=True reruns every mesh on the golden
        interpreter); the third parallel dispatch probes clean and closes
        the breaker."""
        crashed = flaky_chunks(2)

        async def _run():
            obs.enable(fresh=True)
            config = ServerConfig(
                engine="parallel",
                max_workers=2,
                failure_threshold=1,
                reset_timeout=0.2,
                batch_window=0.002,
                validate=True,
            )
            async with Server(config) as server:
                states = []
                results = []
                # dispatch 1: chunk 0 crashes -> trip -> serial rerun
                results.append(await (await server.submit("poisson2d:16x12:10x2")))
                states.append(server.breaker.state)
                # breaker open: this dispatch degrades to serial up front
                results.append(await (await server.submit("poisson2d:16x12:10x2")))
                await asyncio.sleep(config.reset_timeout + 0.05)
                # dispatch on the half-open probe: second crash re-trips
                results.append(await (await server.submit("poisson2d:16x12:10x2")))
                states.append(server.breaker.state)
                await asyncio.sleep(config.reset_timeout + 0.05)
                # probe again: the crashes are spent, the probe succeeds
                results.append(await (await server.submit("poisson2d:16x12:10x2")))
                states.append(server.breaker.state)
                health = server.health()
            return server, states, results, health

        server, states, results, health = _serve(_run())
        try:
            assert states == ["open", "open", "closed"]
            assert server.breaker.trips == 2
            assert len(crashed) == 2
            assert all(len(r) == 2 for r in results)
            # every job served, none failed, and the open-breaker window
            # plus the post-failure reruns went through the serial engine
            assert health["jobs"]["completed"] == 4
            assert health["jobs"]["failed"] == 0
            assert health["jobs"]["degraded"] >= 3
            _assert_pools_idle()
            breaker_kinds = [
                k for k in obs.ring_sink().kinds()
                if k.startswith("serve.breaker")
            ]
            assert breaker_kinds == [
                "serve.breaker_open",
                "serve.breaker_half_open",
                "serve.breaker_open",
                "serve.breaker_half_open",
                "serve.breaker_closed",
            ]
            assert obs.ring_sink().of_kind("serve.group_parallel_failure")
        finally:
            obs.disable()

    def test_breaker_results_match_healthy_run(self, flaky_chunks):
        """Results served through trip/degrade/recover are bit-identical
        to the same submission order on a healthy serial server."""
        flaky_chunks(1)

        async def _drive(config):
            async with Server(config) as server:
                handles = [
                    await server.submit("poisson2d:14x12:8x2")
                    for _ in range(2)
                ]
                return [await h for h in handles]

        faulted = _serve(
            _drive(
                ServerConfig(
                    engine="parallel",
                    max_workers=2,
                    failure_threshold=1,
                    batch_window=0.02,
                )
            )
        )
        healthy = _serve(
            _drive(ServerConfig(engine="compiled", batch_window=0.02))
        )
        for got_chunk, want_chunk in zip(faulted, healthy):
            for got, want in zip(got_chunk, want_chunk):
                _assert_envs_equal(got, want)

    @pytest.mark.parametrize("threshold", [2, 3])
    def test_failures_below_threshold_keep_the_breaker_closed(
        self, flaky_chunks, threshold
    ):
        """Each failing dispatch is rerun serially and counted once; one
        short of the threshold, the breaker stays closed."""
        crashed = flaky_chunks(threshold - 1)
        states, health, trips = self._dispatch_one_by_one(threshold, threshold)
        assert len(crashed) == threshold - 1
        assert states == ["closed"] * threshold
        assert trips == 0
        assert health["jobs"]["completed"] == threshold
        assert health["jobs"]["failed"] == 0
        assert health["jobs"]["degraded"] == threshold - 1
        _assert_pools_idle()

    @pytest.mark.parametrize("threshold", [1, 2])
    def test_failures_at_threshold_trip_once(self, flaky_chunks, threshold):
        crashed = flaky_chunks(threshold)
        states, health, trips = self._dispatch_one_by_one(threshold, threshold)
        assert len(crashed) == threshold
        assert states == ["closed"] * (threshold - 1) + ["open"]
        assert trips == 1
        assert health["jobs"]["completed"] == threshold
        assert health["jobs"]["failed"] == 0
        _assert_pools_idle()

    @staticmethod
    def _dispatch_one_by_one(threshold, jobs):
        """Serve ``jobs`` one-mesh jobs one dispatch at a time; the
        breaker state after each, the final health and the trip count."""

        async def _run():
            config = ServerConfig(
                engine="parallel",
                max_workers=2,
                failure_threshold=threshold,
                reset_timeout=60.0,
                batch_window=0.002,
            )
            async with Server(config) as server:
                states = []
                for _ in range(jobs):
                    (_,) = await (await server.submit("poisson2d:16x12:4"))
                    states.append(server.breaker.state)
                return states, server.health(), server.breaker.trips

        return _serve(_run())


class TestExactlyOnce:
    @settings(max_examples=10, deadline=None)
    @given(
        plans=st.lists(
            st.tuples(
                st.sampled_from(["run", "cancel", "deadline"]),
                st.floats(min_value=0.001, max_value=0.05),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_deadline_cancel_race_resolves_every_job_exactly_once(self, plans):
        """Satellite 3: under racing deadlines and client cancels every
        job resolves exactly once — results, DeadlineExceeded, or
        CancelledError — and completed results stay bit-identical to the
        interpreter (validate=True)."""

        async def _run():
            config = ServerConfig(
                engine="compiled",
                batch_window=0.01,
                monitor_interval=0.003,
                validate=True,
            )
            async with Server(config) as server:
                handles = []
                for action, delay in plans:
                    handle = await server.submit(
                        "poisson2d:12x10:8",
                        deadline=delay if action == "deadline" else None,
                    )
                    handles.append((handle, action, delay))

                async def _cancel_later(handle, delay):
                    await asyncio.sleep(delay)
                    handle.cancel("race")

                cancels = [
                    asyncio.ensure_future(_cancel_later(h, d))
                    for h, a, d in handles
                    if a == "cancel"
                ]
                outcomes = []
                for handle, _action, _delay in handles:
                    try:
                        result = await handle
                        assert len(result) == 1
                        outcomes.append("ok")
                    except DeadlineExceeded:
                        outcomes.append("shed")
                    except asyncio.CancelledError:
                        outcomes.append("cancelled")
                await asyncio.gather(*cancels, return_exceptions=True)
                health = server.health()
            return outcomes, health

        outcomes, health = _serve(_run())
        assert len(outcomes) == len(plans)  # exactly one outcome per job
        assert health["outstanding_jobs"] == 0
        jobs = health["jobs"]
        assert (
            jobs["completed"] + jobs["shed"] + jobs["cancelled"]
            == len(plans)
        )
        assert jobs["completed"] == outcomes.count("ok")
        assert jobs["shed"] == outcomes.count("shed")
        assert jobs["cancelled"] == outcomes.count("cancelled")
        _assert_pools_idle()

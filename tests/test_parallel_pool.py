"""Worker pools: the parallel engine's plumbing."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.parallel.pool import (
    WorkerPool,
    default_workers,
    shared_pool,
    shutdown_shared_pools,
)
from repro.util.errors import ValidationError


def _square(x):
    return x * x


def _fail():
    raise RuntimeError("task failed")


def _sleep_return(x):
    time.sleep(0.4)
    return x


def _wait_on(event):
    event.wait(5.0)
    return True


def _pool_threads(pool: WorkerPool) -> list[threading.Thread]:
    """The live worker threads of ``pool``'s current executor."""
    executor = pool._executor  # noqa: SLF001 - white-box lifecycle check
    return list(executor._threads) if executor is not None else []  # noqa: SLF001


class TestWorkerPool:
    def test_max_workers_validation(self):
        with pytest.raises(ValidationError):
            WorkerPool(max_workers=0)
        assert WorkerPool(max_workers=3).max_workers == 3
        assert WorkerPool().max_workers == default_workers()
        assert default_workers() >= 1

    def test_lazy_start_submit_and_shutdown(self):
        with WorkerPool(max_workers=2) as pool:
            assert not pool.started
            assert pool.submit(_square, 7).result() == 49
            assert pool.started
        assert not pool.started  # context exit shut it down
        # pools restart lazily after shutdown
        assert pool.submit(_square, 3).result() == 9
        pool.shutdown()

    def test_shared_pools_are_singletons_per_key(self):
        try:
            a = shared_pool(2)
            b = shared_pool(2)
            c = shared_pool(3)
            assert a is b
            assert a is not c
            assert c.max_workers == 3
        finally:
            shutdown_shared_pools()
        # a fresh singleton appears after a global shutdown
        try:
            assert shared_pool(2) is not a
        finally:
            shutdown_shared_pools()


    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(max_workers=2)
        pool.shutdown()  # never started: nothing to stop
        assert pool.submit(_square, 2).result() == 4
        pool.shutdown()
        pool.shutdown()
        assert not pool.started

    def test_tasks_share_the_callers_memory(self):
        """Workers take arrays by reference: an in-place write is visible."""
        data = np.zeros(8)

        def fill(arr):
            arr[:] = 3.0
            return threading.current_thread().name

        with WorkerPool(max_workers=1) as pool:
            name = pool.submit(fill, data).result()
        assert name.startswith("repro-parallel")
        assert name != threading.current_thread().name
        assert np.all(data == 3.0)

    def test_shutdown_racing_submits_never_hits_a_dead_executor(self):
        pool = WorkerPool(max_workers=2)
        futures: list = []
        errors: list = []
        lock = threading.Lock()

        def submitter():
            for n in range(40):
                try:
                    fut = pool.submit(_square, n)
                except BaseException as exc:  # noqa: BLE001 - recorded
                    errors.append(exc)
                    return
                with lock:
                    futures.append((n, fut))

        threads = [threading.Thread(target=submitter) for _ in range(3)]
        for t in threads:
            t.start()
        for _ in range(10):
            pool.shutdown(wait=False)
            time.sleep(0.001)
        for t in threads:
            t.join(timeout=5)
        pool.shutdown()
        assert errors == []
        assert len(futures) == 3 * 40
        for n, fut in futures:
            assert fut.cancelled() or fut.result(timeout=5) == n * n


class TestPoolFutureResilience:
    def test_exception_and_done_mirror_future_api(self):
        with WorkerPool(max_workers=1) as pool:
            future = pool.submit(_square, 3)
            assert future.result() == 9
            assert future.done()
            assert future.exception() is None

    def test_cancelled_future_never_runs(self):
        gate = threading.Event()
        ran: list = []
        with WorkerPool(max_workers=1) as pool:
            blocker = pool.submit(_wait_on, gate)
            queued = pool.submit(ran.append, "ran")
            assert queued.cancel()
            gate.set()
            assert blocker.result() is True
        assert queued.cancelled()
        assert ran == []

    def test_failed_task_does_not_poison_the_pool(self):
        with WorkerPool(max_workers=1) as pool:
            failed = pool.submit(_fail)
            with pytest.raises(RuntimeError, match="task failed"):
                failed.result()
            assert isinstance(failed.exception(), RuntimeError)
            # the same lane keeps serving later tasks
            assert pool.submit(_square, 6).result() == 36


class TestThreadLifecycle:
    """Queued work is cancelled and no worker thread outlives shutdown."""

    def test_close_leaves_no_worker_thread(self):
        pool = WorkerPool(max_workers=2)
        futures = [pool.submit(_square, n) for n in range(6)]
        assert [f.result() for f in futures] == [n * n for n in range(6)]
        threads = _pool_threads(pool)
        assert threads and all(t.is_alive() for t in threads)
        pool.shutdown()
        assert not any(t.is_alive() for t in threads)
        assert not pool.started

    def test_shutdown_cancels_queued_tasks(self):
        gate = threading.Event()
        pool = WorkerPool(max_workers=1)
        blocker = pool.submit(_wait_on, gate)
        queued = [pool.submit(_square, n) for n in range(4)]
        threads = _pool_threads(pool)
        pool.shutdown(wait=False)
        # every not-yet-started task is cancelled at shutdown, not run
        assert all(f.cancelled() for f in queued)
        gate.set()
        assert blocker.result(timeout=5) is True
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)


class TestInflightAccounting:
    """The pool's live task count: submits up, every resolution down."""

    def _settle(self, pool, want, timeout=2.0):
        deadline = time.monotonic() + timeout
        while pool.inflight != want and time.monotonic() < deadline:
            time.sleep(0.005)  # done callbacks fire asynchronously
        assert pool.inflight == want

    def test_completion_releases_slots(self):
        gate = threading.Event()
        with WorkerPool(max_workers=2) as pool:
            assert pool.inflight == 0
            futures = [pool.submit(_wait_on, gate) for _ in range(3)]
            assert pool.inflight == 3
            gate.set()
            assert all(f.result() for f in futures)
            self._settle(pool, 0)

    def test_cancelled_queued_task_releases_its_slot(self):
        gate = threading.Event()
        with WorkerPool(max_workers=1) as pool:
            blocker = pool.submit(_wait_on, gate)
            queued = pool.submit(_square, 5)
            assert pool.inflight == 2
            assert queued.cancel()
            # the cancelled task never ran, yet its slot is free now
            self._settle(pool, 1)
            gate.set()
            assert blocker.result() is True
            self._settle(pool, 0)

    def test_failed_task_releases_its_slot(self):
        with WorkerPool(max_workers=1) as pool:
            with pytest.raises(RuntimeError, match="task failed"):
                pool.submit(_fail).result()
            self._settle(pool, 0)


class TestAtexitDrain:
    """The interpreter-exit hook drains the shared singleton pools."""

    def test_drain_hook_shuts_down_every_shared_pool(self):
        from repro.parallel.pool import _drain_shared_pools_at_exit

        try:
            a = shared_pool(2)
            assert a.submit(_square, 4).result() == 16
            assert a.started
            _drain_shared_pools_at_exit()
            assert not a.started
            # the singleton table was cleared: next lookup is a fresh pool
            assert shared_pool(2) is not a
        finally:
            shutdown_shared_pools()

    def test_drain_hook_waits_for_running_work(self):
        from repro.parallel.pool import _drain_shared_pools_at_exit

        try:
            pool = shared_pool(1)
            future = pool.submit(_sleep_return, 11)
            _drain_shared_pools_at_exit()  # must wait the task out
            assert future.result(timeout=0) == 11
        finally:
            shutdown_shared_pools()

"""Persistent thread pools for chunk fan-out.

A :class:`WorkerPool` wraps a ``ThreadPoolExecutor``. Every worker shares
the parent's address space, so chunk inputs travel by reference and no
array is copied to reach a worker; the overlap comes from NumPy releasing
the GIL inside its large array operations.

Pools are deliberately *persistent*: workers are started lazily on first
submit and then reused across dispatches, so the per-chunk cost is one
queue put, not one thread spawn — the per-worker compiled-plan cache
(:mod:`repro.parallel.worker`) only pays off because the worker outlives
the chunk. :func:`shared_pool` hands out process-wide singletons keyed by
``max_workers``; they are drained at interpreter exit.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro import observability as obs
from repro.util.errors import ValidationError


def default_workers() -> int:
    """The default pool width: every core the host exposes."""
    return os.cpu_count() or 1


class WorkerPool:
    """A persistent, lazily-started pool of worker threads."""

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValidationError(
                f"max_workers must be positive, got {max_workers}"
            )
        self.max_workers = max_workers if max_workers else default_workers()
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        """Tasks submitted but not yet resolved (running or queued).

        Every submit increments the count and every future resolution —
        result, exception, or *cancellation* — decrements it through the
        future's done callback, so a cancelled not-yet-started task
        releases its slot immediately.
        """
        with self._lock:
            return self._inflight

    @property
    def started(self) -> bool:
        """True once workers exist (first submit starts them)."""
        return self._executor is not None

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)`` on a worker thread.

        The submit happens under the pool lock, so a concurrent
        :meth:`shutdown` either sees the task (and drains it) or hands this
        submit a fresh executor — never a shut-down one.
        """
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-parallel",
                )
            future = self._executor.submit(fn, *args, **kwargs)
            self._inflight += 1

        def _release_slot(_fut: Future) -> None:
            with self._lock:
                self._inflight -= 1
                count = self._inflight
            if obs.is_enabled():
                obs.set_gauge("pool.inflight", count)

        future.add_done_callback(_release_slot)
        if obs.is_enabled():
            obs.inc("pool.submits")
            submitted = time.perf_counter()

            def _observe_latency(_fut: Future) -> None:
                obs.observe("pool.task_seconds", time.perf_counter() - submitted)

            future.add_done_callback(_observe_latency)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; the pool restarts lazily on the next submit.

        Queued tasks are cancelled; with ``wait=True`` running ones are
        waited out, so no worker thread outlives the call.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


#: process-wide pools shared by every default parallel dispatch path
_SHARED: dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(max_workers: int | None = None) -> WorkerPool:
    """The process-wide persistent pool of width ``max_workers``.

    Sharing keeps workers (and their per-worker plan caches) warm across
    dispatches, mixes and benchmark repeats; distinct widths get distinct
    pools so an explicit ``max_workers=`` can never be diluted by an
    earlier caller's choice.
    """
    key = max_workers if max_workers else default_workers()
    with _SHARED_LOCK:
        pool = _SHARED.get(key)
        if pool is None:
            pool = _SHARED[key] = WorkerPool(key)
        return pool


def shutdown_shared_pools(wait: bool = True) -> None:
    """Tear down every shared pool (used at exit and by tests)."""
    with _SHARED_LOCK:
        pools = list(_SHARED.values())
        _SHARED.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


def _drain_shared_pools_at_exit() -> None:
    """Interpreter-exit hook: **drain** the shared singleton pools.

    Queued tasks are cancelled but running ones are waited out, so no
    tape replay is torn down half-written. Tape replays are bounded, so
    the wait is too.
    """
    shutdown_shared_pools(wait=True)


atexit.register(_drain_shared_pools_at_exit)

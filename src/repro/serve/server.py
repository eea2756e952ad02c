"""The async serving layer: accelerator-as-a-service over the mix scheduler.

A :class:`Server` turns the batch-oriented execution stack —
:class:`~repro.dataflow.scheduler.MixScheduler` over the chunked stacked
compiled engine — into an always-on service: clients
:meth:`~Server.submit` individual :class:`~repro.workload.WorkloadSpec`
jobs and await their results, while a batching loop coalesces compatible
queued jobs (same :attr:`~repro.workload.WorkloadSpec.job_key`: app,
mesh, dtype, niter) into merged stacked dispatches — the serving-time
realization of the paper's batched streaming mode, where many small
client jobs ride one plan instead of paying one dispatch each. The loop
dispatches as soon as it wakes; batches form from load, because every
job that queues while a tick's dispatches run joins the next tick.

The robustness envelope, end to end:

* **Admission control** — bounded per-tenant queues; a full queue either
  rejects (:class:`~repro.serve.errors.QueueFullError`, the default) or
  blocks the submitter until space frees, per
  :attr:`ServerConfig.admission`.
* **Fair scheduling** — weighted stride dequeue across tenants, priority
  within a tenant (:mod:`repro.serve.queue`).
* **Deadlines** — per-job; still-queued work past its deadline is shed
  without executing, in-flight work resolves
  :class:`~repro.serve.errors.DeadlineExceeded` while its batch is
  cancelled cooperatively through the
  :class:`~repro.resilience.CancelToken` threaded down the engine stack.
* **Circuit breaking** — the one recovery path of the execution stack,
  active on ``engine="parallel"``. A parallel dispatch that fails (the
  engine raises :class:`~repro.parallel.ParallelExecutionError` on the
  first failing chunk, without retrying) is rerun on the serial compiled
  engine, and consecutive failures trip a
  :class:`~repro.serve.breaker.CircuitBreaker`; while open, dispatches
  degrade to the serial compiled engine up front (results stay
  bit-identical), and timed half-open probes restore the parallel
  backend when it heals.
* **Graceful drain** — :meth:`Server.close` stops admissions and either
  drains (every queued/in-flight job resolves or deadline-fails) or sheds
  everything; either way no job is left unresolved.

Every job resolves **exactly once**: with its per-mesh results, with a
serve error (queue full, deadline, server closed), or with
``asyncio.CancelledError`` after :meth:`JobHandle.cancel`. The server
keeps its own always-on :class:`~repro.observability.MetricsRegistry`
behind :meth:`Server.health` and mirrors every decision into the global
:mod:`repro.observability` facade when that is enabled.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from repro import observability as obs
from repro.observability.metrics import MetricsRegistry
from repro.parallel.executor import ParallelExecutionError
from repro.resilience import CancelToken, ExecutionCancelled
from repro.serve.breaker import CircuitBreaker
from repro.serve.errors import DeadlineExceeded, QueueFullError, ServerClosedError
from repro.serve.queue import FairQueue
from repro.stencil.compiled import check_engine
from repro.util.errors import ValidationError
from repro.workload import WorkloadSpec

#: admission policies for a full tenant queue
ADMISSIONS = ("reject", "block")


@dataclass(frozen=True)
class ServerConfig:
    """Tuning of one :class:`Server` instance."""

    #: engine every dispatch runs on
    #: ("compiled" | "native" | "interpreter" | "parallel"); only
    #: "parallel" has a breaker, whose open state degrades to "compiled"
    engine: str = "compiled"
    #: worker-pool width for the parallel engine (None: one per core)
    max_workers: int | None = None
    #: bounded queue capacity, per tenant
    queue_depth: int = 64
    #: what a full queue does to a submit: "reject" or "block"
    admission: str = "reject"
    #: relative service weights per tenant (absent tenants weigh 1.0)
    tenant_weights: Mapping[str, float] | None = None
    #: seconds the batching loop waits after waking before it dequeues;
    #: 0 dispatches on wake, and jobs that queue while a dispatch runs
    #: still coalesce on the next tick. A window only delays a job that
    #: finds the server idle: raise it to trade latency for larger batches
    batch_window: float = 0.0
    #: mesh budget one loop tick dequeues (bounds a tick's working set)
    max_batch_meshes: int = 64
    #: consecutive parallel failures that trip the breaker
    failure_threshold: int = 3
    #: seconds an open breaker waits before half-opening
    reset_timeout: float = 1.0
    #: deadline/shed poll cadence of the monitor task, seconds
    monitor_interval: float = 0.02
    #: re-derive every served mesh on the golden interpreter (bit-identity)
    validate: bool = False
    #: base seed for synthesized initial conditions (see MixScheduler)
    seed: int = 0

    def __post_init__(self):
        check_engine(self.engine)
        if self.admission not in ADMISSIONS:
            raise ValidationError(
                f"unknown admission policy {self.admission!r}; "
                f"expected one of {ADMISSIONS}"
            )
        # a tick that dequeues nothing from a non-empty queue never yields
        # and never dispatches; a monitor that never waits busy-spins.
        # Written as ``not x >= 0`` so that NaN fails too.
        if not self.max_batch_meshes >= 1:
            raise ValidationError(
                f"max_batch_meshes must be at least 1, got {self.max_batch_meshes}"
            )
        if not self.batch_window >= 0:
            raise ValidationError(
                f"batch_window must be non-negative seconds, got {self.batch_window}"
            )
        if not self.monitor_interval > 0:
            raise ValidationError(
                f"monitor_interval must be positive seconds, got {self.monitor_interval}"
            )


class Job:
    """One submitted workload: spec, tenant, deadline, and its future."""

    __slots__ = (
        "spec", "tenant", "priority", "deadline", "seq",
        "future", "submitted_at",
    )

    def __init__(
        self,
        spec: WorkloadSpec,
        tenant: str,
        priority: int,
        deadline: float | None,
        seq: int,
        future: asyncio.Future,
    ) -> None:
        self.spec = spec
        self.tenant = tenant
        self.priority = priority
        self.deadline = deadline  # absolute loop time, or None
        self.seq = seq
        self.future = future
        self.submitted_at = time.perf_counter()


class JobHandle:
    """The client's side of a submitted job: awaitable, cancellable."""

    __slots__ = ("_job", "_server")

    def __init__(self, job: Job, server: "Server") -> None:
        self._job = job
        self._server = server

    @property
    def spec(self) -> WorkloadSpec:
        return self._job.spec

    @property
    def tenant(self) -> str:
        return self._job.tenant

    def done(self) -> bool:
        """True once the job has resolved (result, error, or cancel)."""
        return self._job.future.done()

    def cancel(self, reason: str | None = None) -> bool:
        """Cancel the job; returns False if it already resolved.

        A queued job resolves ``asyncio.CancelledError`` immediately; an
        in-flight job additionally cancels its batch cooperatively once
        every sibling job in the batch is dead. Safe from any thread.
        """
        return self._server._cancel_job(self._job, reason)

    async def result(self):
        """Await the job's per-mesh results (list of field environments)."""
        return await asyncio.shield(self._job.future)

    def __await__(self):
        return self.result().__await__()


class _InflightGroup:
    """One coalesced dispatch in flight: its jobs and their shared token."""

    __slots__ = ("jobs", "token")

    def __init__(self, jobs: list[Job], token: CancelToken) -> None:
        self.jobs = jobs
        self.token = token

    def reap(self) -> None:
        """Fire the token once every member job has already resolved."""
        if not self.token.is_set() and all(j.future.done() for j in self.jobs):
            self.token.set("all jobs in batch resolved")


class Server:
    """An overload-safe async façade over the mix-scheduling stack."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.metrics = MetricsRegistry()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.failure_threshold,
            reset_timeout=self.config.reset_timeout,
        )
        self._queue = FairQueue(
            self.config.queue_depth, self.config.tenant_weights
        )
        self._state = "running"  # running -> draining -> closed
        self._seq = 0
        #: blocked submitters awaiting queue space, in arrival order
        self._space_waiters: deque[asyncio.Future] = deque()
        self._outstanding: set[Job] = set()
        self._inflight: set[_InflightGroup] = set()
        self._schedulers: dict[str, object] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._work: asyncio.Event | None = None
        self._loop_task: asyncio.Task | None = None
        self._monitor_task: asyncio.Task | None = None

    # -- submission ---------------------------------------------------------------
    async def submit(
        self,
        spec: WorkloadSpec | str,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline: float | None = None,
    ) -> JobHandle:
        """Admit one workload; returns an awaitable :class:`JobHandle`.

        ``spec`` is a :class:`~repro.workload.WorkloadSpec` or its string
        grammar (``app:MESH:NITER[xBATCH]``). ``deadline`` is relative
        seconds from now; past it the job resolves
        :class:`~repro.serve.errors.DeadlineExceeded` whether queued or in
        flight. A full tenant queue rejects or blocks per
        :attr:`ServerConfig.admission`.
        """
        if isinstance(spec, str):
            spec = WorkloadSpec.parse(spec)
        if deadline is not None and deadline <= 0:
            raise ValidationError(
                f"deadline must be positive seconds, got {deadline}"
            )
        self._check_open()
        self._ensure_started()
        loop = self._loop
        assert loop is not None
        self._seq += 1
        job = Job(
            spec,
            tenant,
            priority,
            loop.time() + deadline if deadline is not None else None,
            self._seq,
            loop.create_future(),
        )
        # consume unawaited exceptions (a shed job nobody awaits must not
        # warn at interpreter exit) and keep the outstanding set exact
        job.future.add_done_callback(functools.partial(self._job_resolved, job))
        self._outstanding.add(job)
        if not self._queue.offer(job):
            if self.config.admission == "reject":
                self._outstanding.discard(job)
                job.future.cancel()
                self._count("serve.rejected", tenant=tenant)
                obs.emit(
                    "serve.job_rejected",
                    spec=spec.describe(),
                    tenant=tenant,
                    queued=len(self._queue),
                )
                raise QueueFullError(
                    f"tenant {tenant!r} queue is full "
                    f"({self._queue.depth} jobs); job {spec.describe()} rejected"
                )
            await self._block_for_space(job)
        self._count("serve.admitted", tenant=tenant)
        self._set_depth_gauge()
        obs.emit(
            "serve.job_admitted",
            spec=spec.describe(),
            tenant=tenant,
            priority=priority,
            deadline=deadline,
        )
        assert self._work is not None
        self._work.set()
        return JobHandle(job, self)

    async def _block_for_space(self, job: Job) -> None:
        """``admission="block"``: wait for queue space (or server close).

        Waiters park on per-submit futures signalled by the dequeue tick,
        the deadline monitor's shed, and :meth:`close` — woken in arrival
        order, so earlier submitters get first claim on freed space — and
        each wait is bounded by the job's own deadline (if any) rather
        than a poll cadence.
        """
        loop = self._loop
        assert loop is not None
        while True:
            if self._state != "running":
                self._outstanding.discard(job)
                job.future.cancel()
                raise ServerClosedError(
                    "server closed while a submit waited for queue space"
                )
            if job.deadline is not None and loop.time() >= job.deadline:
                self._deadline_fail(job, queued=True)
            if job.future.done():  # deadline passed / cancelled while blocked
                await asyncio.shield(job.future)
                return
            if self._queue.offer(job):
                return
            waiter: asyncio.Future = loop.create_future()
            self._space_waiters.append(waiter)
            timeout = (
                max(0.0, job.deadline - loop.time())
                if job.deadline is not None
                else None
            )
            try:
                # job.future rides along so a client cancel (or deadline
                # fail) wakes the submitter immediately, not at the next
                # space signal
                await asyncio.wait(
                    (waiter, job.future),
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                waiter.cancel()
                try:
                    self._space_waiters.remove(waiter)
                except ValueError:
                    pass

    def _notify_space(self) -> None:
        """Wake every blocked submitter: queue space may have freed."""
        while self._space_waiters:
            waiter = self._space_waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    def _check_open(self) -> None:
        if self._state != "running":
            raise ServerClosedError(f"server is {self._state}; not accepting jobs")

    def _ensure_started(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._work = asyncio.Event()
            self._loop_task = loop.create_task(self._run_loop())
            self._monitor_task = loop.create_task(self._run_monitor())
        elif self._loop is not loop:
            raise ValidationError(
                "a Server is bound to the event loop of its first submit"
            )

    # -- the batching loop --------------------------------------------------------
    async def _run_loop(self) -> None:
        assert self._work is not None
        while True:
            await self._work.wait()
            picked: list[Job] = []
            try:
                if self.config.batch_window > 0:
                    await asyncio.sleep(self.config.batch_window)
                self._shed_expired()
                picked = self._dequeue_tick()
                self._notify_space()
                if not picked:
                    if not len(self._queue):
                        self._work.clear()
                    continue
                groups: dict[tuple, list[Job]] = {}
                for job in picked:
                    groups.setdefault(job.spec.job_key, []).append(job)
                outcomes = await asyncio.gather(
                    *(self._run_group(jobs) for jobs in groups.values()),
                    return_exceptions=True,
                )
                for jobs, outcome in zip(groups.values(), outcomes):
                    if isinstance(outcome, asyncio.CancelledError):
                        raise outcome
                    if isinstance(outcome, BaseException):
                        self._fail_jobs(jobs, outcome)
                self._set_depth_gauge()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                # a wedged loop would admit jobs forever without dispatching
                # them; resolve this tick's jobs and keep serving, using the
                # raw future API in case metrics/events are what broke
                for job in picked:
                    if not job.future.done():
                        job.future.set_exception(exc)
                try:
                    obs.emit("serve.loop_error", error=repr(exc))
                except Exception:  # noqa: BLE001, S110 - best-effort telemetry
                    pass

    def _dequeue_tick(self) -> list[Job]:
        """Fair-pop jobs up to the tick's mesh budget."""
        picked: list[Job] = []
        meshes = 0
        while meshes < self.config.max_batch_meshes:
            job = self._queue.pop()
            if job is None:
                break
            picked.append(job)
            meshes += job.spec.batch
        return picked

    async def _run_group(self, jobs: list[Job]) -> None:
        """Execute one coalesced job group and resolve its members."""
        token = CancelToken()
        group = _InflightGroup(jobs, token)
        self._inflight.add(group)
        probe = False
        try:
            # jobs resolved between the dequeue tick and this task body
            # (client cancels land in that gap) are excluded from the
            # dispatch — and from result slicing, which must account only
            # the specs actually executed
            live = [job for job in jobs if not job.future.done()]
            if not live:
                return
            engine, probe = self._pick_engine()
            specs = [job.spec for job in live]
            obs.emit(
                "serve.group_dispatch",
                spec=specs[0].describe(),
                jobs=len(specs),
                meshes=sum(s.batch for s in specs),
                engine=engine,
                probe=probe,
            )
            try:
                run = await asyncio.to_thread(
                    self._scheduler(engine).run,
                    specs,
                    self.config.validate,
                    token,
                )
            except ExecutionCancelled:
                # deadline monitor / client cancels resolved every member;
                # anything left alive (a token raced the last resolution)
                # is a cancel. The backend was never judged: a held probe
                # slot must be released, not left dangling in half-open.
                if probe:
                    self.breaker.abort_probe()
                for job in live:
                    job.future.cancel()
                return
            except ParallelExecutionError as exc:
                self.breaker.record_failure()
                obs.emit(
                    "serve.group_parallel_failure",
                    spec=specs[0].describe(),
                    error=repr(exc),
                    breaker=self.breaker.state,
                )
                await self._rerun_serial(live, specs, token)
                return
            except Exception as exc:  # noqa: BLE001 - resolve, don't crash the loop
                if probe:
                    self.breaker.abort_probe()
                self._fail_jobs(live, exc)
                return
            if engine == "parallel":
                self.breaker.record_success()
            self._resolve_group(live, run)
        except Exception as exc:  # noqa: BLE001 - an internal error (metrics,
            # result slicing, breaker bookkeeping) must resolve the jobs,
            # not escape into the batching loop
            if probe:
                self.breaker.abort_probe()
            self._fail_jobs(jobs, exc)
        finally:
            self._inflight.discard(group)

    def _pick_engine(self) -> tuple[str, bool]:
        """The engine this dispatch uses, honoring the breaker."""
        engine = self.config.engine
        if engine != "parallel":
            return engine, False
        if self.breaker.allow():
            return "parallel", False
        if self.breaker.begin_probe():
            return "parallel", True
        self._count("serve.degraded")
        obs.emit("serve.group_degraded", breaker=self.breaker.state)
        return "compiled", False

    async def _rerun_serial(
        self, jobs: list[Job], specs: list[WorkloadSpec], token: CancelToken
    ) -> None:
        """The serving layer's fallback: rerun a failed group serially."""
        self._count("serve.degraded")
        obs.emit("serve.group_degraded", breaker=self.breaker.state, rerun=True)
        try:
            run = await asyncio.to_thread(
                self._scheduler("compiled").run,
                specs,
                self.config.validate,
                token,
            )
        except ExecutionCancelled:
            for job in jobs:
                job.future.cancel()
            return
        except Exception as exc:  # noqa: BLE001 - resolve, don't crash the loop
            self._fail_jobs(jobs, exc)
            return
        self._resolve_group(jobs, run)

    def _resolve_group(self, jobs: list[Job], run) -> None:
        """Slice the merged group's per-mesh results back onto the jobs.

        The scheduler merged every spec of one job key into a single
        group whose results are positional over the summed batch; each
        job owns the slice its batch contributed, in dispatch order.
        """
        results = list(run.groups[0].results) if run.groups else []
        offset = 0
        for job in jobs:
            chunk = results[offset : offset + job.spec.batch]
            offset += job.spec.batch
            if job.future.done():
                continue
            job.future.set_result(chunk)
            latency = time.perf_counter() - job.submitted_at
            self._count("serve.completed", tenant=job.tenant)
            self.metrics.histogram("serve.latency_seconds").observe(latency)
            obs.observe("serve.latency_seconds", latency)
            obs.emit(
                "serve.job_completed",
                spec=job.spec.describe(),
                tenant=job.tenant,
                seconds=latency,
            )

    def _fail_jobs(self, jobs: list[Job], exc: Exception) -> None:
        for job in jobs:
            if job.future.done():
                continue
            job.future.set_exception(exc)
            self._count("serve.failed", tenant=job.tenant)
            obs.emit(
                "serve.job_failed",
                spec=job.spec.describe(),
                tenant=job.tenant,
                error=repr(exc),
            )

    # -- deadlines, cancels, shedding ---------------------------------------------
    async def _run_monitor(self) -> None:
        while True:
            await asyncio.sleep(self.config.monitor_interval)
            self._shed_expired()
            now = self._loop.time() if self._loop else 0.0
            for group in list(self._inflight):
                for job in group.jobs:
                    if (
                        not job.future.done()
                        and job.deadline is not None
                        and now >= job.deadline
                    ):
                        self._deadline_fail(job, queued=False)
                group.reap()

    def _shed_expired(self) -> None:
        if self._loop is None:
            return
        now = self._loop.time()
        shed = self._queue.shed(
            lambda j: j.deadline is not None and now >= j.deadline
        )
        for job in shed:
            self._deadline_fail(job, queued=True)
        if shed:
            self._notify_space()
        self._set_depth_gauge()

    def _deadline_fail(self, job: Job, queued: bool) -> None:
        if job.future.done():
            return
        job.future.set_exception(
            DeadlineExceeded(
                f"job {job.spec.describe()} (tenant {job.tenant!r}) missed "
                f"its deadline while {'queued' if queued else 'in flight'}"
            )
        )
        self._count("serve.shed", tenant=job.tenant)
        obs.emit(
            "serve.job_shed",
            spec=job.spec.describe(),
            tenant=job.tenant,
            queued=queued,
        )

    def _cancel_job(self, job: Job, reason: str | None = None) -> bool:
        loop = self._loop
        if loop is None:
            return job.future.cancel()
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is not loop:
            loop.call_soon_threadsafe(self._cancel_job, job, reason)
            return not job.future.done()
        if job.future.done():
            return False
        job.future.cancel()
        self._count("serve.cancelled", tenant=job.tenant)
        obs.emit(
            "serve.job_cancelled",
            spec=job.spec.describe(),
            tenant=job.tenant,
            reason=reason,
        )
        for group in self._inflight:
            if job in group.jobs:
                group.reap()
                break
        return True

    def _job_resolved(self, job: Job, future: asyncio.Future) -> None:
        # one done callback per job: retrieve the exception so shed jobs
        # nobody awaits never warn, and drop the job from the drain set
        if not future.cancelled():
            future.exception()
        self._outstanding.discard(job)

    # -- health & lifecycle -------------------------------------------------------
    def health(self) -> dict:
        """A readiness/health snapshot: queues, breaker, counters, latency."""
        return {
            "state": self._state,
            "queue": {"total": len(self._queue), "tenants": self._queue.depths()},
            "inflight_groups": len(self._inflight),
            # a resolved job leaves the set in its done callback, which the
            # loop runs a tick later: count by the future, not the set
            "outstanding_jobs": sum(
                not job.future.done() for job in self._outstanding
            ),
            "breaker": {"state": self.breaker.state, "trips": self.breaker.trips},
            "jobs": {
                name: self._count_total(f"serve.{name}")
                for name in (
                    "admitted", "rejected", "shed", "cancelled",
                    "completed", "failed", "degraded",
                )
            },
            "latency": self.metrics.histogram("serve.latency_seconds").summary(),
        }

    async def close(self, drain: bool = True) -> None:
        """Stop admissions, settle every job, stop the loop tasks.

        ``drain=True`` lets queued and in-flight jobs finish (or
        deadline-fail); ``drain=False`` cancels everything still queued
        and cooperatively cancels in-flight batches. Either way the
        server ends with zero outstanding jobs and no dispatch of its
        still running.
        """
        if self._state == "closed":
            return
        self._state = "draining"
        self._notify_space()  # blocked submitters must wake and see the close
        obs.emit("serve.drain_begin", drain=drain, queued=len(self._queue))
        interval = self.config.monitor_interval
        if self._loop is not None:
            if not drain:
                for job in self._queue.shed(lambda j: True):
                    self._cancel_job(job, reason="server closed")
                for group in list(self._inflight):
                    for job in group.jobs:
                        self._cancel_job(job, reason="server closed")
                    group.token.set("server closed")
            else:
                assert self._work is not None
                self._work.set()
            # outstanding empties when every job resolves; inflight empties
            # only when each dispatch's worker thread has returned — both
            # must be gone before the loop tasks can be torn down, or a
            # still-running thread would outlive the server
            while self._outstanding or self._inflight:
                await asyncio.sleep(interval)
            for task in (self._loop_task, self._monitor_task):
                if task is not None:
                    task.cancel()
            for task in (self._loop_task, self._monitor_task):
                if task is not None:
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
        self._state = "closed"
        self._set_depth_gauge()
        obs.emit("serve.closed", drain=drain)

    async def __aenter__(self) -> "Server":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close(drain=True)

    # -- internals ----------------------------------------------------------------
    def _scheduler(self, engine: str):
        scheduler = self._schedulers.get(engine)
        if scheduler is None:
            from repro.dataflow.scheduler import MixScheduler

            scheduler = self._schedulers[engine] = MixScheduler(
                engine=engine,
                seed=self.config.seed,
                max_workers=self.config.max_workers,
                strict=True,
            )
        return scheduler

    def _count(self, name: str, **labels: object) -> None:
        self.metrics.counter(name, **labels).inc()
        obs.inc(name, **labels)

    def _count_total(self, name: str) -> float:
        total = 0.0
        for metric_name, _labels, metric in self.metrics.items():
            if metric_name == name:
                total += metric.value
        return total

    def _set_depth_gauge(self) -> None:
        depth = len(self._queue)
        self.metrics.gauge("serve.queue_depth").set(depth)
        obs.set_gauge("serve.queue_depth", depth)

"""Chunk fan-out: stacked batches dispatched across a worker pool.

This is the ``engine="parallel"`` backend behind the compiled-plan API.
The unit of parallelism is the **footprint-bounded stacked chunk** the
chunked serial path already produces (:func:`stacked_chunk_sizes` made the
units independent — a chunk never reads another chunk's meshes), so the
schedule is identical to the serial compiled engine: same chunk sizes,
same dispatch accounting, bit-identical per-mesh results. Only *where*
the tape replays changes: each chunk becomes one task on a persistent
:class:`~repro.parallel.pool.WorkerPool`.

Workers are threads: they share the parent's address space and take the
field environments by reference, bind buffers at most once per plan
token (:mod:`repro.parallel.worker`) and replay the warm tape.

A failing chunk is not retried here: every attempt would replay the same
tape on the same inputs in the same process, so it would fail again. The
first failure raises :class:`ParallelExecutionError` naming the chunk,
its mesh range and the plan; the serving layer's circuit breaker
(:mod:`repro.serve.breaker`) reruns the group on the serial engine.

:func:`submit_stacked` returns a :class:`PendingBatch` rather than
results, so a caller with several independent batches (a workload mix's
job groups) can submit them all and let *every* chunk of *every* group
share the pool concurrently; :func:`run_program_parallel` is the
submit-and-wait convenience with the same signature as
:func:`~repro.stencil.compiled.run_program_stacked`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

from repro import observability as obs
from repro.mesh.mesh import Field
from repro.parallel.pool import WorkerPool, default_workers, shared_pool
from repro.parallel.worker import run_chunk_fields
from repro.resilience import CancelToken, ExecutionCancelled
from repro.stencil.compiled import (
    CompiledPlanCache,
    DEFAULT_CACHE,
    check_stacked_batch,
    record_dispatch_stats,
    run_program_stacked,
    stacked_chunk_sizes,
)
from repro.stencil.plan import ProgramPlan, program_token
from repro.stencil.program import StencilProgram
from repro.util.errors import ReproError, ValidationError

class ParallelExecutionError(ReproError):
    """A chunk failed under the parallel engine.

    The message names the chunk, its mesh range and the plan token; the
    attributes carry the context callers act on without parsing it:
    ``backend`` (the backend the batch was dispatched on, if known) and
    ``elapsed`` (seconds between the chunk's submit and the failure
    surfacing, if known).
    """

    def __init__(
        self,
        message: str,
        backend: str | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.elapsed = elapsed


#: interned plan tokens: structural binding key -> short stable string.
#: Bounded — an evicted key re-seen later gets a *new* token, which only
#: costs a worker-side rebind, never a wrong cache hit (distinct keys can
#: never share a token: the counter only moves forward).
_TOKENS: OrderedDict[tuple, str] = OrderedDict()
_TOKENS_LOCK = threading.Lock()
_MAX_TOKENS = 256
_TOKEN_IDS = itertools.count()


def plan_token_for(program: StencilProgram, fields: Mapping[str, Field]) -> str:
    """A stable identity for ``(program structure, specs)``.

    The parent stamps every chunk task with this token; workers key their
    local instance caches by it, so two chunks of the same binding share
    one bound plan per worker without the worker re-deriving the identity.
    Equal bindings (by the same structural key the plan cache uses) always
    yield the same token within a parent process.
    """
    specs = tuple(
        (name, fields[name].spec) for name in program.required_inputs
    )
    key = (program_token(program), specs)
    with _TOKENS_LOCK:
        token = _TOKENS.get(key)
        if token is None:
            token = f"plan-{next(_TOKEN_IDS)}"
            _TOKENS[key] = token
            while len(_TOKENS) > _MAX_TOKENS:
                _TOKENS.popitem(last=False)
        else:
            _TOKENS.move_to_end(key)
    return token


@dataclass
class _PendingChunk:
    """One chunk of the batch: its slice and its worker future."""

    index: int
    start: int
    size: int
    #: the worker task; None once the chunk is abandoned
    future: object
    #: perf_counter timestamp of the submit
    submitted_at: float


@dataclass
class PendingBatch:
    """A stacked batch in flight; :meth:`result` assembles it in order.

    Results are reassembled by chunk *index*, so per-mesh order matches the
    submitted batch no matter in which order workers finish. Chunk-size
    accounting (``stats=``) is fixed at submit time — the schedule is
    deterministic; only completion order is not.
    """

    batch_fields: Sequence[Mapping[str, Field]]
    plan: ProgramPlan | None
    niter: int
    token: str = ""
    pending: list[_PendingChunk] = dc_field(default_factory=list)
    #: pre-computed results for degenerate batches that never hit the pool
    ready: list[dict[str, Field]] | None = None
    #: backend the chunks were dispatched on ("thread")
    backend: str = ""
    #: the caller's ``stats=`` dict, so collection can append the
    #: worker-measured ``chunk_seconds`` once results land
    stats: dict | None = None
    #: cooperative cancellation flag; :meth:`cancel` sets it, the collect
    #: loop polls it at every chunk boundary (and in 50 ms wait slices)
    cancel_token: CancelToken = dc_field(default_factory=CancelToken)
    _results: list[dict[str, Field]] | None = None

    def cancel(self, reason: str | None = None) -> None:
        """Cooperatively cancel the batch; safe from any thread.

        Not-yet-started chunk tasks are cancelled on the pool right here,
        so their queue slots free immediately. In-flight chunks are left
        to finish their current tape replay: a concurrent :meth:`result`
        observes the token at its next safe point and raises
        :class:`~repro.resilience.ExecutionCancelled`; a batch nobody
        collects waits them out in :meth:`close`. Idempotent; a no-op once
        results have landed.
        """
        if self._results is not None or self.ready is not None:
            return
        self.cancel_token.set(reason)
        dropped = 0
        for chunk in self.pending:
            fut = chunk.future
            if fut is not None and fut.cancel():
                dropped += 1
        obs.inc("exec.batches_cancelled")
        obs.emit(
            "exec.batch_cancelled",
            plan=self.token,
            chunks_dropped=dropped,
            chunks_total=len(self.pending),
            reason=reason,
        )

    def result(self) -> list[dict[str, Field]]:
        """Block until every chunk finished; per-mesh results in order.

        The first failing chunk raises :class:`ParallelExecutionError`
        naming the chunk and its mesh range (callers scheduling several
        batches add their own context, e.g. the originating workload
        spec); remaining chunks are then abandoned.
        """
        if self._results is not None:
            return self._results
        if self.ready is not None:
            self._results = self.ready
            return self._results
        failure: tuple[_PendingChunk, BaseException] | None = None
        cancelled: ExecutionCancelled | None = None
        results: list[dict[str, Field] | None] = [None] * len(self.batch_fields)
        chunk_seconds: list[float] = [0.0] * len(self.pending)
        for chunk in self.pending:
            if failure is not None or cancelled is not None:
                self._abandon(chunk)
                continue
            if self.cancel_token.is_set():
                # observed between chunks: abandon this one and the rest
                cancelled = self._cancelled_error()
                self._abandon(chunk)
                continue
            try:
                out = self._await(chunk)
            except ExecutionCancelled as exc:
                cancelled = exc
                continue
            except BaseException as exc:  # noqa: BLE001 - rewrapped below
                if self.cancel_token.is_set():
                    # a cancel() racing the wait cancelled the future out
                    # from under it; surface the cancellation, not the
                    # secondary error it provoked
                    cancelled = self._cancelled_error()
                else:
                    failure = (chunk, exc)
                continue
            seconds = float(out.get("seconds", 0.0))
            chunk_seconds[chunk.index] = seconds
            obs.observe(
                "exec.chunk_seconds", seconds, backend=self.backend or "parallel",
            )
            obs.adopt_spans(out.get("spans"))
            self._assemble(chunk, out, results)
        if failure is not None:
            chunk, exc = failure
            elapsed = time.perf_counter() - chunk.submitted_at
            backend = self.backend or None
            obs.inc("parallel.worker_failures", backend=backend or "unknown")
            obs.emit(
                "parallel.worker_failure",
                chunk=chunk.index,
                meshes=[chunk.start, chunk.start + chunk.size - 1],
                plan=self.token,
                backend=backend,
                elapsed=elapsed,
                error=repr(exc),
            )
            context = f", backend {backend}" if backend else ""
            context += f", {elapsed:.3f}s after submit"
            raise ParallelExecutionError(
                f"parallel chunk {chunk.index + 1}/{len(self.pending)} "
                f"(meshes {chunk.start}..{chunk.start + chunk.size - 1}, "
                f"plan {self.token[:12]}{context}) failed: {exc!r}",
                backend=backend,
                elapsed=elapsed,
            ) from exc
        if cancelled is not None:
            raise cancelled
        if self.stats is not None:
            self.stats["chunk_seconds"] = chunk_seconds
        self._results = results  # type: ignore[assignment]
        return self._results

    def _cancelled_error(self) -> ExecutionCancelled:
        reason = self.cancel_token.reason
        suffix = f": {reason}" if reason else ""
        return ExecutionCancelled(
            f"parallel batch (plan {self.token[:12]}) cancelled{suffix}"
        )

    #: wait-slice width while blocking on a worker future: the collect
    #: thread re-checks the cancel token this often, so an in-flight batch
    #: observes cancellation promptly
    _WAIT_SLICE = 0.05

    def _await(self, chunk: _PendingChunk) -> dict:
        """The chunk's worker result, waited for in cancel-polling slices."""
        where = f"parallel chunk {chunk.index} (plan {self.token[:12]})"
        while True:
            self.cancel_token.raise_if_set(where)
            try:
                return chunk.future.result(timeout=self._WAIT_SLICE)
            except FuturesTimeout:
                pass

    # -- assembly and cleanup --------------------------------------------------
    def _assemble(self, chunk, out, results) -> None:
        produced = self.plan.final_env(self.niter)
        fields = out.get("fields")
        for b in range(chunk.size):
            env = dict(self.batch_fields[chunk.start + b])
            for fname in produced:
                spec = self.plan.produced_specs[fname]
                env[fname] = Field(fname, spec, fields[fname][b])
            results[chunk.start + b] = env

    def _abandon(self, chunk: _PendingChunk) -> None:
        """Discard an in-flight chunk: cancel it, or wait it out."""
        if chunk.future is not None:
            chunk.future.cancel()
            try:
                chunk.future.result()
            except BaseException:  # noqa: BLE001 - abandoning anyway
                pass
        chunk.future = None

    def close(self) -> None:
        """Abandon the batch: cancel queued chunks, wait out running ones.

        Used when a sibling batch failed and the caller unwinds — results
        are discarded and errors are swallowed.
        """
        if self._results is not None or self.ready is not None:
            return
        for chunk in self.pending:
            self._abandon(chunk)
        self._results = []


def submit_stacked(
    program: StencilProgram,
    batch_fields: Sequence[Mapping[str, Field]],
    niter: int,
    *,
    cache: CompiledPlanCache | None = None,
    max_stack_bytes: float | None = None,
    stats: dict | None = None,
    max_workers: int | None = None,
    pool: WorkerPool | None = None,
    cancel: CancelToken | None = None,
) -> PendingBatch:
    """Fan a stacked batch's chunks out over a thread pool; non-blocking.

    Mirrors :func:`~repro.stencil.compiled.run_program_stacked` — same
    validation, same chunk schedule, same ``stats`` accounting — but
    returns immediately with a :class:`PendingBatch`. Degenerate batches
    take the serial path inline and come back pre-resolved: ``niter == 0``
    (nothing to run), mixed-dtype bindings (golden interpreter per mesh,
    exactly as the serial engine falls back), and single-worker hosts
    (``max_workers``/CPU count <= 1 and no explicit ``pool``), where
    fan-out could only add dispatch overhead. Chunks run on ``pool`` when
    given, else on the shared pool of width ``max_workers``.

    ``cancel`` shares a
    :class:`~repro.resilience.CancelToken` with the returned batch
    (:meth:`PendingBatch.cancel` sets the batch's own token either way):
    once set, collection abandons remaining chunks at the next safe point
    and raises :class:`~repro.resilience.ExecutionCancelled`.
    """
    required, first = check_stacked_batch(program, batch_fields)
    if niter < 0:
        raise ValidationError(f"niter must be non-negative, got {niter}")
    if cancel is not None:
        cancel.raise_if_set("parallel submit")

    workers = max_workers if max_workers else default_workers()

    dtypes = {first[name].spec.dtype for name in required}
    if niter == 0 or len(dtypes) > 1 or (pool is None and workers <= 1):
        # nothing to run, a mixed-dtype binding (the golden interpreter per
        # mesh) or a one-lane pool that cannot overlap anything: run the
        # serial path in-process, which records the dispatch once, under
        # the engine that ran it
        results = run_program_stacked(
            program, batch_fields, niter, cache=cache,
            max_stack_bytes=max_stack_bytes, stats=stats, cancel=cancel,
        )
        if stats is not None:
            stats.update(backend="serial", workers=1)
        return PendingBatch(batch_fields, None, niter, ready=results)
    cache = cache if cache is not None else DEFAULT_CACHE
    plan = cache.plan_for(program, first)
    chunks = stacked_chunk_sizes(
        len(batch_fields), plan.nbytes, max_stack_bytes
    )
    token = plan_token_for(program, first)
    if pool is None:
        pool = shared_pool(workers)
    batch = PendingBatch(
        batch_fields, plan, niter, token=token, stats=stats, backend="thread",
    )
    if cancel is not None:
        batch.cancel_token = cancel
    with obs.span(
        "parallel.submit",
        program=program.name,
        batch=len(batch_fields),
        niter=niter,
        backend=batch.backend,
        chunks=len(chunks),
    ):
        trace = obs.trace_context()
        start = 0
        for index, size in enumerate(chunks):
            submitted_at = time.perf_counter()
            future = pool.submit(
                run_chunk_fields, token, plan, size, niter,
                batch_fields[start : start + size], trace,
            )
            batch.pending.append(
                _PendingChunk(index, start, size, future, submitted_at)
            )
            start += size
        obs.emit(
            "exec.dispatch",
            program=program.name,
            backend=batch.backend,
            workers=workers,
            chunks=list(chunks),
            niter=niter,
        )
    record_dispatch_stats(stats, chunks, backend=batch.backend, workers=workers)
    return batch


def run_program_parallel(
    program: StencilProgram,
    batch_fields: Sequence[Mapping[str, Field]],
    niter: int,
    *,
    cache: CompiledPlanCache | None = None,
    max_stack_bytes: float | None = None,
    stats: dict | None = None,
    max_workers: int | None = None,
    pool: WorkerPool | None = None,
    cancel: CancelToken | None = None,
) -> list[dict[str, Field]]:
    """Solve ``B`` same-spec meshes with chunks fanned across the pool.

    The parallel drop-in for
    :func:`~repro.stencil.compiled.run_program_stacked`: identical
    signature semantics plus pool controls, identical chunk schedule and
    ``stats`` accounting, bit-identical per-mesh results (asserted across
    every registry app in the test suite). See :func:`submit_stacked` for
    the degenerate-path and failure rules.
    """
    return submit_stacked(
        program, batch_fields, niter,
        cache=cache, max_stack_bytes=max_stack_bytes, stats=stats,
        max_workers=max_workers, pool=pool, cancel=cancel,
    ).result()

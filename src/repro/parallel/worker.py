"""Worker-side chunk execution with a per-worker compiled-plan cache.

Each task carries the lowered :class:`~repro.stencil.plan.ProgramPlan`
together with its **plan token** — the parent-computed identity of
``(program structure, bound field specs)``, the structure including the
kernels' coefficients. Workers
bind the plan to concrete buffers at most once per ``(token, batch)``:
repeat chunks of the same job shape fetch the warm
:class:`CompiledProgram` from the worker-local cache and only pay the
load/iterate/store cost.

The caches are deliberately **per worker thread** (``threading.local``)
rather than the process-wide :data:`repro.stencil.compiled.DEFAULT_CACHE`:
a shared compiled instance serializes concurrent runs on its internal
lock (correct but sequential), while a private instance per lane keeps
every worker independent.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from typing import Any, Mapping, Sequence

from repro.mesh.mesh import Field
from repro.observability.tracing import TraceContext, Tracer
from repro.stencil.compiled import CompiledProgram
from repro.stencil.plan import ProgramPlan

#: bound instances kept warm per worker; small meshes bind in microseconds,
#: so this only needs to cover the live job shapes of a mix
_MAX_INSTANCES = 16

#: one instance cache per worker thread: no two concurrent tasks can ever
#: share (and race on) a bound instance
_TLS = threading.local()


def _cache() -> OrderedDict:
    cache = getattr(_TLS, "instances", None)
    if cache is None:
        cache = _TLS.instances = OrderedDict()
    return cache


def bind_instance(token: str, plan: ProgramPlan, batch: int) -> CompiledProgram:
    """The worker-local compiled instance for ``(token, batch)``.

    Binds (allocates buffers for) the plan on first sight, then reuses the
    warm instance — the per-worker analogue of
    :meth:`repro.stencil.compiled.CompiledPlanCache.get`, keyed by the
    parent's plan token so equal bindings share work without re-hashing
    the program structure worker-side.
    """
    cache = _cache()
    key = (token, batch)
    instance = cache.get(key)
    if instance is None:
        instance = cache[key] = CompiledProgram(plan, batch=batch)
        while len(cache) > _MAX_INSTANCES:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return instance


def _worker_tracer(trace: TraceContext | None) -> Tracer | None:
    """A throwaway tracer seeded with the parent's trace position.

    Spans it records become children of the parent's submit-side span once
    the parent :meth:`~repro.observability.tracing.Tracer.adopt`\\ s the
    returned dicts — the worker never touches the parent's tracer, so
    concurrent chunks record without sharing state.
    """
    if trace is None:
        return None
    return Tracer(
        trace_id=trace.trace_id,
        root_parent=trace.parent_id,
        # a namespace disjoint from the parent's "s" ids: the parent
        # reference travels by id, so worker ids must never textually
        # collide with it
        id_prefix="w.",
    )


def _span_dicts(tracer: Tracer | None) -> list[dict[str, Any]] | None:
    return [r.to_dict() for r in tracer.records()] if tracer else None


def run_chunk_fields(
    token: str,
    plan: ProgramPlan,
    batch: int,
    niter: int,
    envs: Sequence[Mapping[str, Field]],
    trace: TraceContext | None = None,
) -> dict[str, Any]:
    """Execute one chunk on the parent's field environments.

    Workers share the parent's address space, so the per-mesh environments
    travel by reference and load straight into the instance's buffers —
    the same single copy the serial engine performs. Returns stacked
    ``(B, *storage)`` copies of the produced fields under ``"fields"`` —
    copies, because the warm instance's buffers are overwritten by this
    worker's next task — plus worker-measured ``seconds`` and the
    worker-side ``spans`` when the parent shipped a :class:`TraceContext`.
    """
    tracer = _worker_tracer(trace)
    t0 = time.perf_counter()
    ctx = (
        tracer.span(
            "worker.chunk",
            token=token, batch=batch, niter=niter,
            backend="thread",
        )
        if tracer is not None
        else nullcontext()
    )
    with ctx:
        instance = bind_instance(token, plan, batch)
        if batch == 1:
            instance.load(envs[0])
        else:
            instance.load_stacked(envs)
        instance.run_iterations(niter)
        out = instance.final_arrays()
        fields = {fname: arr.copy() for fname, arr in out.items()}
    return {
        "fields": fields,
        "seconds": time.perf_counter() - t0,
        "spans": _span_dicts(tracer),
    }


def instance_cache_size() -> int:
    """Warm instances in this lane's cache (introspection for tests)."""
    return len(_cache())

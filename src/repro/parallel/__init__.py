"""Parallel chunk fan-out behind the compiled-plan API.

The ``engine="parallel"`` backend: the serial compiled engine's chunked
stacked schedule, dispatched across a persistent thread pool instead of a
loop. Workers share the parent's address space, take the field
environments by reference, and each keeps its own warm compiled-plan
instances (:mod:`repro.parallel.worker`). Results are bit-identical to
the serial compiled engine — and therefore to the golden interpreter.
A failing chunk raises :class:`ParallelExecutionError` on its first
attempt; the serving layer's circuit breaker reruns the group serially.
"""

from repro.parallel.executor import (
    ParallelExecutionError,
    PendingBatch,
    plan_token_for,
    run_program_parallel,
    submit_stacked,
)
from repro.parallel.pool import (
    WorkerPool,
    default_workers,
    shared_pool,
    shutdown_shared_pools,
)

__all__ = [
    "ParallelExecutionError",
    "PendingBatch",
    "WorkerPool",
    "default_workers",
    "plan_token_for",
    "run_program_parallel",
    "shared_pool",
    "shutdown_shared_pools",
    "submit_stacked",
]

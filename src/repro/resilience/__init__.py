"""``repro.resilience`` — cooperative cancellation for the execution stack.

A :class:`CancelToken` is the one-way flag the serving layer hands down
through :class:`~repro.dataflow.scheduler.MixScheduler` to the chunked
stacked and parallel dispatch paths; a set token abandons work at the
next chunk boundary with :class:`ExecutionCancelled`. Failure handling
lives elsewhere: a failing parallel chunk raises
:class:`~repro.parallel.ParallelExecutionError` on its first attempt, and
the serving layer's circuit breaker is the one recovery path. See
``docs/resilience.md``.
"""

from repro.resilience.cancel import CancelToken, ExecutionCancelled

__all__ = ["CancelToken", "ExecutionCancelled"]

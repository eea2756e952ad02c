"""Cooperative cancellation: a thread-safe token checked at safe points.

A :class:`CancelToken` is the one-way flag a caller hands down the
execution stack — serving layer → :class:`~repro.dataflow.scheduler.
MixScheduler` → chunked stacked dispatch / parallel fan-out — so that
long-running work can be abandoned *between* chunks without tearing down
pools or corrupting shared state. Cancellation is cooperative: the
executing side polls the token at its dispatch boundaries (never inside a
tape replay, which is always allowed to finish) and raises
:class:`ExecutionCancelled`; not-yet-started chunk tasks are cancelled
on the pool, so a cancelled dispatch leaves nothing queued behind it.

Tokens are set-once and never reset; a new unit of work takes a new
token. ``set()`` may be called from any thread (the serving layer cancels
from the event loop while the batch executes in a worker thread).
"""

from __future__ import annotations

import threading

from repro.util.errors import ReproError


class ExecutionCancelled(ReproError):
    """Work was abandoned at a safe point after its token was set.

    Deliberately *not* a :class:`~repro.parallel.ParallelExecutionError`:
    cancellation is a caller decision, so it propagates through
    best-effort mix scheduling and the serving layer's breaker untouched.
    """


class CancelToken:
    """A set-once, thread-safe cancellation flag.

    ``reason`` (optional, recorded by the first ``set()`` call) travels
    into the :class:`ExecutionCancelled` raised at the next safe point, so
    logs can tell a client cancel from a deadline shed from a drain.
    """

    __slots__ = ("_event", "_reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: str | None = None

    def set(self, reason: str | None = None) -> None:
        """Request cancellation (idempotent; first reason wins)."""
        if not self._event.is_set():
            self._reason = self._reason or reason
            self._event.set()

    def is_set(self) -> bool:
        """True once cancellation has been requested."""
        return self._event.is_set()

    @property
    def reason(self) -> str | None:
        """The first recorded cancellation reason, if any."""
        return self._reason

    def raise_if_set(self, where: str = "execution") -> None:
        """Raise :class:`ExecutionCancelled` when the token is set.

        The poll the executing side plants at each safe point; ``where``
        names the boundary for the error message.
        """
        if self._event.is_set():
            suffix = f": {self._reason}" if self._reason else ""
            raise ExecutionCancelled(f"{where} cancelled{suffix}")

    def __bool__(self) -> bool:  # pragma: no cover - convenience alias
        return self.is_set()

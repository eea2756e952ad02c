"""Circuit breaker: stop hammering a failing parallel backend.

The classic three-state machine, tuned for the serving loop:

* **closed** — parallel dispatch allowed; consecutive
  :class:`~repro.parallel.ParallelExecutionError` failures count up, a
  success resets the count. Reaching ``failure_threshold`` trips the
  breaker.
* **open** — parallel dispatch refused (the server degrades to the serial
  compiled engine, so jobs keep resolving bit-identically while the pool
  recovers). After ``reset_timeout`` seconds the breaker half-opens.
* **half_open** — exactly one **probe** dispatch is allowed back onto the
  parallel backend (:meth:`begin_probe`); its success closes the breaker,
  its failure re-opens it and restarts the timer.

State changes are counted and emitted through :mod:`repro.observability`
(``serve.breaker_trips``; ``serve.breaker_open`` / ``_half_open`` /
``_closed`` events); ``tests/test_serve_server.py`` asserts a full
trip → half-open → recover cycle from the event order. The breaker is
event-loop-confined like the rest of the server; ``clock`` is injectable
so tests drive the timeout without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable

from repro import observability as obs
from repro.util.errors import ValidationError

#: the breaker's states
STATES = ("closed", "open", "half_open")


class CircuitBreaker:
    """Consecutive-failure breaker with timed half-open probes."""

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValidationError(
                f"reset_timeout must be positive, got {reset_timeout}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False
        #: total trips (closed/half_open -> open) over the breaker's life
        self.trips = 0

    # -- state --------------------------------------------------------------------
    @property
    def state(self) -> str:
        """The current state, after any due open → half-open transition."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = "half_open"
            self._probing = False
            obs.emit("serve.breaker_half_open")
        return self._state

    def allow(self) -> bool:
        """True when a parallel dispatch may proceed right now.

        In half-open state only the probe holder may dispatch — callers
        that want the probe must win :meth:`begin_probe` first.
        """
        return self.state == "closed"

    def begin_probe(self) -> bool:
        """Claim the single half-open probe slot (False if taken/closed)."""
        if self.state != "half_open" or self._probing:
            return False
        self._probing = True
        return True

    def abort_probe(self) -> None:
        """Release the probe slot without judging the backend.

        For probes whose dispatch ended without a verdict on the parallel
        backend's health (every member job cancelled or deadline-failed
        mid-flight, or an internal serving error): the breaker keeps its
        state but frees the half-open slot so the next dispatch may probe
        — otherwise the slot would leak and the backend never recover.
        """
        self._probing = False

    # -- outcomes -----------------------------------------------------------------
    def record_success(self) -> None:
        """A parallel dispatch completed: reset, closing a half-open breaker."""
        if self.state == "half_open":
            self._state = "closed"
            obs.emit("serve.breaker_closed")
        self._failures = 0
        self._probing = False

    def record_failure(self) -> None:
        """A parallel dispatch failed: count up, trip when the run is long enough."""
        state = self.state
        if state == "half_open":
            self._trip()
            return
        if state == "open":  # pragma: no cover - failures race the trip
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._failures = 0
        self._probing = False
        self.trips += 1
        obs.inc("serve.breaker_trips")
        obs.emit("serve.breaker_open", reset_timeout=self.reset_timeout)

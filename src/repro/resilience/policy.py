"""Retry, timeout and backoff policy for the parallel execution stack.

A :class:`RetryPolicy` describes how the chunk fan-out recovers from a
failed dispatch: how many times a chunk is retried on its current rung
(``max_attempts``), how long to wait between attempts (exponential
backoff with **deterministic seeded jitter** — two runs with the same
policy, plan token and chunk index sleep exactly the same schedule, so
recovery behaviour is reproducible in tests and CI), how long a single
attempt may run before it is declared hung (``chunk_timeout``, enforced
through future deadlines; a timed-out thread cannot be killed, so the
attempt is abandoned and runs out on its own), and the
**graceful-degradation ladder** — the ordered rungs a chunk falls
through once its attempts on a rung are exhausted: the thread pool,
then ``"serial"``.

The terminal rung ``"serial"`` replays the chunk on the collecting
thread on the very same lowered plan the workers run, so a chunk's final
results are bit-identical to the serial compiled engine no matter how
many attempts failed on the way: degradation changes *where* the tape
replays, never what it computes.

Policies are frozen and cheap; the parallel executor consults one per
dispatch (:data:`DEFAULT_POLICY` unless the caller passes its own). The
no-fault fast path adds only a branch per chunk.
"""

from __future__ import annotations

import zlib
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass

from repro.util.errors import ValidationError

#: the full degradation ladder; a chunk enters at the thread pool and only
#: ever moves right
FULL_LADDER = ("thread", "serial")


@dataclass(frozen=True)
class RetryPolicy:
    """How the parallel engine retries, times out and degrades a chunk.

    ``max_attempts`` bounds the tries *per ladder rung*; ``backoff_*``
    shape the exponential delay between same-rung retries; ``jitter`` is
    the maximum fractional widening of each delay, drawn deterministically
    from ``seed``/plan token/chunk index/attempt so recovery schedules are
    reproducible. ``chunk_timeout`` (seconds, ``None`` = no deadline) is a
    soft per-attempt deadline enforced while collecting the chunk's
    future; a deadline miss counts as a failure and the hung attempt is
    abandoned. ``verify_checksums`` makes workers return a CRC per produced
    field and the parent re-verify it on receipt, so corrupt results are
    detected and retried instead of silently returned. ``ladder`` is the
    ordered degradation sequence; an empty ladder means "fail where you
    are" (no degradation).
    """

    max_attempts: int = 2
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.25
    seed: int = 0
    chunk_timeout: float | None = None
    verify_checksums: bool = False
    ladder: tuple[str, ...] = FULL_LADDER

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValidationError(
                "backoff_base must be >= 0 and backoff_factor >= 1, got "
                f"{self.backoff_base}/{self.backoff_factor}"
            )
        if not 0 <= self.jitter <= 1:
            raise ValidationError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValidationError(
                f"chunk_timeout must be positive, got {self.chunk_timeout}"
            )
        unknown = set(self.ladder) - set(FULL_LADDER)
        if unknown:
            raise ValidationError(
                f"unknown ladder rungs {sorted(unknown)}; "
                f"expected a subsequence of {FULL_LADDER}"
            )

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """The bare-dispatch policy: one attempt, no ladder, no checksums.

        The first failure surfaces immediately — pre-resilience behaviour,
        kept for the overhead benchmark and for callers that implement
        their own recovery.
        """
        return cls(max_attempts=1, ladder=())

    def rungs_from(self, backend: str) -> tuple[str, ...]:
        """The degradation sequence for a chunk dispatched on ``backend``.

        The chunk enters at its own backend — even one the ladder omits —
        and falls to every ladder rung below it, never upward.
        """
        below = FULL_LADDER.index(backend)
        return (backend,) + tuple(
            r for r in self.ladder if FULL_LADDER.index(r) > below
        )

    def backoff_delay(
        self, attempt: int, token: str = "", chunk: int = 0
    ) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        Exponential in the attempt number, capped at ``backoff_max``, then
        widened by up to ``jitter`` — the jitter fraction is a pure
        function of ``(seed, token, chunk, attempt)``, so identical runs
        back off identically while distinct chunks de-synchronize.
        """
        if attempt < 1 or self.backoff_base == 0:
            return 0.0
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter:
            key = f"{self.seed}:{token}:{chunk}:{attempt}".encode()
            fraction = zlib.crc32(key) / 0xFFFFFFFF
            delay *= 1.0 + self.jitter * fraction
        return delay

    def deadline_remaining(self, submitted_at: float, now: float) -> float | None:
        """Seconds left before this attempt's deadline, or None (no limit)."""
        if self.chunk_timeout is None:
            return None
        return max(0.0, submitted_at + self.chunk_timeout - now)


#: the policy every parallel dispatch uses unless the caller overrides it
DEFAULT_POLICY = RetryPolicy()


def classify_failure(exc: BaseException) -> str:
    """A short label for a chunk failure, used in metrics/event labels."""
    from repro.resilience.faults import CorruptResultError

    if isinstance(exc, FuturesTimeout):
        return "timeout"
    if isinstance(exc, CorruptResultError):
        return "corrupt"
    return "error"

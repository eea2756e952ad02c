"""Deterministic fault injection for the parallel execution stack.

Real failures — a worker task that raises, a hung chunk, a bit-flipped
result — arrive on unlucky hosts at unlucky times; a recovery path that
is only exercised there is a recovery path that is never exercised. A
:class:`FaultPlan` makes every failure class **injectable and
deterministic**: the plan names which chunk of which dispatch fails, how,
and how many times, and the executor arms the matching :class:`Fault`
into the worker's task at submit time, so the full production path
(pool, retry ladder) runs under the fault — nothing is monkeypatched.

Fault kinds
-----------
``crash``
    The worker task raises on entry, before any work runs.
``slow``
    The worker sleeps ``seconds`` before executing; with a policy
    ``chunk_timeout`` below it, this is the deterministic hung-worker.
``corrupt``
    The worker computes its result and per-field checksums, then flips a
    byte of the produced data *after* checksumming — corruption between
    computation and receipt that a checksum-verifying parent detects and
    retries.

Grammar
-------
A plan is a comma-separated list of faults::

    KIND@CHUNK            crash@0        (chunk 0, once)
    KIND@*                corrupt@*      (any chunk, once)
    KIND@CHUNKxTIMES      crash@0x3      (first three submits of chunk 0)
    KIND@CHUNK:ARG        slow@1:0.5     (chunk 1 sleeps 0.5 s)
    KIND@PLAN/CHUNK       crash@plan-7/0 (only dispatches of plan token)

Activated through the ``REPRO_FAULT_PLAN`` environment variable (plans
parsed from it share one process-wide draw counter per distinct string)
or an explicit ``fault_plan=`` argument to :func:`~repro.parallel.executor.
submit_stacked` / :class:`~repro.dataflow.scheduler.MixScheduler`.
"""

from __future__ import annotations

import os
import threading
import zlib
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.util.errors import ReproError, ValidationError

#: injectable fault classes, in documentation order
FAULT_KINDS = ("crash", "slow", "corrupt")

#: environment variable holding a fault-plan string (CI chaos jobs set it)
ENV_PLAN = "REPRO_FAULT_PLAN"

#: default sleep of a ``slow`` fault with no explicit ``:SECONDS``
_DEFAULT_SLOW_SECONDS = 0.05


class CorruptResultError(ReproError):
    """A worker's returned data does not match its own checksums."""


@dataclass(frozen=True)
class Fault:
    """One armed fault, handed to a worker task at submit time."""

    kind: str
    seconds: float = 0.0


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what fails, where, and how many times."""

    kind: str
    #: chunk index the fault targets; None matches any chunk
    chunk: int | None = None
    #: plan-token filter; None matches any dispatch
    plan: str | None = None
    #: how many matching submits draw this fault before it is spent
    times: int = 1
    #: kind-specific argument (sleep seconds for ``slow``)
    seconds: float = _DEFAULT_SLOW_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.times < 1:
            raise ValidationError(f"fault times must be >= 1, got {self.times}")
        if self.seconds < 0:
            raise ValidationError(
                f"fault seconds must be >= 0, got {self.seconds}"
            )

    def describe(self) -> str:
        """The spec in plan-grammar form."""
        sel = "*" if self.chunk is None else str(self.chunk)
        if self.plan is not None:
            sel = f"{self.plan}/{sel}"
        text = f"{self.kind}@{sel}"
        if self.times != 1:
            text += f"x{self.times}"
        if self.kind == "slow" and self.seconds != _DEFAULT_SLOW_SECONDS:
            text += f":{self.seconds:g}"
        return text


def _parse_spec(token: str) -> FaultSpec:
    kind, at, selector = token.strip().partition("@")
    if not at or not selector:
        raise ValidationError(
            f"cannot parse fault {token!r}; expected KIND@CHUNK "
            f"(e.g. crash@0, slow@*x2:0.5)"
        )
    seconds = _DEFAULT_SLOW_SECONDS
    if ":" in selector:
        selector, _, arg = selector.partition(":")
        try:
            seconds = float(arg)
        except ValueError:
            raise ValidationError(
                f"fault {token!r}: argument {arg!r} is not a number"
            ) from None
    times = 1
    if "x" in selector:
        selector, _, count = selector.rpartition("x")
        try:
            times = int(count)
        except ValueError:
            raise ValidationError(
                f"fault {token!r}: repeat count {count!r} is not an integer"
            ) from None
    plan = None
    if "/" in selector:
        plan, _, selector = selector.rpartition("/")
    if selector == "*":
        chunk: int | None = None
    else:
        try:
            chunk = int(selector)
        except ValueError:
            raise ValidationError(
                f"fault {token!r}: chunk selector {selector!r} is neither an "
                f"index nor '*'"
            ) from None
    return FaultSpec(kind, chunk=chunk, plan=plan, times=times, seconds=seconds)


class FaultPlan:
    """An ordered set of planned faults with thread-safe draw accounting.

    The executor calls :meth:`draw` once per chunk submit; the first
    unspent spec matching ``(chunk index, plan token)`` fires (its
    remaining count decrements) and ships as a :class:`Fault`. Exhausted
    plans draw nothing — a retried chunk whose faults are spent runs
    clean, which is what makes every recovery test terminate.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...]):
        self.specs = tuple(specs)
        self._remaining = [spec.times for spec in self.specs]
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the comma-separated plan grammar (see module docstring)."""
        tokens = [t for t in text.split(",") if t.strip()]
        if not tokens:
            raise ValidationError(f"empty fault plan {text!r}")
        return cls([_parse_spec(t) for t in tokens])

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan named by :data:`ENV_PLAN`, or None when unset.

        Plans parsed from the environment are memoized per distinct
        string, so every dispatch in the process shares one draw counter —
        ``crash@0`` fired from the environment fires once overall, not
        once per batch.
        """
        text = os.environ.get(ENV_PLAN)
        if not text:
            return None
        with _ENV_LOCK:
            plan = _ENV_PLANS.get(text)
            if plan is None:
                plan = _ENV_PLANS[text] = cls.parse(text)
        return plan

    def draw(self, chunk: int, token: str | None = None) -> Fault | None:
        """The fault (if any) armed for this submit of ``chunk``."""
        with self._lock:
            for i, spec in enumerate(self.specs):
                if self._remaining[i] <= 0:
                    continue
                if spec.chunk is not None and spec.chunk != chunk:
                    continue
                if spec.plan is not None and spec.plan != token:
                    continue
                self._remaining[i] -= 1
                # seconds only means anything to a ``slow`` fault
                return Fault(
                    spec.kind, spec.seconds if spec.kind == "slow" else 0.0
                )
        return None

    def remaining(self) -> int:
        """Undrawn fault count across every spec."""
        with self._lock:
            return sum(self._remaining)

    def describe(self) -> str:
        """The plan in grammar form (round-trips through :meth:`parse`)."""
        return ",".join(spec.describe() for spec in self.specs)


#: process-wide plans parsed from the environment, keyed by plan string
_ENV_PLANS: dict[str, FaultPlan] = {}
_ENV_LOCK = threading.Lock()


def forget_env_plans() -> None:
    """Drop memoized environment plans (tests re-point the variable)."""
    with _ENV_LOCK:
        _ENV_PLANS.clear()


# -- checksums and corruption --------------------------------------------------
def checksum_arrays(arrays: Mapping[str, np.ndarray]) -> dict[str, int]:
    """CRC32 per named array, over its raw bytes.

    Computed worker-side over the produced fields and re-computed
    parent-side over the received data; a mismatch means the result was
    corrupted between computation and receipt.
    """
    return {
        name: zlib.crc32(np.ascontiguousarray(arr).tobytes())
        for name, arr in arrays.items()
    }


def corrupt_first_value(arrays: Mapping[str, np.ndarray]) -> None:
    """Flip the bytes of the first element of the first array, in place.

    The injection body of the ``corrupt`` fault: a byte-level flip (not an
    arithmetic perturbation), so it diverges for any dtype and any value,
    NaN included.
    """
    for arr in arrays.values():
        view = arr.reshape(-1).view(np.uint8)
        view[: arr.dtype.itemsize] ^= 0xFF
        return

"""``repro.resilience`` — retry policy, fault injection, degradation ladder.

The robustness layer of the parallel execution stack
(:mod:`repro.parallel`): a :class:`RetryPolicy` describes how a failed,
hung or corrupt chunk is retried (exponential backoff with deterministic
seeded jitter, per-chunk soft timeouts) and degraded through the
thread → serial ladder until results — always bit-identical to the
serial compiled engine — are produced; a :class:`FaultPlan` injects
worker crashes, slow chunks and corrupt results deterministically
(``REPRO_FAULT_PLAN`` or an explicit argument) so every recovery path is
exercisable in tests and CI.

Recovery is observable: retries, degradations, timeouts and injected
faults all emit :mod:`repro.observability` counters and events
(``resilience.retries``, ``resilience.degraded``, ``resilience.timeouts``,
``exec.fault_injected``). See ``docs/resilience.md``.
"""

from repro.resilience.cancel import CancelToken, ExecutionCancelled
from repro.resilience.faults import (
    ENV_PLAN,
    FAULT_KINDS,
    CorruptResultError,
    Fault,
    FaultPlan,
    FaultSpec,
    checksum_arrays,
    corrupt_first_value,
    forget_env_plans,
)
from repro.resilience.policy import (
    DEFAULT_POLICY,
    FULL_LADDER,
    RetryPolicy,
    classify_failure,
)

__all__ = [
    "CancelToken",
    "CorruptResultError",
    "DEFAULT_POLICY",
    "ENV_PLAN",
    "ExecutionCancelled",
    "FAULT_KINDS",
    "FULL_LADDER",
    "Fault",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "checksum_arrays",
    "classify_failure",
    "corrupt_first_value",
    "forget_env_plans",
]

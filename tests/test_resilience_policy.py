"""Retry policy and fault-plan mechanics: the pure half of resilience.

Covers the knobs in isolation — ladder construction, deterministic
backoff, deadlines, failure classification — and the fault-plan grammar:
parse/describe round-trips, draw accounting, environment activation.
"""

from __future__ import annotations

from concurrent.futures import TimeoutError as FuturesTimeout

import numpy as np
import pytest

from repro.resilience import (
    DEFAULT_POLICY,
    ENV_PLAN,
    FULL_LADDER,
    CorruptResultError,
    Fault,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    checksum_arrays,
    classify_failure,
    corrupt_first_value,
    forget_env_plans,
)
from repro.util.errors import ValidationError


class TestRetryPolicy:
    def test_default_policy_retries_and_degrades(self):
        assert DEFAULT_POLICY.max_attempts == 2
        assert DEFAULT_POLICY.ladder == FULL_LADDER

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"chunk_timeout": 0.0},
            {"backoff_factor": 0.5},
            {"backoff_base": -1.0},
            {"ladder": ("process",)},
            {"ladder": ("thread", "gpu")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)

    def test_disabled_is_fail_fast(self):
        policy = RetryPolicy.disabled()
        assert policy.max_attempts == 1
        assert policy.rungs_from("thread") == ("thread",)

    def test_rungs_enter_ladder_at_own_backend(self):
        policy = RetryPolicy()
        assert FULL_LADDER == ("thread", "serial")
        assert policy.rungs_from("thread") == ("thread", "serial")
        assert policy.rungs_from("serial") == ("serial",)

    def test_rungs_never_degrade_upward(self):
        # a serial-only ladder still lets a thread dispatch fall to serial,
        # and a serial chunk never climbs back onto the pool
        policy = RetryPolicy(ladder=("serial",))
        assert policy.rungs_from("thread") == ("thread", "serial")
        assert RetryPolicy(ladder=("thread",)).rungs_from("serial") == ("serial",)

    def test_backoff_is_deterministic_and_exponential(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, jitter=0.5)
        a = [policy.backoff_delay(n, "tok", 3) for n in range(1, 5)]
        b = [policy.backoff_delay(n, "tok", 3) for n in range(1, 5)]
        assert a == b  # same seed/token/chunk/attempt -> same schedule
        bare = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, jitter=0.0)
        assert [bare.backoff_delay(n) for n in range(1, 4)] == [
            0.01, 0.02, 0.04
        ]
        # jitter widens, never shrinks, and is bounded
        for base, widened in zip(
            [bare.backoff_delay(n) for n in range(1, 5)], a
        ):
            assert base <= widened <= base * 1.5

    def test_backoff_caps_and_zero_base(self):
        policy = RetryPolicy(
            backoff_base=0.5, backoff_factor=10.0, backoff_max=1.0, jitter=0.0
        )
        assert policy.backoff_delay(4) == 1.0
        assert RetryPolicy(backoff_base=0.0).backoff_delay(3) == 0.0
        assert policy.backoff_delay(0) == 0.0

    def test_distinct_chunks_desynchronize(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        delays = {policy.backoff_delay(1, "tok", c) for c in range(8)}
        assert len(delays) > 1

    def test_deadline_remaining(self):
        assert RetryPolicy().deadline_remaining(0.0, 100.0) is None
        policy = RetryPolicy(chunk_timeout=2.0)
        assert policy.deadline_remaining(10.0, 11.0) == pytest.approx(1.0)
        assert policy.deadline_remaining(10.0, 13.0) == 0.0


class TestClassifyFailure:
    @pytest.mark.parametrize(
        "exc,kind",
        [
            (FuturesTimeout(), "timeout"),
            (CorruptResultError("bad"), "corrupt"),
            (OSError("disk"), "error"),
            (ValueError("bug"), "error"),
        ],
    )
    def test_labels(self, exc, kind):
        assert classify_failure(exc) == kind


class TestFaultGrammar:
    @pytest.mark.parametrize(
        "text,kind,chunk,plan,times,seconds",
        [
            ("crash@0", "crash", 0, None, 1, 0.05),
            ("corrupt@*", "corrupt", None, None, 1, 0.05),
            ("crash@2x3", "crash", 2, None, 3, 0.05),
            ("slow@1:0.5", "slow", 1, None, 1, 0.5),
            ("crash@plan-7/0", "crash", 0, "plan-7", 1, 0.05),
            ("slow@*x2:0.25", "slow", None, None, 2, 0.25),
            ("corrupt@plan-3/*x4", "corrupt", None, "plan-3", 4, 0.05),
        ],
    )
    def test_parse(self, text, kind, chunk, plan, times, seconds):
        (spec,) = FaultPlan.parse(text).specs
        assert spec == FaultSpec(
            kind, chunk=chunk, plan=plan, times=times, seconds=seconds
        )

    def test_describe_round_trips(self):
        text = "crash@0,corrupt@*,slow@1x2:0.5,corrupt@plan-7/0"
        plan = FaultPlan.parse(text)
        again = FaultPlan.parse(plan.describe())
        assert again.specs == plan.specs

    @pytest.mark.parametrize(
        "text",
        ["", "bogus", "crash", "crash@", "fly@0", "crash@ab", "slow@1:abc",
         "crash@0x", "crash@0x0", "shm@*"],
    )
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ValidationError):
            FaultPlan.parse(text)

    def test_unknown_kind_names_the_allowed_kinds(self):
        # an unknown kind is rejected with the list of kinds that exist
        with pytest.raises(ValidationError, match="crash.*slow.*corrupt"):
            FaultPlan.parse("shm@*")


class TestFaultDraws:
    def test_draw_decrements_and_exhausts(self):
        plan = FaultPlan.parse("crash@0x2")
        assert plan.remaining() == 2
        assert plan.draw(0) == Fault("crash")
        assert plan.draw(0) == Fault("crash")
        assert plan.draw(0) is None
        assert plan.remaining() == 0

    def test_chunk_filter(self):
        plan = FaultPlan.parse("crash@1")
        assert plan.draw(0) is None
        assert plan.draw(1) == Fault("crash")

    def test_plan_token_filter(self):
        plan = FaultPlan.parse("corrupt@plan-7/*")
        assert plan.draw(0, "plan-8") is None
        assert plan.draw(0, "plan-7") == Fault("corrupt")
        assert plan.draw(1, "plan-7") is None  # spent

    def test_first_match_wins(self):
        plan = FaultPlan.parse("crash@0,slow@*:0.3")
        assert plan.draw(0) == Fault("crash")
        assert plan.draw(0) == Fault("slow", 0.3)

    def test_env_plans_share_draw_counters(self, monkeypatch):
        forget_env_plans()
        monkeypatch.setenv(ENV_PLAN, "crash@0")
        a = FaultPlan.from_env()
        b = FaultPlan.from_env()
        assert a is b
        assert a.draw(0) is not None
        assert b.draw(0) is None  # one process-wide counter
        forget_env_plans()
        fresh = FaultPlan.from_env()
        assert fresh is not a
        assert fresh.draw(0) is not None
        forget_env_plans()

    def test_no_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(ENV_PLAN, raising=False)
        assert FaultPlan.from_env() is None


class TestChecksums:
    def test_checksums_detect_byte_flips(self):
        arrays = {"U": np.arange(12, dtype=np.float32).reshape(3, 4)}
        before = checksum_arrays(arrays)
        assert checksum_arrays(arrays) == before  # pure
        corrupt_first_value(arrays)
        assert checksum_arrays(arrays) != before

    def test_corrupt_flips_exactly_the_first_element(self):
        arr = np.zeros((2, 3), dtype=np.float32)
        ref = arr.copy()
        corrupt_first_value({"U": arr})
        assert not np.array_equal(arr, ref)
        assert np.array_equal(arr.reshape(-1)[1:], ref.reshape(-1)[1:])

    def test_corrupt_works_on_nan(self):
        arr = np.full(4, np.nan, dtype=np.float64)
        before = checksum_arrays({"U": arr})
        corrupt_first_value({"U": arr})
        assert checksum_arrays({"U": arr}) != before

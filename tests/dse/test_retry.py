"""Retry-policy semantics: validation, failure classification,
deterministic backoff, the settle/call decision, and spec
round-tripping.

The acceptance pin: two runs of the same campaign compute identical
backoff schedules (jitter is drawn from the point key, not a clock or
RNG), so chaos runs are reproducible end to end.
"""

import pytest

from repro.dse.retry import (
    POISON_TYPES,
    WORKER_FAILURE_KINDS,
    PointFailure,
    RetryPolicy,
)
from repro.dse.spec import CampaignSpec


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0),
        dict(timeout_s=0),
        dict(timeout_s=-1.0),
        dict(backoff_s=-0.1),
        dict(backoff_factor=0.5),
        dict(jitter=1.5),
        dict(jitter=-0.1),
        dict(heartbeat_timeout_s=0),
        # Spec-file values (``"retry"`` in ``dse run --spec``):
        dict(poison="ValueError"),    # would iterate as characters
        dict(max_backoff_s=-1),       # a negative sleep
        dict(max_attempts=2.5),
        dict(max_attempts=True),
        dict(max_attempts="3"),       # was a TypeError, not a CLI error
        dict(backoff_s=float("nan")),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)

    def test_defaults_are_valid_and_watchdog_free(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert not policy.needs_watchdog()
        assert RetryPolicy(timeout_s=30.0).needs_watchdog()


class TestClassification:
    @pytest.mark.parametrize("etype", POISON_TYPES)
    def test_poison_types_never_retry(self, etype):
        assert not RetryPolicy().is_retryable(etype)

    @pytest.mark.parametrize("etype", ["OSError", "MemoryError",
                                       "InjectedFault", "RuntimeError"])
    def test_transient_types_retry(self, etype):
        assert RetryPolicy().is_retryable(etype)

    @pytest.mark.parametrize("kind", WORKER_FAILURE_KINDS)
    def test_worker_failures_always_retry(self, kind):
        # The process died, not necessarily the point's code: even an
        # etype that would be poison as an exception gets retried.
        assert RetryPolicy().is_retryable("ValueError", kind=kind)

    def test_poison_list_is_configurable(self):
        policy = RetryPolicy(poison=("RuntimeError",))
        assert not policy.is_retryable("RuntimeError")
        assert policy.is_retryable("ValueError")


class TestSettle:
    def test_transient_failure_backs_off_within_budget(self):
        policy = RetryPolicy(max_attempts=3)
        failure = PointFailure("OSError: weather", etype="OSError")
        assert policy.settle("abcd", 0, failure) == \
            policy.backoff_for("abcd", 0)
        assert policy.settle("abcd", 1, failure) == \
            policy.backoff_for("abcd", 1)
        assert policy.settle("abcd", 2, failure) is None  # budget spent

    def test_poison_is_terminal_on_the_first_attempt(self):
        failure = PointFailure("ValueError: bug", etype="ValueError")
        assert RetryPolicy().poisoned(failure)
        assert RetryPolicy().settle("abcd", 0, failure) is None

    @pytest.mark.parametrize("reason", WORKER_FAILURE_KINDS)
    def test_watchdog_kills_are_never_poison(self, reason):
        failure = PointFailure.killed(reason, 1.25, attempt=0)
        assert failure.error == f"{reason} after 1.2s (attempt 1)"
        assert (failure.etype, failure.kind) == (reason, reason)
        assert not RetryPolicy().poisoned(failure)

    def test_from_exception_names_the_type(self):
        failure = PointFailure.from_exception(KeyError("k"))
        assert failure == PointFailure("KeyError: 'k'", etype="KeyError")


class TestCall:
    def test_retries_until_fn_returns(self):
        def flaky(attempt: int) -> str:
            if attempt < 2:
                raise OSError(f"down {attempt}")
            return "up"

        value, failures = RetryPolicy(backoff_s=0.0).call("abcd", flaky)
        assert value == "up"
        assert [f.error for f in failures] == \
            ["OSError: down 0", "OSError: down 1"]

    def test_poison_fails_for_good_without_retry(self):
        calls = []

        def broken(attempt: int) -> None:
            calls.append(attempt)
            raise ValueError("bug")

        value, failures = RetryPolicy(backoff_s=0.0).call("abcd", broken)
        assert value is None and calls == [0]
        assert failures == [PointFailure("ValueError: bug", "ValueError")]

    def test_budget_bounds_the_attempts(self):
        def down(attempt: int) -> None:
            raise OSError("down")

        value, failures = RetryPolicy(max_attempts=2,
                                      backoff_s=0.0).call("abcd", down)
        assert value is None and len(failures) == 2


class TestBackoff:
    def test_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy()
        assert policy.backoff_for("abcd", 1) == policy.backoff_for("abcd", 1)
        assert policy.backoff_for("abcd", 1) != policy.backoff_for("dcba", 1)

    def test_exponential_growth_within_jitter_bounds(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, jitter=0.1)
        for attempt in range(4):
            base = 0.1 * 2.0 ** attempt
            wait = policy.backoff_for("abcd", attempt)
            assert base * 0.9 <= wait <= base * 1.1

    def test_clamped_at_max_backoff(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=10.0,
                             max_backoff_s=5.0, jitter=0.0)
        assert policy.backoff_for("abcd", 6) == 5.0

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_s=0.25, backoff_factor=2.0, jitter=0.0)
        assert policy.backoff_for("abcd", 2) == 1.0


class TestSerialization:
    def test_round_trip(self):
        policy = RetryPolicy(max_attempts=5, timeout_s=120.0,
                             backoff_s=0.5, poison=("RuntimeError",))
        assert RetryPolicy.from_dict(policy.to_dict()) == policy

    def test_bare_string_poison_rejected(self):
        with pytest.raises(ValueError, match="poison"):
            RetryPolicy.from_dict({"poison": "ValueError"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown retry-policy"):
            RetryPolicy.from_dict({"max_attempts": 2, "retires": 9})

    def test_with_overrides_skips_none(self):
        base = RetryPolicy(max_attempts=5, timeout_s=60.0)
        same = base.with_overrides(max_attempts=None, timeout_s=None)
        assert same == base
        bumped = base.with_overrides(max_attempts=7, timeout_s=None)
        assert (bumped.max_attempts, bumped.timeout_s) == (7, 60.0)

    def test_rides_on_campaign_spec(self):
        spec = CampaignSpec(
            name="chaos", accelerators=("SCNN",), networks=("cnn_lstm",),
            retry=RetryPolicy(max_attempts=4, timeout_s=90.0))
        restored = CampaignSpec.from_dict(spec.to_dict())
        assert restored.retry == spec.retry
        # Specs without a policy stay policy-free (and their dict form
        # stays byte-identical to the pre-retry era).
        bare = CampaignSpec(name="bare", accelerators=("SCNN",),
                            networks=("cnn_lstm",))
        assert bare.retry is None
        assert "retry" not in bare.to_dict()

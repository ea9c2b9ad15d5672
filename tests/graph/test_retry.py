"""RetryPolicy: the pure give-up function behind every retry decision."""

import pytest

from repro.graph import RetryPolicy


def test_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="backoff_s"):
        RetryPolicy(backoff_s=-0.1)


def test_none_policy_never_retries():
    policy = RetryPolicy.none()
    assert policy.max_attempts == 1
    assert policy.give_up_reason(1, remaining=10.0, attempt_cost=0.1) == "exhausted"


def test_exhausted_at_the_attempt_cap():
    policy = RetryPolicy.budgeted(max_attempts=3)
    assert policy.give_up_reason(2, remaining=10.0, attempt_cost=0.1) is None
    assert policy.give_up_reason(3, remaining=10.0, attempt_cost=0.1) == "exhausted"


def test_deadline_aware_gives_up_when_budget_cannot_cover_an_attempt():
    policy = RetryPolicy.budgeted(max_attempts=5, backoff_s=0.1)
    # after 1 attempt the retry waits 0.1s; 0.5s remaining covers a 0.3s
    # attempt, 0.35s remaining does not
    assert policy.give_up_reason(1, remaining=0.5, attempt_cost=0.3) is None
    assert policy.give_up_reason(1, remaining=0.35, attempt_cost=0.3) == "deadline_abandoned"


def test_deadline_blind_client_only_stops_at_its_absolute_deadline():
    naive = RetryPolicy.storm()
    # a budgeted client would refuse this (0.2s left cannot cover a 0.3s
    # attempt); the naive client retries anyway, and only stops once the
    # deadline itself has passed (remaining below the backoff wait)
    assert naive.give_up_reason(1, remaining=0.2, attempt_cost=0.3) is None
    assert naive.give_up_reason(1, remaining=0.0, attempt_cost=0.3) == "deadline_abandoned"


def test_no_deadline_means_only_the_cap_stops_retries():
    policy = RetryPolicy.budgeted(max_attempts=4)
    assert policy.give_up_reason(3, remaining=None, attempt_cost=99.0) is None
    assert policy.give_up_reason(4, remaining=None, attempt_cost=99.0) == "exhausted"


def test_give_up_reasons_are_telemetry_kinds():
    from repro.telemetry import COUNTER_FAMILIES

    kinds = COUNTER_FAMILIES["retries"]
    assert "exhausted" in kinds and "deadline_abandoned" in kinds

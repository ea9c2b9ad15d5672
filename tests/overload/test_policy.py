"""OverloadPolicy: validation, the disabled baseline, budget helpers."""

import dataclasses

import pytest

from repro.overload import OverloadPolicy
from repro.telemetry import COUNTER_FAMILIES


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_queue_depth", 0),
            ("admission_slack", 0.0),
            ("admission_slack", -1.0),
            ("queue_wait_budget", 0.0),
            ("queue_wait_budget", 1.5),
            ("breaker_window", 0),
            ("breaker_window_s", 0.0),
            ("breaker_min_samples", 0),
            ("breaker_threshold", 0.0),
            ("breaker_threshold", 1.5),
            ("breaker_dwell_s", 0.0),
            ("breaker_halfopen_samples", 0),
            ("switch_abort_weight", -1),
            ("brownout_queue_depth", -1),
        ],
    )
    def test_bad_knob_fails_at_construction(self, field, value):
        with pytest.raises(ValueError):
            OverloadPolicy(**{field: value})

    def test_min_samples_cannot_exceed_window(self):
        with pytest.raises(ValueError):
            OverloadPolicy(breaker_window=8, breaker_min_samples=9)

    def test_default_policy_is_valid_and_frozen(self):
        policy = OverloadPolicy()
        assert policy.enabled
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.enabled = False


class TestDisabled:
    def test_disabled_turns_every_mechanism_off(self):
        policy = OverloadPolicy.disabled()
        assert not policy.enabled
        assert not policy.admission_control
        assert not policy.shed_expired
        assert not policy.breaker_enabled

    def test_disabled_still_validates(self):
        # the zero policy reuses the same frozen dataclass, knobs intact
        policy = OverloadPolicy.disabled()
        assert policy.max_queue_depth >= 1


class TestHelpers:
    def test_wait_budget_scales_with_qos_target(self):
        policy = OverloadPolicy(queue_wait_budget=0.5)
        assert policy.wait_budget(2.0) == pytest.approx(1.0)

    def test_wait_budget_rejects_bad_target(self):
        with pytest.raises(ValueError):
            OverloadPolicy().wait_budget(0.0)

    def test_with_scale_replaces_fields(self):
        tightened = OverloadPolicy().with_scale(max_queue_depth=8)
        assert tightened.max_queue_depth == 8
        assert tightened.enabled

    def test_drop_reason_family_is_canonical(self):
        assert COUNTER_FAMILIES["drops"] == ("crash", "admission", "shed", "breaker", "preempted")

"""The chaos scenario: determinism gates and the no-wedge guarantee.

The two determinism acceptance criteria live here in quick-tier form
(short compressed days), plus the slow end-to-end no-wedge run:

* a zero-fault chaos config is float.hex-identical to a run with no
  fault layer at all;
* the same seed and the same non-zero plan reproduce the identical run;
* under heavy ack loss + boot failure the runtime keeps switching —
  aborted switches are logged and later switches still complete.
"""

import pytest

from repro.experiments.chaos import chaos_sweep
from repro.experiments.runner import run_amoeba
from repro.experiments.scenarios import (
    DEFAULT_CHAOS_PLAN,
    chaos_scenario,
    default_scenario,
)
from repro.faults import FaultPlan


def _latency_hex(result, name="matmul"):
    return [x.hex() for x in result.services[name].metrics.latencies.values()]


class TestDeterminismGates:
    def test_zero_fault_chaos_is_bit_identical_to_no_fault_layer(self):
        plain = run_amoeba(default_scenario("matmul", day=900.0, seed=0))
        zero = run_amoeba(chaos_scenario("matmul", fault_scale=0.0, day=900.0, seed=0))
        assert plain.faults is None
        assert zero.faults is not None
        assert zero.faults.total_injected == 0
        assert _latency_hex(zero) == _latency_hex(plain)
        m_plain = plain.services["matmul"].metrics
        m_zero = zero.services["matmul"].metrics
        assert m_zero.completed == m_plain.completed
        assert m_zero.violations == m_plain.violations

    def test_same_seed_same_plan_is_reproducible(self):
        a = run_amoeba(chaos_scenario("matmul", fault_scale=1.0, day=900.0, seed=3))
        b = run_amoeba(chaos_scenario("matmul", fault_scale=1.0, day=900.0, seed=3))
        assert a.faults is not None and b.faults is not None
        assert a.faults.injected == b.faults.injected
        assert a.faults.switch_aborts == b.faults.switch_aborts
        assert _latency_hex(a) == _latency_hex(b)

    def test_faulted_run_differs_from_zero_fault_run(self):
        zero = run_amoeba(chaos_scenario("matmul", fault_scale=0.0, day=900.0, seed=3))
        faulted = run_amoeba(chaos_scenario("matmul", fault_scale=1.0, day=900.0, seed=3))
        assert faulted.faults is not None and faulted.faults.total_injected > 0
        # exact counts recorded before the registry refactor
        assert faulted.faults.injected["query_retries"] == 131
        assert faulted.faults.injected["queries_dropped"] == 1
        assert _latency_hex(faulted) != _latency_hex(zero)


def test_default_chaos_plan_covers_every_fault_class():
    plan = DEFAULT_CHAOS_PLAN
    assert plan.any_faults
    for name in (
        "cold_start_failure_prob",
        "container_crash_prob",
        "vm_boot_failure_prob",
        "vm_boot_delay_prob",
        "meter_drop_prob",
        "meter_outage_prob",
        "prewarm_ack_loss_prob",
        "prewarm_ack_delay_prob",
    ):
        assert getattr(plan, name) > 0.0, name


@pytest.mark.slow
class TestChaosEndToEnd:
    def test_sweep_reports_deltas_against_the_zero_scale(self):
        fig = chaos_sweep("matmul", day=1200.0, seed=0, scales=(0.0, 1.0))
        assert fig.headers[0] == "scale"
        assert len(fig.rows) == 2
        zero, one = fig.rows
        assert zero[0] == 0.0 and zero[1] == 0  # nothing injected at scale 0
        assert zero[-1] == 0.0  # delta against itself
        assert one[1] > 0  # nominal scale injects something

    def test_no_wedge_under_ack_loss_and_boot_failure(self):
        plan = FaultPlan(
            prewarm_ack_loss_prob=0.7,
            vm_boot_failure_prob=0.6,
            max_boot_retries=1,
        )
        scenario = chaos_scenario("matmul", plan=plan, day=2400.0, seed=5)
        result = run_amoeba(scenario)
        fs = result.faults
        assert fs is not None
        # faults of both classes actually struck the switch protocol
        assert fs.switch_aborts, "expected at least one aborted switch"
        for t, target, reason in fs.switch_aborts:
            assert target in ("iaas", "serverless")
            assert reason  # every abort carries its cause
        # ... and yet the engine kept flipping: no permanent wedge
        assert fs.switches_completed >= 1

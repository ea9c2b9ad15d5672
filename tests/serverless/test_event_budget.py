"""Exact kernel event budget of one loaded platform minute.

The same 60 s three-function platform as
``benchmarks/test_kernel_perf.py::test_full_mixed_platform_minute``, with
its heap insertions, completion-timer arms and completions pinned
exactly.  Any cut or regression in per-query scheduling work moves
``scheduled_total``; a change to when executions finish moves the other
two.  Re-pin only with an argued change of event budget (CHANGES.md).
"""

from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark as bench_spec
from repro.workloads.loadgen import LoadGenerator
from repro.workloads.traces import ConstantTrace


def test_platform_minute_event_budget_is_pinned():
    env = Environment()
    rng = RngRegistry(seed=1)
    platform = ServerlessPlatform(env, rng)
    all_metrics = []
    for name in ("float", "matmul", "dd"):
        spec = bench_spec(name)
        metrics = ServiceMetrics(name, spec.qos_target)
        platform.register(spec, metrics=metrics)
        LoadGenerator(env, name, ConstantTrace(8.0), platform.invoke, rng)
        all_metrics.append(metrics)
    env.run(until=60.0)
    machine = platform.machine
    assert env.scheduled_total == 9000
    assert machine.timer_arms == 3009
    assert machine.completed == 1502
    assert [m.completed for m in all_metrics] == [497, 478, 482]

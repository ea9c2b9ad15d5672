"""Overload protection in the serverless path: admission, shedding, bounds.

Includes the open-loop baseline demanded by the overload acceptance
criteria: lambda >> capacity with the policy disabled must keep the event
heap and per-query state bounded (the backlog is a deque, not heap
entries) and leave every goodput metric well-defined.
"""

import itertools

from repro.overload import OverloadGovernor, OverloadPolicy
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads.functionbench import benchmark
from repro.workloads.loadgen import Query

QIDS = itertools.count()


def make_platform(seed=5):
    env = Environment()
    platform = ServerlessPlatform(env, RngRegistry(seed=seed))
    return env, platform


def make_governor(policy, spec, mu=5.0):
    return OverloadGovernor(
        policy, qos_target=spec.qos_target, mu_serverless=mu, mu_iaas=mu
    )


def register(platform, spec, policy=None, **kw):
    metrics = ServiceMetrics(spec.name, spec.qos_target)
    gov = make_governor(policy, spec) if policy is not None else None
    platform.register(spec, metrics=metrics, overload=gov, **kw)
    return metrics, gov


def submit(env, platform, name, n=1):
    out = []
    for _ in range(n):
        q = Query(qid=next(QIDS), service=name, t_submit=env.now)
        platform.invoke(q)
        out.append(q)
    return out


class TestAdmission:
    def test_full_queue_rejects_arrivals_at_the_frontend(self):
        policy = OverloadPolicy(
            max_queue_depth=3, admission_control=False,
            shed_expired=False, breaker_enabled=False,
        )
        env, platform = make_platform()
        spec = benchmark("float")
        metrics, gov = register(platform, spec, policy=policy, limit=1)
        submit(env, platform, "float", n=6)
        env.run(until=0.5)  # backlog now sits in the bounded queue
        late = submit(env, platform, "float", n=3)
        assert metrics.counters["drops"]["admission"] == 3
        assert gov.rejections["admission"] == 3
        for q in late:
            assert q.failed and q.served_by == "serverless"
            assert q.t_complete == env.now

    def test_predicted_qos_miss_rejects_on_arrival(self):
        policy = OverloadPolicy(shed_expired=False, breaker_enabled=False)
        env, platform = make_platform()
        spec = benchmark("float")  # qos 0.3 s; mu=5 -> 0.2 s service time
        metrics, gov = register(platform, spec, policy=policy, limit=1)
        submit(env, platform, "float", n=1)
        env.run(until=0.05)  # the first query is queued on its cold start
        (rejected,) = submit(env, platform, "float", n=1)
        # one queued ahead on a single server: predicted sojourn breaks QoS
        assert rejected.failed
        assert metrics.counters["drops"]["admission"] == 1

    def test_admitted_queries_still_complete(self):
        policy = OverloadPolicy(breaker_enabled=False)
        env, platform = make_platform()
        metrics, gov = register(platform, benchmark("float"), policy=policy, limit=4)
        # warm containers first: a 1.4 s cold wait can never meet the
        # 0.3 s QoS target, so un-prewarmed queries are (correctly) shed
        platform.prewarm("float", 2)
        env.run(until=10.0)
        submit(env, platform, "float", n=2)
        env.run(until=30.0)
        assert metrics.completed == 2
        assert metrics.counters["drops"]["admission"] == 0
        assert metrics.counters["drops"]["shed"] == 0


class TestShedding:
    def test_stale_queue_waits_shed_at_dequeue(self):
        # budget = 0.5 * 0.3 s; a ~1.4 s cold start expires the backlog
        policy = OverloadPolicy(
            admission_control=False, breaker_enabled=False, queue_wait_budget=0.5
        )
        env, platform = make_platform()
        metrics, gov = register(platform, benchmark("float"), policy=policy, limit=1)
        queries = submit(env, platform, "float", n=4)
        env.run(until=30.0)
        assert metrics.counters["drops"]["shed"] >= 1
        assert gov.rejections["shed"] == metrics.counters["drops"]["shed"]
        shed = [q for q in queries if q.failed]
        assert shed
        for q in shed:
            assert q.served_by == "serverless"
            assert q.breakdown["queue"] > policy.wait_budget(0.3)

    def test_disabled_policy_never_sheds(self):
        env, platform = make_platform()
        metrics, gov = register(
            platform, benchmark("float"), policy=OverloadPolicy.disabled(), limit=1
        )
        submit(env, platform, "float", n=4)
        env.run(until=60.0)
        assert all(count == 0 for count in metrics.counters["drops"].values())
        assert metrics.completed == 4


class TestQueueDepthObservability:
    def test_depth_timeline_and_exact_peak_are_sampled(self):
        env, platform = make_platform()
        spec = benchmark("float")
        metrics = ServiceMetrics(spec.name, spec.qos_target)
        platform.register(spec, metrics=metrics, limit=1)
        submit(env, platform, "float", n=5)
        env.run(until=30.0)
        fs = platform.pool.state("float")
        times, values = fs.queue_depth.times(), fs.queue_depth.values()
        assert len(times) == len(values) > 0
        assert all(v >= 0.0 for v in values)
        # the exact high-water mark never under-reports the timeline
        assert fs.peak_queue_depth >= max(int(v) for v in values)
        assert fs.peak_queue_depth >= 1
        assert values[-1] == 0.0  # drained by the end


class TestOpenLoopOverloadBaseline:
    """lambda >> capacity, no protection: bounded kernel state, sane metrics."""

    RATE = 30  # queries/s against a single ~0.1 s/query container
    SECONDS = 10

    def _flood(self, policy):
        env, platform = make_platform()
        spec = benchmark("float")
        metrics, gov = register(platform, spec, policy=policy, limit=1)
        peak_heap = 0
        for t in range(self.SECONDS):
            env.run(until=float(t))
            submit(env, platform, "float", n=self.RATE)
            peak_heap = max(peak_heap, env.heap_size)
        env.run(until=float(self.SECONDS) + 2.0)
        return env, platform, metrics, peak_heap

    def test_event_heap_stays_bounded_while_the_queue_grows(self):
        env, platform, metrics, peak_heap = self._flood(policy=None)
        offered = self.RATE * self.SECONDS
        backlog = platform.pool.queue_length("float")
        assert backlog > self.RATE  # genuinely overloaded, queue ballooning
        # queued queries are deque entries, not heap entries: the kernel's
        # event heap tracks in-flight work only, far below offered load
        assert peak_heap < offered / 2
        assert env.heap_size < 20

    def test_goodput_metrics_stay_well_defined(self):
        env, platform, metrics, _ = self._flood(policy=None)
        offered = self.RATE * self.SECONDS
        fs = platform.pool.state("float")
        assert metrics.completed > 0
        assert metrics.completed + fs.n_busy + len(fs.queue) == offered
        assert 0.0 <= metrics.violation_fraction <= 1.0
        p95 = metrics.latency_percentile(95)
        assert p95 == p95 and p95 > 0.0  # finite, not NaN
        assert metrics.failed == 0  # nothing dropped without a policy

    def test_disabled_policy_is_the_same_run_as_no_governor(self):
        _, _, plain, _ = self._flood(policy=None)
        _, _, disabled, _ = self._flood(policy=OverloadPolicy.disabled())
        plain_hex = [x.hex() for x in plain.latencies.values()]
        disabled_hex = [x.hex() for x in disabled.latencies.values()]
        assert plain_hex == disabled_hex

"""Workloads, outside-in probes and output checks for the simulator benchmark.

Each workload is one Amoeba simulation driven through the public entry
points ``run_amoeba`` and ``fleet_sweep``, in this process, with one worker
and the run cache off.  The simulator itself is not modified: host timings
come from a :class:`Probe` that wraps a few public functions for the
duration of one workload run, and work counts come from public counters
read as each runtime finishes.

Set-up is split from the event loop at ``AmoebaRuntime.run``: everything
from the workload's entry to a runtime's ``run`` call is set-up (scenario
build, wiring, surfaces, meter profiles), the ``run`` call itself is the
event loop, and the rest is result assembly and the executor.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import math
import os
import resource
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core import AmoebaRuntime
from repro.core import runtime as core_runtime
from repro.core.meters import AXIS_METERS
from repro.experiments import executor, runner
from repro.experiments import fleet as fleet_module
from repro.experiments.cache import CACHE_ENV_VAR
from repro.experiments.runner import RunResult
from repro.experiments.scenarios import (
    Scenario,
    default_scenario,
    overload_scenario,
    sized_reservoir,
)
from repro.iaas import IaaSService
from repro.overload import OverloadPolicy
from repro.serverless.pool import ContainerPool

import layers

#: (name, unit) of every end-to-end metric, in print order
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("qos_met_frac", "fraction"),
    ("p95_over_qos", "ratio"),
    ("served_frac", "fraction"),
    ("cpu_core_s", "core-s"),
    ("mem_gb_s", "GB-s"),
    ("cost_usd", "USD"),
)

#: deterministic work counts, summed over a workload's runtimes
COUNTS: Tuple[str, ...] = (
    "sim.events",
    "cluster.executions",
    "cluster.executions_user",
    "cluster.executions_meter",
    "cluster.executions_canary",
    "cluster.executions_cold_start",
    "cluster.executions_other",
    "cluster.timer_arms",
    "serverless.invocations",
    "serverless.prewarms",
    "serverless.peak_queue_depth",
    "iaas.completions",
    "iaas.deploys",
    "iaas.rejected",
    "iaas.attempts",
    "iaas.peak_queue_depth",
    "core.surface_builds",
    "core.decisions",
    "core.switches",
    "core.switch_aborts",
    "core.refits",
    "core.invariant_checks",
    "telemetry.completions_recorded",
    "workloads.queries_generated",
    "overload.offered",
    "overload.admissions",
    "overload.rejections",
    "overload.breaker_trips",
    "faults.injected",
)

#: counts that are high-water marks: the maximum over runtimes, not the sum
_PEAK_COUNTS = frozenset({"serverless.peak_queue_depth", "iaas.peak_queue_depth"})

#: (name, unit) of every per-layer metric of the traced run, in print order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.events_per_query", "ratio"),
    ("sim.self_s", "s"),
    ("cluster.executions", "count"),
    ("cluster.executions_user", "count"),
    ("cluster.executions_meter", "count"),
    ("cluster.executions_canary", "count"),
    ("cluster.executions_cold_start", "count"),
    ("cluster.executions_other", "count"),
    ("cluster.executions_meter_frac", "fraction"),
    ("cluster.timer_arms_per_execution", "ratio"),
    ("cluster.self_s", "s"),
    ("serverless.invocations", "count"),
    ("serverless.cold_start_frac", "fraction"),
    ("serverless.prewarms", "count"),
    ("serverless.peak_queue_depth", "count"),
    ("serverless.self_s", "s"),
    ("iaas.completions", "count"),
    ("iaas.deploys", "count"),
    ("iaas.rejected_frac", "fraction"),
    ("iaas.peak_queue_depth", "count"),
    ("iaas.self_s", "s"),
    ("core.surface_s", "s"),
    ("core.surface_builds", "count"),
    ("core.decisions", "count"),
    ("core.switches", "count"),
    ("core.switch_aborts", "count"),
    ("core.refits", "count"),
    ("core.invariant_checks", "count"),
    ("core.self_s", "s"),
    ("telemetry.completions_recorded", "count"),
    ("telemetry.us_per_completion", "us"),
    ("telemetry.self_s", "s"),
    ("workloads.queries_generated", "count"),
    ("workloads.self_s", "s"),
    ("overload.admissions", "count"),
    ("overload.rejections", "count"),
    ("overload.admit_frac", "fraction"),
    ("overload.breaker_trips", "count"),
    ("overload.self_s", "s"),
    ("faults.injected", "count"),
    ("faults.self_s", "s"),
    ("experiments.result_s", "s"),
    ("experiments.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.accounted_frac", "fraction"),
    ("trace.overhead_s", "s"),
)

#: a full workload run is repeated at least this often per invocation, so
#: every invocation also checks that one seed reproduces its outputs
MIN_RUNS = 2
#: host seconds of set-up-only runs made before each full run.  The host's
#: speed swings by up to 2x over a few seconds, which a 50 ms set-up feels
#: in full; one round's mean spans that, and setup_s is the rounds' median.
SETUP_SLICE = 1.0

GOLDEN_DAY = 3600.0
FLEET_SERVICES = 100
FLEET_DAILY_QUERIES = 5e6
FLEET_DAY = 300.0
FLEET_COMPOSITION_SEED = 0
#: member runtime seeds are spread this far apart per benchmark seed
#: (fleet_scenarios itself spaces members 1_000_003 apart)
_SEED_STRIDE = 1_000_000_007
OVERLOAD_DAY = 3600.0
OVERLOAD_LAMBDA = 2.5


class CheckFailed(AssertionError):
    """A simulated output failed one of the benchmark's output checks."""


def pin_environment() -> None:
    """One worker and no run cache, whatever the environment asked for.

    The workloads pass ``workers=1`` and ``cache=False`` explicitly as
    well; pinning the environment covers anything that falls back to it.
    """
    os.environ[executor.WORKERS_ENV_VAR] = "1"
    os.environ[CACHE_ENV_VAR] = "off"
    executor.configure(workers=1, cache=None)


# -- workloads ---------------------------------------------------------------------


def golden_day(seed: int, day: float = GOLDEN_DAY) -> RunResult:
    """The paper's §VII matmul run with its co-tenants; no overload, no faults."""
    scenario = default_scenario("matmul", day=day, seed=seed)
    scenario = replace(scenario, reservoir=sized_reservoir(scenario.trace, scenario.duration))
    return runner.run_amoeba(scenario)


@contextmanager
def _fixed_fleet() -> Iterator[None]:
    """Make ``fleet_sweep(seed=s)`` run one fleet, with ``s`` moving only its runtimes' seeds.

    ``fleet_sweep`` draws a different fleet for every seed, and the fleet's
    bill then varies by ~25 % from seed to seed with its composition alone.
    The benchmark keeps the :data:`FLEET_COMPOSITION_SEED` fleet and lets
    the seed move each member's runtime seed (arrivals, service times,
    meters); seed 0 is exactly ``fleet_sweep(seed=0)``.
    """
    original = fleet_module.fleet_scenarios

    def fleet_scenarios(services, daily_queries, day, seed):
        pairs = original(services, daily_queries=daily_queries, day=day, seed=FLEET_COMPOSITION_SEED)
        return tuple((svc, replace(sc, seed=sc.seed + seed * _SEED_STRIDE)) for svc, sc in pairs)

    fleet_module.fleet_scenarios = fleet_scenarios
    try:
        yield
    finally:
        fleet_module.fleet_scenarios = original


def fleet_100(seed: int, services: int = FLEET_SERVICES, day: float = FLEET_DAY):
    """A heterogeneous fleet of small isolated runtimes, run serially."""
    with _fixed_fleet():
        return fleet_module.fleet_sweep(
            services=services,
            daily_queries=FLEET_DAILY_QUERIES,
            day=day,
            seed=seed,
            workers=1,
            cache=False,
        )


def overload_chaos(seed: int, day: float = OVERLOAD_DAY) -> RunResult:
    """Matmul at 2.5x its nominal peak under the default overload policy and chaos plan."""
    return runner.run_amoeba(
        overload_scenario(
            "matmul", lambda_factor=OVERLOAD_LAMBDA, policy=OverloadPolicy(), day=day, seed=seed
        )
    )


WORKLOADS: Dict[str, Callable[..., object]] = {
    "golden-day": golden_day,
    "fleet-100": fleet_100,
    "overload-chaos": overload_chaos,
}


# -- the probe ---------------------------------------------------------------------


@dataclass
class RuntimeRecord:
    """Host timestamps and outputs of one ``run_amoeba`` call."""

    scenario: Scenario
    #: ``run_amoeba`` entry, ``AmoebaRuntime.run`` entry and return
    #: (``time.perf_counter`` seconds)
    t_enter: float
    t_run: float = math.nan
    t_exit: float = math.nan
    result: Optional[RunResult] = None


def runtime_counts(rt: AmoebaRuntime) -> Counter:
    """Deterministic work counts of one finished runtime, from public state."""
    c: Counter = Counter()
    pool = rt.serverless.pool
    managed = list(rt.services.values())
    users = [(s.metrics, s.loadgen, s.overload) for s in managed] + [
        (b.metrics, b.loadgen, b.overload) for b in rt.background.values()
    ]
    user_names = list(rt.services) + list(rt.background)
    states = [pool.state(name) for name in pool.registered()]
    machines = [rt.serverless.machine] + [s.iaas.machine for s in managed]

    c["sim.events"] = rt.env.scheduled_total
    c["cluster.executions"] = sum(m.completed for m in machines)
    c["cluster.timer_arms"] = sum(m.timer_arms for m in machines)
    user_done = sum(metrics.completed for metrics, _, _ in users)
    meter_done = sum(pool.state(name).completions for name in AXIS_METERS)
    user_platform_done = sum(pool.state(name).completions for name in user_names) + sum(
        s.iaas.completions for s in managed
    )
    c["cluster.executions_user"] = user_done
    c["cluster.executions_meter"] = meter_done
    c["cluster.executions_canary"] = user_platform_done - user_done
    c["cluster.executions_cold_start"] = sum(fs.cold_starts for fs in states)
    c["cluster.executions_other"] = c["cluster.executions"] - (
        user_platform_done + meter_done + c["cluster.executions_cold_start"]
    )

    c["serverless.invocations"] = sum(fs.completions for fs in states)
    c["serverless.peak_queue_depth"] = max(fs.peak_queue_depth for fs in states)

    iaas = [s.iaas for s in managed]
    c["iaas.completions"] = sum(i.completions for i in iaas)
    c["iaas.rejected"] = sum(i.rejected + i.shed for i in iaas)
    c["iaas.attempts"] = sum(i.completions + i.rejected + i.shed + i.in_flight for i in iaas)
    c["iaas.peak_queue_depth"] = max((i.peak_queue_depth for i in iaas), default=0)

    c["core.decisions"] = sum(len(s.controller.decisions) for s in managed)
    c["core.switches"] = sum(len(s.engine.switch_events) for s in managed)
    c["core.switch_aborts"] = sum(len(s.engine.switch_aborts) for s in managed)
    c["core.refits"] = sum(rt.monitor.refit_count(name) for name in user_names)
    c["core.invariant_checks"] = rt.invariants.checks

    c["telemetry.completions_recorded"] = c["serverless.invocations"] + c["iaas.completions"]
    c["workloads.queries_generated"] = sum(
        gen.generated for _, gen, _ in users if gen is not None
    )
    for _, gen, gov in users:
        if gov is None or gen is None:
            continue
        at_arrival = gov.rejections["admission"] + gov.rejections["breaker"]
        c["overload.offered"] += gen.generated
        c["overload.admissions"] += gen.generated - at_arrival
        c["overload.rejections"] += gov.total_rejections
        c["overload.breaker_trips"] += gov.breaker.trips if gov.breaker is not None else 0
    c["faults.injected"] = rt.faults.stats.total_injected if rt.faults is not None else 0
    return c


class Probe:
    """Wraps public entry points for one workload run and keeps what they saw.

    With ``dry=True`` every ``AmoebaRuntime.run`` returns at once, so the
    workload performs its whole set-up and result assembly but simulates
    nothing: the set-up-only runs behind a steady ``setup_s``.
    """

    def __init__(self, dry: bool = False) -> None:
        self.dry = dry
        self.records: List[RuntimeRecord] = []
        self.counts: Counter = Counter()
        self.surface_s = 0.0

    def _add_counts(self, counts: Counter) -> None:
        for key, value in counts.items():
            if key in _PEAK_COUNTS:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        """Install the wrappers; the originals are restored on exit."""
        orig_run_amoeba = runner.run_amoeba
        orig_run = AmoebaRuntime.run
        orig_surfaces = core_runtime.build_surface_set
        orig_prewarm = ContainerPool.prewarm
        orig_deploy = IaaSService.deploy
        probe = self

        def run_amoeba(scenario, *args, **kwargs):
            record = RuntimeRecord(scenario=scenario, t_enter=time.perf_counter())
            probe.records.append(record)
            record.result = orig_run_amoeba(scenario, *args, **kwargs)
            return record.result

        def run(rt, until):
            record = probe.records[-1]
            record.t_run = time.perf_counter()
            if not probe.dry:
                orig_run(rt, until)
            record.t_exit = time.perf_counter()
            probe._add_counts(runtime_counts(rt))

        def build_surface_set(*args, **kwargs):
            t0 = time.perf_counter()
            surfaces = orig_surfaces(*args, **kwargs)
            probe.surface_s += time.perf_counter() - t0
            probe.counts["core.surface_builds"] += 1
            return surfaces

        def prewarm(pool, name, count):
            fs = pool.state(name)
            before = fs.cold_starts
            ack = orig_prewarm(pool, name, count)
            probe.counts["serverless.prewarms"] += fs.cold_starts - before
            return ack

        def deploy(service, *args, **kwargs):
            probe.counts["iaas.deploys"] += 1
            return orig_deploy(service, *args, **kwargs)

        runner.run_amoeba = executor.run_amoeba = run_amoeba
        AmoebaRuntime.run = run
        core_runtime.build_surface_set = build_surface_set
        ContainerPool.prewarm = prewarm
        IaaSService.deploy = deploy
        try:
            yield self
        finally:
            runner.run_amoeba = executor.run_amoeba = orig_run_amoeba
            AmoebaRuntime.run = orig_run
            core_runtime.build_surface_set = orig_surfaces
            ContainerPool.prewarm = orig_prewarm
            IaaSService.deploy = orig_deploy


# -- one run of a workload -----------------------------------------------------------


@dataclass
class Run:
    """Host timings, modelled outputs and work counts of one workload run."""

    wall_s: float
    setup_s: float
    loop_s: float
    result_s: float
    surface_s: float
    user_completed: int
    modelled: Dict[str, float]
    digest: str
    counts: Dict[str, int]
    self_s: Dict[str, float] = field(default_factory=dict)


def _timings(probe: Probe, t_start: float, t_end: float) -> Tuple[float, float, float, float]:
    """(wall, set-up, event loop, result assembly) seconds of one run."""
    records = probe.records
    if not records:
        raise CheckFailed("the workload started no Amoeba runtime")
    for r in records:
        if math.isnan(r.t_run):
            raise CheckFailed(f"runtime for {r.scenario.foreground.name} never ran")
    wall = t_end - t_start
    setup = (records[0].t_enter - t_start) + sum(r.t_run - r.t_enter for r in records)
    loop = sum(r.t_exit - r.t_run for r in records)
    return wall, setup, loop, wall - setup - loop


def _digest(records: List[RuntimeRecord]) -> str:
    """sha256 over every service's completed, violations, failed, p95 and usage."""
    h = hashlib.sha256()
    for r in records:
        assert r.result is not None
        for name in sorted(r.result.services):
            sr = r.result.services[name]
            m = sr.metrics
            p95 = m.latency_percentile(95.0) if m.completed else 0.0
            fields = (
                name,
                str(m.completed),
                str(m.violations),
                str(m.failed),
                float(p95).hex(),
                float(sr.usage.cpu_core_seconds).hex(),
                float(sr.usage.memory_mb_seconds).hex(),
            )
            h.update("|".join(fields).encode() + b"\n")
    return h.hexdigest()


def _modelled(records: List[RuntimeRecord], offered: int) -> Dict[str, float]:
    """The modelled end-to-end metrics; exact p95 or a CheckFailed.

    ``p95_over_qos`` is the 95th percentile of latency / QoS target over
    every completed query of the managed services: the foreground's own
    p95 / QoS for a single-service run, pooled over the members for the
    fleet (whose worst member swings with the seed's fleet composition).
    """
    late = settled = failed = 0
    ratios = []
    cpu = mem = cost = 0.0
    for r in records:
        assert r.result is not None
        fg = r.result.foreground(r.scenario)
        m = fg.metrics
        if not m.latency_sample_exact:
            n, cap = m.latency_sample_coverage
            raise CheckFailed(f"{m.service}: p95 would be a subsample ({n} latencies, reservoir {cap})")
        ratios.append(m.latencies.values() / m.qos_target)
        late += m.violations + m.failed
        settled += m.completed + m.failed
        cpu += fg.usage.cpu_core_seconds
        mem += fg.usage.memory_mb_seconds / 1024.0
        cost += fg.cost().total
        failed += sum(sr.metrics.failed for sr in r.result.services.values())
    if settled == 0 or offered == 0:
        raise CheckFailed("no user query was offered or settled")
    return {
        "qos_met_frac": 1.0 - late / settled,
        "p95_over_qos": float(np.percentile(np.concatenate(ratios), 95.0)),
        "served_frac": 1.0 - failed / offered,
        "cpu_core_s": cpu,
        "mem_gb_s": mem,
        "cost_usd": cost,
    }


def _check_outputs(
    workload: str, value: object, records: List[RuntimeRecord], modelled: Dict[str, float]
) -> None:
    """Workload-specific output checks (beyond the invariant monitor's)."""
    if workload == "golden-day" and modelled["p95_over_qos"] > 1.0:
        raise CheckFailed(
            f"golden-day foreground p95 is {modelled['p95_over_qos']:.4f}x its QoS target (> 1)"
        )
    if workload == "fleet-100":
        extras = value.extras  # type: ignore[attr-defined]
        if len(records) != extras["services"]:
            raise CheckFailed(f"fleet ran {len(records)} runtimes for {extras['services']} services")
        completed = sum(
            r.result.foreground(r.scenario).metrics.completed  # type: ignore[union-attr]
            for r in records
        )
        if completed != extras["total_completed"]:
            raise CheckFailed(
                f"fleet report says {extras['total_completed']} completed, runs say {completed}"
            )
    for name, v in modelled.items():
        if not (math.isfinite(v) and v > 0.0):
            raise CheckFailed(f"{name} = {v!r} is not a positive finite number")


def run_once(workload: str, seed: int, profile=None, dry: bool = False, **size) -> Run:
    """One workload run under a fresh :class:`Probe` (optionally profiled).

    Garbage left by earlier runs is collected first, outside the timed
    region, so it neither lands in this run's time nor lifts its memory peak.
    """
    fn = WORKLOADS[workload]
    probe = Probe(dry=dry)
    gc.collect()
    with probe.installed():
        t_start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            value = fn(seed, **size)
        finally:
            if profile is not None:
                profile.disable()
        t_end = time.perf_counter()
    wall, setup, loop, result_s = _timings(probe, t_start, t_end)
    counts = {key: int(probe.counts[key]) for key in COUNTS}
    if dry:
        return Run(wall, setup, loop, result_s, probe.surface_s, 0, {}, "", counts)
    records = probe.records
    user_completed = sum(
        sr.metrics.completed for r in records for sr in r.result.services.values()  # type: ignore[union-attr]
    )
    modelled = _modelled(records, counts["workloads.queries_generated"])
    _check_outputs(workload, value, records, modelled)
    return Run(
        wall_s=wall,
        setup_s=setup,
        loop_s=loop,
        result_s=result_s,
        surface_s=probe.surface_s,
        user_completed=user_completed,
        modelled=modelled,
        digest=_digest(records),
        counts=counts,
    )


def _check_repeat(first: Run, other: Run, what: str) -> None:
    """``other`` must reproduce ``first``'s modelled outputs and work counts exactly."""
    if other.digest != first.digest:
        raise CheckFailed(
            f"{what}: modelled-output digest differs ({first.digest[:12]} vs {other.digest[:12]})"
        )
    if other.modelled != first.modelled:
        raise CheckFailed(f"{what}: modelled metrics differ")
    if other.counts != first.counts:
        diff = {k: (first.counts[k], other.counts[k]) for k in COUNTS if first.counts[k] != other.counts[k]}
        raise CheckFailed(f"{what}: deterministic counts differ: {diff}")


# -- a whole invocation ----------------------------------------------------------------


@dataclass
class Report:
    """What one benchmark invocation measured."""

    metrics: Dict[str, Tuple[float, str]]
    runs: List[Run]
    setup_samples: List[float]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_round(workload: str, seed: int, **size) -> float:
    """Mean set-up time of set-up-only runs made for :data:`SETUP_SLICE` seconds."""
    samples: List[float] = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < SETUP_SLICE:
        samples.append(run_once(workload, seed, dry=True, **size).setup_s)
    return statistics.fmean(samples)


def measure(workload: str, seed: int, seconds: float, **size) -> Report:
    """End-to-end metrics of ``workload``: medians over repeated runs of one seed.

    Rounds of set-up-only runs alternate with full runs until ``seconds``
    have passed, with at least :data:`MIN_RUNS` full runs, each checked
    against the first.  The first round also warms the process.
    """
    setups: List[float] = []
    runs: List[Run] = []
    t0 = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        setups.append(_setup_round(workload, seed, **size))
        run = run_once(workload, seed, **size)
        if runs:
            _check_repeat(runs[0], run, f"run {len(runs) + 1} of seed {seed}")
        runs.append(run)
    values: Dict[str, float] = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups),
        "sim_qps": statistics.median(r.user_completed / r.loop_s for r in runs),
        "peak_rss_mb": peak_rss_mb(),
        **runs[0].modelled,
    }
    return Report({name: (values[name], unit) for name, unit in END_TO_END}, runs, setups)


def measure_layers(workload: str, seed: int, profile=None, import_s: float = 0.0, **size) -> Report:
    """Per-layer metrics: one untraced run, then one profiled run of the same seed.

    The profiled run must reproduce the untraced run's modelled outputs
    and work counts exactly; its per-package self time gives ``<layer>.self_s``.
    ``profile`` may already hold the simulator's import, which took
    ``import_s`` seconds; the traced time then covers import and run, so a
    layer the workload never calls still shows the time its import took.
    """
    plain = run_once(workload, seed, **size)
    profile = profile if profile is not None else cProfile.Profile()
    traced = run_once(workload, seed, profile=profile, **size)
    _check_repeat(plain, traced, "traced run")
    self_s = layers.self_times(profile)
    traced.self_s = self_s
    c = traced.counts
    executions = c["cluster.executions"]
    completions = c["telemetry.completions_recorded"]
    values: Dict[str, float] = {name: c[name] for name in COUNTS}
    values.update(
        {
            "sim.events_per_query": c["sim.events"] / plain.user_completed,
            "cluster.executions_meter_frac": c["cluster.executions_meter"] / executions,
            "cluster.timer_arms_per_execution": c["cluster.timer_arms"] / executions,
            "serverless.cold_start_frac": c["cluster.executions_cold_start"] / c["serverless.invocations"],
            "iaas.rejected_frac": c["iaas.rejected"] / c["iaas.attempts"],
            "core.surface_s": plain.surface_s,
            "telemetry.us_per_completion": 1e6 * self_s["telemetry"] / completions,
            "overload.admit_frac": (
                c["overload.admissions"] / c["overload.offered"] if c["overload.offered"] else 1.0
            ),
            "experiments.result_s": plain.result_s,
            "trace.wall_s": import_s + traced.wall_s,
            "trace.accounted_frac": sum(self_s.values()) / (import_s + traced.wall_s),
            "trace.overhead_s": traced.wall_s - plain.wall_s,
        }
    )
    for layer, seconds in self_s.items():
        values[f"{layer}.self_s"] = seconds
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return Report(metrics, [plain, traced], [plain.setup_s])

"""Derived measurements used by the figure regenerators.

* peak-load search (Fig. 3): the largest constant arrival rate a
  deployment sustains while keeping its r-ile latency within QoS, by
  bisection over short constant-rate simulations;
* real switch-point enumeration (Fig. 15): the same search run on the
  *shared* serverless platform with the scenario's background services
  held at a fixed load — the paper's λ_real;
* CDF extraction helpers for Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import ContentionConfig, DemandVector, NodeSpec
from repro.iaas import IaaSPlatform
from repro.serverless import ServerlessConfig, ServerlessPlatform
from repro.sim import Environment, RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads import ConstantTrace, LoadGenerator, MicroserviceSpec

__all__ = [
    "FaultSummary",
    "OverloadSummary",
    "latency_cdf",
    "peak_load_iaas",
    "peak_load_search",
    "peak_load_serverless",
    "resample_zoh",
]


def resample_zoh(
    timelines: Sequence[Tuple[np.ndarray, np.ndarray]], grid: np.ndarray
) -> np.ndarray:
    """Sum of step timelines resampled (zero-order hold) onto ``grid``.

    Each timeline is a ``(times, values)`` pair recording a step function
    (the decimated :class:`~repro.sim.stats.TimeSeries` ledgers); the
    value at grid point ``g`` is the last recorded value at or before
    ``g``, or 0 before the first sample.  Shared by the
    :class:`~repro.experiments.runner.ServiceResult` usage accessors and
    any figure that projects occupation timelines onto a common grid.
    """
    total = np.zeros(len(grid))
    for t, v in timelines:
        if len(t) == 0:
            continue
        idx = np.searchsorted(t, grid, side="right") - 1
        total += np.where(idx >= 0, v[np.clip(idx, 0, len(v) - 1)], 0.0)
    return total


@dataclass(frozen=True)
class FaultSummary:
    """Fault-layer outcome of one run (all zero on a fault-free run).

    ``injected`` is the raw :class:`~repro.faults.injector.FaultStats`
    counter dict, including the crash-retry resubmissions
    (``query_retries``) and retry-exhausted drops (``queries_dropped``)
    across all services; the rest are the degradation-policy responses
    the chaos report reads: how often the runtime aborted, force-released
    or fell back to safe mode instead of wedging.  Per-service drop,
    retry and preemption counts live in each service's
    ``ServiceMetrics.counters``.
    """

    #: raw injection counters (FaultStats.as_dict())
    injected: Dict[str, int] = field(default_factory=dict)
    #: every primary injection (retries/drops are consequences)
    total_injected: int = 0
    #: (time, target mode value, reason) for every aborted switch
    switch_aborts: Tuple[Tuple[float, str, str], ...] = ()
    #: switches that actually flipped the route
    switches_completed: int = 0
    #: stuck drains the engine watchdog force-released
    drain_force_releases: int = 0
    #: controller periods spent in stale-telemetry safe mode
    safe_mode_periods: int = 0
    #: emergency switch-ins taken in reaction to a preemption notice
    preemption_switches: int = 0


@dataclass(frozen=True)
class OverloadSummary:
    """Overload-layer outcome of one run (foreground service).

    Present on a :class:`~repro.experiments.runner.RunResult` whenever a
    policy — even a disabled one — was attached to the scenario.  The
    foreground's drops, retries and preemptions are its
    ``ServiceMetrics.counters``; the breaker fields expose the
    trip/half-open/close lifecycle for the telemetry-visibility
    acceptance check.
    """

    #: whether the attached policy was actually enabled
    policy_enabled: bool = False
    #: governor-side rejections by reason, both platforms combined
    rejections: Dict[str, int] = field(default_factory=dict)
    #: queries the frontend/dispatch rejected + queues shed (foreground)
    total_rejections: int = 0
    #: breaker lifecycle counters
    breaker_trips: int = 0
    breaker_reopens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: terminal breaker state value ("closed"/"open"/"half_open"/"disabled")
    breaker_state: str = "disabled"
    #: every breaker edge as (time, new state value)
    breaker_transitions: Tuple[Tuple[float, str], ...] = ()
    #: exact queue-depth high-water marks (foreground, per platform)
    peak_queue_depth_serverless: int = 0
    peak_queue_depth_iaas: int = 0
    #: controller periods spent under brownout (foreground)
    brownout_periods: int = 0
    #: controller periods on which the flash-crowd detector tripped
    surge_periods: int = 0


def latency_cdf(
    latencies: np.ndarray, qos_target: float, grid_points: int = 200, x_max: float = 2.5
) -> Tuple[np.ndarray, np.ndarray]:
    """(x, F(x)) with x = latency normalized to the QoS target (Fig. 10)."""
    if qos_target <= 0:
        raise ValueError("qos_target must be positive")
    lat = np.sort(np.asarray(latencies, dtype=float)) / qos_target
    x = np.linspace(0.0, x_max, grid_points)
    f = np.searchsorted(lat, x, side="right") / max(lat.size, 1)
    return x, f


def _probe_ok(
    build_and_run: Callable[[float], ServiceMetrics],
    rate: float,
    qos_target: float,
    r_ile: float,
) -> bool:
    metrics = build_and_run(rate)
    if metrics.completed < 50:
        return False
    if not metrics.latency_sample_exact:
        # the gate treats this percentile as exact; a silently-degraded
        # reservoir estimate here would make the search irreproducible
        # across reservoir sizes
        raise ValueError(
            f"{metrics.service}: QoS gate needs the exact percentile but the "
            f"latency reservoir overflowed ({metrics.latency_sample_coverage[0]} "
            f"completions > capacity {metrics.latency_sample_coverage[1]}); "
            "size the scenario reservoir above the expected completion count"
        )
    return metrics.latency_percentile(100 * r_ile) <= qos_target


def peak_load_search(
    build_and_run: Callable[[float], ServiceMetrics],
    qos_target: float,
    lo: float = 0.5,
    hi: float = 512.0,
    r_ile: float = 0.95,
    iterations: int = 9,
) -> float:
    """Largest sustained rate meeting the QoS, by geometric + binary search.

    ``build_and_run(rate)`` must run a fresh deployment at constant
    ``rate`` and return its metrics.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    # grow lo to a failing hi
    if not _probe_ok(build_and_run, lo, qos_target, r_ile):
        return 0.0
    rate = lo
    while rate < hi and _probe_ok(build_and_run, rate * 2, qos_target, r_ile):
        rate *= 2
    good, bad = rate, min(rate * 2, hi)
    for _ in range(iterations):
        mid = 0.5 * (good + bad)
        if _probe_ok(build_and_run, mid, qos_target, r_ile):
            good = mid
        else:
            bad = mid
    return good


def _probe_reservoir(rate: float, duration: float) -> int:
    """Reservoir capacity guaranteed to hold every probe completion.

    The peak-load gate reads an *exact* percentile (``_probe_ok`` raises
    otherwise), so probes size the reservoir from the offered work with
    double headroom over the Poisson mean rather than trusting the 20k
    default.
    """
    return max(20_000, int(2.0 * rate * duration) + 1000)


def peak_load_iaas(
    spec: MicroserviceSpec,
    sized_for: float,
    duration: float = 400.0,
    seed: int = 5,
    contention: Optional[ContentionConfig] = None,
) -> float:
    """Peak sustainable load of a just-enough IaaS rental sized for ``sized_for``."""

    def build_and_run(rate: float) -> ServiceMetrics:
        env = Environment()
        rng = RngRegistry(seed=seed)
        platform = IaaSPlatform(env, rng, contention=contention)
        metrics = ServiceMetrics(spec.name, spec.qos_target, reservoir=_probe_reservoir(rate, duration))
        platform.deploy(spec, peak_rate=sized_for, metrics=metrics)
        LoadGenerator(env, spec.name, ConstantTrace(rate), platform.invoke, rng)
        env.run(until=duration)
        return metrics

    return peak_load_search(build_and_run, spec.qos_target)


def peak_load_serverless(
    spec: MicroserviceSpec,
    limit: int,
    duration: float = 400.0,
    seed: int = 5,
    cfg: Optional[ServerlessConfig] = None,
    contention: Optional[ContentionConfig] = None,
    background: Sequence[Tuple[MicroserviceSpec, float, int]] = (),
    warmup: float = 60.0,
    node: Optional[NodeSpec] = None,
    ambient_pressures: Optional[Tuple[float, float, float]] = None,
) -> float:
    """Peak sustainable load on the serverless platform with ``limit`` containers.

    ``background`` is a list of (spec, constant rate, limit) co-tenants
    and ``ambient_pressures`` a standing per-axis pressure — both used by
    the Fig. 15 λ_real enumeration; empty/None for Fig. 3's clean
    same-resources comparison.  ``node`` confines the platform to a
    specific hardware slice (Fig. 3's "same amount of resources").
    """
    if node is not None and cfg is None:
        base = ServerlessConfig()
        cfg = replace(base, pool_memory_mb=min(base.pool_memory_mb, node.memory_mb))

    def build_and_run(rate: float) -> ServiceMetrics:
        env = Environment()
        rng = RngRegistry(seed=seed)
        platform = ServerlessPlatform(env, rng, node=node, config=cfg, contention=contention)
        if ambient_pressures is not None:
            caps = platform.machine.capacity
            platform.machine.inject_background(
                DemandVector(
                    cpu=ambient_pressures[0] * caps[0],
                    io_mbps=ambient_pressures[1] * caps[1],
                    net_mbps=ambient_pressures[2] * caps[2],
                )
            )
        for bg_spec, bg_rate, bg_limit in background:
            bg_metrics = ServiceMetrics(bg_spec.name, bg_spec.qos_target)
            platform.register(bg_spec, metrics=bg_metrics, limit=bg_limit)
            LoadGenerator(env, bg_spec.name, ConstantTrace(bg_rate), platform.invoke, rng)
        metrics = ServiceMetrics(
            spec.name, spec.qos_target, reservoir=_probe_reservoir(rate, duration), seed=seed
        )
        platform.register(spec, metrics=metrics, limit=limit)
        # pre-warm the allowance so the probe measures steady state, not
        # the cold-start transient
        platform.prewarm(spec.name, limit)
        LoadGenerator(env, spec.name, ConstantTrace(rate), platform.invoke, rng)
        env.run(until=warmup)
        steady = ServiceMetrics(spec.name, spec.qos_target, seed=seed)
        platform.pool.state(spec.name).metrics = steady
        env.run(until=duration)
        return steady

    return peak_load_search(build_and_run, spec.qos_target)

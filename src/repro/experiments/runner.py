"""End-to-end scenario runs for the three systems under comparison.

``run_amoeba``     the full runtime (or its NoM / NoP / no-guard variants)
``run_nameko``     pure IaaS: just-enough rental held for the whole run
``run_openwhisk``  pure serverless: everything on the shared pool

All three return a :class:`RunResult` holding, per service, the shared
telemetry plus integrated vendor-side usage and the timelines the figure
regenerators need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.pricing import CostBreakdown, PricingModel
    from repro.graph import GraphSummary
    from repro.serverless import ServerlessConfig

from repro.cluster import UsageSample
from repro.core import AmoebaConfig, AmoebaRuntime
from repro.core.controller import ControllerDecision
from repro.iaas import IaaSPlatform
from repro.serverless import ServerlessPlatform
from repro.sim import Environment, RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads import AmbientTenants, LoadGenerator, MicroserviceSpec
from repro.experiments.metrics import FaultSummary, OverloadSummary, resample_zoh
from repro.experiments.scenarios import Scenario

__all__ = ["RunResult", "ServiceResult", "run_amoeba", "run_nameko", "run_openwhisk"]


@dataclass
class ServiceResult:
    """Per-service outcome of one run."""

    spec: MicroserviceSpec
    metrics: ServiceMetrics
    usage: UsageSample
    #: decimated (t, cores) and (t, MB) occupation timelines, one pair per
    #: contributing ledger (IaaS rental and/or serverless containers)
    cpu_timelines: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    mem_timelines: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    #: deploy-mode history [(t, "iaas"/"serverless")], Amoeba only
    mode_timeline: List[Tuple[float, str]] = field(default_factory=list)
    #: accepted switches [(t, direction, load)], Amoeba only
    switch_events: List[Tuple[float, str, float]] = field(default_factory=list)
    #: controller log, Amoeba only
    decisions: List[ControllerDecision] = field(default_factory=list)
    #: split usage for the maintainer-cost extension (None when that side
    #: was never used by this system)
    usage_iaas: Optional[UsageSample] = None
    usage_serverless: Optional[UsageSample] = None
    #: spot-share rental usage, billed at the discounted spot rate (None
    #: when the scenario rented no spot capacity)
    usage_iaas_spot: Optional[UsageSample] = None
    serverless_invocations: int = 0
    serverless_busy_seconds: float = 0.0
    container_memory_mb: float = 256.0
    #: decimated (t, depth) queue-depth timelines, one pair per platform
    #: that queued this service (pool FIFO and/or IaaS worker queue)
    queue_depth_timelines: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def cost(self, pricing: Optional["PricingModel"] = None) -> "CostBreakdown":
        """Maintainer-side bill for this service under this system."""
        from repro.cluster.pricing import CostBreakdown, PricingModel

        pricing = pricing if pricing is not None else PricingModel()
        iaas = pricing.iaas_cost(self.usage_iaas) if self.usage_iaas is not None else 0.0
        spot = (
            pricing.iaas_spot_cost(self.usage_iaas_spot)
            if self.usage_iaas_spot is not None
            else 0.0
        )
        if self.serverless_invocations > 0:
            mean_duration = self.serverless_busy_seconds / self.serverless_invocations
            sls = pricing.serverless_cost(
                self.serverless_invocations, mean_duration, self.container_memory_mb
            )
        else:
            sls = 0.0
        return CostBreakdown(
            system="", iaas_dollars=iaas, serverless_dollars=sls, iaas_spot_dollars=spot
        )

    def cpu_usage_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Total cores occupied, resampled (zero-order hold) onto ``grid``."""
        return resample_zoh(self.cpu_timelines, grid)

    def mem_usage_on_grid(self, grid: np.ndarray) -> np.ndarray:
        """Total MB occupied, resampled onto ``grid``."""
        return resample_zoh(self.mem_timelines, grid)


@dataclass
class RunResult:
    """Outcome of one full scenario run."""

    system: str
    duration: float
    services: Dict[str, ServiceResult]
    meter_overhead: float = 0.0
    #: per-meter mean CPU overhead (fraction of the node), Amoeba only
    meter_overheads: Dict[str, float] = field(default_factory=dict)
    #: fault-layer outcome, Amoeba only (None when no plan was attached)
    faults: Optional[FaultSummary] = None
    #: overload-layer outcome, Amoeba only (None when no policy attached)
    overload: Optional[OverloadSummary] = None
    #: end-to-end call-graph outcome (graph runs only)
    graph: Optional["GraphSummary"] = None

    def foreground(self, scenario: Scenario) -> ServiceResult:
        """The scenario's foreground service result."""
        return self.services[scenario.foreground.name]


def _scenario_metrics(spec: MicroserviceSpec, scenario: Scenario) -> ServiceMetrics:
    """Per-service metrics honouring the scenario's reservoir sizing."""
    if scenario.reservoir is not None:
        return ServiceMetrics(spec.name, spec.qos_target, reservoir=scenario.reservoir)
    return ServiceMetrics(spec.name, spec.qos_target)


def _ledger_timeline(ledger) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    cpu = (ledger.cpu_timeline.times(), ledger.cpu_timeline.values())
    mem = (ledger.mem_timeline.times(), ledger.mem_timeline.values())
    return cpu, mem


def run_amoeba(
    scenario: Scenario,
    variant: str = "full",
    config: Optional[AmoebaConfig] = None,
    guard: bool = True,
    seed: Optional[int] = None,
) -> RunResult:
    """Run Amoeba (or a variant) on a scenario.

    ``variant``: ``"full"``, ``"nom"`` (no PCA correction, §VII-C) or
    ``"nop"`` (no prewarming, §VII-D).  An explicit ``config`` overrides
    the variant presets.
    """
    if config is None:
        config = AmoebaConfig()
        if variant == "nom":
            config = config.variant_nom()
        elif variant == "nop":
            config = config.variant_nop()
        elif variant != "full":
            raise ValueError(f"unknown variant {variant!r}")
    rt = AmoebaRuntime(
        seed=seed if seed is not None else scenario.seed,
        config=config,
        faults=scenario.faults,
        overload=scenario.overload,
        spot=scenario.spot,
    )
    if scenario.ambient:
        AmbientTenants(rt.env, rt.serverless.machine, dict(scenario.ambient), rt.rng)
    for spec, trace, limit in scenario.background:
        rt.add_background(spec, trace, limit=limit)
    fg = rt.add_service(
        scenario.foreground,
        scenario.trace,
        guard_enabled=guard,
        limit=scenario.limit,
        sizing_rate=scenario.iaas_peak_rate,
        reservoir=scenario.reservoir,
    )
    rt.run(until=scenario.duration)

    services: Dict[str, ServiceResult] = {}
    name = scenario.foreground.name
    iaas_cpu, iaas_mem = _ledger_timeline(fg.iaas.ledger)
    sls_ledger = rt.serverless.function_ledger(name)
    sls_cpu, sls_mem = _ledger_timeline(sls_ledger)
    fg_state = rt.serverless.pool.state(name)
    cpu_timelines = [iaas_cpu, sls_cpu]
    mem_timelines = [iaas_mem, sls_mem]
    spot_ledger = fg.iaas.spot_ledger
    if spot_ledger is not None:
        spot_cpu, spot_mem = _ledger_timeline(spot_ledger)
        cpu_timelines.append(spot_cpu)
        mem_timelines.append(spot_mem)
    services[name] = ServiceResult(
        spec=scenario.foreground,
        metrics=fg.metrics,
        usage=rt.service_usage(name),
        cpu_timelines=cpu_timelines,
        mem_timelines=mem_timelines,
        mode_timeline=[(t, m.value) for t, m in fg.engine.mode_timeline],
        switch_events=[(t, m.value, load) for t, m, load in fg.engine.switch_events],
        decisions=list(fg.controller.decisions),
        usage_iaas=fg.iaas.ledger.snapshot(),
        usage_serverless=sls_ledger.snapshot(),
        usage_iaas_spot=spot_ledger.snapshot() if spot_ledger is not None else None,
        serverless_invocations=fg_state.completions,
        serverless_busy_seconds=fg_state.busy_seconds,
        container_memory_mb=rt.serverless.config.container_memory_mb,
        queue_depth_timelines=[
            (fg_state.queue_depth.times(), fg_state.queue_depth.values()),
            (fg.iaas.queue_depth.times(), fg.iaas.queue_depth.values()),
        ],
    )
    for bg_name, bg in rt.background.items():
        ledger = rt.serverless.function_ledger(bg_name)
        cpu, mem = _ledger_timeline(ledger)
        bg_state = rt.serverless.pool.state(bg_name)
        services[bg_name] = ServiceResult(
            spec=bg.spec,
            metrics=bg.metrics,
            usage=ledger.snapshot(),
            cpu_timelines=[cpu],
            mem_timelines=[mem],
            queue_depth_timelines=[
                (bg_state.queue_depth.times(), bg_state.queue_depth.values())
            ],
        )
    fault_summary: Optional[FaultSummary] = None
    if rt.faults is not None:
        stats = rt.faults.stats
        fault_summary = FaultSummary(
            injected=stats.as_dict(),
            total_injected=stats.total_injected,
            switch_aborts=tuple(
                (t, m.value, reason) for t, m, reason in fg.engine.switch_aborts
            ),
            switches_completed=len(fg.engine.mode_timeline) - 1,
            drain_force_releases=fg.engine.drain_force_releases,
            safe_mode_periods=fg.controller.safe_mode_periods,
            preemption_switches=fg.engine.preemption_switches,
        )
    overload_summary: Optional[OverloadSummary] = None
    if fg.overload is not None:
        gov = fg.overload
        breaker = gov.breaker
        overload_summary = OverloadSummary(
            policy_enabled=gov.policy.enabled,
            rejections=dict(gov.rejections),
            total_rejections=gov.total_rejections,
            breaker_trips=breaker.trips if breaker is not None else 0,
            breaker_reopens=breaker.reopens if breaker is not None else 0,
            breaker_half_opens=breaker.half_opens if breaker is not None else 0,
            breaker_closes=breaker.closes if breaker is not None else 0,
            breaker_state=breaker.state.value if breaker is not None else "disabled",
            breaker_transitions=tuple(breaker.transitions) if breaker is not None else (),
            peak_queue_depth_serverless=fg_state.peak_queue_depth,
            peak_queue_depth_iaas=fg.iaas.peak_queue_depth,
            brownout_periods=fg.controller.brownout_periods,
            surge_periods=fg.controller.surge_periods,
        )
    return RunResult(
        system=f"amoeba-{variant}" if variant != "full" else "amoeba",
        duration=scenario.duration,
        services=services,
        meter_overhead=rt.meter_overhead(),
        meter_overheads=rt.monitor.meter_overheads(),
        faults=fault_summary,
        overload=overload_summary,
    )


def run_nameko(scenario: Scenario, seed: Optional[int] = None) -> RunResult:
    """Pure IaaS baseline: the rental is held for the entire run.

    Background services live on the serverless platform and do not share
    hardware with an IaaS rental, so they are omitted here (they cannot
    affect the foreground's latency or usage).
    """
    env = Environment()
    rng = RngRegistry(seed=seed if seed is not None else scenario.seed)
    platform = IaaSPlatform(env, rng)
    spec = scenario.foreground
    metrics = _scenario_metrics(spec, scenario)
    svc = platform.deploy(spec, peak_rate=scenario.trace.peak_rate, metrics=metrics)
    LoadGenerator(env, spec.name, scenario.trace, platform.invoke, rng)
    env.run(until=scenario.duration)
    cpu, mem = _ledger_timeline(svc.ledger)
    result = ServiceResult(
        spec=spec,
        metrics=metrics,
        usage=svc.ledger.snapshot(),
        cpu_timelines=[cpu],
        mem_timelines=[mem],
        usage_iaas=svc.ledger.snapshot(),
        queue_depth_timelines=[(svc.queue_depth.times(), svc.queue_depth.values())],
    )
    return RunResult(system="nameko", duration=scenario.duration, services={spec.name: result})


def run_openwhisk(
    scenario: Scenario,
    seed: Optional[int] = None,
    config: Optional["ServerlessConfig"] = None,
) -> RunResult:
    """Pure serverless baseline: everything on the shared container pool.

    ``config`` overrides the platform defaults (the keep-alive ablation
    sweeps it); None keeps the standard §VII platform.
    """
    env = Environment()
    rng = RngRegistry(seed=seed if seed is not None else scenario.seed)
    platform = ServerlessPlatform(env, rng, config=config)
    if scenario.ambient:
        AmbientTenants(env, platform.machine, dict(scenario.ambient), rng)
    registry: Dict[str, Tuple[MicroserviceSpec, ServiceMetrics]] = {}

    def add(spec: MicroserviceSpec, trace, limit):
        metrics = _scenario_metrics(spec, scenario)
        platform.register(spec, metrics=metrics, limit=limit)
        LoadGenerator(env, spec.name, trace, platform.invoke, rng)
        registry[spec.name] = (spec, metrics)

    for bg_spec, bg_trace, bg_limit in scenario.background:
        add(bg_spec, bg_trace, bg_limit)
    add(scenario.foreground, scenario.trace, scenario.limit)
    env.run(until=scenario.duration)

    services: Dict[str, ServiceResult] = {}
    for name, (spec, metrics) in registry.items():
        ledger = platform.function_ledger(name)
        cpu, mem = _ledger_timeline(ledger)
        fs = platform.pool.state(name)
        services[name] = ServiceResult(
            spec=spec,
            metrics=metrics,
            usage=ledger.snapshot(),
            cpu_timelines=[cpu],
            mem_timelines=[mem],
            usage_serverless=ledger.snapshot(),
            serverless_invocations=fs.completions,
            serverless_busy_seconds=fs.busy_seconds,
            container_memory_mb=platform.config.container_memory_mb,
            queue_depth_timelines=[(fs.queue_depth.times(), fs.queue_depth.values())],
        )
    return RunResult(system="openwhisk", duration=scenario.duration, services=services)

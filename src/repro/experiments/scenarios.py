"""The paper's evaluation setups (§VII-A), in compressed simulated time.

Each benchmark gets its own run: the benchmark as *foreground* with a
diurnal trace whose peak is "high enough to arise transformation in the
execution engine", plus the three *background* services the paper names
(``float``, ``dd``, ``cloud_stor``) at a lower peak, phase-shifted so the
contention the monitor sees keeps changing.

Two modelling choices tie the scenario constants to the paper:

* **Concurrency threshold.**  §I notes serverless platforms cap a
  tenant's concurrent containers ("the concurrent request threshold …
  restrict[s] the max peak load in the serverless platform").
  :func:`concurrency_threshold` sizes that cap so the uncontended
  serverless ceiling sits at a target fraction (default 80 %) of the
  foreground's peak — which is what makes high load genuinely infeasible
  on serverless and forces the engine to switch, as in Fig. 12.
* **Compressed day.**  Traces replay one full diurnal cycle in 7200
  simulated seconds (a 12× compression).  Controller dynamics depend on
  the load shape and on dwell/sample periods, both of which stay well
  below the compressed day's timescale; EXPERIMENTS.md discusses the
  substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.cluster import SpotSpec
from repro.core.meters import expected_platform_overhead
from repro.sim.queueing import max_arrival_rate
from repro.faults import FaultPlan
from repro.overload import OverloadPolicy
from repro.serverless import ServerlessConfig
from repro.workloads import (
    DiurnalTrace,
    FlashCrowdTrace,
    MicroserviceSpec,
    Trace,
    benchmark,
    benchmark_names,
)

__all__ = [
    "AMBIENT_PEAKS",
    "BACKGROUND_PEAKS",
    "DEFAULT_CHAOS_PLAN",
    "DEFAULT_DAY",
    "PEAK_RATES",
    "SERVERLESS_FRACTIONS",
    "Scenario",
    "ambient_pressure_traces",
    "background_services",
    "chaos_scenario",
    "concurrency_threshold",
    "default_scenario",
    "overload_scenario",
    "sized_reservoir",
    "spot_scenario",
]

#: foreground peak rates (queries/s) per benchmark — "high enough to
#: arise transformation in an execution engine" (§VII-A)
PEAK_RATES: Dict[str, float] = {
    "float": 30.0,
    "matmul": 12.0,
    "linpack": 10.0,
    "dd": 14.0,
    "cloud_stor": 12.0,
}

#: background peaks: "a slight pressure with the diurnal pattern" (§VII-A)
BACKGROUND_PEAKS: Dict[str, float] = {"float": 8.0, "dd": 5.0, "cloud_stor": 4.0}

#: per-benchmark serverless ceiling as a fraction of the foreground peak.
#: Fig. 10 shows pure OpenWhisk holding QoS for float/linpack but
#: violating it for matmul/dd/cloud_stor; the concurrency threshold is
#: what decides which side of that line a service falls on.
SERVERLESS_FRACTIONS: Dict[str, float] = {
    "float": 1.00,
    "matmul": 0.85,
    "linpack": 0.95,
    "dd": 0.80,
    "cloud_stor": 0.75,
}

#: compressed day length in simulated seconds
DEFAULT_DAY = 7200.0


def sized_reservoir(trace: Trace, duration: float, safety: float = 2.0) -> int:
    """Latency-reservoir capacity covering a trace's expected completions.

    ``ServiceMetrics.latency_percentile`` is exact only while the
    reservoir holds every completion; scenarios whose traces offer more
    than the 20k default (overload sweeps, the fleet family) size it from
    the expected query count with ``safety``× Poisson headroom so QoS
    gates never silently degrade to a subsample estimate.
    """
    if duration <= 0 or safety < 1.0:
        raise ValueError("duration must be positive and safety >= 1")
    expected = trace.mean_rate(0.0, duration) * duration
    return max(20_000, int(safety * expected) + 1000)


def concurrency_threshold(
    spec: MicroserviceSpec,
    peak_rate: float,
    fraction: float = 0.80,
    cfg: Optional[ServerlessConfig] = None,
    r: float = 0.95,
) -> int:
    """Container cap making the serverless ceiling ≈ ``fraction``·peak.

    Uses the *uncontended* per-container capacity μ₀ = 1/(exec + α);
    the smallest n whose Eq. 5 admissible rate reaches the target.  The
    search cap of 65536 containers covers fleet members as well as the
    single-service figures.
    """
    if peak_rate <= 0 or not 0.0 < fraction <= 2.0:
        raise ValueError("peak_rate must be positive and fraction in (0, 2]")
    cfg = cfg if cfg is not None else ServerlessConfig()
    mu0 = 1.0 / (spec.exec_time + expected_platform_overhead(spec, cfg))
    target = fraction * peak_rate
    n = 1
    while max_arrival_rate(mu0, n, spec.qos_target, r) < target:
        n += 1
        if n > 65536:
            raise ValueError(f"{spec.name}: threshold search ran away (target {target} qps)")
    return n


def background_services(
    day: float = DEFAULT_DAY, seed: int = 100, cfg: Optional[ServerlessConfig] = None
) -> Tuple[Tuple[MicroserviceSpec, Trace, int], ...]:
    """The three §VII-A background services: (spec, trace, limit) each.

    Renamed ``bg_*`` so a foreground benchmark of the same kind can run
    alongside.  Limits are generous (130 % of their own peak): the paper
    chose background parameters that keep them healthy on serverless.
    """
    cfg = cfg if cfg is not None else ServerlessConfig()
    out = []
    for i, (name, peak) in enumerate(BACKGROUND_PEAKS.items()):
        spec = replace(benchmark(name), name=f"bg_{name}")
        trace = DiurnalTrace(
            peak_rate=peak,
            seed=seed + i,
            phase=(0.15 + 0.3 * i) * day,
            day=day,
            noise_sigma=0.06,
        )
        limit = concurrency_threshold(spec, peak, fraction=1.3, cfg=cfg)
        out.append((spec, trace, limit))
    return tuple(out)


#: peak ambient pressure per axis on the shared node (other tenants)
AMBIENT_PEAKS: Dict[str, float] = {"cpu": 0.70, "io": 0.65, "net": 0.55}


def ambient_pressure_traces(
    day: float = DEFAULT_DAY, seed: int = 300
) -> Tuple[Tuple[str, Trace], ...]:
    """Per-axis diurnal pressure traces for the ambient tenants.

    The ambient tenants' day is *anti-phased* to the foreground's (other
    tenants peak when the benchmark is quiet — the situation that makes
    hybrid deployment worthwhile at all), with the three axes co-peaking
    within a few hours of each other.  Simultaneous multi-axis pressure
    during the foreground's low-load window is exactly where the
    "degradations accumulate" assumption (Amoeba-NoM) overshoots and
    postpones profitable switch-ins (§VII-C / Fig. 14), while the
    per-axis phase spread keeps the dominant contended resource changing
    (§II-D).
    """
    out = []
    for i, (axis, peak) in enumerate(AMBIENT_PEAKS.items()):
        out.append(
            (
                axis,
                DiurnalTrace(
                    peak_rate=peak,
                    low_fraction=0.25,
                    seed=seed + i,
                    phase=(0.52 + 0.1 * i) * day,
                    day=day,
                    noise_sigma=0.08,
                ),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class Scenario:
    """One §VII run: a foreground benchmark plus the background mix."""

    foreground: MicroserviceSpec
    trace: Trace
    limit: int
    background: Tuple[Tuple[MicroserviceSpec, Trace, int], ...]
    duration: float
    seed: int
    #: per-axis ambient-pressure traces for the shared node's other tenants
    ambient: Tuple[Tuple[str, Trace], ...] = ()
    #: fault-injection plan; None disables the fault layer entirely (a
    #: zero-rate plan is behaviourally identical — see repro.faults)
    faults: Optional[FaultPlan] = None
    #: overload-protection policy; None leaves the layer out entirely (a
    #: disabled policy is behaviourally identical — see repro.overload)
    overload: Optional[OverloadPolicy] = None
    #: rate the IaaS rental is sized for; None = trace.peak_rate.
    #: Overload scenarios pin this to the *nominal* peak while the trace
    #: drives past it, so the excess load is genuinely excess.
    iaas_peak_rate: Optional[float] = None
    #: latency-reservoir capacity per service; None = the ServiceMetrics
    #: default (20000).  QoS gates read exact percentiles only while the
    #: completion count stays within this capacity
    #: (``ServiceMetrics.latency_sample_exact``), so scenarios expecting
    #: more completions — the fleet family sizes this from the trace's
    #: expected query count — must say so here.
    reservoir: Optional[int] = None
    #: spot share of every managed IaaS rental; None keeps the rental
    #: all on-demand (and, with a zero ``vm_preemption_prob``, the run
    #: bit-identical to the pre-spot behaviour)
    spot: Optional[SpotSpec] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.limit < 1:
            raise ValueError(f"limit must be >= 1, got {self.limit}")
        if self.iaas_peak_rate is not None and self.iaas_peak_rate <= 0:
            raise ValueError(f"iaas_peak_rate must be positive, got {self.iaas_peak_rate}")
        if self.reservoir is not None and self.reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {self.reservoir}")

    def mean_ambient_pressures(self) -> Tuple[float, float, float]:
        """Time-averaged ambient pressure per axis over the run."""
        out = {"cpu": 0.0, "io": 0.0, "net": 0.0}
        for axis, trace in self.ambient:
            out[axis] = trace.mean_rate(0.0, self.duration)
        return (out["cpu"], out["io"], out["net"])


def default_scenario(
    name: str,
    day: float = DEFAULT_DAY,
    duration: Optional[float] = None,
    seed: int = 0,
    serverless_fraction: Optional[float] = None,
    cfg: Optional[ServerlessConfig] = None,
    with_background: bool = True,
) -> Scenario:
    """The standard §VII scenario for one benchmark."""
    if name not in benchmark_names():
        raise KeyError(f"unknown benchmark {name!r}")
    cfg = cfg if cfg is not None else ServerlessConfig()
    spec = benchmark(name)
    peak = PEAK_RATES[name]
    fraction = (
        serverless_fraction if serverless_fraction is not None else SERVERLESS_FRACTIONS[name]
    )
    trace = DiurnalTrace(peak_rate=peak, seed=seed + 7, day=day, noise_sigma=0.05)
    limit = concurrency_threshold(spec, peak, fraction=fraction, cfg=cfg)
    background = background_services(day=day, seed=seed + 100, cfg=cfg) if with_background else ()
    ambient = ambient_pressure_traces(day=day, seed=seed + 300) if with_background else ()
    return Scenario(
        foreground=spec,
        trace=trace,
        limit=limit,
        background=background,
        duration=duration if duration is not None else day,
        seed=seed,
        ambient=ambient,
    )


#: the reference fault mix of the chaos scenario: every fault class
#: active at a "bad day on the platform" rate.  The chaos sweep scales
#: this whole plan by a factor (0 = the provably-inert zero plan).
DEFAULT_CHAOS_PLAN = FaultPlan(
    cold_start_failure_prob=0.05,
    container_crash_prob=0.01,
    vm_boot_failure_prob=0.10,
    vm_boot_delay_prob=0.10,
    meter_drop_prob=0.02,
    meter_outage_prob=0.002,
    prewarm_ack_loss_prob=0.15,
    prewarm_ack_delay_prob=0.15,
)


def chaos_scenario(
    name: str = "matmul",
    fault_scale: float = 1.0,
    plan: Optional[FaultPlan] = None,
    day: float = DEFAULT_DAY,
    duration: Optional[float] = None,
    seed: int = 0,
    cfg: Optional[ServerlessConfig] = None,
) -> Scenario:
    """The standard scenario with a scaled fault plan attached.

    ``fault_scale=0`` produces the zero plan, which the determinism gate
    asserts is bit-identical to running with no fault layer at all;
    larger scales sweep the fault pressure for the QoS-delta report.
    """
    base = plan if plan is not None else DEFAULT_CHAOS_PLAN
    scenario = default_scenario(name, day=day, duration=duration, seed=seed, cfg=cfg)
    return replace(scenario, faults=base.scaled(fault_scale))


def overload_scenario(
    name: str = "matmul",
    lambda_factor: float = 2.0,
    policy: Optional[OverloadPolicy] = None,
    fault_scale: float = 1.0,
    day: float = DEFAULT_DAY,
    duration: Optional[float] = None,
    seed: int = 0,
    cfg: Optional[ServerlessConfig] = None,
) -> Scenario:
    """The standard scenario driven past capacity, with faults on.

    The foreground trace's peak is scaled to ``lambda_factor`` times the
    nominal :data:`PEAK_RATES` entry while *both* capacity envelopes stay
    nominal: the container limit keeps its Eq. 5-derived value and the
    IaaS rental is sized for the nominal peak (``iaas_peak_rate``).  At
    ``lambda_factor >= 2`` the offered load therefore exceeds either
    platform's QoS-feasible capacity — the acceptance scenario for the
    overload layer.  ``policy=None`` runs the unprotected baseline.
    """
    if lambda_factor <= 0:
        raise ValueError(f"lambda_factor must be positive, got {lambda_factor}")
    base = default_scenario(name, day=day, duration=duration, seed=seed, cfg=cfg)
    nominal_peak = PEAK_RATES[name]
    trace = DiurnalTrace(
        peak_rate=lambda_factor * nominal_peak, seed=seed + 7, day=day, noise_sigma=0.05
    )
    return replace(
        base,
        trace=trace,
        faults=DEFAULT_CHAOS_PLAN.scaled(fault_scale),
        overload=policy,
        iaas_peak_rate=nominal_peak,
        # deep-overload traces offer well past the 20k default; keep the
        # sweep's reported p95 an exact order statistic
        reservoir=sized_reservoir(trace, duration if duration is not None else day),
    )


def spot_scenario(
    name: str = "matmul",
    spot_fraction: float = 0.5,
    preemption_prob: float = 0.5,
    graceful: bool = True,
    notice_s: float = 120.0,
    spike_magnitude: float = 0.0,
    spike_gap_s: float = 900.0,
    policy: Optional[OverloadPolicy] = None,
    day: float = DEFAULT_DAY,
    duration: Optional[float] = None,
    seed: int = 0,
    cfg: Optional[ServerlessConfig] = None,
) -> Scenario:
    """The standard scenario on a spot-backed rental, optionally spiked.

    ``spot_fraction`` of every managed rental is reclaimable;
    ``preemption_prob`` is the per-check-interval reclamation probability
    (0 is the provably-inert zero plan).  ``graceful=False`` models a
    cloud that reclaims with no notice — the degraded path the drain
    protocol exists to avoid.  ``spike_magnitude`` > 0 layers a seeded
    flash-crowd spike train on the diurnal trace (median extra rate =
    ``spike_magnitude`` × the nominal peak), the stress the controller's
    surge mode absorbs.
    """
    if not 0.0 <= preemption_prob <= 1.0:
        raise ValueError(f"preemption_prob must be in [0, 1], got {preemption_prob}")
    if spike_magnitude < 0:
        raise ValueError(f"spike_magnitude must be >= 0, got {spike_magnitude}")
    base = default_scenario(name, day=day, duration=duration, seed=seed, cfg=cfg)
    span = duration if duration is not None else day
    trace: Trace = base.trace
    if spike_magnitude > 0:
        trace = FlashCrowdTrace(
            base.trace,
            horizon=span,
            mean_gap_s=spike_gap_s,
            magnitude=spike_magnitude * PEAK_RATES[name],
            seed=seed + 900,
        )
    plan = FaultPlan(
        vm_preemption_prob=preemption_prob, preemption_check_interval_s=30.0
    )
    return replace(
        base,
        trace=trace,
        spot=SpotSpec(fraction=spot_fraction, notice_s=notice_s, graceful=graceful),
        faults=plan,
        overload=policy,
        reservoir=sized_reservoir(trace, span),
    )

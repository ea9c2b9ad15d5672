"""Fleet-scale sweep: hundreds of services through the run executor.

The fleet scenario family (DESIGN.md §11) answers the question the
per-benchmark figures cannot: what does Amoeba buy *in aggregate* when a
whole fleet of heterogeneous, phase-offset diurnal services runs under
it?  Each fleet member is an independent seeded scenario, so the sweep
shards perfectly across the :func:`~repro.experiments.executor.run_many`
process pool — results are merged in submission order and the report is
``float.hex``-identical for any worker count.

The per-family rows carry two analytic columns (mean ρ and predicted
p95/QoS at the mean rate, from the log-space Eq. 1–4 implementation in
:mod:`repro.sim.queueing`) next to the observed ones; the fleet
validation tests tighten this comparison on quiescent constant-rate
slices where the M/M/N reference is exact up to service-time shape.

This module also owns the fleet's Eq. 5 *sizing*: the parameter draws
live in :mod:`repro.workloads.fleet` (pure workloads-layer code), and
:func:`generate_fleet` here injects
:func:`~repro.experiments.scenarios.concurrency_threshold` as the
member-sizing hook — the experiments layer is the only place allowed to
see both the workload generator and the platform/queueing stack
(DESIGN.md §12, ARCH001).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.core.meters import expected_platform_overhead
from repro.experiments.executor import RunRequest, run_many
from repro.experiments.report import FigureResult
from repro.experiments.scenarios import Scenario, concurrency_threshold, sized_reservoir
from repro.serverless import ServerlessConfig
from repro.sim.queueing import sojourn_quantile
from repro.workloads.fleet import (
    DEFAULT_DAILY_QUERIES,
    FleetService,
    fleet_daily_queries,
)
from repro.workloads.fleet import generate_fleet as _generate_members
from repro.workloads import MicroserviceSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.cache import RunCache

__all__ = [
    "FLEET_DAY",
    "analytic_service_prediction",
    "fleet_scenarios",
    "fleet_sweep",
    "generate_fleet",
]

#: default compressed-day length for fleet runs: one diurnal cycle in
#: 600 simulated seconds.  Fleet sweeps multiply everything by the fleet
#: size, so they compress harder than the single-service figures.
FLEET_DAY = 600.0


def generate_fleet(
    services: int,
    daily_queries: float = DEFAULT_DAILY_QUERIES,
    day: float = 600.0,
    seed: int = 0,
    cfg: Optional[ServerlessConfig] = None,
) -> Tuple[FleetService, ...]:
    """Deterministic heterogeneous fleet, members sized by Eq. 5.

    The parameter draws are :func:`repro.workloads.fleet.generate_fleet`
    (see its docstring for the determinism contract); this wrapper
    injects :func:`~repro.experiments.scenarios.concurrency_threshold`
    under ``cfg`` as each member's concurrency-cap sizing.
    """
    sized = cfg if cfg is not None else ServerlessConfig()

    def limit_fn(spec: MicroserviceSpec, peak: float, fraction: float) -> int:
        return concurrency_threshold(spec, peak, fraction, sized)

    return _generate_members(
        services, daily_queries=daily_queries, day=day, seed=seed, limit_fn=limit_fn
    )


def analytic_service_prediction(
    svc: FleetService, cfg: Optional[ServerlessConfig] = None, r: float = 0.95
) -> Tuple[float, float]:
    """Steady-state M/M/N reference for one fleet member on serverless.

    Returns ``(rho, p95_sojourn)`` at the service's *mean* arrival rate
    against its concurrency cap, with the uncontended per-container rate
    μ₀ = 1/(exec + α).  ``p95_sojourn`` is ``inf`` when the mean load
    alone saturates the cap (ρ >= 1).  These are references for the
    fleet report's analytic columns and the fleet validation tests — the
    simulator's lognormal service times make M/M/N an approximation (an
    upper bound on the wait tail whenever the service-time CV is below
    exponential's).
    """
    cfg = cfg if cfg is not None else ServerlessConfig()
    mu0 = 1.0 / (svc.spec.exec_time + expected_platform_overhead(svc.spec, cfg))
    rho = svc.mean_rate / (svc.limit * mu0)
    if rho >= 1.0:
        return rho, math.inf
    return rho, sojourn_quantile(r, svc.mean_rate, mu0, svc.limit)


def fleet_scenarios(
    services: int = 100,
    daily_queries: float = DEFAULT_DAILY_QUERIES,
    day: float = FLEET_DAY,
    seed: int = 0,
) -> Tuple[Tuple[FleetService, Scenario], ...]:
    """The fleet plus one independent scenario per member.

    Each member runs alone (no background mix, no ambient tenants): the
    fleet *is* the workload, and independence is what lets the sweep
    shard across processes while staying bit-deterministic.  Runtime
    seeds are spread per member so no two services share RNG streams.
    """
    fleet = generate_fleet(services, daily_queries=daily_queries, day=day, seed=seed)
    out = []
    for svc in fleet:
        scenario = Scenario(
            foreground=svc.spec,
            trace=svc.trace,
            limit=svc.limit,
            background=(),
            duration=day,
            seed=seed + 1_000_003 * (svc.index + 1),
            ambient=(),
            reservoir=sized_reservoir(svc.trace, day),
        )
        out.append((svc, scenario))
    return tuple(out)


def fleet_sweep(
    services: int = 100,
    daily_queries: float = DEFAULT_DAILY_QUERIES,
    day: float = FLEET_DAY,
    seed: int = 0,
    workers: Optional[int] = None,
    cache: Union["RunCache", None, bool] = None,
) -> FigureResult:
    """Run the whole fleet under Amoeba; aggregate per family.

    Reports, per FunctionBench family: observed QoS-violation fraction,
    mean p95/QoS ratio, switch counts, serverless share of invocations
    and the maintainer bill, next to the analytic mean-load utilization
    and predicted p95/QoS columns.  ``workers``/``cache`` default to the
    process-wide executor configuration.
    """
    pairs = fleet_scenarios(services, daily_queries=daily_queries, day=day, seed=seed)
    requests = [RunRequest(system="amoeba", scenario=scenario) for _, scenario in pairs]
    results = run_many(requests, workers=workers, cache=cache)

    per_service: List[Tuple] = []
    families: dict = {}
    for (svc, scenario), result in zip(pairs, results):
        sr = result.foreground(scenario)
        m = sr.metrics
        p95 = m.latency_percentile(95.0) if m.completed else 0.0
        rho, p95_pred = analytic_service_prediction(svc)
        cost = sr.cost().total
        switches = len(sr.switch_events)
        sls_share = sr.serverless_invocations / m.completed if m.completed else 0.0
        per_service.append(
            (
                svc.spec.name,
                svc.family,
                m.completed,
                m.violation_fraction,
                p95,
                svc.spec.qos_target,
                switches,
                sls_share,
                cost,
                rho,
                p95_pred,
            )
        )
        fam = families.setdefault(
            svc.family,
            {
                "services": 0,
                "rate": 0.0,
                "completed": 0,
                "violations": 0,
                "p95_ratio": 0.0,
                "switches": 0,
                "sls_inv": 0,
                "cost": 0.0,
                "rho": 0.0,
                "p95_pred_ratio": 0.0,
                "pred_n": 0,
            },
        )
        fam["services"] += 1
        fam["rate"] += svc.mean_rate
        fam["completed"] += m.completed
        fam["violations"] += m.violations
        fam["p95_ratio"] += p95 / svc.spec.qos_target
        fam["switches"] += switches
        fam["sls_inv"] += sr.serverless_invocations
        fam["cost"] += cost
        fam["rho"] += rho
        if math.isfinite(p95_pred):
            # mean-load-saturated members (rho >= 1) have no finite
            # steady-state prediction; average over the rest
            fam["p95_pred_ratio"] += p95_pred / svc.spec.qos_target
            fam["pred_n"] += 1

    headers = [
        "family",
        "services",
        "rate q/s",
        "completed",
        "viol %",
        "p95/qos",
        "pred rho",
        "pred p95/qos",
        "switches",
        "sls share",
        "cost $",
    ]
    rows = []
    for family in sorted(families):
        f = families[family]
        n = f["services"]
        rows.append(
            [
                family,
                n,
                f["rate"],
                f["completed"],
                100.0 * f["violations"] / f["completed"] if f["completed"] else 0.0,
                f["p95_ratio"] / n,
                f["rho"] / n,
                f["p95_pred_ratio"] / f["pred_n"] if f["pred_n"] else math.inf,
                f["switches"],
                f["sls_inv"] / f["completed"] if f["completed"] else 0.0,
                f["cost"],
            ]
        )
    total_completed = sum(f["completed"] for f in families.values())
    total_cost = sum(f["cost"] for f in families.values())
    total_switches = sum(f["switches"] for f in families.values())
    notes = (
        f"{services} services, {fleet_daily_queries(tuple(p[0] for p in pairs)):,.0f} "
        f"queries/day aggregate, day={day:g}s compressed; "
        f"{total_completed} completed, {total_switches} switches, "
        f"${total_cost:.2f} total bill.  'pred' columns are steady-state "
        "M/M/N references at each service's mean rate (Eq. 1-4, log-space)."
    )
    return FigureResult(
        figure="fleet",
        title="fleet-scale aggregate QoS / cost under Amoeba",
        headers=headers,
        rows=rows,
        notes=notes,
        extras={
            "per_service": per_service,
            "services": services,
            "daily_queries": daily_queries,
            "day": day,
            "seed": seed,
            "total_completed": total_completed,
            "total_cost": total_cost,
        },
    )

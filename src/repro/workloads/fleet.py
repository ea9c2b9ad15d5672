"""Deterministic fleet generator for the fleet-scale scenario family.

The paper evaluates Amoeba one service at a time; real deployments run
*fleets* — hundreds of heterogeneous microservices whose arrival rates
sum to millions of queries per day.  :func:`generate_fleet` produces such
a fleet deterministically from a single seed:

* **Heterogeneous mixes.**  Services cycle through the FunctionBench
  families (``float``/``matmul``/``linpack``/``dd``/``cloud_stor``) with
  per-service execution-time jitter applied via
  :meth:`~repro.workloads.functionbench.MicroserviceSpec.scaled`, so no
  two services are exact clones and QoS targets scale with the work.
* **Phase-offset diurnal load.**  Every service gets its own
  :class:`~repro.workloads.traces.DiurnalTrace` with a uniformly drawn
  phase offset plus jittered amplitude, floor, rush-hour shape and noise,
  so the fleet's aggregate load is much flatter than any one service's
  day — the statistical-multiplexing effect that makes shared serverless
  capacity worthwhile.
* **Aggregate-λ normalization.**  Per-service amplitudes are drawn as
  relative weights and then rescaled in a second pass so the fleet's
  aggregate mean arrival rate is exactly ``daily_queries / 86400``
  queries/s — i.e. the fleet as a whole carries ``daily_queries`` per
  (real) day regardless of fleet size or seed.  Traces replay one full
  diurnal cycle in ``day`` compressed simulated seconds, like every other
  scenario in this repo (see EXPERIMENTS.md on compressed days).
* **Dedicated RNG streams.**  Service ``i`` draws all of its parameters
  from ``np.random.default_rng((seed, i))`` — a dedicated config-time
  stream keyed by (seed, index), so the *drawn* parameters (family mix,
  exec jitter, phase, shape, relative amplitude) of services 0..99 are
  unchanged when service 101 joins a 100-service fleet; only the shared
  normalization scale (and with it every absolute rate) moves.

Sizing every service's concurrency threshold is *injected* via
``limit_fn`` rather than computed here: the Eq. 5 admissible-rate search
lives above this layer
(``repro.experiments.scenarios.concurrency_threshold``), which keeps the
workloads package independent of the platform and core layers (ARCH001
— see DESIGN.md §12).  The default Eq. 5 sizing is the reason the Erlang
math in :mod:`repro.sim.queueing` has to survive large N without
underflow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Tuple

import numpy as np

from repro.workloads.functionbench import MicroserviceSpec, benchmark, benchmark_names
from repro.workloads.traces import DAY, DiurnalTrace

__all__ = [
    "DEFAULT_DAILY_QUERIES",
    "FleetService",
    "LimitFn",
    "fleet_daily_queries",
    "generate_fleet",
]

#: concurrency-cap sizing hook: (spec, peak_rate, ceiling_fraction) -> limit
LimitFn = Callable[[MicroserviceSpec, float, float], int]

#: default aggregate fleet volume: five million queries per (real) day
DEFAULT_DAILY_QUERIES = 5_000_000.0

#: relative per-family base weights for the amplitude draw (heavier
#: weight on the cheap families, as in public serverless traces where
#: short functions dominate invocation counts)
_FAMILY_WEIGHTS = {
    "float": 3.0,
    "matmul": 1.0,
    "linpack": 1.0,
    "dd": 1.5,
    "cloud_stor": 1.2,
}


@dataclass(frozen=True)
class FleetService:
    """One generated fleet member: spec + load + concurrency cap."""

    #: stable position in the fleet (parameter stream key)
    index: int
    #: FunctionBench family this service was derived from
    family: str
    spec: MicroserviceSpec
    trace: DiurnalTrace
    #: serverless concurrency threshold (Eq. 5 sizing, jittered fraction)
    limit: int
    #: mean arrival rate over one day, queries/s (cached from the trace)
    mean_rate: float


def _draw_params(seed: int, index: int, day: float) -> dict:
    """All random parameters for service ``index``, in one fixed draw order.

    Drawn from a dedicated stream keyed by (seed, index) so fleet
    membership and size never perturb other services' parameters.
    """
    # config-time stream, deterministic by construction
    rng = np.random.default_rng((seed, index))  # simlint: ignore[SIM002]
    return {
        "exec_factor": float(rng.uniform(0.75, 1.35)),
        "amplitude": float(rng.uniform(0.5, 2.0)),
        "phase": float(rng.uniform(0.0, day)),
        "low_fraction": float(rng.uniform(0.20, 0.40)),
        "morning_fraction": float(rng.uniform(0.70, 1.00)),
        "noise_sigma": float(rng.uniform(0.02, 0.08)),
        "ceiling_fraction": float(rng.uniform(0.80, 1.20)),
        "trace_seed": int(rng.integers(1 << 31)),
    }


def generate_fleet(
    services: int,
    daily_queries: float = DEFAULT_DAILY_QUERIES,
    day: float = 600.0,
    seed: int = 0,
    *,
    limit_fn: LimitFn,
) -> Tuple[FleetService, ...]:
    """Generate a deterministic heterogeneous fleet.

    Parameters
    ----------
    services:
        Fleet size (>= 1).
    daily_queries:
        Aggregate fleet volume in queries per *real* day; the generated
        mean rates sum to exactly ``daily_queries / 86400`` queries/s.
    day:
        Compressed-day length in simulated seconds (each trace replays
        one full diurnal cycle in this long).
    seed:
        Master seed; every per-service parameter derives from
        ``(seed, index)``.
    limit_fn:
        Sizes each member's concurrency cap from
        ``(spec, peak_rate, ceiling_fraction)``.  Must be deterministic
        and RNG-free (it runs after all parameter draws, so it can never
        perturb them).  The Eq. 5 sizing used by the sweeps is
        :func:`repro.experiments.scenarios.concurrency_threshold`, applied
        by the :func:`repro.experiments.fleet.generate_fleet` wrapper.
    """
    if services < 1:
        raise ValueError(f"services must be >= 1, got {services}")
    if daily_queries <= 0:
        raise ValueError(f"daily_queries must be positive, got {daily_queries}")
    if day <= 0:
        raise ValueError(f"day must be positive, got {day}")
    families = benchmark_names()

    # pass 1: draw parameters and provisional traces at relative weights
    drawn = []
    weighted_mean = 0.0
    for i in range(services):
        family = families[i % len(families)]
        p = _draw_params(seed, i, day)
        weight = _FAMILY_WEIGHTS[family] * p["amplitude"]
        trace = DiurnalTrace(
            peak_rate=weight,
            low_fraction=p["low_fraction"],
            morning_fraction=p["morning_fraction"],
            noise_sigma=p["noise_sigma"],
            seed=p["trace_seed"],
            phase=p["phase"],
            day=day,
        )
        mean = trace.mean_rate(0.0, day)
        drawn.append((family, p, weight, mean))
        weighted_mean += mean

    # pass 2: rescale every amplitude so Σ mean_rate == daily_queries/86400.
    # DiurnalTrace.rate() is linear in peak_rate (shape × noise × peak),
    # so scaling the peak scales the mean by the same factor exactly.
    scale = (daily_queries / DAY) / weighted_mean
    fleet = []
    for i, (family, p, weight, mean) in enumerate(drawn):
        base = benchmark(family)
        spec = replace(base.scaled(p["exec_factor"]), name=f"svc{i:04d}_{family}")
        peak = weight * scale
        trace = DiurnalTrace(
            peak_rate=peak,
            low_fraction=p["low_fraction"],
            morning_fraction=p["morning_fraction"],
            noise_sigma=p["noise_sigma"],
            seed=p["trace_seed"],
            phase=p["phase"],
            day=day,
        )
        limit = limit_fn(spec, peak, p["ceiling_fraction"])
        fleet.append(
            FleetService(
                index=i,
                family=family,
                spec=spec,
                trace=trace,
                limit=limit,
                mean_rate=mean * scale,
            )
        )
    return tuple(fleet)


def fleet_daily_queries(fleet: Tuple[FleetService, ...]) -> float:
    """Aggregate fleet volume in queries per (real) day.

    Equals the ``daily_queries`` the fleet was generated with, by the
    pass-2 normalization in :func:`generate_fleet`.
    """
    return sum(s.mean_rate for s in fleet) * DAY

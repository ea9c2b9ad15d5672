"""Per-microservice latency surfaces L(P, V_u) (paper §IV-B step 1, Fig. 9).

For each resource axis, a surface maps *(platform pressure on that axis,
the microservice's own load)* to the microservice's expected per-query
**service latency** — contended execution time, excluding queueing and
platform overheads (queueing is the M/M/N model's job; overheads are
Eq. 6's α).  The own-load axis matters because a service at load V keeps
``V·s`` containers busy (Little's law), and those containers pressure
the platform too — a self-interference fixed point that
:func:`service_time_fixed_point` resolves.

As with the meter profiles, surfaces can be built analytically (instant,
runtime default) or by measurement (mini-simulation per grid point; the
Fig. 9 bench uses it, and a test checks the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.cluster import ContentionConfig, NodeSpec, SensitivityVector
from repro.core.meters import expected_platform_overhead
from repro.serverless import ServerlessConfig
from repro.workloads import MicroserviceSpec

__all__ = [
    "LatencySurface",
    "SurfaceSet",
    "build_surface_set",
    "measured_surface",
    "service_time_fixed_point",
    "service_time_grid",
    "slowdown_grid",
]


def slowdown_grid(
    contention: ContentionConfig, sens: SensitivityVector, pressures: np.ndarray
) -> np.ndarray:
    """:meth:`ContentionConfig.slowdown` over a ``(3, n)`` pressure array.

    Follows ``ContentionConfig.g`` and ``slowdown`` term for term.  The
    map is ``+ − ×``, ``min``/``max`` and comparisons only, so every
    element is the same IEEE operations in the same order: bit-identical
    to the scalar method.
    """
    p = np.minimum(pressures, contention.pressure_cap)
    excess = p - contention.knee
    g = contention.linear * p + np.where(excess > 0, contention.quad * excess * excess, 0.0)
    d0, d1, d2 = (s * g_r for s, g_r in zip(sens.as_tuple(), g))
    total = d0 + d1 + d2
    worst = np.maximum(np.maximum(d0, d1), d2)
    return 1.0 + worst + (1.0 - contention.overlap) * (total - worst)


def service_time_grid(
    spec: MicroserviceSpec,
    external: "ArrayLike",
    loads: "ArrayLike",
    capacities: Tuple[float, float, float],
    contention: ContentionConfig,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> np.ndarray:
    """Self-consistent contended service time of ``n`` (pressure, load) cells.

    ``external`` is ``(n, 3)`` platform pressures, ``loads`` the own loads
    in queries/s.  Each cell solves ``s = exec · slowdown(sens, external +
    own(s))``, ``own(s)`` being the pressure of the service's own
    ``load·s`` concurrent executions, by damped iteration from ``s =
    exec``.  The cells iterate together as arrays, but each freezes at its
    first ``s_new`` with ``|s_new − s| < tol·exec``.  The pressure cap
    bounds the map, yet steep self-saturated cells may still be moving
    after ``max_iter`` steps: they return their last damped ``s``
    (EXPERIMENTS.md, "Known fidelity gaps").
    """
    ext = np.asarray(external, dtype=float).T
    load = np.asarray(loads, dtype=float)
    if ext.shape != (3, load.size):
        raise ValueError(f"external must be (n, 3) for n = {load.size} loads")
    if np.any(load < 0):
        raise ValueError(f"loads must be >= 0, got {load.min()}")
    d = spec.demand
    per_query = (np.array([d.cpu, d.io_mbps, d.net_mbps]) / capacities)[:, None]
    exec_time = spec.exec_time
    bound = tol * exec_time
    out = np.full(load.size, float(exec_time))
    cells = np.arange(load.size)
    s = out.copy()
    for _ in range(max_iter):
        if not cells.size:
            break
        s_new = exec_time * slowdown_grid(contention, spec.sensitivity, ext + (load * s) * per_query)
        done = np.abs(s_new - s) < bound
        s = 0.5 * (s + s_new)
        if done.any():
            out[cells[done]] = s_new[done]
            live = ~done
            cells, ext, load, s = cells[live], ext[:, live], load[live], s[live]
    out[cells] = s
    return out


def service_time_fixed_point(
    spec: MicroserviceSpec,
    external: Tuple[float, float, float],
    load: float,
    capacities: Tuple[float, float, float],
    contention: ContentionConfig,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """:func:`service_time_grid` for one cell (which may also exit unconverged)."""
    return float(service_time_grid(spec, [external], [load], capacities, contention, tol, max_iter)[0])


@dataclass(frozen=True)
class LatencySurface:
    """One Fig. 9 panel: service latency over (axis pressure, own load)."""

    service: str
    axis: int
    pressures: np.ndarray
    loads: np.ndarray
    values: np.ndarray  # shape (len(pressures), len(loads))

    def __post_init__(self) -> None:
        p = np.asarray(self.pressures, dtype=float)
        v = np.asarray(self.loads, dtype=float)
        z = np.asarray(self.values, dtype=float)
        if p.ndim != 1 or v.ndim != 1 or z.shape != (p.size, v.size):
            raise ValueError("surface dimensions are inconsistent")
        if np.any(np.diff(p) <= 0) or np.any(np.diff(v) <= 0):
            raise ValueError("surface grids must be strictly increasing")
        if np.any(z <= 0):
            raise ValueError("surface latencies must be positive")
        object.__setattr__(self, "pressures", p)
        object.__setattr__(self, "loads", v)
        object.__setattr__(self, "values", z)

    def predict(self, pressure: float, load: float) -> float:
        """Bilinear interpolation, clamped to the profiled grid."""
        p = float(np.clip(pressure, self.pressures[0], self.pressures[-1]))
        v = float(np.clip(load, self.loads[0], self.loads[-1]))
        i = int(np.searchsorted(self.pressures, p, side="right")) - 1
        j = int(np.searchsorted(self.loads, v, side="right")) - 1
        i = min(max(i, 0), self.pressures.size - 2)
        j = min(max(j, 0), self.loads.size - 2)
        p0, p1 = self.pressures[i], self.pressures[i + 1]
        v0, v1 = self.loads[j], self.loads[j + 1]
        fp = (p - p0) / (p1 - p0)
        fv = (v - v0) / (v1 - v0)
        z = self.values
        return float(
            z[i, j] * (1 - fp) * (1 - fv)
            + z[i + 1, j] * fp * (1 - fv)
            + z[i, j + 1] * (1 - fp) * fv
            + z[i + 1, j + 1] * fp * fv
        )


@dataclass(frozen=True)
class SurfaceSet:
    """All three surfaces of one microservice plus its Eq. 6 constants."""

    service: str
    surfaces: Tuple[LatencySurface, LatencySurface, LatencySurface]
    #: L₀: solo-run service latency (single uncontended query)
    solo_latency: float
    #: α: mean per-query platform overhead
    alpha: float

    def __post_init__(self) -> None:
        if len(self.surfaces) != 3:
            raise ValueError("need exactly three surfaces (cpu, io, net)")
        for axis, s in enumerate(self.surfaces):
            if s.axis != axis:
                raise ValueError(f"surface at position {axis} claims axis {s.axis}")
        if self.solo_latency <= 0 or self.alpha < 0:
            raise ValueError("solo_latency must be positive and alpha >= 0")

    def axis_latencies(self, pressures: Tuple[float, float, float], load: float) -> np.ndarray:
        """(L₁, L₂, L₃): predicted service latency per contended axis."""
        return np.array(
            [self.surfaces[i].predict(pressures[i], load) for i in range(3)], dtype=float
        )


def build_surface_set(
    spec: MicroserviceSpec,
    node: Optional[NodeSpec] = None,
    contention: Optional[ContentionConfig] = None,
    cfg: Optional[ServerlessConfig] = None,
    pressure_max: float = 1.6,
    pressure_points: int = 9,
    load_max: Optional[float] = None,
    load_points: int = 8,
) -> SurfaceSet:
    """Analytic surfaces over a (pressure × load) grid (runtime default).

    ``load_max`` defaults to the load that would saturate the service's
    most-demanded resource axis on its own.
    """
    node = node if node is not None else NodeSpec(name="serverless")
    contention = contention if contention is not None else ContentionConfig()
    cfg = cfg if cfg is not None else ServerlessConfig()
    capacities = (node.cores, node.disk_mbps, node.net_mbps)
    if load_max is None:
        d = spec.demand
        per_query = max(
            d.cpu / capacities[0], d.io_mbps / capacities[1], d.net_mbps / capacities[2], 1e-9
        )
        load_max = 1.0 / (per_query * spec.exec_time)
    p_grid = np.linspace(0.0, pressure_max, pressure_points)
    # quadratic spacing: dense where controllers actually operate (low
    # loads), sparse toward self-saturation, so bilinear interpolation
    # does not overshoot on the convex surface
    v_grid = load_max * (np.linspace(0.0, 1.0, load_points) ** 2)

    # one cell per (axis, pressure, load): external pressure p on the
    # surface's own axis only, solved together as one array iteration
    n_p, n_v = p_grid.size, v_grid.size
    external = np.zeros((3, n_p, n_v, 3))
    for axis in range(3):
        external[axis, :, :, axis] = p_grid[:, None]
    loads = np.tile(v_grid, 3 * n_p)
    z = service_time_grid(spec, external.reshape(-1, 3), loads, capacities, contention)
    z = z.reshape(3, n_p, n_v)
    surfaces = [
        LatencySurface(service=spec.name, axis=axis, pressures=p_grid, loads=v_grid, values=z[axis])
        for axis in range(3)
    ]
    return SurfaceSet(
        service=spec.name,
        surfaces=(surfaces[0], surfaces[1], surfaces[2]),
        solo_latency=spec.exec_time,
        alpha=expected_platform_overhead(spec, cfg),
    )


def measured_surface(
    spec: MicroserviceSpec,
    axis: int,
    pressures: "ArrayLike",
    loads: "ArrayLike",
    node: Optional[NodeSpec] = None,
    contention: Optional[ContentionConfig] = None,
    cfg: Optional[ServerlessConfig] = None,
    duration: float = 120.0,
    seed: int = 11,
) -> LatencySurface:
    """One surface by mini-simulation (paper's co-location profiling).

    For each (pressure, load) cell, a fresh platform runs the service at
    Poisson ``load`` with a standing background demand injected on
    ``axis``; the cell value is the mean *execution-stage* latency (the
    pool's ``exec`` breakdown), matching the analytic surfaces'
    exclusion of queueing and overheads.
    """
    from repro.serverless.platform import ServerlessPlatform
    from repro.sim.environment import Environment
    from repro.sim.events import Event
    from repro.sim.rng import RngRegistry
    from repro.telemetry import ServiceMetrics
    from repro.workloads.loadgen import LoadGenerator, Query
    from repro.workloads.traces import ConstantTrace

    node = node if node is not None else NodeSpec(name="profiling")
    contention = contention if contention is not None else ContentionConfig()
    cfg = cfg if cfg is not None else ServerlessConfig()
    capacities = (node.cores, node.disk_mbps, node.net_mbps)
    p_grid = np.asarray(pressures, dtype=float)
    v_grid = np.asarray(loads, dtype=float)
    from repro.cluster.resource_model import DemandVector

    z = np.empty((p_grid.size, v_grid.size))
    for i, p in enumerate(p_grid):
        for j, v in enumerate(v_grid):
            env = Environment()
            rng = RngRegistry(seed=seed + 101 * i + j)
            platform = ServerlessPlatform(env, rng, node=node, config=cfg, contention=contention)
            metrics = ServiceMetrics(spec.name, spec.qos_target)
            platform.register(spec, metrics=metrics)
            background = DemandVector(
                cpu=capacities[0] * p if axis == 0 else 0.0,
                io_mbps=capacities[1] * p if axis == 1 else 0.0,
                net_mbps=capacities[2] * p if axis == 2 else 0.0,
            )
            platform.machine.inject_background(background)
            exec_times: list[float] = []

            def sink(q: Query, exec_times: list[float] = exec_times) -> None:
                pass

            if v > 0:
                collected: list[Query] = []

                def submit(q: Query, platform: ServerlessPlatform = platform) -> None:
                    platform.invoke(q)

                LoadGenerator(env, spec.name, ConstantTrace(float(v)), submit, rng)
                env.run(until=duration)
                mean_exec = metrics.breakdown_sums["exec"] / max(metrics.completed, 1)
            else:
                # a few solo queries
                def solo(
                    env: Environment = env, platform: ServerlessPlatform = platform
                ) -> Iterator[Event]:
                    for k in range(10):
                        q = Query(qid=k, service=spec.name, t_submit=env.now)
                        platform.invoke(q)
                        yield env.timeout(2.0)

                env.process(solo())
                env.run(until=40.0)
                mean_exec = metrics.breakdown_sums["exec"] / max(metrics.completed, 1)
            z[i, j] = max(mean_exec, 1e-6)
    # iron sampling noise into monotone-in-pressure curves
    z = np.maximum.accumulate(z, axis=0)
    return LatencySurface(service=spec.name, axis=axis, pressures=p_grid, loads=v_grid, values=z)

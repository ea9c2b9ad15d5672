"""Latency surfaces: fixed point, interpolation, measured-vs-analytic."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resource_model import ContentionConfig, DemandVector, SensitivityVector
from repro.cluster.spec import NodeSpec
from repro.core.runtime import AmoebaRuntime
from repro.core.surfaces import (
    LatencySurface,
    SurfaceSet,
    build_surface_set,
    measured_surface,
    service_time_fixed_point,
    service_time_grid,
    slowdown_grid,
)
from repro.experiments.fleet import fleet_scenarios
from repro.experiments.scenarios import default_scenario
from repro.workloads.functionbench import MicroserviceSpec, benchmark, benchmark_names

NODE = NodeSpec(name="t")
CAPS = (NODE.cores, NODE.disk_mbps, NODE.net_mbps)
CFG = ContentionConfig()


def reference_fixed_point(spec, external, load, capacities, contention, tol=1e-9, max_iter=200):
    """The scalar damped iteration the grid kernel replaced, kept verbatim as the oracle."""
    if load < 0:
        raise ValueError(f"load must be >= 0, got {load}")
    d = spec.demand
    per_query = (d.cpu / capacities[0], d.io_mbps / capacities[1], d.net_mbps / capacities[2])
    s = spec.exec_time
    for _ in range(max_iter):
        busy = load * s
        p = (
            external[0] + busy * per_query[0],
            external[1] + busy * per_query[1],
            external[2] + busy * per_query[2],
        )
        s_new = spec.exec_time * contention.slowdown(spec.sensitivity, p)
        if abs(s_new - s) < tol * spec.exec_time:
            return s_new
        s = 0.5 * (s + s_new)
    return s


def hexes(values):
    return [float(v).hex() for v in values]


@st.composite
def contention_configs(draw):
    knee = draw(st.floats(0.05, 1.5))
    return ContentionConfig(
        linear=draw(st.floats(0.0, 1.0)),
        quad=draw(st.floats(0.0, 20.0)),
        knee=knee,
        overlap=draw(st.floats(0.0, 1.0)),
        pressure_cap=knee + draw(st.floats(0.01, 3.0)),
    )


sensitivities = st.builds(
    SensitivityVector, cpu=st.floats(0.0, 5.0), io=st.floats(0.0, 5.0), net=st.floats(0.0, 5.0)
)
specs = st.builds(
    MicroserviceSpec,
    name=st.just("h"),
    exec_time=st.floats(1e-3, 5.0),
    exec_sigma=st.just(0.1),
    demand=st.builds(
        DemandVector,
        cpu=st.floats(0.0, 4.0),
        io_mbps=st.floats(0.0, 300.0),
        net_mbps=st.floats(0.0, 300.0),
    ),
    sensitivity=sensitivities,
    qos_target=st.just(10.0),
)
pressure_triples = st.tuples(*[st.floats(0.0, 5.0)] * 3)


class TestFixedPoint:
    def test_zero_load_zero_pressure_is_exec_time(self):
        spec = benchmark("float")
        s = service_time_fixed_point(spec, (0.0, 0.0, 0.0), 0.0, CAPS, CFG)
        assert s == pytest.approx(spec.exec_time)

    def test_grows_with_external_pressure(self):
        spec = benchmark("float")
        vals = [
            service_time_fixed_point(spec, (p, 0.0, 0.0), 0.0, CAPS, CFG)
            for p in (0.0, 0.5, 1.0, 1.5)
        ]
        assert vals == sorted(vals)
        assert vals[-1] > vals[0]

    def test_grows_with_own_load(self):
        spec = benchmark("matmul")
        vals = [
            service_time_fixed_point(spec, (0.0, 0.0, 0.0), v, CAPS, CFG)
            for v in (0.0, 10.0, 40.0, 80.0)
        ]
        assert vals == sorted(vals)

    def test_insensitive_axis_ignored(self):
        spec = benchmark("float")  # io sensitivity 0.05, tiny
        base = service_time_fixed_point(spec, (0.0, 0.0, 0.0), 0.0, CAPS, CFG)
        with_io = service_time_fixed_point(spec, (0.0, 1.0, 0.0), 0.0, CAPS, CFG)
        assert with_io < base * 1.05

    def test_converges_at_heavy_load(self):
        spec = benchmark("matmul")
        s = service_time_fixed_point(spec, (1.5, 0.0, 0.0), 100.0, CAPS, CFG)
        assert np.isfinite(s)
        assert s > spec.exec_time

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            service_time_fixed_point(benchmark("float"), (0, 0, 0), -1.0, CAPS, CFG)


class TestGridKernel:
    """The array iteration is the scalar damped loop, float.hex for float.hex."""

    @settings(max_examples=200, deadline=None)
    @given(contention_configs(), sensitivities, pressure_triples)
    def test_slowdown_grid_is_bit_identical(self, contention, sens, p):
        got = slowdown_grid(contention, sens, np.array(p)[:, None])
        assert hexes(got) == [contention.slowdown(sens, p).hex()]

    @pytest.mark.parametrize("p", [0.0, CFG.knee, CFG.pressure_cap, CFG.pressure_cap + 1.0])
    def test_slowdown_grid_at_knee_and_cap(self, p):
        sens = benchmark("dd").sensitivity
        pressures = [(p, 0.0, 0.0), (0.0, p, 0.0), (p, p, p)]
        got = slowdown_grid(CFG, sens, np.array(pressures).T)
        assert hexes(got) == [CFG.slowdown(sens, q).hex() for q in pressures]

    @settings(max_examples=100, deadline=None)
    @given(
        specs,
        contention_configs(),
        st.lists(st.tuples(pressure_triples, st.floats(0.0, 200.0)), min_size=1, max_size=12),
        st.integers(0, 40),
        st.sampled_from([1e-9, 1e-6, 1e-3, 0.1]),
    )
    def test_grid_matches_scalar_reference(self, spec, contention, cells, max_iter, tol):
        external = [e for e, _ in cells]
        loads = [v for _, v in cells]
        got = service_time_grid(spec, external, loads, CAPS, contention, tol, max_iter)
        want = [
            reference_fixed_point(spec, e, v, CAPS, contention, tol, max_iter) for e, v in cells
        ]
        assert hexes(got) == hexes(want)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_zero_load_cells(self, name):
        spec = benchmark(name)
        external = [(p, 0.0, 0.0) for p in (0.0, 0.4, 1.2, 2.5)]
        got = service_time_grid(spec, external, [0.0] * 4, CAPS, CFG)
        assert hexes(got) == hexes(reference_fixed_point(spec, e, 0.0, CAPS, CFG) for e in external)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_zero_pressure_row_is_shared_by_all_axes(self, name):
        spec = benchmark(name)
        ss = build_surface_set(spec, node=NODE, contention=CFG)
        rows = [hexes(s.values[0]) for s in ss.surfaces]
        assert rows[0] == rows[1] == rows[2]
        loads = ss.surfaces[0].loads
        want = [reference_fixed_point(spec, (0.0, 0.0, 0.0), float(v), CAPS, CFG) for v in loads]
        assert rows[0] == hexes(want)

    def test_cell_that_exhausts_max_iter_returns_last_damped_value(self):
        spec = benchmark("matmul")
        cells = [((1.5, 0.0, 0.0), 100.0), ((0.0, 0.0, 0.0), 0.0)]
        external, loads = [e for e, _ in cells], [v for _, v in cells]
        got = service_time_grid(spec, external, loads, CAPS, CFG, max_iter=3)
        want = [reference_fixed_point(spec, e, v, CAPS, CFG, max_iter=3) for e, v in cells]
        assert hexes(got) == hexes(want)
        # the heavy cell is still moving after 3 steps; the solo cell froze at once
        assert got[0] != service_time_fixed_point(spec, (1.5, 0.0, 0.0), 100.0, CAPS, CFG)
        assert got[1] == spec.exec_time

    def test_one_cell_call_returns_python_float(self):
        s = service_time_fixed_point(benchmark("float"), (0.3, 0.0, 0.0), 2.0, CAPS, CFG)
        assert type(s) is float

    def test_external_shape_checked(self):
        with pytest.raises(ValueError):
            service_time_grid(benchmark("float"), [(0.0, 0.0)], [1.0], CAPS, CFG)


def runtime_surface_sets():
    """Every surface set the pin covers, built as AmoebaRuntime builds them."""
    rt = AmoebaRuntime()
    cfg = rt.config

    def build(spec, trace):
        return build_surface_set(
            spec,
            node=rt.cluster.serverless_node,
            contention=rt.contention,
            cfg=rt.serverless.config,
            pressure_max=cfg.surface_pressure_max,
            pressure_points=cfg.surface_pressure_points,
            load_max=2.0 * trace.peak_rate,
            load_points=cfg.surface_load_points,
        )

    golden = default_scenario("matmul")
    fleet = [build(sc.foreground, sc.trace) for _, sc in fleet_scenarios(100, 5e6, 300, seed=0)]
    return (
        fleet
        + [build(golden.foreground, golden.trace)]
        + [build(spec, trace) for spec, trace, _ in golden.background]
        + [build_surface_set(benchmark(name)) for name in benchmark_names()]
    )


@pytest.fixture(scope="module")
def pinned_sets():
    return runtime_surface_sets()


class TestSurfacePin:
    """Surfaces of the 100-service fleet, the golden day and FunctionBench."""

    #: sha256 over every surface value, alpha and L0, recorded from the
    #: scalar fixed-point loop before the grid kernel replaced it
    DIGEST = "87f8d3a0e9ee84ebae3b852c323aeed5a9e58126ab1738b91265b7e81185492a"

    def test_digest(self, pinned_sets):
        assert len(pinned_sets) == 100 + 4 + len(benchmark_names())
        h = hashlib.sha256()
        for ss in pinned_sets:
            h.update(ss.service.encode())
            values = [ss.alpha, ss.solo_latency]
            values += [float(x) for s in ss.surfaces for x in s.values.ravel()]
            for v in values:
                h.update(float(v).hex().encode())
        assert h.hexdigest() == self.DIGEST

    def test_known_unconverged_fleet_cell(self, pinned_sets):
        """svc0008_dd, IO axis, P = 1.6, V = 2.11 q/s exits max_iter still climbing.

        The only one of the fleet's 21,600 cells that does not converge
        (EXPERIMENTS.md, "Known fidelity gaps").
        """
        ss = next(s for s in pinned_sets if s.service == "svc0008_dd")
        spec = next(
            sc.foreground
            for _, sc in fleet_scenarios(100, 5e6, 300, seed=0)
            if sc.foreground.name == "svc0008_dd"
        )
        surface = ss.surfaces[1]
        load = float(surface.loads[6])
        value = float(surface.values[-1, 6])
        assert surface.pressures[-1] == 1.6 and load == pytest.approx(2.1137, abs=1e-4)
        assert value == pytest.approx(9.424, abs=1e-3)
        rt = AmoebaRuntime()
        node = rt.cluster.serverless_node
        caps = (node.cores, node.disk_mbps, node.net_mbps)
        d = spec.demand
        busy = load * value
        p = (busy * d.cpu / caps[0], 1.6 + busy * d.io_mbps / caps[1], busy * d.net_mbps / caps[2])
        step = spec.exec_time * rt.contention.slowdown(spec.sensitivity, p) - value
        # one more map step still moves 5.3 % of exec time: far from tol
        assert step / spec.exec_time == pytest.approx(0.0534, abs=1e-3)
        # given enough steps the cell settles ~46 % higher
        settled = service_time_fixed_point(
            spec, (0.0, 1.6, 0.0), load, caps, rt.contention, max_iter=2000
        )
        assert settled == pytest.approx(13.787, abs=1e-3)


class TestLatencySurface:
    def surface(self):
        p = np.array([0.0, 1.0])
        v = np.array([0.0, 10.0])
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        return LatencySurface("s", 0, p, v, z)

    def test_exact_on_grid_nodes(self):
        s = self.surface()
        assert s.predict(0.0, 0.0) == 1.0
        assert s.predict(1.0, 0.0) == 3.0
        assert s.predict(0.0, 10.0) == 2.0
        assert s.predict(1.0, 10.0) == 4.0

    def test_bilinear_midpoint(self):
        assert self.surface().predict(0.5, 5.0) == pytest.approx(2.5)

    def test_clamped_outside_grid(self):
        s = self.surface()
        assert s.predict(-1.0, -5.0) == 1.0
        assert s.predict(9.0, 99.0) == 4.0

    def test_validation(self):
        p = np.array([0.0, 1.0])
        v = np.array([0.0, 10.0])
        with pytest.raises(ValueError):
            LatencySurface("s", 0, p, v, np.ones((3, 2)))
        with pytest.raises(ValueError):
            LatencySurface("s", 0, p[::-1], v, np.ones((2, 2)))
        with pytest.raises(ValueError):
            LatencySurface("s", 0, p, v, np.zeros((2, 2)))


class TestSurfaceSet:
    def test_build_produces_three_axes(self):
        ss = build_surface_set(benchmark("dd"))
        assert len(ss.surfaces) == 3
        assert ss.solo_latency == benchmark("dd").exec_time
        assert ss.alpha > 0

    def test_axis_latencies_reflect_sensitivity(self):
        ss = build_surface_set(benchmark("dd"))  # io-heavy
        L = ss.axis_latencies((1.2, 1.2, 1.2), 5.0)
        assert L[1] > L[0]  # io degradation dominates for dd
        assert L[1] > L[2]

    def test_axis_latencies_at_zero(self):
        ss = build_surface_set(benchmark("float"))
        L = ss.axis_latencies((0.0, 0.0, 0.0), 0.0)
        assert np.allclose(L, benchmark("float").exec_time, rtol=1e-6)

    def test_wrong_axis_order_rejected(self):
        ss = build_surface_set(benchmark("float"))
        with pytest.raises(ValueError):
            SurfaceSet(
                service="x",
                surfaces=(ss.surfaces[1], ss.surfaces[0], ss.surfaces[2]),
                solo_latency=1.0,
                alpha=0.0,
            )

    def test_monotone_in_pressure(self):
        ss = build_surface_set(benchmark("matmul"))
        vals = [ss.surfaces[0].predict(p, 5.0) for p in (0.0, 0.4, 0.8, 1.2, 1.6)]
        assert vals == sorted(vals)


class TestMeasuredSurface:
    def test_measured_close_to_analytic(self):
        """Mini-simulation profiling agrees with the closed-form surface."""
        spec = benchmark("float")
        surf = measured_surface(
            spec, axis=0, pressures=(0.0, 1.0), loads=(0.0, 4.0), duration=60.0, seed=2
        )
        analytic = build_surface_set(spec)
        for i, p in enumerate(surf.pressures):
            for j, v in enumerate(surf.loads):
                expected = analytic.surfaces[0].predict(float(p), float(v))
                assert float(surf.values[i, j]) == pytest.approx(expected, rel=0.2)

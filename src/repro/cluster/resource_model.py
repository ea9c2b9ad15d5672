"""Progress-based multi-resource contention engine.

This module is the simulated stand-in for the shared hardware of the
paper's serverless node (DESIGN.md §2): co-running containers contend for
① cores, ② memory (bandwidth; *space* is enforced separately by the
container pool), ③ disk IO bandwidth and ④ network bandwidth (paper
Fig. 5).  The model has three properties the paper's analysis depends on:

1.  **Pressure is additive, slowdown is convex.**  Per-resource pressure
    is total demand divided by capacity; an execution's slowdown grows
    slowly below saturation and quadratically above it, so tail latency
    explodes once a resource saturates — the behaviour that makes the
    switch-out decision matter.
2.  **Per-resource degradations are not independent** (paper §II-E): a
    pairwise coupling term makes simultaneous pressure on two resources
    worse than the sum of each alone.  This is exactly the effect the
    PCA-corrected weight calibration (Amoeba) models and the pessimistic
    additive variant (Amoeba-NoM) over-estimates.
3.  **Executions are progress-based.**  Each execution carries its
    remaining *work* (seconds of uncontended execution).  When the active
    set changes, every execution's accumulated progress is banked and its
    rate recomputed, so latencies respond to contention that arrives
    *mid-execution*.

Completion scheduling is **single-timer** (DESIGN.md §6): all executions
on a machine share one pressure vector, so between set changes each runs
at a fixed rate and the next completion is simply ``min(work_left /
rate)`` — one O(N) scan per rebalance, one timer per machine.  The
previous timer is cancelled through the kernel's event-cancellation path
rather than left to fire as a stale generation-guarded no-op, which keeps
heap growth O(1) amortized per query instead of O(active set) per change.
A finished execution's completion event fires in place inside the timer's
pop, costing no heap entry of its own.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim import Environment, Event, TimeWeightedStats

__all__ = ["ContentionConfig", "DemandVector", "MachineModel", "SensitivityVector"]

#: resource axes, in fixed order (memory *space* handled by the pool)
RESOURCES = ("cpu", "io", "net")


@dataclass(frozen=True)
class DemandVector:
    """Resources one execution occupies while running.

    ``cpu`` is in cores, ``memory_mb`` in MB (space, informational here),
    ``io_mbps`` and ``net_mbps`` in MB/s of disk and network bandwidth.
    """

    cpu: float = 0.0
    memory_mb: float = 0.0
    io_mbps: float = 0.0
    net_mbps: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("cpu", "memory_mb", "io_mbps", "net_mbps"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0, got {getattr(self, attr)}")

    def scaled(self, factor: float) -> "DemandVector":
        """This demand multiplied by ``factor`` (load scaling helper)."""
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        return DemandVector(
            cpu=self.cpu * factor,
            memory_mb=self.memory_mb * factor,
            io_mbps=self.io_mbps * factor,
            net_mbps=self.net_mbps * factor,
        )


@dataclass(frozen=True)
class SensitivityVector:
    """How strongly an execution's progress suffers per unit pressure.

    Axes follow the paper's three contention meters: ``cpu`` covers the
    combined CPU/memory-bandwidth axis (the paper's ``l_CPU_Memory``),
    ``io`` disk bandwidth, ``net`` network bandwidth.  Values are
    dimensionless multipliers; 0 = immune, 1 = fully exposed.
    """

    cpu: float = 1.0
    io: float = 0.0
    net: float = 0.0

    def __post_init__(self) -> None:
        for attr in RESOURCES:
            v = getattr(self, attr)
            if not 0.0 <= v <= 5.0:
                raise ValueError(f"sensitivity {attr} out of range [0, 5]: {v}")

    def as_tuple(self) -> tuple[float, float, float]:
        """(cpu, io, net) in canonical axis order."""
        return (self.cpu, self.io, self.net)


@dataclass(frozen=True)
class ContentionConfig:
    """Shape parameters of the slowdown function.

    Per-axis degradation is convex in pressure:

        ``d_r = s_r·g(p_r)``  with  ``g(p) = linear·p + quad·max(0, p − knee)²``

    (the linear term models sub-saturation interference — cache/SMT/port
    sharing; the quadratic term models queueing for a saturated
    resource).  The total slowdown *overlaps* the per-axis degradations
    instead of summing them:

        ``slowdown = 1 + max_r d_r + (1 − overlap)·(Σ_r d_r − max_r d_r)``

    ``overlap = 0`` would be plain accumulation; ``overlap = 1`` would be
    full hiding behind the worst axis.  This sub-additivity is the
    paper's §II-E observation — "the performance degradation … is not
    the simple accumulation of its degradations due to the contention on
    each type of resource" — and it is exactly what the PCA-calibrated
    weights learn (and what the Amoeba-NoM ablation, which *does*
    accumulate, gets pessimistically wrong; §VII-C).
    """

    linear: float = 0.18
    quad: float = 6.0
    knee: float = 0.75
    #: fraction of the non-dominant axes' degradation hidden behind the
    #: dominant one (stalls on different resources partially overlap)
    overlap: float = 0.60
    #: pressure ceiling: beyond this the resource is hard-saturated and
    #: g(p) is evaluated at the ceiling (progress never reaches zero)
    pressure_cap: float = 3.0

    def __post_init__(self) -> None:
        if self.linear < 0 or self.quad < 0:
            raise ValueError("slowdown coefficients must be >= 0")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap}")
        if not 0.0 < self.knee <= 1.5:
            raise ValueError(f"knee must be in (0, 1.5], got {self.knee}")
        if self.pressure_cap <= self.knee:
            raise ValueError("pressure_cap must exceed knee")

    def g(self, pressure: float) -> float:
        """Per-resource degradation as a function of pressure."""
        p = min(pressure, self.pressure_cap)
        excess = p - self.knee
        return self.linear * p + (self.quad * excess * excess if excess > 0 else 0.0)

    def slowdown(self, sens: SensitivityVector, pressures: tuple[float, float, float]) -> float:
        """Total slowdown of an execution with ``sens`` under ``pressures``."""
        s = sens.as_tuple()
        d0 = s[0] * self.g(pressures[0])
        d1 = s[1] * self.g(pressures[1])
        d2 = s[2] * self.g(pressures[2])
        total = d0 + d1 + d2
        worst = max(d0, d1, d2)
        return 1.0 + worst + (1.0 - self.overlap) * (total - worst)


class _Execution:
    """Bookkeeping for one in-flight execution on a machine."""

    __slots__ = ("eid", "demand", "sens", "work_left", "rate", "last_update", "done", "start")

    def __init__(
        self,
        eid: int,
        demand: DemandVector,
        sens: SensitivityVector,
        work: float,
        done: Event,
        now: float,
    ):
        self.eid = eid
        self.demand = demand
        self.sens = sens
        self.work_left = work
        self.rate = 1.0
        self.last_update = now
        self.done = done
        self.start = now


class _CompletionTimer(Event):
    """The machine's next-completion heap entry.

    A slim Event subclass that dispatches straight to the machine's
    completion handler — no callbacks list, no closure.  One of these is
    armed per rebalance (and cancelled by the next), so its construction
    cost is on the engine's hottest path.
    """

    __slots__ = ("machine",)

    def __init__(self, env: Environment, delay: float, machine: "MachineModel"):
        # flattened Event.__init__, enqueued at the default event priority
        # exactly like the schedule_callback Timeout it replaces
        self.env = env
        self.callbacks = None
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.machine = machine
        env._seq += 1
        heapq.heappush(env._heap, (env.now + delay, 1, env._seq, self))

    def _run_callbacks(self) -> None:
        self._processed = True
        self.machine._on_timer()


class MachineModel:
    """One node's shared-resource execution engine.

    Parameters
    ----------
    env:
        Simulation environment.
    cores, io_mbps, net_mbps:
        Node capacities (memory space is enforced by the container pool,
        not here).
    config:
        Slowdown shape parameters.
    """

    def __init__(
        self,
        env: Environment,
        cores: float,
        io_mbps: float,
        net_mbps: float,
        config: Optional[ContentionConfig] = None,
    ):
        if cores <= 0 or io_mbps <= 0 or net_mbps <= 0:
            raise ValueError("capacities must be positive")
        self.env = env
        self.capacity = (float(cores), float(io_mbps), float(net_mbps))
        self.config = config if config is not None else ContentionConfig()
        self._active: Dict[int, _Execution] = {}
        self._ids = itertools.count()
        self._demand_totals = [0.0, 0.0, 0.0]
        self._memory_in_use = 0.0
        self._background_count = 0
        #: the machine's single next-completion timer and its target
        self._timer: Optional[Event] = None
        self._timer_ex: Optional[_Execution] = None
        #: perf-guard counters: timers armed / queries completed
        self.timer_arms = 0
        self.completed = 0
        # accounting taps
        self.cpu_in_use = TimeWeightedStats(env.now)
        self.io_in_use = TimeWeightedStats(env.now)
        self.net_in_use = TimeWeightedStats(env.now)
        self.memory_stat = TimeWeightedStats(env.now)
        #: optional hook called after every active-set change with (t, pressures)
        self.on_pressure_change: Optional[Callable[[float, tuple[float, float, float]], None]] = None

    # -- observability -----------------------------------------------------
    @property
    def active_count(self) -> int:
        """Number of in-flight executions."""
        return len(self._active)

    @property
    def memory_in_use_mb(self) -> float:
        """Total memory space claimed by in-flight executions."""
        return self._memory_in_use

    def pressures(self) -> tuple[float, float, float]:
        """(cpu, io, net) pressure = total demand / capacity."""
        d, c = self._demand_totals, self.capacity
        return (d[0] / c[0], d[1] / c[1], d[2] / c[2])

    def slowdown_for(self, sens: SensitivityVector) -> float:
        """Slowdown a hypothetical execution with ``sens`` would see now."""
        return self.config.slowdown(sens, self.pressures())

    # -- execution ----------------------------------------------------------
    def execute(self, work: float, demand: DemandVector, sens: SensitivityVector) -> Event:
        """Run ``work`` seconds of uncontended execution; returns completion event.

        The completion event's value is the actual (stretched) duration.
        """
        if work <= 0:
            raise ValueError(f"work must be positive, got {work}")
        now = self.env.now
        done = self.env.event()
        ex = _Execution(next(self._ids), demand, sens, work, done, now)
        self._active[ex.eid] = ex
        self._demand_totals[0] += demand.cpu
        self._demand_totals[1] += demand.io_mbps
        self._demand_totals[2] += demand.net_mbps
        self._memory_in_use += demand.memory_mb
        self._rebalance(now)
        return done

    def _rebalance(self, now: float) -> None:
        """Bank progress, recompute rates and re-arm the completion timer.

        Called after every active-set or demand change.  Banking (credit
        each execution's progress at its *old* rate up to ``now``) and the
        rate refresh are fused into one pass over the active set: the two
        computations are independent per execution, so interleaving them
        produces bit-identical results to the former two-pass scheme.
        """
        # clamp accumulated float residue so an empty machine reads
        # exactly zero pressure (additions and removals of the same
        # demands do not cancel bitwise when interleaved)
        d = self._demand_totals
        if not self._active and not self._background_count:
            # provably empty: snap exactly (the epsilon clamp below misses
            # residues of 1e-9 and larger, e.g. after a 1e-9 demand leaves)
            d[0] = d[1] = d[2] = 0.0
            mem = self._memory_in_use = 0.0
        else:
            # `-eps < x < eps` is `abs(x) < eps` without the call
            if -1e-9 < d[0] < 1e-9:
                d[0] = 0.0
            if -1e-9 < d[1] < 1e-9:
                d[1] = 0.0
            if -1e-9 < d[2] < 1e-9:
                d[2] = 0.0
            mem = self._memory_in_use
            if -1e-9 < mem < 1e-9:
                mem = self._memory_in_use = 0.0
        # pressures() inlined: total demand / capacity per axis
        c = self.capacity
        p0 = d[0] / c[0]
        p1 = d[1] / c[1]
        p2 = d[2] / c[2]
        cfg = self.config
        # single O(N) pass: refresh every rate, find the earliest finisher.
        # All executions share the pressures, so between set changes each
        # runs at a fixed rate and min(work_left / rate) IS the next
        # completion — no per-execution timers needed.  Strict `<` keeps
        # the tie-break on insertion (eid) order, matching the FIFO order
        # the per-execution scheme produced.
        #
        # Rate fast path: g(p) depends only on the shared pressures, so it
        # is evaluated once per axis, and executions with the same
        # sensitivity vector (all invocations of one function share the
        # spec's) hit a per-rebalance cache.  The arithmetic below mirrors
        # ContentionConfig.slowdown term for term so the cached rates are
        # bit-identical to cfg.slowdown()'s.
        # g() unrolled per axis (mirrors ContentionConfig.g bit for bit)
        lin, quad, knee, cap = cfg.linear, cfg.quad, cfg.knee, cfg.pressure_cap
        p = min(p0, cap)
        e = p - knee
        g0 = lin * p + (quad * e * e if e > 0 else 0.0)
        p = min(p1, cap)
        e = p - knee
        g1 = lin * p + (quad * e * e if e > 0 else 0.0)
        p = min(p2, cap)
        e = p - knee
        g2 = lin * p + (quad * e * e if e > 0 else 0.0)
        co_overlap = 1.0 - cfg.overlap
        # keyed by id(): invocations of one function share the spec's
        # sensitivity object, and identity lookups skip the dataclass's
        # field-tuple hash (equal-valued distinct objects just recompute
        # the same bits)
        rate_of: Dict[int, float] = {}
        next_ex: Optional[_Execution] = None
        next_in = math.inf
        for ex in self._active.values():
            elapsed = now - ex.last_update
            if elapsed > 0:
                ex.work_left -= elapsed * ex.rate
                if ex.work_left < 0:
                    ex.work_left = 0.0
            ex.last_update = now
            sens = ex.sens
            rate = rate_of.get(id(sens))
            if rate is None:
                d0 = sens.cpu * g0
                d1 = sens.io * g1
                d2 = sens.net * g2
                total = d0 + d1 + d2
                worst = max(d0, d1, d2)
                rate = 1.0 / (1.0 + worst + co_overlap * (total - worst))
                rate_of[id(sens)] = rate
            ex.rate = rate
            finish_in = ex.work_left / rate if rate > 0 else math.inf
            if finish_in < next_in:
                next_in = finish_in
                next_ex = ex
        # re-arm the machine's one completion timer (cancel the stale one)
        timer = self._timer
        if timer is not None and not timer._processed:
            timer.cancel()
        self._timer_ex = next_ex
        if next_ex is None:
            self._timer = None
        else:
            self._timer = _CompletionTimer(self.env, next_in, self)
            self.timer_arms += 1
        # accounting: a set() with an unchanged level is a mathematical
        # no-op for a piecewise-constant signal (the integral accrues
        # lazily), so skip the call for axes that did not move
        s = self.cpu_in_use
        if s._level != d[0]:
            s.set(now, d[0])
        s = self.io_in_use
        if s._level != d[1]:
            s.set(now, d[1])
        s = self.net_in_use
        if s._level != d[2]:
            s.set(now, d[2])
        s = self.memory_stat
        if s._level != mem:
            s.set(now, mem)
        if self.on_pressure_change is not None:
            self.on_pressure_change(now, (p0, p1, p2))

    def _on_timer(self) -> None:
        ex = self._timer_ex
        assert ex is not None  # a live timer always has a target
        now = self.env.now
        # bank this execution's own progress precisely
        ex.work_left -= (now - ex.last_update) * ex.rate
        ex.last_update = now
        if ex.work_left > 1e-12:  # numeric guard: not actually done yet
            # rates are unchanged since arming (any set change would have
            # cancelled this timer), so ``ex`` is still the earliest
            self._timer = _CompletionTimer(self.env, ex.work_left / ex.rate, self)
            self.timer_arms += 1
            return
        ex.work_left = 0.0  # clamp float residue; progress never goes negative
        del self._active[ex.eid]
        d = ex.demand
        self._demand_totals[0] -= d.cpu
        self._demand_totals[1] -= d.io_mbps
        self._demand_totals[2] -= d.net_mbps
        self._memory_in_use -= d.memory_mb
        self._rebalance(now)
        self.completed += 1
        # fire in place: the machine is consistent again, so the waiters
        # (pool dispatch, IaaS _serve, cold start) run now instead of
        # after a zero-delay heap round trip (ordering: DESIGN.md §6)
        ex.done._fire(now - ex.start)

    # -- background pressure -------------------------------------------------
    def inject_background(self, demand: DemandVector) -> Callable[[], None]:
        """Add a standing demand (e.g. an unmodelled co-tenant); returns remover.

        Background demand contributes to pressure but has no work to
        complete; used by tests and by synthetic co-tenant scenarios.
        """
        now = self.env.now
        self._demand_totals[0] += demand.cpu
        self._demand_totals[1] += demand.io_mbps
        self._demand_totals[2] += demand.net_mbps
        self._memory_in_use += demand.memory_mb
        self._background_count += 1
        self._rebalance(now)
        removed = False

        def remove() -> None:
            nonlocal removed
            if removed:
                raise RuntimeError("background demand already removed")
            removed = True
            t = self.env.now
            self._demand_totals[0] -= demand.cpu
            self._demand_totals[1] -= demand.io_mbps
            self._demand_totals[2] -= demand.net_mbps
            self._memory_in_use -= demand.memory_mb
            self._background_count -= 1
            self._rebalance(t)

        return remove

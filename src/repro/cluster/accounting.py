"""Vendor-side resource-usage ledgers.

The paper reports *resource usage* as what the deployment occupies on the
vendor's machines (Figs. 11, 13, 14): an IaaS VM occupies its full rented
core/memory allocation for its whole uptime; a serverless container
occupies one container's CPU share and 256 MB for its lifetime (busy,
warm-idle, or prewarmed).  :class:`UsageLedger` integrates both axes over
simulated time and can emit normalized comparisons and timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim import Environment, TimeSeries, TimeWeightedStats

__all__ = ["UsageLedger", "UsageSample"]


@dataclass(frozen=True)
class UsageSample:
    """Integrated usage over an interval."""

    cpu_core_seconds: float
    memory_mb_seconds: float
    duration: float

    def __add__(self, other: "UsageSample") -> "UsageSample":
        """Combine two ledgers covering the same interval (hybrid usage)."""
        return UsageSample(
            cpu_core_seconds=self.cpu_core_seconds + other.cpu_core_seconds,
            memory_mb_seconds=self.memory_mb_seconds + other.memory_mb_seconds,
            duration=max(self.duration, other.duration),
        )

    @property
    def mean_cores(self) -> float:
        """Average cores occupied over the interval."""
        return self.cpu_core_seconds / self.duration if self.duration > 0 else 0.0

    @property
    def mean_memory_mb(self) -> float:
        """Average memory occupied over the interval."""
        return self.memory_mb_seconds / self.duration if self.duration > 0 else 0.0

    def normalized_to(self, baseline: "UsageSample") -> tuple[float, float]:
        """(cpu_ratio, memory_ratio) of this usage vs ``baseline``."""
        if baseline.cpu_core_seconds <= 0 or baseline.memory_mb_seconds <= 0:
            raise ValueError("baseline usage must be positive to normalize")
        return (
            self.cpu_core_seconds / baseline.cpu_core_seconds,
            self.memory_mb_seconds / baseline.memory_mb_seconds,
        )


class UsageLedger:
    """Tracks cores and memory a deployment occupies over time.

    ``acquire``/``release`` adjust the current occupation level; the
    ledger integrates it.  A decimated timeline is kept for the Fig. 13
    usage-timeline reproduction.
    """

    def __init__(self, env: Environment, name: str = "", timeline_interval: float = 30.0):
        self.env = env
        self.name = name
        self._cpu = TimeWeightedStats(env.now)
        self._mem = TimeWeightedStats(env.now)
        self._t0 = env.now
        self.cpu_timeline = TimeSeries(min_interval=timeline_interval)
        self.mem_timeline = TimeSeries(min_interval=timeline_interval)

    @property
    def current_cores(self) -> float:
        """Cores occupied right now."""
        return self._cpu.level

    @property
    def current_memory_mb(self) -> float:
        """Memory occupied right now."""
        return self._mem.level

    def acquire(self, cores: float, memory_mb: float) -> None:
        """Occupy ``cores`` and ``memory_mb`` starting now."""
        if cores < 0 or memory_mb < 0:
            raise ValueError("acquire() amounts must be >= 0")
        now = self.env.now
        cpu, mem = self._cpu, self._mem
        # set(level + x) is adjust(x) minus a call frame: same arithmetic
        cpu.set(now, cpu._level + cores)
        mem.set(now, mem._level + memory_mb)
        self.cpu_timeline.record(now, cpu._level)
        self.mem_timeline.record(now, mem._level)

    def release(self, cores: float, memory_mb: float) -> None:
        """Stop occupying ``cores`` and ``memory_mb`` as of now."""
        if cores < 0 or memory_mb < 0:
            raise ValueError("release() amounts must be >= 0")
        now = self.env.now
        new_cpu = self._cpu.level - cores
        new_mem = self._mem.level - memory_mb
        if new_cpu < -1e-9 or new_mem < -1e-9:
            raise RuntimeError(
                f"ledger {self.name!r} went negative: cores {new_cpu:.3f}, mem {new_mem:.3f}"
            )
        self._cpu.set(now, max(new_cpu, 0.0))
        self._mem.set(now, max(new_mem, 0.0))
        self.cpu_timeline.record(now, self._cpu.level)
        self.mem_timeline.record(now, self._mem.level)

    def snapshot(self) -> UsageSample:
        """Usage integrated from the ledger's start to now."""
        now = self.env.now
        return UsageSample(
            cpu_core_seconds=self._cpu.integral(now),
            memory_mb_seconds=self._mem.integral(now),
            duration=now - self._t0,
        )

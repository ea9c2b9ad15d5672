"""Bounded-memory statistics for long simulations.

The evaluation runs process hundreds of thousands of queries; storing raw
samples for everything would dominate memory and post-processing time.
These helpers keep the accounting O(1) per observation:

* :class:`OnlineStats` — Welford mean/variance, min/max, count.
* :class:`P2Quantile` — the P² streaming quantile estimator (Jain &
  Chlamtac 1985): a single quantile in O(1) memory.
* :class:`ReservoirSample` — uniform fixed-size sample, for CDF plots
  where we *do* want a (bounded) empirical distribution.
* :class:`TimeWeightedStats` — integrates a piecewise-constant signal
  over simulated time (utilization, container counts, memory in use).
* :class:`TimeSeries` — decimating recorder of (t, value) pairs for the
  timeline figures.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "OnlineStats",
    "P2Quantile",
    "ReservoirSample",
    "TimeSeries",
    "TimeWeightedStats",
]


class OnlineStats:
    """Welford's online mean/variance plus min/max."""

    __slots__ = ("n", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        """Fold one observation into the running moments."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Running mean (NaN when empty)."""
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN when n < 2)."""
        return self._m2 / (self.n - 1) if self.n > 1 else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation (NaN when n < 2)."""
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two disjoint streams (Chan et al. parallel variance)."""
        out = OnlineStats()
        out.n = self.n + other.n
        if out.n == 0:
            return out
        delta = other._mean - self._mean
        out._mean = self._mean + delta * other.n / out.n
        out._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / out.n
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        return out


class P2Quantile:
    """P² single-quantile streaming estimator (O(1) memory).

    Tracks five markers whose heights approximate the ``q`` quantile of
    everything observed.  Accurate to a few percent for the smooth latency
    distributions this project produces; where exactness matters (the CDF
    figures) we use :class:`ReservoirSample` instead.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._heights: list[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
        self._incr = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        self.n = 0

    def add(self, x: float) -> None:
        """Fold one observation into the marker state."""
        self.n += 1
        h = self._heights
        if len(h) < 5:
            h.append(x)
            if len(h) == 5:
                h.sort()
            return

        # locate the cell containing x, clamping the extreme markers
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and not (h[k] <= x < h[k + 1]):
                k += 1

        pos = self._pos
        for i in range(k + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._incr[i]

        # adjust interior markers toward their desired positions
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (d <= -1.0 and pos[i - 1] - pos[i] < -1.0):
                step = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                pos[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        return h[i] + d / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + d) * (h[i + 1] - h[i]) / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - d) * (h[i] - h[i - 1]) / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, pos = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (pos[j] - pos[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (NaN when empty)."""
        if not self._heights:
            return math.nan
        if self.n < 5:
            srt = sorted(self._heights)
            idx = min(int(self.q * len(srt)), len(srt) - 1)
            return srt[idx]
        return self._heights[2]


class ReservoirSample:
    """Uniform random sample of fixed size over an unbounded stream."""

    def __init__(self, capacity: int, rng: Optional[np.random.Generator] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        # deterministic fixed-seed fallback when no registry stream is injected
        self._rng = rng if rng is not None else np.random.default_rng(0)  # simlint: ignore[SIM002]
        self._buf: list[float] = []
        self.n = 0

    def add(self, x: float) -> None:
        """Offer one observation to the reservoir."""
        self.n += 1
        if len(self._buf) < self.capacity:
            self._buf.append(x)
        else:
            j = int(self._rng.integers(0, self.n))
            if j < self.capacity:
                self._buf[j] = x

    def values(self) -> np.ndarray:
        """The retained sample as a float array (unordered)."""
        return np.asarray(self._buf, dtype=float)

    def percentile(self, p: float) -> float:
        """Empirical percentile of the retained sample (p in [0, 100])."""
        if not self._buf:
            return math.nan
        return float(np.percentile(self._buf, p))

    def cdf(self, grid: Sequence[float]) -> np.ndarray:
        """Empirical CDF evaluated on ``grid`` (vectorized searchsorted)."""
        if not self._buf:
            return np.full(len(grid), math.nan)
        data = np.sort(np.asarray(self._buf, dtype=float))
        return np.searchsorted(data, np.asarray(grid, dtype=float), side="right") / data.size


class TimeWeightedStats:
    """Time-integral of a piecewise-constant signal.

    ``set(t, v)`` declares that the signal takes value ``v`` from time
    ``t`` onward.  ``mean(t)`` is the time average over [t0, t]; ``min``
    and ``max`` track extremes of the level (not the integral).
    """

    def __init__(self, t0: float = 0.0, initial: float = 0.0) -> None:
        self._t0 = float(t0)
        self._last_t = float(t0)
        self._level = float(initial)
        self._integral = 0.0
        self.min = float(initial)
        self.max = float(initial)

    @property
    def level(self) -> float:
        """Current value of the signal."""
        return self._level

    def set(self, t: float, value: float) -> None:
        """Advance to time ``t`` and set the new level."""
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        self._integral += self._level * (t - self._last_t)
        self._last_t = t
        self._level = float(value)
        if value < self.min:
            self.min = float(value)
        if value > self.max:
            self.max = float(value)

    def adjust(self, t: float, delta: float) -> None:
        """Advance to time ``t`` and add ``delta`` to the level."""
        self.set(t, self._level + delta)

    def integral(self, t: float) -> float:
        """∫ signal dt over [t0, t]."""
        if t < self._last_t:
            raise ValueError(f"time went backwards: {t} < {self._last_t}")
        return self._integral + self._level * (t - self._last_t)

    def mean(self, t: float) -> float:
        """Time-averaged level over [t0, t] (NaN for an empty interval)."""
        span = t - self._t0
        if span <= 0:
            return math.nan
        return self.integral(t) / span


class TimeSeries:
    """Recorder of (t, value) pairs with optional decimation.

    ``min_interval`` suppresses samples closer together than that spacing
    (the *last* value in a burst still lands when the next spaced sample
    arrives, because the signal is sampled, not integrated).
    """

    def __init__(self, min_interval: float = 0.0) -> None:
        self.min_interval = float(min_interval)
        self._t: list[float] = []
        self._v: list[float] = []
        #: time of the last sample that *started* a decimation window; the
        #: grid is anchored here, not at the (rewritten) last timestamp
        self._anchor = -math.inf

    def record(self, t: float, value: float) -> None:
        """Append a sample, subject to decimation."""
        if self._t and self.min_interval > 0 and (t - self._anchor) < self.min_interval:
            # within the decimation window: the newest sample replaces the
            # previous one — both value AND timestamp, so the pair stays
            # consistent (the anchor keeps the window from sliding)
            self._t[-1] = float(t)
            self._v[-1] = float(value)
            return
        self._anchor = t
        self._t.append(float(t))
        self._v.append(float(value))

    def __len__(self) -> int:
        return len(self._t)

    def times(self) -> np.ndarray:
        """Sample timestamps as an array."""
        return np.asarray(self._t, dtype=float)

    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._v, dtype=float)

    def resample(self, grid: Sequence[float]) -> np.ndarray:
        """Zero-order-hold resample onto ``grid`` (NaN before first sample)."""
        g = np.asarray(grid, dtype=float)
        if not self._t:
            return np.full(g.shape, math.nan)
        t = np.asarray(self._t)
        v = np.asarray(self._v)
        idx = np.searchsorted(t, g, side="right") - 1
        out = np.where(idx >= 0, v[np.clip(idx, 0, len(v) - 1)], math.nan)
        return out

"""Statistics helpers: correctness against NumPy and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import (
    OnlineStats,
    ReservoirSample,
    TimeSeries,
    TimeWeightedStats,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.n == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)

    def test_matches_numpy(self):
        data = np.random.default_rng(0).normal(5, 2, size=1000)
        s = OnlineStats()
        s.extend(data)
        assert s.n == 1000
        assert s.mean == pytest.approx(np.mean(data))
        assert s.variance == pytest.approx(np.var(data, ddof=1))
        assert s.std == pytest.approx(np.std(data, ddof=1))
        assert s.min == data.min() and s.max == data.max()

    def test_single_observation(self):
        s = OnlineStats()
        s.add(3.0)
        assert s.mean == 3.0
        assert math.isnan(s.variance)

    @given(st.lists(finite_floats, min_size=1, max_size=60), st.lists(finite_floats, min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_combined(self, xs, ys):
        a, b, c = OnlineStats(), OnlineStats(), OnlineStats()
        a.extend(xs)
        b.extend(ys)
        c.extend(xs + ys)
        merged = a.merge(b)
        assert merged.n == c.n
        assert merged.mean == pytest.approx(c.mean, rel=1e-6, abs=1e-6)
        if c.n > 1 and not math.isnan(c.variance):
            assert merged.variance == pytest.approx(c.variance, rel=1e-6, abs=1e-5)

    def test_merge_with_empty(self):
        a, b = OnlineStats(), OnlineStats()
        a.extend([1.0, 2.0])
        m = a.merge(b)
        assert m.n == 2 and m.mean == 1.5


class TestReservoirSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReservoirSample(0)

    def test_keeps_everything_under_capacity(self):
        r = ReservoirSample(100)
        for x in range(50):
            r.add(float(x))
        assert sorted(r.values()) == [float(x) for x in range(50)]

    def test_bounded_at_capacity(self):
        r = ReservoirSample(64, rng=np.random.default_rng(0))
        for x in range(10000):
            r.add(float(x))
        assert r.values().size == 64
        assert r.n == 10000

    def test_sample_is_representative(self):
        r = ReservoirSample(2000, rng=np.random.default_rng(1))
        for x in range(100000):
            r.add(float(x))
        assert abs(r.percentile(50) - 50000) < 6000

    def test_percentile_empty_nan(self):
        assert math.isnan(ReservoirSample(10).percentile(50))

    def test_cdf_monotone(self):
        r = ReservoirSample(500, rng=np.random.default_rng(2))
        for x in np.random.default_rng(3).normal(0, 1, 2000):
            r.add(float(x))
        grid = np.linspace(-3, 3, 50)
        f = r.cdf(grid)
        assert np.all(np.diff(f) >= 0)
        assert f[0] >= 0.0 and f[-1] <= 1.0


class TestTimeWeightedStats:
    def test_constant_signal(self):
        tw = TimeWeightedStats(t0=0.0, initial=3.0)
        assert tw.integral(10.0) == pytest.approx(30.0)
        assert tw.mean(10.0) == pytest.approx(3.0)

    def test_step_signal(self):
        tw = TimeWeightedStats()
        tw.set(2.0, 4.0)  # 0 until t=2, then 4
        assert tw.integral(5.0) == pytest.approx(12.0)
        assert tw.mean(5.0) == pytest.approx(12.0 / 5.0)
        assert tw.max == 4.0 and tw.min == 0.0

    def test_adjust(self):
        tw = TimeWeightedStats()
        tw.adjust(1.0, 2.0)
        tw.adjust(2.0, -1.0)
        assert tw.level == pytest.approx(1.0)
        assert tw.integral(3.0) == pytest.approx(0 + 2.0 * 1.0 + 1.0 * 1.0)

    def test_time_going_backwards_raises(self):
        tw = TimeWeightedStats()
        tw.set(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.set(4.0, 2.0)
        with pytest.raises(ValueError):
            tw.integral(4.0)

    def test_empty_interval_mean_nan(self):
        assert math.isnan(TimeWeightedStats().mean(0.0))

    @given(st.lists(st.tuples(st.floats(0.01, 10.0), finite_floats), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_integral_matches_manual(self, steps):
        tw = TimeWeightedStats()
        t = 0.0
        manual = 0.0
        level = 0.0
        for dt, v in steps:
            manual += level * dt
            t += dt
            tw.set(t, v)
            level = v
        manual += level * 1.0
        assert tw.integral(t + 1.0) == pytest.approx(manual, rel=1e-9, abs=1e-6)


class TestTimeSeries:
    def test_records_everything_without_decimation(self):
        ts = TimeSeries()
        for i in range(10):
            ts.record(float(i), float(i * i))
        assert len(ts) == 10

    def test_decimation_keeps_latest(self):
        ts = TimeSeries(min_interval=1.0)
        ts.record(0.0, 1.0)
        ts.record(0.5, 2.0)  # within window: overwrites value
        ts.record(2.0, 3.0)
        assert len(ts) == 2
        assert ts.values()[0] == 2.0

    def test_decimated_sample_keeps_consistent_timestamp(self):
        # the in-window rewrite must replace the (t, v) pair together —
        # it used to keep the stale timestamp with the new value
        ts = TimeSeries(min_interval=1.0)
        ts.record(0.0, 1.0)
        ts.record(0.5, 2.0)
        assert ts.times()[-1] == 0.5
        assert ts.values()[-1] == 2.0

    def test_decimation_window_does_not_slide(self):
        # rewriting the newest sample's timestamp must not move the
        # decimation grid: the window stays anchored at the first
        # accepted sample's time
        ts = TimeSeries(min_interval=1.0)
        ts.record(0.0, 1.0)
        ts.record(0.9, 2.0)  # in-window rewrite
        ts.record(1.5, 3.0)  # 1.5s past the anchor at 0.0: new sample
        assert list(ts.times()) == [0.9, 1.5]
        assert list(ts.values()) == [2.0, 3.0]

    def test_resample_zero_order_hold(self):
        ts = TimeSeries()
        ts.record(1.0, 10.0)
        ts.record(3.0, 20.0)
        out = ts.resample([0.0, 1.0, 2.0, 3.5])
        assert math.isnan(out[0])
        assert out[1] == 10.0 and out[2] == 10.0 and out[3] == 20.0

    def test_resample_empty(self):
        out = TimeSeries().resample([1.0, 2.0])
        assert np.all(np.isnan(out))

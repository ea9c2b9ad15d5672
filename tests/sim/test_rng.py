"""Determinism and independence of named RNG substreams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry


def test_same_seed_same_stream():
    a = RngRegistry(seed=7).stream("x").random(10)
    b = RngRegistry(seed=7).stream("x").random(10)
    assert np.array_equal(a, b)


def test_different_names_differ():
    reg = RngRegistry(seed=7)
    a = reg.stream("x").random(10)
    b = reg.stream("y").random(10)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(10)
    b = RngRegistry(seed=2).stream("x").random(10)
    assert not np.array_equal(a, b)


def test_stream_identity_is_creation_order_independent():
    r1 = RngRegistry(seed=5)
    r1.stream("a")
    v1 = r1.stream("b").random(5)
    r2 = RngRegistry(seed=5)
    v2 = r2.stream("b").random(5)  # "a" never created here
    assert np.array_equal(v1, v2)


def test_stream_cached():
    reg = RngRegistry(seed=3)
    assert reg.stream("s") is reg.stream("s")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngRegistry(seed=-1)


def test_exponential_mean():
    reg = RngRegistry(seed=11)
    xs = [reg.exponential("e", 2.0) for _ in range(20000)]
    assert abs(np.mean(xs) - 2.0) < 0.05


def test_exponential_validation():
    with pytest.raises(ValueError):
        RngRegistry(seed=0).exponential("e", 0.0)


def test_lognormal_median():
    reg = RngRegistry(seed=13)
    xs = [reg.lognormal_around("l", 3.0, 0.3) for _ in range(20001)]
    assert abs(np.median(xs) - 3.0) < 0.1


def test_lognormal_validation():
    with pytest.raises(ValueError):
        RngRegistry(seed=0).lognormal_around("l", -1.0, 0.1)


def test_uniform_bounds():
    reg = RngRegistry(seed=17)
    xs = [reg.uniform("u", 2.0, 5.0) for _ in range(1000)]
    assert min(xs) >= 2.0 and max(xs) < 5.0


def test_uniform_validation():
    with pytest.raises(ValueError):
        RngRegistry(seed=0).uniform("u", 5.0, 2.0)


def test_fork_is_deterministic_and_independent():
    a1 = RngRegistry(seed=9).fork("salt").stream("x").random(5)
    a2 = RngRegistry(seed=9).fork("salt").stream("x").random(5)
    b = RngRegistry(seed=9).fork("other").stream("x").random(5)
    parent = RngRegistry(seed=9).stream("x").random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, parent)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    median=st.floats(min_value=1e-3, max_value=1e3),
    sigma=st.floats(min_value=0.0, max_value=2.0),
)
def test_sampler_matches_scalar_draws_bit_for_bit(seed, median, sigma):
    n = 3 * 256 + 41  # crosses three block boundaries
    draw = RngRegistry(seed=seed).lognormal_sampler("s", median, sigma)
    scalar = RngRegistry(seed=seed)
    got = [draw().hex() for _ in range(n)]
    want = [scalar.lognormal_around("s", median, sigma).hex() for _ in range(n)]
    assert got == want


class TestSamplerOwnsItsStream:
    """A block-drawing sampler is its stream's one consumer."""

    def test_identical_request_returns_the_same_sampler(self):
        reg = RngRegistry(seed=3)
        assert reg.lognormal_sampler("s", 1.0, 0.2) is reg.lognormal_sampler("s", 1.0, 0.2)

    def test_shared_sampler_interleaves_like_two_scalar_draw_sites(self):
        reg = RngRegistry(seed=3)
        first = reg.lognormal_sampler("s", 1.0, 0.2)
        second = reg.lognormal_sampler("s", 1.0, 0.2)
        got = [f().hex() for _ in range(300) for f in (first, second)]
        scalar = RngRegistry(seed=3)
        want = [scalar.lognormal_around("s", 1.0, 0.2).hex() for _ in range(600)]
        assert got == want

    @pytest.mark.parametrize("median, sigma", [(2.0, 0.2), (1.0, 0.3)])
    def test_different_parameters_raise(self, median, sigma):
        reg = RngRegistry(seed=3)
        reg.lognormal_sampler("s", 1.0, 0.2)
        with pytest.raises(ValueError, match="already has a sampler"):
            reg.lognormal_sampler("s", median, sigma)

    def test_stream_on_a_sampler_name_raises(self):
        reg = RngRegistry(seed=3)
        reg.lognormal_sampler("s", 1.0, 0.2)
        with pytest.raises(ValueError, match="owned by a lognormal sampler"):
            reg.stream("s")

    def test_lognormal_around_on_a_sampler_name_raises(self):
        reg = RngRegistry(seed=3)
        reg.lognormal_sampler("s", 1.0, 0.2)
        with pytest.raises(ValueError, match="owned by a lognormal sampler"):
            reg.lognormal_around("s", 1.0, 0.2)

    def test_sampler_on_a_handed_out_stream_raises(self):
        reg = RngRegistry(seed=3)
        reg.stream("s")
        with pytest.raises(ValueError, match="already handed out"):
            reg.lognormal_sampler("s", 1.0, 0.2)

    def test_other_names_are_unaffected(self):
        reg = RngRegistry(seed=3)
        reg.lognormal_sampler("s", 1.0, 0.2)
        assert reg.lognormal_around("t", 1.0, 0.2) > 0

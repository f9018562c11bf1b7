"""Tests for the divergence generator family and its reference functions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import conjugate_at_zero, evaluate, generalized_inverse

from fdivrisk.generators import Hellinger, HockeyStick

ALL_KINDS = [
    Hellinger(1.5),
    Hellinger(2.0),
    Hellinger(3.0),
    Hellinger(5.0),
    HockeyStick(1.0, 1.0),
    HockeyStick(0.75, 2.2),
    HockeyStick(2.0, 3.5),
]


class TestEvaluate:
    def test_one_maps_to_zero_exactly(self):
        for g in ALL_KINDS:
            assert evaluate(g, 1.0) == 0.0

    def test_frozen_examples(self):
        assert evaluate(Hellinger(2.0), 1.0) == 0.0
        assert evaluate(HockeyStick(1.0, 1.0), 3.0) == 2.0
        # (3^2 - 1) / (2 - 1)
        assert evaluate(Hellinger(2.0), 3.0) == pytest.approx(8.0, rel=1e-15)

    def test_hellinger_at_zero_is_finite_limit(self):
        assert evaluate(Hellinger(2.0), 0.0) == pytest.approx(-1.0)
        assert evaluate(Hellinger(3.0), 0.0) == pytest.approx(-0.5)

    def test_negative_argument_rejected(self):
        for g in ALL_KINDS:
            with pytest.raises(ValueError):
                evaluate(g, -0.1)

    def test_convexity_on_sampled_triples(self):
        # Midpoint inequality f((a+b)/2) <= (f(a)+f(b))/2 on a deterministic sweep.
        points = [0.0, 0.05, 0.3, 0.7, 1.0, 1.8, 2.5, 4.0, 9.0]
        for g in ALL_KINDS:
            for a in points:
                for b in points:
                    mid = 0.5 * (a + b)
                    assert evaluate(g, mid) <= 0.5 * (evaluate(g, a) + evaluate(g, b)) + 1e-12


class TestConjugateAtZero:
    def test_closed_forms(self):
        assert conjugate_at_zero(Hellinger(2.0)) == pytest.approx(1.0)
        assert conjugate_at_zero(Hellinger(3.0)) == pytest.approx(0.5)
        assert conjugate_at_zero(HockeyStick(0.75, 2.2)) == 0.0
        assert conjugate_at_zero(HockeyStick(1.0, 1.0)) == 0.0

    def test_matches_grid_maximisation(self):
        # sup_{x >= 0} -f(x); the maximum sits in [0, 1] for every kind here.
        for g in [Hellinger(1.5), Hellinger(2.0), Hellinger(3.0), Hellinger(5.0)]:
            grid_max = max(-evaluate(g, i / 20000.0) for i in range(20001))
            assert conjugate_at_zero(g) == pytest.approx(grid_max, abs=1e-9)


class TestGeneralizedInverse:
    def test_frozen_examples(self):
        assert generalized_inverse(HockeyStick(1.0, 1.0), 0.0) == pytest.approx(1.0)
        assert generalized_inverse(Hellinger(2.0), 8.0) == pytest.approx(3.0, rel=1e-14)
        assert generalized_inverse(Hellinger(2.0), 0.0) == pytest.approx(1.0)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            generalized_inverse(Hellinger(2.0), -1.5)
        with pytest.raises(ValueError):
            generalized_inverse(HockeyStick(1.0, 2.0), -0.01)

    def test_monotone_in_y(self):
        for g in ALL_KINDS:
            lo = -1.0 / (g.p - 1.0) if isinstance(g, Hellinger) else 0.0
            previous = -math.inf
            for i in range(1000):
                y = lo + i * 0.01
                value = generalized_inverse(g, y)
                assert value >= previous - 1e-14
                previous = value


@given(st.floats(min_value=1.01, max_value=8.0), st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=300, deadline=None)
def test_round_trip_hellinger(p, t):
    g = Hellinger(p)
    assert generalized_inverse(g, evaluate(g, t)) == pytest.approx(t, rel=1e-12)


@given(
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.0, max_value=6.0),
    st.floats(min_value=0.0, max_value=40.0),
)
@settings(max_examples=300, deadline=None)
def test_round_trip_hockey_stick(beta, gamma_excess, t_excess):
    g = HockeyStick(beta, beta + gamma_excess)
    t = g.gamma / g.beta + t_excess  # strictly increasing region
    assert generalized_inverse(g, evaluate(g, t)) == pytest.approx(t, rel=1e-12)


class TestConstructionAndAliases:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Hellinger(1.0)
        with pytest.raises(ValueError):
            Hellinger(0.5)
        with pytest.raises(ValueError):
            HockeyStick(0.0, 1.0)
        with pytest.raises(ValueError):
            HockeyStick(2.0, 1.0)

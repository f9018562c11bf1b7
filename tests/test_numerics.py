"""Tests for the scalar numerical kernels."""

import inspect
import math
import sys

import numpy as np
import pytest
from oracles import bisect_root, log_comb, norm_cdf, norm_pdf, regularized_incomplete_beta

from fdivrisk import numerics
from fdivrisk.models import _beta_median_table
from fdivrisk.numerics import (
    QuadratureError,
    _beta_cont_frac,
    _beta_cont_frac_array,
    _incomplete_beta,
    _incomplete_beta_array,
    adaptive_quadrature,
    beta_median,
)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        val, err = adaptive_quadrature(lambda x: 3.0 * x * x, 0.0, 2.0, rel_tol=1e-10, abs_tol=0.0)
        assert val == pytest.approx(8.0, rel=1e-14)
        assert err < 1e-12

    def test_gaussian_integral(self):
        val, _ = adaptive_quadrature(
            lambda x: norm_pdf(x, 0.0, 1.0), -8.0, 8.0, rel_tol=1e-12, abs_tol=0.0
        )
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_oscillatory(self):
        val, _ = adaptive_quadrature(math.sin, 0.0, math.pi, rel_tol=1e-12, abs_tol=0.0)
        assert val == pytest.approx(2.0, rel=1e-11)

    def test_kink_needs_breakpoint(self):
        f = lambda x: max(0.0, x - 0.3)
        exact = 0.5 * 0.7**2
        val = sum(
            adaptive_quadrature(f, lo, hi, rel_tol=1e-10, abs_tol=0.0)[0]
            for lo, hi in ((0.0, 0.3), (0.3, 1.0))
        )
        assert val == pytest.approx(exact, rel=1e-13)

    def test_zero_width_interval(self):
        assert adaptive_quadrature(math.sin, 1.0, 1.0, rel_tol=1e-10, abs_tol=0.0) == (0.0, 0.0)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(math.sin, 1.0, 0.0, rel_tol=1e-10, abs_tol=0.0)

    def test_budget_exhaustion_raises(self):
        # sin(1/x) oscillates without end near 0, so no panel budget meets
        # the tolerance; the search must fail loudly once it runs out.
        with pytest.raises(QuadratureError) as stall:
            adaptive_quadrature(lambda x: math.sin(1.0 / x), 0.0, 1.0, rel_tol=1e-10, abs_tol=0.0)
        assert str(stall.value) == "integration stalled at error 1.371e-06 after 4096 panels"

    def test_integrable_endpoint_singularity(self):
        # The panels at 0 narrow towards the rounding floor of their width,
        # and are split on like any other until the total meets the
        # tolerance: the integral of x^(-1/2) over [0, 1] is 2.
        val, err = adaptive_quadrature(lambda x: x**-0.5, 0.0, 1.0, rel_tol=1e-10, abs_tol=0.0)
        assert abs(val - 2.0) <= err


class TestRootFinding:
    def test_simple_root(self):
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, tol=1e-13)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_infinite_endpoint_sign(self):
        root = bisect_root(lambda x: -math.inf if x == 0.0 else math.log(x), 0.0, 2.0, tol=1e-13)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_unbracketed_rejected(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, tol=1e-13)


class TestSpecialFunctions:
    def test_log_comb_matches_exact(self):
        for n, k in [(5, 2), (20, 7), (100, 50)]:
            assert log_comb(n, k) == pytest.approx(math.log(math.comb(n, k)), rel=1e-13)

    def test_log_comb_domain(self):
        with pytest.raises(ValueError):
            log_comb(5, 6)

    def test_norm_cdf_symmetry_and_tails(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, rel=1e-15)
        assert norm_cdf(1.0) + norm_cdf(-1.0) == pytest.approx(1.0, rel=1e-14)
        assert norm_cdf(-37.0) > 0.0  # erfc keeps the far tail above zero

    def test_incomplete_beta_closed_forms(self):
        # I_x(1, 1) = x; I_x(1, b) = 1 - (1-x)^b; I_x(a, 1) = x^a.
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, rel=1e-12)
            assert regularized_incomplete_beta(1.0, 3.0, x) == pytest.approx(
                1.0 - (1.0 - x) ** 3, rel=1e-12
            )
            assert regularized_incomplete_beta(2.5, 1.0, x) == pytest.approx(x**2.5, rel=1e-12)

    def test_incomplete_beta_symmetry(self):
        a, b, x = 3.7, 1.9, 0.42
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_incomplete_beta_endpoints_and_domain(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 2.0, 1.5)

    def test_continued_fraction_array_matches_scalar(self):
        # Only +, -, *, / and abs: every element must match the scalar loop
        # bit for bit, whatever step it converges at.
        rng = np.random.default_rng(5)
        a = np.concatenate(([1.0, 2.0, 5001.0], rng.uniform(1.0, 3000.0, 200)))
        b = np.concatenate(([1.0, 9000.0, 5001.0], rng.uniform(1.0, 3000.0, 200)))
        x = (a + 1.0) / (a + b + 2.0) * np.concatenate(([0.5, 1e-6, 0.999], rng.random(200)))
        expected = [_beta_cont_frac(*args) for args in zip(a.tolist(), b.tolist(), x.tolist())]
        assert _beta_cont_frac_array(a, b, x).tolist() == expected

    def test_incomplete_beta_array_matches_scalar(self):
        # numpy's log1p and exp may round differently from libm's.  A one-ulp
        # change in log x or log1p(-x) moves the front factor
        # exp(log_norm + a log x + b log1p(-x)), and so I_x(a, b), by up to a
        # or b ulps relative: "a few ulps" of that exponent.
        rng = np.random.default_rng(5)
        a = rng.uniform(1.0, 3000.0, 400)
        b = rng.uniform(1.0, 3000.0, 400)
        # Within four standard deviations of the mean, so on both sides of
        # (a+1)/(a+b+2), where the continued fraction switches sides.
        sd = np.sqrt(a * b / (a + b + 1.0)) / (a + b)
        x = np.clip(a / (a + b) + sd * rng.uniform(-4.0, 4.0, 400), 1e-9, 1.0 - 1e-9)
        shapes = list(zip(a.tolist(), b.tolist(), x.tolist()))
        log_norm = [math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q) for p, q, _ in shapes]
        array = _incomplete_beta_array(a, b, x, np.array(log_norm), np.log(x), np.log1p(-x))
        for (p, q, r), ln, got in zip(shapes, log_norm, array.tolist()):
            log_r, log1m_r = math.log(r), math.log1p(-r)
            expected = _incomplete_beta(p, q, r, ln, log_r, log1m_r)
            exponent = abs(p * log_r) + abs(q * log1m_r)
            assert abs(got - expected) <= 4.0 * sys.float_info.epsilon * (1.0 + exponent) * expected

    def test_incomplete_beta_exact_ends(self):
        a = np.array([2.0, 2.0, 0.5, 700.0, 3.0])
        b = np.array([3.0, 3.0, 900.0, 0.25, 4.0])
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.4])
        log_norm = np.array(
            [math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q) for p, q in zip(a, b)]
        )
        with np.errstate(divide="ignore"):  # log(0) at the exact ends
            array = _incomplete_beta_array(a, b, x, log_norm, np.log(x), np.log1p(-x))
        assert array[:4].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert 0.0 < array[4] < 1.0
        # The scalar form reads no log at the ends either: it gets the -inf
        # placeholders the numpy form gets.
        for p, q, r, ln in zip(a[:4].tolist(), b[:4].tolist(), x[:4].tolist(), log_norm.tolist()):
            assert _incomplete_beta(p, q, r, ln, -math.inf, -math.inf) == r

    def test_scalar_and_array_forms_take_the_same_arguments(self):
        # One calling convention: the same parameters in the same order, and
        # no default through which a caller could leave out the logs of x.
        scalar = inspect.signature(_incomplete_beta).parameters.values()
        array = inspect.signature(_incomplete_beta_array).parameters.values()
        assert [p.name for p in scalar] == [p.name for p in array]
        assert all(p.default is inspect.Parameter.empty for p in [*scalar, *array])

    def test_beta_median_known_values(self):
        # Beta(1, 2) has CDF 1 - (1-x)^2, so the median is 1 - sqrt(1/2);
        # Beta(2, 2) is symmetric about 1/2.
        assert beta_median(1.0, 2.0) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-11)
        assert beta_median(2.0, 2.0) == pytest.approx(0.5, abs=1e-11)
        with pytest.raises(ValueError, match="shape parameters must be positive"):
            beta_median(-0.5, 2.0)

    def test_beta_median_is_a_median(self):
        for a, b in [(3.0, 11.0), (26.0, 26.0), (1.0, 51.0)]:
            m = beta_median(a, b)
            assert regularized_incomplete_beta(a, b, m) == pytest.approx(0.5, abs=1e-11)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 500])
    def test_beta_median_table_matches_oracle_bisection(self, monkeypatch, n):
        # The generic bisection evaluates the bracket's ends too, I_0 = 0 and
        # I_1 = 1; the median's own loop skips them, and must take the same
        # midpoints to the same bits.  Each median evaluates its 40 midpoints,
        # unless one is the median exactly (I_1/2(a, a) = 1/2 at small a).
        calls = []

        def counted(a, b, x, log_norm, log_x, log1m_x):
            calls.append((a, b))
            return _incomplete_beta(a, b, x, log_norm, log_x, log1m_x)

        monkeypatch.setattr(numerics, "_incomplete_beta", counted)
        table = _beta_median_table(n)
        monkeypatch.undo()
        for k, median in enumerate(table):
            a, b = k + 1.0, n - k + 1.0
            expected = bisect_root(
                lambda x: regularized_incomplete_beta(a, b, x) - 0.5, 0.0, 1.0, tol=1e-12
            )
            assert median.hex() == expected.hex()
            evaluations = calls.count((a, b))
            exact = regularized_incomplete_beta(a, b, median) == 0.5
            assert evaluations == 40 or (exact and evaluations < 40)

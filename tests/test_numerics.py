"""Tests for the scalar numerical kernels."""

import math

import numpy as np
import pytest

from fdivrisk.numerics import (
    QuadratureError,
    _beta_cont_frac,
    _beta_cont_frac_array,
    adaptive_quadrature,
    beta_median,
    bisect_root,
    golden_section_max,
    log_comb,
    norm_cdf,
    norm_pdf,
    regularized_incomplete_beta,
)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        val, err = adaptive_quadrature(lambda x: 3.0 * x * x, 0.0, 2.0)
        assert val == pytest.approx(8.0, rel=1e-14)
        assert err < 1e-12

    def test_gaussian_integral(self):
        val, _ = adaptive_quadrature(lambda x: norm_pdf(x, 0.0, 1.0), -8.0, 8.0, rel_tol=1e-12)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_oscillatory(self):
        val, _ = adaptive_quadrature(math.sin, 0.0, math.pi, rel_tol=1e-12)
        assert val == pytest.approx(2.0, rel=1e-11)

    def test_kink_needs_breakpoint(self):
        f = lambda x: max(0.0, x - 0.3)
        exact = 0.5 * 0.7**2
        val = sum(adaptive_quadrature(f, lo, hi)[0] for lo, hi in ((0.0, 0.3), (0.3, 1.0)))
        assert val == pytest.approx(exact, rel=1e-13)

    def test_zero_width_interval(self):
        assert adaptive_quadrature(math.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            adaptive_quadrature(math.sin, 1.0, 0.0)

    def test_budget_exhaustion_raises(self):
        # sin(1/x) oscillates without end near 0, so no panel budget meets
        # the tolerance; the search must fail loudly once it runs out.
        with pytest.raises(QuadratureError, match="after 4096 panels"):
            adaptive_quadrature(lambda x: math.sin(1.0 / x), 0.0, 1.0)


class TestRootFinding:
    def test_simple_root(self):
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_infinite_endpoint_sign(self):
        root = bisect_root(lambda x: -math.inf if x == 0.0 else math.log(x), 0.0, 2.0)
        assert root == pytest.approx(1.0, abs=1e-12)

    def test_unbracketed_rejected(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


class TestGoldenSection:
    def test_parabola(self):
        # Comparison-based search cannot localise a flat maximum beyond
        # ~sqrt(machine eps), but the value there is accurate to full precision.
        x, fx = golden_section_max(lambda x: x * (1.0 - x), 0.0, 1.0, tol=1e-12, max_iter=256)
        assert x == pytest.approx(0.5, abs=1e-7)
        assert fx == pytest.approx(0.25, rel=1e-12)

    def test_asymmetric_maximum(self):
        x, _ = golden_section_max(
            lambda x: -((x - 0.123456) ** 2), 0.0, 1.0, tol=1e-12, max_iter=256
        )
        assert x == pytest.approx(0.123456, abs=1e-7)


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

    def test_beta_median_known_values(self):
        # Beta(1, 2) has CDF 1 - (1-x)^2, so the median is 1 - sqrt(1/2);
        # Beta(2, 2) is symmetric about 1/2.
        assert beta_median(1.0, 2.0) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-11)
        assert beta_median(2.0, 2.0) == pytest.approx(0.5, abs=1e-11)

    def test_beta_median_is_a_median(self):
        for a, b in [(3.0, 11.0), (26.0, 26.0), (1.0, 51.0)]:
            m = beta_median(a, b)
            assert regularized_incomplete_beta(a, b, m) == pytest.approx(0.5, abs=1e-11)

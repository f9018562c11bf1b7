"""Tests for the two estimation models."""

import math

import numpy as np
import pytest

from oracles import bernoulli_density_ratio, gaussian_density_ratio

from fdivrisk.models import BernoulliModel, GaussianModel, make_rng
from fdivrisk.numerics import adaptive_quadrature, norm_cdf, norm_pdf


class TestBernoulliModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliModel(0)
        with pytest.raises(ValueError):
            BernoulliModel(-3)

    def test_small_ball_coefficient(self):
        assert BernoulliModel(10).small_ball_coefficient() == 2.0

    def test_small_ball_bound_dominates_exact_mass(self):
        # P(|W - w| <= rho) is the overlap of [w-rho, w+rho] with [0, 1].
        for w in np.linspace(0.0, 1.0, 21):
            for rho in (0.01, 0.1, 0.3, 0.7):
                exact = min(w + rho, 1.0) - max(w - rho, 0.0)
                assert exact <= 2.0 * rho + 1e-15

    def test_density_ratio_examples(self):
        assert bernoulli_density_ratio(BernoulliModel(1), 0.0, 0) == pytest.approx(2.0)
        # Kernel maximum sits at w = k/n.
        model = BernoulliModel(6)
        for k in (1, 3, 5):
            peak = bernoulli_density_ratio(model, k / 6.0, k)
            for w in np.linspace(0.001, 0.999, 199):
                assert bernoulli_density_ratio(model, float(w), k) <= peak + 1e-12

    def test_density_ratio_domain(self):
        model = BernoulliModel(4)
        with pytest.raises(ValueError):
            bernoulli_density_ratio(model, -0.1, 2)
        with pytest.raises(ValueError):
            bernoulli_density_ratio(model, 0.5, 5)

    def test_posterior_normalisation_by_quadrature(self):
        # The ratio at fixed k is the posterior density, so it integrates to 1
        # for every Hamming weight.
        for n in (1, 4, 11, 40):
            model = BernoulliModel(n)
            for k in range(n + 1):
                val, _ = adaptive_quadrature(
                    lambda w, _k=k: bernoulli_density_ratio(model, w, _k), 0.0, 1.0, rel_tol=1e-11
                )
                assert val == pytest.approx(1.0, abs=1e-10)

    def test_marginal_mass_example_and_monte_carlo(self):
        # The Hamming weight is uniform on 0..n under the prior-marginal law,
        # so P(K = 2) = 1/5 at n = 4.
        rng = make_rng(11)
        w = rng.random(10**6)
        k = rng.binomial(4, w)
        freq = float(np.mean(k == 2))
        se = math.sqrt(0.2 * 0.8 / 10**6)
        assert abs(freq - 0.2) <= 3.0 * se

    def test_posterior_median_is_beta_median(self):
        model = BernoulliModel(5)
        # Beta(1, 6) CDF is 1 - (1-x)^6.
        assert model.posterior_median(0) == pytest.approx(1.0 - 0.5 ** (1.0 / 6.0), abs=1e-10)
        assert model.posterior_median(5) == pytest.approx(0.5 ** (1.0 / 6.0), abs=1e-10)


class TestBernoulliSimulatedRisk:
    """The blocked Monte-Carlo risk equals the one-shot formula bit for bit."""

    # n = 61 and 200 reach numpy's BTPE branch (n * min(w, 1 - w) > 30).
    @pytest.mark.parametrize("n", [1, 7, 50, 61, 200])
    @pytest.mark.parametrize("samples", [2, 65_535, 65_536, 65_537, 10**6 + 3])
    @pytest.mark.parametrize("seed", [1729, 4])
    def test_matches_one_shot_formula(self, n, samples, seed):
        model = BernoulliModel(n)
        # One draw of the whole sample, as the risk was once computed.
        rng = make_rng(seed)
        w = rng.random(samples)
        k = rng.binomial(n, w)
        table = np.array([model.posterior_median(j) for j in range(n + 1)])
        err = np.abs(w - table[k])
        expected = (float(err.mean()), float(err.std(ddof=1) / math.sqrt(samples)))
        assert model.simulate_risk(samples, seed) == expected


class TestGaussianModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianModel(0)
        with pytest.raises(ValueError):
            GaussianModel(3, -1.0, 1.0)
        with pytest.raises(ValueError):
            GaussianModel(3, 1.0, 0.0)

    @pytest.mark.parametrize(
        "sigma_w_sq, sigma_sq, n",
        [(1.0, 5e-324, 2), (1.0, 1e-300, 10**9), (1e300, 1e-300, 1), (math.inf, 1.0, 1)],
    )
    def test_degenerate_sufficient_statistic(self, sigma_w_sq, sigma_sq, n):
        # sigma_sq / n underflows to 0, or sigma_w_sq / (sigma_sq / n) overflows.
        with pytest.raises(ValueError, match="variance ratio .* is not finite"):
            GaussianModel(n, sigma_w_sq, sigma_sq)

    def test_small_ball_coefficient_examples(self):
        assert GaussianModel(10, 1.0, 1.0).small_ball_coefficient() == pytest.approx(
            2.0 / math.sqrt(2.0 * math.pi)
        )
        flat = GaussianModel(10, 1.0 / (2.0 * math.pi), 1.0)
        assert flat.small_ball_coefficient() == pytest.approx(2.0)

    def test_small_ball_bound_dominates_exact_mass(self):
        model = GaussianModel(3, 1.7, 0.9)
        c = model.small_ball_coefficient()
        sw = math.sqrt(model.sigma_w_sq)
        for w in np.linspace(-3.0, 3.0, 13):
            for rho in (0.01, 0.1, 0.5, 2.0):
                exact = norm_cdf((w + rho) / sw) - norm_cdf((w - rho) / sw)
                assert exact <= c * rho + 1e-14

    def test_density_ratio_example(self):
        model = GaussianModel(1, 1.0, 1.0)
        assert gaussian_density_ratio(model, 0.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_ratio_has_unit_product_expectation(self):
        # Integrating the ratio against the product law recovers total mass 1.
        model = GaussianModel(2, 1.0, 2.0)
        sw = math.sqrt(model.sigma_w_sq)
        m2 = model.marginal_var
        m = math.sqrt(m2)

        def inner(w):
            val, _ = adaptive_quadrature(
                lambda x: norm_pdf(x, 0.0, m2) * gaussian_density_ratio(model, w, x),
                -8.0 * m + w,  # ratio mass concentrates near x = w
                8.0 * m + w,
                rel_tol=1e-10,
            )
            return val

        val, _ = adaptive_quadrature(
            lambda w: math.exp(-0.5 * w * w / model.sigma_w_sq)
            / math.sqrt(2.0 * math.pi * model.sigma_w_sq)
            * inner(w),
            -8.0 * sw,
            8.0 * sw,
            rel_tol=1e-9,
        )
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_exact_risk_and_upper_bound(self):
        model = GaussianModel(2, 1.0, 2.0)
        ref = model.bayes_risk_reference()
        assert ref.value == pytest.approx(math.sqrt(2.0 / math.pi) * math.sqrt(0.5), rel=1e-14)
        # mean absolute deviation <= standard deviation
        for n in (1, 5, 20):
            for sw2, s2 in [(1.0, 2.0), (0.5, 0.5), (3.0, 1.0)]:
                m = GaussianModel(n, sw2, s2)
                assert m.bayes_risk_reference().value <= math.sqrt(m.posterior_var)

    def test_simulated_risk_matches_exact(self):
        model = GaussianModel(2, 1.0, 2.0)
        mean, se = model.simulate_risk(10**6, 42)
        assert abs(mean - model.bayes_risk_reference().value) <= 3.0 * se

    def test_sufficient_statistic_properties(self):
        model = GaussianModel(4, 1.0, 2.0)
        assert model.noise_var == pytest.approx(0.5)
        assert model.marginal_var == pytest.approx(1.5)
        assert model.posterior_var == pytest.approx(1.0 / 3.0)

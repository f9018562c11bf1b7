"""Tests for the oracle module itself (the certifiers get certified here)."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import assert_no_child
from oracles import bernoulli_density_ratio, chi_squared_bernoulli, monte_carlo_divergence

from fdivrisk import bounds, validation
from fdivrisk.bounds import hellinger_bound, hockey_stick_bound
from fdivrisk.divergences import DivergenceValue, e_beta_gamma_numeric, hellinger_divergence
from fdivrisk.generators import Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel, _beta_median_table
from fdivrisk.numerics import adaptive_quadrature
from fdivrisk.validation import (
    brute_force_divergence,
    certification_suite,
    certify_bounds,
    exact_bernoulli_risk,
    risk_report,
    risk_reports,
)

# Exact posterior-median risk at n = 1 (two-point enumeration, median
# m = 1 - sqrt(1/2), conditional risk 1/3 - m + 2 m^2 - (2/3) m^3).
RISK_N1 = 0.19526214587563498


class TestBruteForceDivergence:
    def test_bernoulli_chi_squared(self):
        oracle = brute_force_divergence(BernoulliModel(1), Hellinger(2.0), grid_points=10**6)
        assert oracle == pytest.approx(chi_squared_bernoulli(BernoulliModel(1)).value, rel=1e-5)

    def test_bernoulli_hockey_stick_zero(self):
        oracle = brute_force_divergence(BernoulliModel(1), HockeyStick(1.0, 3.0), grid_points=10**4)
        assert oracle == 0.0

    # Each coin-flip closed form against the grid of N = 10^6 points, within
    # the engine's estimate + C times the grid's Richardson estimate
    # |bf(N) - bf(N/4)| / 15 + 4 ulps.  |engine - bf(N)| / Richardson
    # measured 1.00 for Hellinger p = 2 at each n (a smooth integrand), and
    # 1.25, 0.33 and 3.45 for E_{0.75,2.2} at n = 5, 7 and 20.  Its kinks make
    # the grid's error irregular: over n = 2..63 the ratio reached 117 at
    # n = 12, where the two grids' errors cancel, so C is measured for these
    # n, not a bound for every n.  A kernel scaled by 1 + 1e-9 fails here for
    # C below 59 (Hellinger at n = 20).
    C = 16.0

    @pytest.mark.parametrize("n", [5, 7, 20])
    @pytest.mark.parametrize("g", [Hellinger(2.0), HockeyStick(0.75, 2.2)], ids=str)
    def test_bernoulli_closed_forms_within_estimates(self, n, g):
        model = BernoulliModel(n)
        if isinstance(g, Hellinger):
            engine = hellinger_divergence(model, g.p)
        else:
            engine = e_beta_gamma_numeric(model, g.beta, g.gamma)
        assert engine.value > 0.0
        fine = brute_force_divergence(model, g, grid_points=10**6)
        coarse = brute_force_divergence(model, g, grid_points=10**6 // 4)
        richardson = abs(fine - coarse) / 15.0
        tolerance = engine.error_estimate + self.C * richardson + 4.0 * math.ulp(engine.value)
        assert abs(engine.value - fine) <= tolerance

    def test_gaussian_chi_squared(self):
        model = GaussianModel(1, 1.0, 1.0)
        oracle = brute_force_divergence(model, Hellinger(2.0), grid_points=4 * 10**6)
        assert oracle == pytest.approx(2.0, rel=1e-4)

    def test_gaussian_hockey_stick(self):
        model = GaussianModel(5, 1.0, 2.0)
        oracle = brute_force_divergence(model, HockeyStick(0.75, 2.2), grid_points=4 * 10**6)
        engine = e_beta_gamma_numeric(model, 0.75, 2.2).value
        assert engine == pytest.approx(oracle, rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 7, 50])
    @pytest.mark.parametrize(
        "g", [Hellinger(2.0), Hellinger(1.5), Hellinger(3.5), HockeyStick(0.75, 2.2)], ids=str
    )
    # 131_071 is prime, so no chunk size divides it.
    @pytest.mark.parametrize("grid_points", [1000, 131_071, 10**6 + 3])
    def test_bernoulli_matches_one_shot_expression(self, n, g, grid_points):
        # The whole grid at once, as the oracle was once computed; Hellinger
        # p = 2 takes numpy's squaring fast path of ratio**p.
        w = (np.arange(grid_points) + 0.5) / grid_points
        log_w = np.log(w)
        log_1mw = np.log1p(-w)
        means = []
        for k in range(n + 1):
            log_ratio = (
                math.log(n + 1.0)
                + (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
                + k * log_w
                + (n - k) * log_1mw
            )
            ratio = np.exp(log_ratio)
            if isinstance(g, Hellinger):
                means.append(((ratio**g.p - 1.0) / (g.p - 1.0)).mean())
            else:
                means.append(np.maximum(0.0, g.beta * ratio - g.gamma).mean())
        raw = float(np.mean(means))
        expected = (g.p - 1.0) * raw + 1.0 if isinstance(g, Hellinger) else raw
        assert brute_force_divergence(BernoulliModel(n), g, grid_points=grid_points) == expected

    @pytest.mark.parametrize(
        "model, g",
        [(BernoulliModel(1), Hellinger(2.0)), (BernoulliModel(7), HockeyStick(0.75, 2.2))],
    )
    def test_bernoulli_grid_memory(self, model, g):
        # tracemalloc sees numpy's data buffers.  The whole-grid expression
        # above holds 48 (Hellinger) or 56 (hockey-stick) bytes per point.
        grid_points = 10**6
        brute_force_divergence(model, g, grid_points=1000)  # first-call allocations
        tracemalloc.start()
        try:
            brute_force_divergence(model, g, grid_points=grid_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * grid_points + 2**20

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            brute_force_divergence(BernoulliModel(1), Hellinger(2.0), grid_points=10)


class TestMonteCarloDivergence:
    def test_reproducible(self):
        model = BernoulliModel(6)
        a = monte_carlo_divergence(model, HockeyStick(0.75, 2.2), 10**5, seed=5)
        b = monte_carlo_divergence(model, HockeyStick(0.75, 2.2), 10**5, seed=5)
        assert a == b

    def test_bernoulli_within_three_sigma(self):
        model = BernoulliModel(10)
        mc = monte_carlo_divergence(model, HockeyStick(0.75, 2.2), 10**6, seed=11)
        engine = e_beta_gamma_numeric(model, 0.75, 2.2)
        assert abs(mc.value - engine.value) <= 3.0 * mc.error_estimate + engine.error_estimate

    def test_gaussian_within_three_sigma(self):
        model = GaussianModel(5, 1.0, 2.0)
        mc = monte_carlo_divergence(model, HockeyStick(0.75, 2.2), 10**6, seed=12)
        engine = e_beta_gamma_numeric(model, 0.75, 2.2)
        assert abs(mc.value - engine.value) <= 3.0 * mc.error_estimate + engine.error_estimate

    def test_hellinger_scaling_convention(self):
        model = BernoulliModel(3)
        mc = monte_carlo_divergence(model, Hellinger(2.0), 10**6, seed=13)
        closed = chi_squared_bernoulli(model).value
        assert abs(mc.value - closed) <= 3.0 * mc.error_estimate

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_divergence(BernoulliModel(1), Hellinger(2.0), 100)


class TestRiskOracles:
    def test_exact_enumeration_n1(self):
        assert exact_bernoulli_risk(BernoulliModel(1)) == pytest.approx(RISK_N1, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 7, 30, 200])
    def test_closed_form_matches_quadrature(self, n):
        # Per weight k, integrate |w - median| against the posterior density,
        # piece by piece on each side of the median, where the integrand kinks.
        model = BernoulliModel(n)
        terms = []
        for k, median in enumerate(_beta_median_table(n)):
            for lo, hi in ((0.0, median), (median, 1.0)):
                val, _ = adaptive_quadrature(
                    lambda w: abs(w - median) * bernoulli_density_ratio(model, w, k),
                    lo,
                    hi,
                    rel_tol=1e-11,
                    abs_tol=1e-15,
                )
                terms.append(val)
        quadrature = math.fsum(terms) / (n + 1.0)
        assert exact_bernoulli_risk(model) == pytest.approx(quadrature, rel=1e-10)

    def test_enumeration_decreases_with_n(self):
        risks = [exact_bernoulli_risk(BernoulliModel(n)) for n in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(risks, risks[1:]))

    def test_monte_carlo_risk_bernoulli(self):
        model = BernoulliModel(1)
        mean, std_err = model.simulate_risk(10**6, 3)
        assert abs(mean - exact_bernoulli_risk(model)) <= 3.0 * std_err

    def test_gaussian_simulated_risk_below_l2_upper_bound(self):
        # The L2 risk of the posterior mean, its posterior standard deviation,
        # bounds the absolute-loss risk from above.
        model = GaussianModel(3, 1.0, 2.0)
        mean, std_err = model.simulate_risk(10**5, 6)
        assert mean <= math.sqrt(model.posterior_var) + 3.0 * std_err

    def test_risk_report_dispatch(self):
        model = GaussianModel(2, 1.0, 2.0)
        assert risk_report(model, 10**5, 9) == (model.bayes_risk_reference().value, 0.0)
        stochastic = risk_report(BernoulliModel(2), samples=10**5, seed=9)
        assert stochastic[1] > 0.0
        assert stochastic == BernoulliModel(2).simulate_risk(10**5, 9)


class TestRiskReports:
    MODELS = {
        "bernoulli": [BernoulliModel(n) for n in range(1, 8)],
        "gaussian": [GaussianModel(n, 1.0, 2.0) for n in range(1, 8)],
    }

    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    def test_equal_on_one_process_and_two(self, monkeypatch, forks, kind):
        models = self.MODELS[kind]
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
            reports.append(risk_reports(models, 10**5, 11))
        # The exact Gaussian reports draw nothing, and run without a fork.
        assert len(forks) == (kind == "bernoulli")
        assert reports[0] == reports[1] == [risk_report(m, 10**5, 11 + m.n) for m in models]
        assert_no_child()

    def test_empty(self):
        assert risk_reports([], 10**5, 11) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_n_raises_its_own_error(self, monkeypatch, forks, workers):
        # On two processes, n = 2 is the child's and n = 3 this process's.
        def simulate_risk(model, samples, seed):
            if model.n in (2, 3):
                raise ArithmeticError(f"no risk at n = {model.n}")
            return 0.25, 0.01

        monkeypatch.setattr(BernoulliModel, "simulate_risk", simulate_risk)
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
        with pytest.raises(ArithmeticError, match="no risk at n = 2$"):
            risk_reports([BernoulliModel(n) for n in range(1, 7)], 10, 0)
        assert len(forks) == workers - 1
        assert_no_child()


class TestCertifyBounds:
    def test_sound_bounds_pass(self):
        model = BernoulliModel(5)
        risk = risk_report(model, samples=10**5, seed=21)
        results = [
            hellinger_bound(2.0, chi_squared_bernoulli(model), 2.0),
            hockey_stick_bound(0.75, 2.2, e_beta_gamma_numeric(model, 0.75, 2.2), 2.0),
        ]
        reports = certify_bounds(model, results, risk)
        assert len(reports) == 2
        assert all(r.passed for r in reports)

    def test_vacuous_bound_passes(self):
        model = BernoulliModel(5)
        risk = risk_report(model, samples=10**5, seed=22)
        vacuous = hockey_stick_bound(0.75, 2.2, DivergenceValue(0.75, "closed_form"), 2.0)
        assert certify_bounds(model, [vacuous], risk)[0].passed

    def test_unsound_bound_fails(self):
        model = GaussianModel(2, 1.0, 2.0)
        risk = risk_report(model, 10**5, 23)
        unit = DivergenceValue(1.0, "closed_form")
        inflated = hellinger_bound(2.0, unit, model.small_ball_coefficient())
        good = certify_bounds(model, [inflated], risk)[0]
        # Manually inflate: a bound above the risk must be flagged.
        fake = type(inflated)(
            value=risk[0] * 2.0 + 1.0,
            rho_star=inflated.rho_star,
            generator=inflated.generator,
            divergence=inflated.divergence,
        )
        assert not certify_bounds(model, [fake], risk)[0].passed
        assert good.passed

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            certify_bounds(BernoulliModel(1), [], risk_report(BernoulliModel(1), samples=10**4, seed=1729))


class TestCertificationSuite:
    # The passing suites are the validate rows of golden_runs.RUNS.
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            certification_suite(
                [], p=2.0, samples=10**5, seed=33, beta=0.75, gamma=2.2, optimize=False
            )

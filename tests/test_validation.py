"""Tests for the oracle module itself (the certifiers get certified here)."""

import math
import os
import sys
import threading

import pytest
from oracles import bernoulli_density_ratio, chi_squared_bernoulli, monte_carlo_divergence

from fdivrisk import validation
from fdivrisk.bounds import FIXED_BETA, FIXED_GAMMA, hellinger_bound, hockey_stick_bound
from fdivrisk.divergences import e_beta_gamma_numeric
from fdivrisk.generators import Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel
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
        oracle = brute_force_divergence(BernoulliModel(1), Hellinger(2.0), 10**6)
        assert oracle == pytest.approx(chi_squared_bernoulli(BernoulliModel(1)).value, rel=1e-5)

    def test_bernoulli_hockey_stick_zero(self):
        assert brute_force_divergence(BernoulliModel(1), HockeyStick(1.0, 3.0), 10**4) == 0.0

    def test_bernoulli_hockey_stick_value(self):
        oracle = brute_force_divergence(BernoulliModel(5), HockeyStick(0.75, 2.2), 10**6)
        engine = e_beta_gamma_numeric(BernoulliModel(5), 0.75, 2.2).value
        assert engine == pytest.approx(oracle, rel=1e-5, abs=1e-8)

    def test_gaussian_chi_squared(self):
        model = GaussianModel(1, 1.0, 1.0)
        oracle = brute_force_divergence(model, Hellinger(2.0), 4 * 10**6)
        assert oracle == pytest.approx(2.0, rel=1e-4)

    def test_gaussian_hockey_stick(self):
        model = GaussianModel(5, 1.0, 2.0)
        oracle = brute_force_divergence(model, HockeyStick(0.75, 2.2), 4 * 10**6)
        engine = e_beta_gamma_numeric(model, 0.75, 2.2).value
        assert engine == pytest.approx(oracle, rel=1e-4, abs=1e-7)

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            brute_force_divergence(BernoulliModel(1), Hellinger(2.0), 10)


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
        for k in range(n + 1):
            median = model.posterior_median(k)
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

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    def test_equal_to_one_report_per_model(self, monkeypatch, workers, kind):
        monkeypatch.setattr(validation, "_worker_count", lambda: workers)
        models = self.MODELS[kind]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            reports = list(risk_reports(models, 10**5, 11))
        finally:
            sys.setswitchinterval(interval)
        assert reports == [risk_report(m, 10**5, 11 + m.n) for m in models]

    def test_empty(self):
        assert list(risk_reports([], 10**5, 11)) == []

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (64, 2)])
    def test_worker_count_is_capped(self, monkeypatch, cpus, workers):
        # Each worker holds about 16 bytes per sample, so the pool must not
        # grow with the host's CPU count.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert validation._worker_count() == workers

    def test_error_at_one_n_surfaces_and_cancels_the_rest(self, monkeypatch):
        monkeypatch.setattr(validation, "_worker_count", lambda: 1)
        started = []
        workers = set()
        release = threading.Event()

        def simulate_risk(model, samples, seed):
            started.append(model.n)
            workers.add(threading.current_thread())
            if model.n == 2:
                raise ArithmeticError("no risk at n = 2")
            if model.n > 2:
                release.wait(10.0)
            return 0.25, 0.01

        monkeypatch.setattr(BernoulliModel, "simulate_risk", simulate_risk)
        reports = risk_reports([BernoulliModel(n) for n in range(1, 9)], 10, 0)
        try:
            assert next(reports) == (0.25, 0.01)
            with pytest.raises(ArithmeticError, match="no risk at n = 2"):
                next(reports)
        finally:
            release.set()
        (worker,) = workers
        worker.join(10.0)
        assert not worker.is_alive()
        # The one worker may have started n = 3; every later n was cancelled.
        assert set(started) <= {1, 2, 3}


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
        vacuous = hockey_stick_bound(0.75, 2.2, 0.75, 2.0)
        assert certify_bounds(model, [vacuous], risk)[0].passed

    def test_unsound_bound_fails(self):
        model = GaussianModel(2, 1.0, 2.0)
        risk = risk_report(model, 10**5, 23)
        inflated = hellinger_bound(2.0, 1.0, model.small_ball_coefficient())
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
    # The fixed-parameter run of `validate` with its default family parameters.
    FIXED = dict(p=None, beta=FIXED_BETA, gamma=FIXED_GAMMA, optimize=False)

    def test_bernoulli_suite_passes(self):
        models = [BernoulliModel(n) for n in range(1, 6)]
        reports = certification_suite(models, samples=2 * 10**5, seed=31, **self.FIXED)
        assert all(r.passed for r in reports), [r.quantity for r in reports if not r.passed]

    def test_gaussian_suite_passes(self):
        models = [GaussianModel(n, 1.0, 2.0) for n in range(1, 6)]
        reports = certification_suite(models, samples=10**5, seed=32, **self.FIXED)
        assert all(r.passed for r in reports), [r.quantity for r in reports if not r.passed]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            certification_suite([], samples=10**5, seed=33, **self.FIXED)

"""Tests for the bound engine."""

import math

import pytest
from oracles import chi_squared_bernoulli, master_bound

from fdivrisk.bounds import (
    family_bound,
    hellinger_bound,
    hockey_stick_bound,
    optimize_parameters,
    optimize_rho_closed_form,
)
from fdivrisk.divergences import e_beta_gamma_numeric, hellinger_divergence
from fdivrisk.generators import Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel


class TestRhoOptimizer:
    def test_symmetric_parabola(self):
        rho, value = optimize_rho_closed_form(1.0, 1.0, 0.0)
        assert rho == pytest.approx(0.5)
        assert value == pytest.approx(0.25)

    def test_power_two(self):
        rho, value = optimize_rho_closed_form(2.0, 2.0, 0.0)
        assert rho == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-14)
        assert value == pytest.approx((2.0 / math.sqrt(2.0)) * (1.0 / 3.0) ** 1.5, rel=1e-14)

    def test_square_root_power_recovers_two_twenty_sevenths(self):
        _, value = optimize_rho_closed_form(math.sqrt(2.0), 0.5, 0.0)
        assert value == pytest.approx(2.0 / 27.0, rel=1e-14)

    def test_vacuous_offset(self):
        assert optimize_rho_closed_form(1.0, 1.0, 1.0) == (0.0, 0.0)
        assert optimize_rho_closed_form(1.0, 1.0, 2.0) == (0.0, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            optimize_rho_closed_form(0.0, 1.0)
        with pytest.raises(ValueError):
            optimize_rho_closed_form(1.0, -1.0)
        with pytest.raises(ValueError):
            optimize_rho_closed_form(1.0, 1.0, -0.2)


class TestMasterBound:
    def test_hockey_stick_zero_information(self):
        assert master_bound(HockeyStick(1.0, 1.0), 0.0, 0.5, 1.0) == pytest.approx(0.5)

    def test_hellinger_full_mass_zero_information(self):
        # With unit small-ball mass and zero divergence the parenthesis closes.
        assert master_bound(Hellinger(2.0), 1.0, 1.0, 0.7) == pytest.approx(0.0, abs=1e-15)

    def test_conjugate_and_power_forms_agree(self):
        # The conjugate-term route and the algebraically simplified power form
        # must give the same number (scaled value 4/3 means chi^2 = 1/3).
        rho, small_ball = 0.1, 0.2
        direct = master_bound(Hellinger(2.0), 4.0 / 3.0, small_ball, rho)
        power_form = rho * (1.0 - small_ball**0.5 * (4.0 / 3.0) ** 0.5)
        assert direct == pytest.approx(power_form, rel=1e-13)
        assert direct == pytest.approx(0.1 * (1.0 - math.sqrt(0.2) * math.sqrt(4.0 / 3.0)), rel=1e-13)

    def test_clamps_to_zero(self):
        # Huge divergence makes the parenthesis negative -> report 0.
        assert master_bound(Hellinger(2.0), 100.0, 0.9, 1.0) == 0.0

    def test_small_ball_domain(self):
        with pytest.raises(ValueError):
            master_bound(Hellinger(2.0), 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            master_bound(Hellinger(2.0), 1.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            master_bound(Hellinger(2.0), 1.0, 0.5, 0.0)


class TestHellingerBound:
    def test_unit_divergence_example(self):
        result = hellinger_bound(2.0, 1.0, 2.0)
        assert result.value == pytest.approx(2.0 / 27.0, rel=1e-13)
        assert result.rho_star == pytest.approx(2.0 / 9.0, rel=1e-13)
        assert not result.vacuous

    def test_agrees_with_master_bound_at_rho_star(self):
        # Two code paths, one number.
        for n in (1, 5, 17, 50):
            scaled = chi_squared_bernoulli(BernoulliModel(n))
            result = hellinger_bound(2.0, scaled, 2.0)
            composed = master_bound(Hellinger(2.0), scaled, 2.0 * result.rho_star, result.rho_star)
            assert composed == pytest.approx(result.value, rel=1e-12)

    def test_closed_form_bernoulli_bound_floor(self):
        for n in range(1, 51):
            scaled = chi_squared_bernoulli(BernoulliModel(n))
            value = hellinger_bound(2.0, scaled, 2.0).value
            assert value >= 7.0 / (72.0 * math.sqrt(math.pi * n))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hellinger_bound(1.0, 1.5, 2.0)
        with pytest.raises(ValueError):
            hellinger_bound(2.0, 0.5, 2.0)
        with pytest.raises(ValueError):
            hellinger_bound(2.0, 1.5, -1.0)


class TestHockeyStickBound:
    def test_fixed_pair_zero_information(self):
        result = hockey_stick_bound(0.75, 2.2, 0.0, 2.0)
        assert result.value == pytest.approx(5.0 * 0.75**2 / 66.0, rel=1e-13)

    def test_unit_pair_matches_golden_section(self):
        result = hockey_stick_bound(1.0, 1.0, 0.0, 2.0)
        # 1/8 is the maximum of rho (1 - 2 rho); criterion 7 checks the exact
        # maximiser against a golden-section search.
        assert result.value == pytest.approx(0.125, rel=1e-13)

    def test_vacuous_at_saturated_divergence(self):
        result = hockey_stick_bound(0.75, 2.2, 0.75, 2.0)
        assert result.vacuous
        assert result.value == 0.0

    def test_agrees_with_master_bound_at_rho_star(self):
        model = BernoulliModel(10)
        e = e_beta_gamma_numeric(model, 0.75, 2.2)
        result = hockey_stick_bound(0.75, 2.2, e, 2.0)
        composed = master_bound(
            HockeyStick(0.75, 2.2), e, 2.0 * result.rho_star, result.rho_star
        )
        assert composed == pytest.approx(result.value, rel=1e-12)

    @pytest.mark.parametrize("model_cls", [BernoulliModel, GaussianModel])
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_depends_on_beta_only_through_tau(self, model_cls, n):
        # E_{beta,gamma} = beta E_{1,gamma/beta}, so the bound is a function
        # of tau = gamma / beta alone.
        model = model_cls(n)
        coeff = model.small_ball_coefficient()
        for beta, gamma in ((0.75, 2.2), (0.3, 0.88), (3.0, 8.8)):
            tau = gamma / beta
            e_scaled = e_beta_gamma_numeric(model, beta, gamma)
            scaled = hockey_stick_bound(beta, gamma, e_scaled, coeff)
            unit = hockey_stick_bound(1.0, tau, e_beta_gamma_numeric(model, 1.0, tau), coeff)
            assert scaled.value == pytest.approx(unit.value, rel=1e-12)
            assert scaled.rho_star == pytest.approx(unit.rho_star, rel=1e-12)

    def test_quadratic_form_constant(self):
        # (beta - E)^2 / (4 gamma beta c) for the linear envelope.
        value = hockey_stick_bound(0.75, 2.2, 0.1, 2.0).value
        assert value == pytest.approx((0.75 - 0.1) ** 2 / (4.0 * 2.2 * 0.75 * 2.0), rel=1e-13)


class TestOptimizeParameters:
    def test_dominates_fixed_hellinger_order(self):
        model = BernoulliModel(1)
        fixed = hellinger_bound(2.0, chi_squared_bernoulli(model), 2.0).value
        best = optimize_parameters(model, "hellinger")
        assert best.value >= fixed - 1e-12
        assert isinstance(best.generator, Hellinger)

    def test_dominates_fixed_hockey_stick_pair(self):
        for n in (1, 5, 25, 50):
            model = BernoulliModel(n)
            e = e_beta_gamma_numeric(model, 0.75, 2.2)
            fixed = hockey_stick_bound(0.75, 2.2, e, 2.0).value
            best = optimize_parameters(model, "hockey_stick")
            assert best.value >= fixed - 1e-10

    def test_dominates_unit_beta_family(self):
        # The tau search must dominate every tau it could have picked.
        model = BernoulliModel(5)
        best = optimize_parameters(model, "hockey_stick")
        for gamma in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
            restricted = hockey_stick_bound(
                1.0, gamma, e_beta_gamma_numeric(model, 1.0, gamma), 2.0
            ).value
            assert best.value >= restricted - 1e-10

    def test_hellinger_maximiser_location_and_stability(self):
        best = optimize_parameters(BernoulliModel(10), "hellinger")
        assert 1.2 <= best.generator.p <= 5.0

    def test_hellinger_matches_dense_grid_oracle(self):
        model = BernoulliModel(10)
        best = optimize_parameters(model, "hellinger")
        dense = max(
            hellinger_bound(p, hellinger_divergence(model, p), 2.0).value
            for p in (1.0 + (8.0 - 1.0) * i / 10**4 for i in range(1, 10**4 + 1))
        )
        assert best.value >= dense - 1e-6
        assert best.value == pytest.approx(dense, rel=1e-4)

    @pytest.mark.parametrize("model", [BernoulliModel(10), GaussianModel(5)])
    def test_hockey_stick_matches_dense_tau_oracle(self, model):
        best = optimize_parameters(model, "hockey_stick")
        coeff = model.small_ball_coefficient()
        dense = max(
            hockey_stick_bound(1.0, tau, e_beta_gamma_numeric(model, 1.0, tau), coeff).value
            for tau in (160.0 ** (i / 1200) for i in range(1201))
        )
        assert best.value >= dense - 1e-10
        assert best.value == pytest.approx(dense, rel=1e-4)

    def test_gaussian_search_skips_divergent_orders(self):
        # Large p makes the divergence infinite at this variance ratio; the
        # search must still come back with a feasible winner.
        model = GaussianModel(20, 1.0, 2.0)
        best = optimize_parameters(model, "hellinger")
        assert best.value > 0.0

    def test_family_name_validation(self):
        with pytest.raises(ValueError):
            optimize_parameters(BernoulliModel(2), "kullback")

    def test_family_name_hyphen_alias(self):
        model = BernoulliModel(2)
        a = optimize_parameters(model, "hockey_stick")
        b = optimize_parameters(model, "hockey-stick")
        assert a.value == b.value

    def test_deterministic(self):
        model = BernoulliModel(6)
        a = optimize_parameters(model, "hockey_stick")
        b = optimize_parameters(model, "hockey_stick")
        assert a == b


class TestFamilyBound:
    FIXED = {"p": None, "beta": 0.75, "gamma": 2.2}

    @pytest.mark.parametrize("model", [BernoulliModel(4), GaussianModel(3)])
    def test_fixed_parameters(self, model):
        coeff = model.small_ball_coefficient()
        p = 2.0 if isinstance(model, BernoulliModel) else 1.5
        hellinger = family_bound(model, "hellinger", **self.FIXED, optimize=False)
        assert hellinger == hellinger_bound(p, hellinger_divergence(model, p), coeff)
        at_p = family_bound(model, "hellinger", **{**self.FIXED, "p": 1.8}, optimize=False)
        assert at_p == hellinger_bound(1.8, hellinger_divergence(model, 1.8), coeff)
        hockey = family_bound(model, "hockey-stick", **self.FIXED, optimize=False)
        e = e_beta_gamma_numeric(model, 0.75, 2.2)
        assert hockey == hockey_stick_bound(0.75, 2.2, e, coeff)

    @pytest.mark.parametrize("family", ["hellinger", "hockey_stick"])
    def test_optimize_is_the_search(self, family):
        model = BernoulliModel(3)
        searched = family_bound(model, family, **self.FIXED, optimize=True)
        assert searched == optimize_parameters(model, family)

    def test_unknown_family(self):
        # The searched path is covered by test_family_name_validation.
        with pytest.raises(ValueError, match="unknown bound family 'kullback'"):
            family_bound(BernoulliModel(2), "kullback", **self.FIXED, optimize=False)

"""Tests for the bound engine."""

import contextlib
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import assert_no_child
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import chi_squared_bernoulli, master_bound

from fdivrisk import bounds
from fdivrisk.bounds import (
    FAMILIES,
    family_bounds,
    hellinger_bound,
    hockey_stick_bound,
    optimize_parameters,
    optimize_rho_closed_form,
)
from fdivrisk.divergences import (
    DivergenceInfiniteError,
    DivergenceValue,
    e_beta_gamma_numeric,
    hellinger_divergence,
)
from fdivrisk.generators import Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel
from fdivrisk.numerics import QuadratureError


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
        result = hellinger_bound(2.0, DivergenceValue(1.0, "closed_form"), 2.0)
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
            hellinger_bound(1.0, DivergenceValue(1.5, "closed_form"), 2.0)
        with pytest.raises(ValueError):
            hellinger_bound(2.0, DivergenceValue(0.5, "closed_form"), 2.0)
        with pytest.raises(ValueError):
            hellinger_bound(2.0, DivergenceValue(1.5, "closed_form"), -1.0)


class TestHockeyStickBound:
    def test_fixed_pair_zero_information(self):
        result = hockey_stick_bound(0.75, 2.2, DivergenceValue(0.0, "closed_form"), 2.0)
        assert result.value == pytest.approx(5.0 * 0.75**2 / 66.0, rel=1e-13)

    def test_unit_pair_matches_golden_section(self):
        result = hockey_stick_bound(1.0, 1.0, DivergenceValue(0.0, "closed_form"), 2.0)
        # 1/8 is the maximum of rho (1 - 2 rho); criterion 7 checks the exact
        # maximiser against a golden-section search.
        assert result.value == pytest.approx(0.125, rel=1e-13)

    def test_vacuous_at_saturated_divergence(self):
        result = hockey_stick_bound(0.75, 2.2, DivergenceValue(0.75, "closed_form"), 2.0)
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
        # of tau = gamma / beta alone, down to the smallest betas.
        model = model_cls(n)
        coeff = model.small_ball_coefficient()
        pairs = ((0.75, 2.2), (0.3, 0.88), (3.0, 8.8), (1e-20, 2.2e-20), (1e-300, 2.2e-300))
        for beta, gamma in pairs:
            tau = gamma / beta
            e_scaled = e_beta_gamma_numeric(model, beta, gamma)
            scaled = hockey_stick_bound(beta, gamma, e_scaled, coeff)
            unit = hockey_stick_bound(1.0, tau, e_beta_gamma_numeric(model, 1.0, tau), coeff)
            assert scaled.value == pytest.approx(unit.value, rel=1e-12)
            assert scaled.rho_star == pytest.approx(unit.rho_star, rel=1e-12)

    def test_quadratic_form_constant(self):
        # (beta - E)^2 / (4 gamma beta c) for the linear envelope.
        value = hockey_stick_bound(0.75, 2.2, DivergenceValue(0.1, "closed_form"), 2.0).value
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

    # The 80 candidate parameters of each search, as float.hex(), in order:
    # 33 grid points, the 2 golden-section starting points, 44 golden steps
    # until the bracket is 1e-9 of its width, and the final point.
    TRAJECTORIES = json.loads(
        (Path(__file__).parent / "golden" / "search_trajectories.json").read_text()
    )
    # Divergence evaluations of each hockey-stick search: the 80 candidates
    # minus the grid points whose ceiling is below the best bound found.
    HOCKEY_STICK_EVALUATIONS = {
        "BernoulliModel(n=1)": 51,
        "BernoulliModel(n=7)": 55,
        "BernoulliModel(n=12)": 56,
        "BernoulliModel(n=130)": 63,
        "BernoulliModel(n=200)": 64,
        "GaussianModel(n=1, sigma_w_sq=1.0, sigma_sq=2.0)": 50,
        "GaussianModel(n=3, sigma_w_sq=1.0, sigma_sq=2.0)": 53,
        "GaussianModel(n=8, sigma_w_sq=1.0, sigma_sq=2.0)": 55,
        "GaussianModel(n=8, sigma_w_sq=10.0, sigma_sq=0.1)": 71,
    }

    @pytest.mark.parametrize(
        "model",
        [
            BernoulliModel(1),
            BernoulliModel(7),
            BernoulliModel(12),
            # The first n of the packed numpy kernel is 126.
            BernoulliModel(130),
            BernoulliModel(200),
            GaussianModel(1),
            GaussianModel(3),
            GaussianModel(8),
            GaussianModel(8, 10.0, 0.1),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("family", ["hellinger", "hockey_stick"])
    def test_search_evaluates_the_divergence_80_times(self, monkeypatch, model, family):
        # The Hellinger search evaluates all 80 candidates, orders whose
        # divergence is infinite included; the hockey-stick search evaluates
        # them minus the skipped grid points.  The points and their order are
        # pinned bit for bit.
        calls = []
        for name in ("hellinger_divergence", "e_beta_gamma_numeric"):
            divergence = getattr(bounds, name)

            def counted(*args, divergence=divergence):
                calls.append(args)
                return divergence(*args)

            monkeypatch.setattr(bounds, name, counted)
        best = optimize_parameters(model, family)
        points = [(args[1] if family == "hellinger" else args[2]).hex() for args in calls]
        candidates = self.TRAJECTORIES[f"{model!r} {family}"]
        assert len(candidates) == 80
        if family == "hellinger":
            assert points == candidates
            return
        assert len(points) == self.HOCKEY_STICK_EVALUATIONS[repr(model)]
        skipped = [x for x in candidates[:33] if x not in points]
        assert points == [x for x in candidates if x not in skipped]
        # Each skipped point's ceiling, its bound at E = 0, is below the result.
        c = model.small_ball_coefficient()
        for x in skipped:
            assert optimize_rho_closed_form(float.fromhex(x) * c, 1.0)[1] < best.value


def _unskipped_hockey_stick_search(model):
    c = model.small_ball_coefficient()
    return bounds._drive(
        bounds._search(bounds._TAU_GRID, ceiling=lambda tau: math.inf),
        lambda tau: hockey_stick_bound(1.0, tau, e_beta_gamma_numeric(model, 1.0, tau), c),
    )


def _bits(result):
    generator, divergence = result.generator, result.divergence
    return (
        result.value.hex(),
        result.rho_star.hex(),
        type(generator).__name__,
        *(field.hex() for field in generator),
        divergence.value.hex(),
        divergence.error_estimate.hex(),
        divergence.method,
        result.vacuous,
    )


class TestSkippingKeepsTheResult:
    # The hockey-stick search skips grid points by their ceiling; the search
    # that evaluates all 80 candidates must return the same bits.
    @given(
        n=st.integers(min_value=1, max_value=200),
        log_sigma_w_sq=st.floats(min_value=-4.0, max_value=4.0),
        log_sigma_sq=st.floats(min_value=-4.0, max_value=4.0),
    )
    @settings(max_examples=60)
    def test_gaussian(self, n, log_sigma_w_sq, log_sigma_sq):
        model = GaussianModel(n, 10.0**log_sigma_w_sq, 10.0**log_sigma_sq)
        searched = optimize_parameters(model, "hockey_stick")
        assert _bits(searched) == _bits(_unskipped_hockey_stick_search(model))

    # The packed numpy kernel starts at n = 126.
    @given(n=st.integers(min_value=1, max_value=140))
    @example(n=125)
    @example(n=126)
    @settings(max_examples=12)
    def test_bernoulli(self, n):
        model = BernoulliModel(n)
        searched = optimize_parameters(model, "hockey_stick")
        assert _bits(searched) == _bits(_unskipped_hockey_stick_search(model))


class TestSearch:
    # On [0, 1], with stand-in bounds: the search reads only ``.value``.
    GRID = tuple(i / 32 for i in range(33))

    @staticmethod
    def no_ceiling(x):
        return math.inf

    @staticmethod
    def bound_at(f, seen=None):
        def at(x):
            if seen is not None:
                seen.append(x)
            return SimpleNamespace(value=f(x), x=x)

        return at

    def search(self, bound_at, ceiling=None):
        return bounds._drive(bounds._search(self.GRID, ceiling or self.no_ceiling), bound_at)

    def test_asymmetric_maximum(self):
        # Comparison-based search cannot localise a flat maximum beyond
        # ~sqrt(machine eps) of the value's scale; here the value is near 0.
        seen = []
        best = self.search(self.bound_at(lambda x: -((x - 0.123456) ** 2), seen))
        assert best.x == pytest.approx(0.123456, abs=1e-9)
        assert len(seen) == 80
        assert 3 / 32 < min(seen[33:]) and max(seen[33:]) < 5 / 32

    def test_first_of_equal_results_wins(self):
        assert self.search(self.bound_at(lambda x: 1.0)).x == 0.0

    def test_refinement_never_returns_less_than_the_grid(self):
        # A spike at one grid point: the section between its neighbours finds
        # nothing as good.
        best = self.search(self.bound_at(lambda x: float(x == 0.5)))
        assert (best.x, best.value) == (0.5, 1.0)

    def test_infinite_divergence_counts_as_minus_infinity(self):
        def at(x):
            if x > 0.3:
                raise DivergenceInfiniteError("diverges")
            return SimpleNamespace(value=x, x=x)

        best = self.search(at)
        assert best.x <= 0.3
        assert best.x == pytest.approx(0.3, abs=1e-9)

    def test_no_feasible_point(self):
        def at(x):
            raise DivergenceInfiniteError("diverges")

        with pytest.raises(ValueError, match="no feasible point in the search grid"):
            self.search(at)

    def test_skipped_point_never_reaches_bound_at(self):
        # The value falls with x and the ceiling is the value itself, so once
        # x = 0 is evaluated every later grid point is skipped: the points
        # from 0.5 on, where the stand-in raises, are never evaluated.
        seen = []

        def at(x):
            if x >= 0.5:
                raise RuntimeError("evaluated a skipped point")
            seen.append(x)
            return SimpleNamespace(value=1.0 - x, x=x)

        best = self.search(at, lambda x: 1.0 - x)
        assert (best.x, best.value) == (0.0, 1.0)
        # The grid's first point, then the 47 points of the section between
        # the winner and its right neighbour.
        assert len(seen) == 48
        assert seen[0] == 0.0 and all(0.0 <= x <= 1 / 32 for x in seen[1:])

    # The generator driven by hand, with plain floats for values.

    @staticmethod
    def drive_by_hand(points, f):
        yielded = [next(points)]
        with pytest.raises(StopIteration):
            while True:
                yielded.append(points.send(f(yielded[-1])))
        return yielded

    @pytest.mark.parametrize("winner", range(33))
    @pytest.mark.parametrize("grid_name", ["_P_GRID", "_TAU_GRID"])
    def test_generator_yields_the_80_candidates(self, grid_name, winner):
        # The 33 grid points in order, the 2 golden-section starts, 44 steps
        # and the bracket's midpoint; the value sent for the 80th ends the
        # search.  Each step shrinks the bracket by 1/phi whatever the values,
        # so every winner of both production grids gives the same count.
        grid = getattr(bounds, grid_name)
        peak = grid[winner]
        yielded = self.drive_by_hand(
            bounds._search(grid, self.no_ceiling), lambda x: -((x - peak) ** 2)
        )
        assert len(yielded) == 80
        assert tuple(yielded[:33]) == grid
        lo, hi = grid[max(0, winner - 1)], grid[min(32, winner + 1)]
        assert all(lo < x < hi for x in yielded[33:])
        assert yielded[-1] == pytest.approx(peak, abs=1e-9 * (hi - lo))

    def test_generator_never_yields_a_skipped_grid_point(self):
        # With the value 1 - x as its own ceiling, every grid point after
        # x = 0 is below the best value sent: none is yielded.
        yielded = self.drive_by_hand(bounds._search(self.GRID, lambda x: 1.0 - x), lambda x: 1.0 - x)
        assert yielded[0] == 0.0 and not set(yielded[1:]) & set(self.GRID)
        assert len(yielded) == 48

    def test_generator_with_no_feasible_grid_point(self):
        # -inf sent for every grid point: the send after the last one raises,
        # before any golden-section point is yielded.
        points = bounds._search(self.GRID, self.no_ceiling)
        yielded = [next(points)]
        for _ in range(32):
            yielded.append(points.send(-math.inf))
        assert tuple(yielded) == self.GRID
        with pytest.raises(ValueError, match="no feasible point in the search grid"):
            points.send(-math.inf)

    def test_an_arithmetic_error_leaves_the_drive_at_once(self):
        seen = []

        def at(x):
            seen.append(x)
            if len(seen) == 5:
                raise QuadratureError("panel budget exhausted")
            return SimpleNamespace(value=x, x=x)

        with pytest.raises(ArithmeticError, match="panel budget exhausted"):
            self.search(at)
        assert seen == list(self.GRID[:5])


# Up to four Gaussian bumps (height, centre, width) on [0, 1].
_BUMPS = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 1.0)), max_size=4
)


class TestSkipAndFirstBestRules:
    # The skip rule and the first-best rule on arbitrary values >= 0, as every
    # bound is: the search that skips grid points by a ceiling returns what
    # the search that evaluates all 80 candidates returns, and evaluates the
    # same points minus the skipped grid points.  Values are rounded to a
    # drawn step, so ties occur, and are -inf (an infinite divergence) beyond
    # a drawn cut.
    @given(
        bumps=_BUMPS,
        step=st.floats(1e-3, 0.5),
        cut=st.floats(0.0, 1.0),
        slack=st.floats(0.0, 2.0),
    )
    @settings(max_examples=300)
    def test_skipping_keeps_the_result(self, bumps, step, cut, slack):
        grid = TestSearch.GRID

        def value(x):
            v = sum(h * math.exp(-(((x - m) / w) ** 2)) for h, m, w in bumps)
            return round(v / step) * step

        def search(ceiling):
            seen = []

            def at(x):
                seen.append(x)
                if x > cut:
                    raise DivergenceInfiniteError("diverges")
                return SimpleNamespace(value=value(x), x=x)

            best = bounds._drive(bounds._search(grid, ceiling), at)
            return (best.x, best.value), seen

        every_result, every = search(lambda x: math.inf)
        fewer_result, fewer = search(lambda x: value(x) + slack * x)
        assert fewer_result == every_result
        skipped = [x for x in every if x not in fewer]
        assert set(skipped) <= set(grid)
        assert fewer == [x for x in every if x not in skipped]


def _columns_bits(columns):
    return {family: [_bits(result) for result in column] for family, column in columns.items()}


class TestFamilyBounds:
    FIXED = {"p": 1.8, "beta": 0.75, "gamma": 2.2}

    @pytest.mark.parametrize(
        "models",
        [
            [BernoulliModel(4)],
            [GaussianModel(3)],
            [BernoulliModel(n) for n in (3, 125, 126, 400, 127)],
            [GaussianModel(n) for n in (1, 2, 5)],
        ],
    )
    def test_fixed_parameters(self, models):
        # One bound per model, in order, each the bound of that model alone,
        # keyed in FAMILIES order whatever the order asked for.
        columns = family_bounds(models, ["hockey-stick", "hellinger"], **self.FIXED, optimize=False)
        assert list(columns) == list(FAMILIES)
        hellinger, hockey = columns["hellinger"], columns["hockey_stick"]
        assert len(hellinger) == len(hockey) == len(models)
        for model, h, k in zip(models, hellinger, hockey):
            coeff = model.small_ball_coefficient()
            assert h == hellinger_bound(1.8, hellinger_divergence(model, 1.8), coeff)
            e = e_beta_gamma_numeric(model, 0.75, 2.2)
            assert k == hockey_stick_bound(0.75, 2.2, e, coeff)
        for family in FAMILIES:
            alone = family_bounds(models, [family], **self.FIXED, optimize=False)
            assert alone == {family: columns[family]}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_optimize_is_the_search(self, family):
        models = [BernoulliModel(3), BernoulliModel(1)]
        searched = family_bounds(models, [family], **self.FIXED, optimize=True)
        assert searched == {family: [optimize_parameters(model, family) for model in models]}

    def test_no_models(self):
        for optimize in (False, True):
            columns = family_bounds([], FAMILIES, **self.FIXED, optimize=optimize)
            assert columns == {"hellinger": [], "hockey_stick": []}

    def test_unknown_family(self, monkeypatch):
        # Every name is checked before any bound is computed.
        def hellinger_divergence(model, p):
            raise AssertionError("computed a bound")

        monkeypatch.setattr(bounds, "hellinger_divergence", hellinger_divergence)
        for optimize in (False, True):
            with pytest.raises(ValueError, match="unknown bound family 'kullback'"):
                family_bounds(
                    [BernoulliModel(2)], ["hellinger", "kullback"], **self.FIXED, optimize=optimize
                )


class TestSearchedColumnOnTwoProcesses:
    # With two workers, family_bounds(optimize=True) forks one child, which
    # searches the (family, model) pairs at odd positions of one list,
    # family after family; with one, it forks nothing.  How the split
    # handles a failure is TestSplitMap's.
    FIXED = {"p": 1.8, "beta": 0.75, "gamma": 2.2}

    def columns(self, monkeypatch, workers, models, families):
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
        return family_bounds(models, families, **self.FIXED, optimize=True)

    MODELS = {
        # An odd count across the switch to the packed kernel at n = 126.
        "bernoulli_123_127": [BernoulliModel(n) for n in range(123, 128)],
        "gaussian_default": [GaussianModel(n) for n in range(1, 6)],
        "gaussian_wide_prior": [GaussianModel(n, 40.0, 1.0) for n in (1, 3, 8)],
        "gaussian_narrow_prior": [GaussianModel(n, 0.01, 3.0) for n in (2, 5, 9, 30)],
    }

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", list(MODELS))
    def test_same_bits_on_one_process_and_two(self, monkeypatch, forks, name, family):
        models = self.MODELS[name]
        one = self.columns(monkeypatch, 1, models, [family])
        assert forks == []
        two = self.columns(monkeypatch, 2, models, [family])
        assert len(forks) == 1
        assert _columns_bits(two) == _columns_bits(one)
        assert two == one
        assert_no_child()

    @pytest.mark.parametrize("name", ["bernoulli_123_127", "gaussian_narrow_prior"])
    def test_every_family_on_one_fork(self, monkeypatch, forks, name):
        # Both families' searches split as one list: one fork, and each
        # column the bits of its family searched alone on one process.
        models = self.MODELS[name]
        alone = {}
        for family in FAMILIES:
            alone.update(self.columns(monkeypatch, 1, models, [family]))
        assert forks == []
        both = self.columns(monkeypatch, 2, models, ["hockey-stick", "hellinger"])
        assert len(forks) == 1
        assert list(both) == list(FAMILIES)
        assert _columns_bits(both) == _columns_bits(alone)
        assert_no_child()

    @pytest.mark.parametrize("error", [ArithmeticError, QuadratureError])
    def test_first_failing_model_raises_its_own_error(self, monkeypatch, forks, error):
        # Models n = 1..6: n = 2 is the child's first, before this process's n = 5.
        def hellinger_divergence(model, p, real=bounds.hellinger_divergence):
            if model.n in (2, 5):
                raise error(f"stalled at n = {model.n}")
            return real(model, p)

        monkeypatch.setattr(bounds, "hellinger_divergence", hellinger_divergence)
        models = [BernoulliModel(n) for n in range(1, 7)]
        for workers in (1, 2):
            with pytest.raises(error, match="^stalled at n = 2$") as info:
                self.columns(monkeypatch, workers, models, ["hellinger"])
            assert type(info.value) is error
            assert_no_child()
        assert len(forks) == 1


class TestSplitMap:
    # bounds._split_map(fn, items) with stand-ins for fn.  With two workers
    # a forked child maps the items at odd positions, 2, 4 and 6, and this
    # process 1, 3 and 5; with one, nothing forks.
    ITEMS = [1, 2, 3, 4, 5, 6]
    SQUARES = [1, 4, 9, 16, 25, 36]

    def split(self, monkeypatch, workers, fn):
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
        return bounds._split_map(fn, self.ITEMS)

    @pytest.mark.parametrize(
        "failing, first",
        [
            ((2, 5), 2),  # the child's, before one of this process's
            ((4,), 4),  # only the child's
            ((3, 6), 3),  # this process's, before one of the child's
            ((1, 2), 1),  # this process's first item
        ],
    )
    @pytest.mark.parametrize("error", [ArithmeticError, QuadratureError])
    def test_first_failing_item_raises_its_own_error(self, monkeypatch, forks, failing, first, error):
        def fn(x):
            if x in failing:
                raise error(f"no value at {x}")
            return x * x

        raised = []
        for workers in (1, 2):
            with pytest.raises(error) as info:
                self.split(monkeypatch, workers, fn)
            raised.append((type(info.value), str(info.value)))
            assert_no_child()
        assert len(forks) == 1
        assert raised[1] == raised[0]
        assert raised[0][1].endswith(f"at {first}")

    @pytest.mark.parametrize("how", ["exits", "is killed", "fails at 4"])
    def test_a_share_the_child_does_not_return_is_mapped_here(self, monkeypatch, forks, how):
        # This process finds the child's share missing and maps the whole
        # list again.  A child that exits 0 is found short after this
        # process's share; one that dies or fails may be noticed between
        # this process's items.
        parent = os.getpid()
        mapped = []

        def fn(x):
            if os.getpid() != parent:
                if how == "exits":
                    os._exit(0)
                if how == "is killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if x == 4:
                    raise ArithmeticError("the child alone fails")
            else:
                mapped.append(x)
            return x * x

        assert self.split(monkeypatch, 2, fn) == self.SQUARES
        assert len(forks) == 1
        ours, rerun = mapped[:-6], mapped[-6:]
        assert rerun == self.ITEMS
        if how == "exits":
            assert ours == [1, 3, 5]
        else:
            assert ours == [1, 3, 5][: len(ours)]
        assert_no_child()

    def test_a_failed_child_starts_the_rerun_before_this_process_finishes_its_share(
        self, monkeypatch, forks
    ):
        # The child fails at its first item, 2; this process waits for it to
        # exit while it maps 1, and maps no other item of its share before
        # the whole list.
        parent = os.getpid()
        mapped = []

        def fn(x):
            if os.getpid() != parent:
                raise ArithmeticError("the child fails at its first item")
            if not mapped:
                with contextlib.suppress(ChildProcessError):  # reaped before 1
                    os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
            mapped.append(x)
            return x * x

        assert self.split(monkeypatch, 2, fn) == self.SQUARES
        assert len(forks) == 1
        assert mapped in ([1, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        assert_no_child()

    def test_a_child_that_exits_before_this_process_is_done_is_not_mapped_again(
        self, monkeypatch, forks
    ):
        # The child sends its share and exits while this process maps 3;
        # reaped before 5, its status is kept, so the split list stands.
        parent = os.getpid()
        mapped = []

        def fn(x):
            if os.getpid() == parent:
                mapped.append(x)
                if x == 3:
                    with contextlib.suppress(ChildProcessError):  # reaped before 3
                        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)
            return x * x

        assert self.split(monkeypatch, 2, fn) == self.SQUARES
        assert len(forks) == 1
        assert mapped == [1, 3, 5]
        assert_no_child()

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(lambda obj, protocol: b"not a pickle", id="unreadable"),
            pytest.param(lambda obj, protocol, dumps=pickle.dumps: dumps(obj, protocol)[:-1], id="short"),
            pytest.param(
                lambda obj, protocol, dumps=pickle.dumps: dumps(obj[:-1], protocol), id="one_result_short"
            ),
        ],
    )
    def test_a_payload_that_does_not_load_maps_every_item_here(self, monkeypatch, forks, payload):
        # The child exits 0, but its share does not load here, or lacks a result.
        monkeypatch.setattr(pickle, "dumps", payload)
        assert self.split(monkeypatch, 2, lambda x: x * x) == self.SQUARES
        assert len(forks) == 1
        assert_no_child()

    def test_a_failure_the_rerun_does_not_repeat_gives_the_one_process_list(self, monkeypatch, forks):
        # As a MemoryError in this process's share may, once the killed
        # child's memory is free again.
        parent = os.getpid()
        mapped = []

        def fn(x):
            if os.getpid() == parent:
                mapped.append(x)
                if mapped == [1, 3]:
                    raise MemoryError
            return x * x

        assert self.split(monkeypatch, 2, fn) == self.SQUARES
        assert len(forks) == 1
        assert mapped == [1, 3, 1, 2, 3, 4, 5, 6]
        assert_no_child()

    def test_a_failed_fork_maps_every_item_here(self, monkeypatch, forks):
        def fork():
            raise OSError("no process for the child")

        monkeypatch.setattr(os, "fork", fork)
        assert self.split(monkeypatch, 2, lambda x: x * x) == self.SQUARES

    @staticmethod
    def cpu(_):
        """The CPU this process last ran on: field 39 of /proc/self/stat."""
        with open("/proc/self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
        reason="needs Linux and two CPUs in the affinity mask",
    )
    def test_the_two_shares_start_on_different_cpus(self, forks):
        # Left to the kernel, a forked child may start and stay on its
        # parent's CPU, and the two shares then take turns on one.
        for _ in range(5):
            ours, theirs = bounds._split_map(self.cpu, [1, 2])
            assert ours != theirs
        assert len(forks) == 5
        assert_no_child()

    @pytest.mark.parametrize(
        "mask, error, ours, theirs",
        [
            ({4, 0, 7}, None, [[0, 7], [0, 4, 7]], [[4], [0, 4, 7]]),
            ({4, 0, 7}, OSError, [[0, 7]], [[4]]),  # placement left to the kernel
            ({3}, None, [], []),  # as under taskset -c 0 with two workers forced
        ],
    )
    def test_each_process_takes_its_half_of_the_mask_then_the_whole(
        self, monkeypatch, forks, mask, error, ours, theirs
    ):
        # Each item reports the calls its process has made; the child maps 2,
        # 4 and 6.
        calls = []

        def set_mask(pid, cpus):
            calls.append(list(cpus))
            if error:
                raise error("not permitted")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", set_mask, raising=False)
        mapped = self.split(monkeypatch, 2, lambda x: (x * x, list(calls)))
        assert mapped == [(x * x, ours if x % 2 else theirs) for x in self.ITEMS]
        assert len(forks) == 1
        assert_no_child()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask")
    @pytest.mark.parametrize("failing", ["none", "the child's 4", "3 everywhere"])
    def test_the_callers_mask_is_unchanged(self, monkeypatch, forks, failing):
        # Also where an item fails and the whole list is mapped here.
        parent = os.getpid()
        before = os.sched_getaffinity(0)

        def fn(x):
            if (failing == "the child's 4" and x == 4 and os.getpid() != parent) or (
                failing == "3 everywhere" and x == 3
            ):
                raise ArithmeticError(f"no value at {x}")
            return x * x

        if failing == "3 everywhere":
            with pytest.raises(ArithmeticError):
                self.split(monkeypatch, 2, fn)
        else:
            assert self.split(monkeypatch, 2, fn) == self.SQUARES
        assert os.sched_getaffinity(0) == before
        assert_no_child()

    @pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
    def test_an_error_here_kills_and_reaps_the_child(self, monkeypatch, forks, error):
        # An ArithmeticError maps the whole list here, where it raises again;
        # a KeyboardInterrupt propagates at once.
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                time.sleep(60.0)
            raise error(f"stopped at {x}")

        start = time.monotonic()
        with pytest.raises(error, match="^stopped at 1$"):
            self.split(monkeypatch, 2, fn)
        assert time.monotonic() - start < 10.0
        assert len(forks) == 1
        assert_no_child()

    def test_no_fork_beside_another_thread(self, monkeypatch, forks):
        # A fork beside a running thread could copy a lock that thread holds.
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            mapped = self.split(monkeypatch, 2, lambda x: x * x)
        finally:
            release.set()
            thread.join(10.0)
        assert not thread.is_alive()
        assert forks == []
        assert mapped == self.SQUARES

    @pytest.mark.parametrize(
        "cpus, items, children",
        [(1, ITEMS, 0), (2, ITEMS, 1), (64, ITEMS, 1), (64, [7], 0), (64, [], 0)],
    )
    def test_one_child_at_most_and_none_on_one_cpu_or_for_one_item(
        self, monkeypatch, forks, cpus, items, children
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        # The placement would otherwise set this process's mask from the fake one.
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert bounds._split_map(lambda x: x * x, items) == [x * x for x in items]
        assert len(forks) == children
        assert_no_child()

    @pytest.mark.parametrize(
        "affinity, cpu_count, workers",
        [
            ({0}, 64, 1),  # taskset -c 0 on a 64-CPU host
            ({2, 5}, 64, 2),
            (None, 8, 8),  # no affinity mask: the host's count
            (None, None, 1),  # an unknown count
        ],
    )
    def test_worker_count_is_the_cpus_this_process_may_run_on(
        self, monkeypatch, affinity, cpu_count, workers
    ):
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert bounds._worker_count() == workers

    def test_an_orphaned_child_stops_before_its_next_item(self):
        # A fresh interpreter splits 12 items of 0.5 s each and is killed
        # 0.2 s into its first; its child, left to another parent, must stop
        # once that first item is done rather than map the other five.
        script = textwrap.dedent("""\
            import os, time
            from fdivrisk import bounds
            def fork(real=os.fork):
                pid = real()
                if pid:
                    print(pid, flush=True)
                return pid
            os.fork = fork
            bounds._worker_count = lambda: 2
            bounds._split_map(lambda x: time.sleep(0.5), list(range(12)))
        """)

        def running(pid):
            # A reaped child has no /proc entry, and one nobody reaps is a zombie.
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rpartition(")")[2].split()[0] != "Z"

        env = dict(os.environ, PYTHONPATH=str(Path(bounds.__file__).resolve().parents[1]))
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        child = None
        try:
            child = int(parent.stdout.readline())
            time.sleep(0.2)
            parent.kill()
            parent.wait()
            deadline = time.monotonic() + 1.5
            while running(child) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not running(child)
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)

    @pytest.mark.parametrize(
        "split",
        [
            pytest.param("assert bounds._split_map(abs, [-1, -2, -3]) == [1, 2, 3]", id="passes"),
            pytest.param(
                "try:\n    bounds._split_map(abs, [-1, 'two', -3])\nexcept TypeError:\n    pass",
                id="child_item_fails",
            ),
        ],
    )
    def test_the_child_writes_nothing_but_its_pipe(self, split):
        # The child leaves by os._exit, so the parent's buffered line and
        # exit handler reach stdout once, from the parent, whether the
        # child's item passes or fails.  The parent's stdout is a pipe, so
        # block-buffered unless PYTHONUNBUFFERED is set.
        script = textwrap.dedent("""\
            import atexit, os, sys
            from fdivrisk import bounds
            forks = []
            os.register_at_fork(after_in_parent=lambda: forks.append(1))
            atexit.register(print, "atexit")
            sys.stdout.write("buffered\\n")
            bounds._worker_count = lambda: 2
        """) + split + "\nassert len(forks) == 1\n"
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(bounds.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "buffered\natexit\n", "")

"""Tests for the bound engine."""

import json
import math
import os
import pickle
import signal
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
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
from fdivrisk.validation import risk_reports


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
    return bounds._search(
        bounds._TAU_GRID,
        lambda tau: hockey_stick_bound(1.0, tau, e_beta_gamma_numeric(model, 1.0, tau), c),
        ceiling=lambda tau: math.inf,
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
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_gaussian(self, n, log_sigma_w_sq, log_sigma_sq):
        model = GaussianModel(n, 10.0**log_sigma_w_sq, 10.0**log_sigma_sq)
        searched = optimize_parameters(model, "hockey_stick")
        assert _bits(searched) == _bits(_unskipped_hockey_stick_search(model))

    # The packed numpy kernel starts at n = 126.
    @given(n=st.integers(min_value=1, max_value=140))
    @example(n=125)
    @example(n=126)
    @settings(max_examples=12, deadline=None, derandomize=True)
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

    def test_asymmetric_maximum(self):
        # Comparison-based search cannot localise a flat maximum beyond
        # ~sqrt(machine eps) of the value's scale; here the value is near 0.
        seen = []
        f = self.bound_at(lambda x: -((x - 0.123456) ** 2), seen)
        best = bounds._search(self.GRID, f, self.no_ceiling)
        assert best.x == pytest.approx(0.123456, abs=1e-9)
        assert len(seen) == 80
        assert 3 / 32 < min(seen[33:]) and max(seen[33:]) < 5 / 32

    def test_first_of_equal_results_wins(self):
        assert bounds._search(self.GRID, self.bound_at(lambda x: 1.0), self.no_ceiling).x == 0.0

    def test_refinement_never_returns_less_than_the_grid(self):
        # A spike at one grid point: the section between its neighbours finds
        # nothing as good.
        best = bounds._search(self.GRID, self.bound_at(lambda x: float(x == 0.5)), self.no_ceiling)
        assert (best.x, best.value) == (0.5, 1.0)

    def test_infinite_divergence_counts_as_minus_infinity(self):
        def at(x):
            if x > 0.3:
                raise DivergenceInfiniteError("diverges")
            return SimpleNamespace(value=x, x=x)

        best = bounds._search(self.GRID, at, self.no_ceiling)
        assert best.x <= 0.3
        assert best.x == pytest.approx(0.3, abs=1e-9)

    def test_no_feasible_point(self):
        def at(x):
            raise DivergenceInfiniteError("diverges")

        with pytest.raises(ValueError, match="no feasible point in the search grid"):
            bounds._search(self.GRID, at, self.no_ceiling)

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

        best = bounds._search(self.GRID, at, lambda x: 1.0 - x)
        assert (best.x, best.value) == (0.0, 1.0)
        # The grid's first point, then the 47 points of the section between
        # the winner and its right neighbour.
        assert len(seen) == 48
        assert seen[0] == 0.0 and all(0.0 <= x <= 1 / 32 for x in seen[1:])


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
        # One bound per model, in order, each the bound of that model alone.
        hellinger = family_bounds(models, "hellinger", **self.FIXED, optimize=False)
        hockey = family_bounds(models, "hockey-stick", **self.FIXED, optimize=False)
        assert len(hellinger) == len(hockey) == len(models)
        for model, h, k in zip(models, hellinger, hockey):
            coeff = model.small_ball_coefficient()
            assert h == hellinger_bound(1.8, hellinger_divergence(model, 1.8), coeff)
            e = e_beta_gamma_numeric(model, 0.75, 2.2)
            assert k == hockey_stick_bound(0.75, 2.2, e, coeff)

    @pytest.mark.parametrize("family", ["hellinger", "hockey_stick"])
    def test_optimize_is_the_search(self, family):
        models = [BernoulliModel(3), BernoulliModel(1)]
        searched = family_bounds(models, family, **self.FIXED, optimize=True)
        assert searched == [optimize_parameters(model, family) for model in models]

    def test_no_models(self):
        for family in ("hellinger", "hockey-stick"):
            assert family_bounds([], family, **self.FIXED, optimize=False) == []

    def test_unknown_family(self):
        # The searched path is covered by test_family_name_validation.
        with pytest.raises(ValueError, match="unknown bound family 'kullback'"):
            family_bounds([BernoulliModel(2)], "kullback", **self.FIXED, optimize=False)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSearchedColumnOnTwoProcesses:
    # With two workers, family_bounds(optimize=True) forks a child that
    # searches the models at odd positions; with one, it forks nothing.
    FIXED = {"p": 1.8, "beta": 0.75, "gamma": 2.2}

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children forked while the test runs, once the
        threads of earlier tests have ended (no fork happens beside them)."""
        for thread in threading.enumerate():
            if thread is not threading.main_thread():
                thread.join(10.0)
        assert threading.active_count() == 1
        made = []

        def fork(real=os.fork):
            pid = real()
            if pid:
                made.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return made

    def column(self, monkeypatch, workers, models, family):
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
        return family_bounds(models, family, **self.FIXED, optimize=True)

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
        one = self.column(monkeypatch, 1, models, family)
        assert forks == []
        two = self.column(monkeypatch, 2, models, family)
        assert len(forks) == 1
        assert [_bits(result) for result in two] == [_bits(result) for result in one]
        assert two == one
        _assert_no_child()

    def test_quadrature_error_does_not_unpickle(self):
        # Why no exception crosses the pipe.
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(QuadratureError("stalled", 0.5, 1e-3)))

    # Models n = 1..6: this process searches n = 1, 3, 5 and the child
    # n = 2, 4, 6.
    @pytest.mark.parametrize(
        "failing, first",
        [
            ((2, 5), 2),  # the child's, before one of this process's
            ((4,), 4),  # only the child's
            ((3, 6), 3),  # this process's, before one of the child's
            ((1, 2), 1),  # this process's first model
        ],
    )
    @pytest.mark.parametrize("error", [ArithmeticError, QuadratureError])
    def test_first_failing_model_raises_its_own_error(self, monkeypatch, forks, failing, first, error):
        def hellinger_divergence(model, p, real=bounds.hellinger_divergence):
            if model.n in failing:
                if error is QuadratureError:
                    raise QuadratureError(f"stalled at n = {model.n}", 0.5, 1e-3)
                raise error(f"no divergence at n = {model.n}")
            return real(model, p)

        monkeypatch.setattr(bounds, "hellinger_divergence", hellinger_divergence)
        models = [BernoulliModel(n) for n in range(1, 7)]
        raised = []
        for workers in (1, 2):
            with pytest.raises(error) as info:
                self.column(monkeypatch, workers, models, "hellinger")
            raised.append((type(info.value), str(info.value)))
            _assert_no_child()
        assert len(forks) == 1
        assert raised[1] == raised[0]
        assert raised[0][1].endswith(f"at n = {first}")

    @pytest.mark.parametrize("how", ["exits", "is killed", "fails at n = 4"])
    def test_a_share_the_child_does_not_return_is_searched_here(self, monkeypatch, forks, how):
        parent = os.getpid()
        searched = []

        def search(model, family):
            if os.getpid() != parent:
                if how == "exits":
                    os._exit(0)
                if how == "is killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if model.n == 4:
                    raise ArithmeticError("the child alone fails")
            else:
                searched.append(model.n)
            return optimize_parameters(model, family)

        monkeypatch.setattr(bounds, "optimize_parameters", search)
        models = [BernoulliModel(n) for n in range(1, 7)]
        column = self.column(monkeypatch, 2, models, "hockey_stick")
        assert len(forks) == 1
        assert searched == ([1, 3, 5, 4, 6] if how == "fails at n = 4" else [1, 3, 5, 2, 4, 6])
        assert column == [optimize_parameters(model, "hockey_stick") for model in models]
        _assert_no_child()

    def test_a_failed_fork_searches_every_model_here(self, monkeypatch, forks):
        def fork():
            raise OSError("no process for the child")

        monkeypatch.setattr(os, "fork", fork)
        models = [BernoulliModel(n) for n in range(1, 5)]
        column = self.column(monkeypatch, 2, models, "hellinger")
        assert column == [optimize_parameters(model, "hellinger") for model in models]

    def test_interrupt_kills_and_reaps_the_child(self, monkeypatch, forks):
        parent = os.getpid()

        def search(model, family):
            if os.getpid() != parent:
                time.sleep(60.0)
            raise KeyboardInterrupt

        monkeypatch.setattr(bounds, "optimize_parameters", search)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.column(monkeypatch, 2, [BernoulliModel(1), BernoulliModel(2)], "hellinger")
        assert time.monotonic() - start < 30.0
        assert len(forks) == 1
        _assert_no_child()

    def test_no_fork_beside_the_oracle_threads(self, monkeypatch, forks):
        monkeypatch.setattr(bounds, "_worker_count", lambda: 2)
        models = [GaussianModel(n) for n in range(1, 5)]
        column, _ = risk_reports(
            models,
            10,
            1,
            lambda: family_bounds(models, "hellinger", **self.FIXED, optimize=True),
        )
        assert forks == []
        assert column == [optimize_parameters(model, "hellinger") for model in models]

    @pytest.mark.parametrize("cpus, children", [(1, 0), (2, 1), (64, 1)])
    def test_one_child_at_most_and_none_on_one_cpu(self, monkeypatch, forks, cpus, children):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        models = [BernoulliModel(n) for n in range(1, 6)]
        column = family_bounds(models, "hellinger", **self.FIXED, optimize=True)
        assert len(forks) == children
        assert column == [optimize_parameters(model, "hellinger") for model in models]
        _assert_no_child()

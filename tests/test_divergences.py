"""Tests for closed-form and quadrature divergence values."""

import ast
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    chi_squared_bernoulli,
    chi_squared_scaled_upper_bound,
    combinatorial_identity_check,
    e_beta_gamma_bernoulli_decimal,
    e_beta_gamma_bernoulli_term_decimal,
    f_mi_numeric,
    log_comb,
    renyi_from_hellinger,
)

from fdivrisk import bounds, divergences, numerics
from fdivrisk.divergences import (
    DivergenceInfiniteError,
    DivergenceValue,
    e_beta_gamma_numeric,
    hellinger_divergence,
)
from fdivrisk.generators import Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel


def exact_bernoulli_scaled_p2(n: int) -> Fraction:
    """Integer-exact value of chi^2 + 1 from the gamma-function sum."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            Fraction(math.comb(n, k)) ** 2
            * math.factorial(2 * k)
            * math.factorial(2 * (n - k))
            / Fraction(math.factorial(2 * n + 1))
        )
    return (n + 1) * total


class TestBernoulliClosedForms:
    def test_chi_squared_n1(self):
        assert chi_squared_bernoulli(BernoulliModel(1)).value == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_log_factorial_table_grown_in_steps_holds_lgamma_of_each_index(self, monkeypatch):
        # The table grows 65,536 entries at a time: from empty, to the edge of
        # one step and one past it, then across two step edges at once.
        monkeypatch.setattr(divergences, "_LOG_FACTORIALS", ())
        for n in (3, 65_534, 65_535, 200_000):
            table = divergences._log_factorials(n)
            assert len(table) == n + 2
            assert table == tuple(math.lgamma(i + 1) for i in range(n + 2))

    def test_sum_form_matches_integer_exact(self):
        for n in (1, 2, 3, 7, 15):
            expected = float(exact_bernoulli_scaled_p2(n))
            assert hellinger_divergence(BernoulliModel(n), 2.0).value == pytest.approx(
                expected, rel=1e-12
            )

    def test_n2_p2_is_eight_fifths(self):
        assert hellinger_divergence(BernoulliModel(2), 2.0).value == pytest.approx(
            1.6, rel=1e-13
        )

    def test_sum_form_recovers_central_binomial_form(self):
        for n in range(1, 51):
            general = hellinger_divergence(BernoulliModel(n), 2.0).value
            special = chi_squared_bernoulli(BernoulliModel(n)).value
            assert general == pytest.approx(special, rel=1e-11)

    def test_upper_bound_envelope_small_range(self):
        for n in range(1, 200):
            assert chi_squared_bernoulli(BernoulliModel(n)).value <= chi_squared_scaled_upper_bound(n)

    def test_p_must_exceed_one(self):
        with pytest.raises(ValueError):
            hellinger_divergence(BernoulliModel(3), 1.0)

    def test_metadata(self):
        value = chi_squared_bernoulli(BernoulliModel(3))
        assert value.method == "closed_form"
        assert value.error_estimate == 0.0


class TestGaussianClosedForm:
    def test_equal_variances_p_three_halves(self):
        value = hellinger_divergence(GaussianModel(1, 1.0, 1.0), 1.5)
        assert value.value == pytest.approx(math.sqrt(2.0**1.5 / 1.75), rel=1e-14)

    def test_p_two_equal_variances(self):
        # (2 - p) p vanishes at p = 2, so the scaled value is (1 + r)^(p / 2).
        assert hellinger_divergence(GaussianModel(1, 1.0, 1.0), 2.0).value == pytest.approx(
            2.0, rel=1e-14
        )

    def test_p_close_to_one_tends_to_one(self):
        assert hellinger_divergence(GaussianModel(1, 1.0, 2.0), 1.0 + 1e-9).value == pytest.approx(
            1.0, abs=1e-8
        )

    def test_divergent_parameters_raise(self):
        # 1 + (2 - p) p r <= 0.
        with pytest.raises(DivergenceInfiniteError):
            hellinger_divergence(GaussianModel(1, 1.0, 1.0), 4.0)

    @pytest.mark.parametrize(
        "model, p", [(GaussianModel(1, 3.5e254), 1.41), (GaussianModel(1, 1.0, 1e-300), 1.5)]
    )
    def test_power_overflow_takes_logs(self, model, p):
        # (1 + r)^p overflows a float; the scaled value does not.
        value = hellinger_divergence(model, p)
        assert value.method == "closed_form_log"
        with localcontext() as ctx:
            ctx.prec = 40
            r = Decimal(model.sigma_w_sq) / Decimal(model.noise_var)
            dp = Decimal(p)
            exact = ((1 + r) ** dp / (1 + (2 - dp) * dp * r)).sqrt()
        assert value.value == pytest.approx(float(exact), rel=1e-12)

    def test_finite_power_keeps_its_bytes(self):
        # (1 + r)^p = 1.1e299 is finite, so the direct form is kept.
        model, p = GaussianModel(1, 1e200), 1.5
        r = model.sigma_w_sq / model.noise_var
        direct = ((1.0 + r) ** p / (1.0 + (2.0 - p) * p * r)) ** 0.5
        assert hellinger_divergence(model, p) == (direct, "closed_form", 0.0)

    def test_model_dispatch_uses_sufficient_statistic(self):
        # n samples enter only through the noise variance of the sample mean.
        model = GaussianModel(8, 1.0, 2.0)
        direct = hellinger_divergence(GaussianModel(1, 1.0, 2.0 / 8.0), 1.5).value
        assert hellinger_divergence(model, 1.5).value == pytest.approx(direct, rel=1e-15)


class TestRenyiTransform:
    def test_independence_maps_to_zero(self):
        assert renyi_from_hellinger(1.0, 2.0) == 0.0
        assert renyi_from_hellinger(1.0, 3.7) == 0.0

    def test_known_values(self):
        assert renyi_from_hellinger(4.0 / 3.0, 2.0) == pytest.approx(math.log(4.0 / 3.0))
        assert renyi_from_hellinger(math.e, 2.0) == pytest.approx(1.0)

    def test_exponential_form_reproduces_power_form(self):
        # The bound written with exp(((a-1)/a) D_a) must equal the one written
        # with the scaled divergence to the power 1/p.
        for p in (1.5, 2.0, 3.0):
            for scaled in (1.0, 1.2, 4.0 / 3.0, 9.0):
                for small_ball in (0.05, 0.3, 0.9):
                    d_alpha = renyi_from_hellinger(scaled, p)
                    exp_form = small_ball ** ((p - 1.0) / p) * math.exp((p - 1.0) / p * d_alpha)
                    power_form = small_ball ** ((p - 1.0) / p) * scaled ** (1.0 / p)
                    assert exp_form == pytest.approx(power_form, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            renyi_from_hellinger(0.0, 2.0)
        with pytest.raises(ValueError):
            renyi_from_hellinger(-1.0, 2.0)


class TestHockeyStickNumeric:
    def test_total_variation_n1_exact(self):
        # E_{1,1} at n = 1: both weight classes contribute 1/4 each, halved.
        value = e_beta_gamma_numeric(BernoulliModel(1), 1.0, 1.0)
        assert value.value == pytest.approx(0.25, abs=1e-12)
        assert value.method == "closed_form"

    def test_total_variation_n1_riemann_oracle(self):
        # Dense midpoint sum of max(0, ratio - 1) over the product measure.
        w = (np.arange(10**6) + 0.5) / 10**6
        term0 = np.maximum(0.0, 2.0 * (1.0 - w) - 1.0).mean()
        term1 = np.maximum(0.0, 2.0 * w - 1.0).mean()
        oracle = 0.5 * (term0 + term1)
        assert e_beta_gamma_numeric(BernoulliModel(1), 1.0, 1.0).value == pytest.approx(
            oracle, rel=1e-5
        )

    def test_zero_when_threshold_exceeds_peak(self):
        # Max ratio at n = 1 is 2, so beta * 2 < gamma kills the integrand.
        assert e_beta_gamma_numeric(BernoulliModel(1), 0.75, 2.2).value == 0.0
        model = BernoulliModel(3)
        # Max ratio is 4 at the corners.
        assert e_beta_gamma_numeric(model, 1.0, 4.5).value == 0.0

    def test_gaussian_value_vs_generic_engine(self):
        model = GaussianModel(5, 1.0, 2.0)
        fast = e_beta_gamma_numeric(model, 0.75, 2.2).value
        generic = f_mi_numeric(model, HockeyStick(0.75, 2.2)).value
        assert fast == pytest.approx(generic, rel=1e-7)

    def test_gaussian_large_gamma_small_but_positive(self):
        # Unlike the bounded coin-flip ratio, the Gaussian ratio is unbounded,
        # so a large gamma leaves a small far-tail contribution.
        value = e_beta_gamma_numeric(GaussianModel(1, 1.0, 2.0), 1.0, 50.0)
        generic = f_mi_numeric(GaussianModel(1, 1.0, 2.0), HockeyStick(1.0, 50.0))
        assert 0.0 < value.value < 1e-3
        assert value.value == pytest.approx(generic.value, rel=1e-6)

    def test_gaussian_gamma_beyond_float_tail_is_zero(self):
        # Positive region entirely outside the integration window.
        value = e_beta_gamma_numeric(GaussianModel(1, 1.0, 2.0), 1.0, 1e18)
        assert value.value == 0.0
        assert value.error_estimate < 1e-14

    @pytest.mark.parametrize("n", [7, 50])
    def test_gaussian_large_tau_stops_at_its_rounding_floor(self, monkeypatch, n):
        # At gamma / beta = 1e12, E is about 1e-12, below the rounding floor
        # of the slices' normal-CDF differences: the outer quadrature aims at
        # that floor and meets it in a few panels rather than stalling.
        stalls = []
        panels = []

        def recorded(*args, **kwargs):
            try:
                return numerics.adaptive_quadrature(*args, **kwargs)
            except numerics.QuadratureError as exc:
                stalls.append(exc)
                raise

        def counted(*args):
            panels.append(args)
            return kronrod15(*args)

        kronrod15 = numerics._kronrod15
        monkeypatch.setattr(divergences, "adaptive_quadrature", recorded)
        monkeypatch.setattr(numerics, "_kronrod15", counted)
        model = GaussianModel(n, 40.0, 1.0)
        value = e_beta_gamma_numeric(model, 1.0, 1e12)
        assert stalls == []
        assert len(panels) < 64
        generic = f_mi_numeric(model, HockeyStick(1.0, 1e12))
        assert value.value > 0.0
        assert abs(value.value - generic.value) <= value.error_estimate + generic.error_estimate

    def test_monotone_in_gamma_and_beta(self):
        model = BernoulliModel(8)
        gammas = [1.0, 1.5, 2.0, 3.0, 4.5]
        values = [e_beta_gamma_numeric(model, 1.0, g).value for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        betas = [0.25, 0.5, 1.0, 1.5, 2.0]
        values = [e_beta_gamma_numeric(model, b, 2.2).value for b in betas]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            e_beta_gamma_numeric(BernoulliModel(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            e_beta_gamma_numeric(BernoulliModel(2), 2.0, 1.0)

    # E_{0.75,2.2} computed independently with scipy: kink roots by
    # scipy.optimize.brentq (rtol 8.9e-16) and each Hamming-weight term as
    # 0.75 (betainc(a, b, hi) - betainc(a, b, lo)) - 2.2 (hi - lo), summed with
    # math.fsum.  At n = 1000 an mpmath evaluation (30 digits) agrees to 1e-16.
    @pytest.mark.parametrize(
        "n, reference", [(1000, 0.6103152230147991), (10000, 0.6984930435865926)]
    )
    def test_bernoulli_error_estimate_bounds_reference(self, n, reference):
        value = e_beta_gamma_numeric(BernoulliModel(n), 0.75, 2.2)
        assert abs(value.value - reference) <= value.error_estimate <= 1e-10

    # The scalar path below n = 126 and the numpy path from n = 126 on, over
    # the search's whole tau grid where the Decimal reference is cheap.
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 125, 126, 200])
    def test_bernoulli_error_estimate_bounds_decimal_reference(self, n):
        for tau in (1.5, 2.9333, 40.0) if n in (125, 200) else bounds._TAU_GRID:
            value = e_beta_gamma_numeric(BernoulliModel(n), 1.0, tau)
            reference = e_beta_gamma_bernoulli_decimal(n, tau)
            assert abs(Decimal(value.value) - reference) <= Decimal(value.error_estimate), tau

    def test_non_negative(self):
        for n in (1, 5, 20):
            value = e_beta_gamma_numeric(BernoulliModel(n), 0.75, 2.2).value
            assert value >= -1e-12


class TestBernoulliArrayPath:
    # Odd and even n on both sides of the size at which the kernel switches
    # from one weight at a time to numpy blocks.
    NS = (6, 7, 124, 125, 126, 127, 400, 401)

    @pytest.mark.parametrize("n", NS)
    def test_agrees_with_scalar_path(self, n):
        crossover = divergences._ARRAY_MIN_WEIGHTS
        assert min(self.NS) // 2 + 1 < crossover <= max(self.NS) // 2 + 1
        model = BernoulliModel(n)
        # The last two tau sit just inside and outside the k = 0 peak n + 1.
        for tau in (1.0, 1.5, 2.9333, 40.0, 160.0, n + 1.0 - 1e-9, n + 1.0 + 1e-9):
            scalar_sum, scalar_error = divergences._bernoulli_sum_scalar(n, 1.0, tau)
            [(array_sum, array_error)] = divergences._bernoulli_sums_array([n], 1.0, tau)
            tolerance = scalar_error + array_error
            assert abs(array_sum - scalar_sum) <= tolerance, (tau, array_sum, scalar_sum)
            expected = array_sum if n // 2 + 1 >= crossover else scalar_sum
            value = e_beta_gamma_numeric(model, 1.0, tau).value
            assert value == (1.0 / (n + 1.0)) * expected, tau

    # value.hex() and error_estimate.hex() of E_{1,tau} before the two
    # coin-flip kernels took log w and log(1 - w) once per kink end: the
    # scalar path below n = 126 and the numpy path from there on.
    PINNED = {
        (7, 1.5): ("0x1.4774920f1f369p-2", "0x1.0488785be947cp-42"),
        (7, 2.9333): ("0x1.3a870c09d2bf6p-4", "0x1.1cecdeaacf917p-42"),
        (7, 40.0): ("0x0.0p+0", "0x0.0p+0"),
        (50, 1.5): ("0x1.482423bc09258p-1", "0x1.ab8c2b03bc23dp-44"),
        (50, 2.9333): ("0x1.9e638a1b23205p-2", "0x1.003b20ffadf12p-42"),
        (50, 40.0): ("0x1.07326cab323bap-10", "0x1.97b374e55fb7ap-47"),
        (125, 1.5): ("0x1.7f6bab62803ecp-1", "0x1.7330c1ecc2caep-44"),
        (125, 2.9333): ("0x1.2420455b0b23cp-1", "0x1.a590ea2e2dba8p-43"),
        (125, 40.0): ("0x1.742bce00b6930p-8", "0x1.eeaed09d4ec6ep-46"),
        (126, 1.5): ("0x1.7fd52e0a774c3p-1", "0x1.733364ec3e814p-44"),
        (126, 2.9333): ("0x1.24c8781b25b5dp-1", "0x1.a56fb052c9d5ep-43"),
        (126, 40.0): ("0x1.771a5a8155ff6p-8", "0x1.ea0515490cac7p-46"),
        (1000, 1.5): ("0x1.ca6bd85463e79p-1", "0x1.5c9dd7526428bp-43"),
        (1000, 2.9333): ("0x1.a0a48cdf06044p-1", "0x1.77d754367d56cp-42"),
        (1000, 40.0): ("0x1.4d09234c7866ap-5", "0x1.4346709b09fe8p-40"),
    }

    @pytest.mark.parametrize("n, tau", list(PINNED))
    def test_pinned_bits(self, n, tau):
        value = e_beta_gamma_numeric(BernoulliModel(n), 1.0, tau)
        assert (value.value.hex(), value.error_estimate.hex()) == self.PINNED[n, tau]

    # The packed kernel at n = 10^4, a weight at a time as one-run blocks:
    # weights 0 and 1 (a lower root near 0), n/4, the last weights whose peak
    # passes tau (their kink interval closes; at tau = 160 that is k = 666)
    # with the first that fails, and n/2.  The worst |error| / estimate here
    # is 0.12.
    @pytest.mark.parametrize("tau", [1.5, 40.0, 160.0])
    def test_large_n_terms_within_their_error_bounds(self, tau):
        n = 10**4
        lgam = np.array(divergences._log_factorials(n)[: n + 2])
        log_tau = math.log(tau) - math.log(1.0)
        with np.errstate(all="ignore"):  # as _bernoulli_sums_array calls it
            [kept], _, _ = divergences._block_terms([(n, 0, n // 2 + 1)], lgam, log_tau, 1.0, tau)
            for k in sorted({0, 1, n // 4, kept - 2, kept - 1, min(kept, n // 2), n // 2}):
                _, values, errors = divergences._block_terms([(n, k, 1)], lgam, log_tau, 1.0, tau)
                weight = 1 if 2 * k == n else 2
                reference = weight * e_beta_gamma_bernoulli_term_decimal(n, k, tau)
                if k >= kept:
                    assert (values, reference) == ([], 0), k
                else:
                    assert abs(Decimal(values[0]) - reference) <= Decimal(errors[0]), k

    def test_continued_fraction_stall_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BETACF_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="continued fraction stalled"):
            e_beta_gamma_numeric(BernoulliModel(400), 0.75, 2.2)


class TestPackedBlocks:
    # e_beta_gamma_sweep packs the weights of consecutive n into shared numpy
    # blocks; each value must keep the bits of its n evaluated alone.
    @staticmethod
    def blocks(ns):
        return list(divergences._weight_blocks(ns))

    @staticmethod
    def assert_same_bits(ns, beta, gamma):
        models = [BernoulliModel(n) for n in ns]
        packed = divergences.e_beta_gamma_sweep(models, beta, gamma)
        assert len(packed) == len(models)
        for model, value in zip(models, packed):
            alone = e_beta_gamma_numeric(model, beta, gamma)
            assert value.value.hex() == alone.value.hex(), model.n
            assert value.error_estimate.hex() == alone.error_estimate.hex(), model.n

    def test_weights_fill_a_block_exactly(self):
        # n = 168..210 have 4096 weights k <= n/2, so 211 starts the second block.
        blocks = self.blocks(range(168, 230))
        assert sum(count for _, _, count in blocks[0]) == divergences._ARRAY_BLOCK
        assert blocks[0][-1] == (210, 0, 106) and blocks[1][0] == (211, 0, 106)
        self.assert_same_bits(range(168, 230), 1.0, 2.9333)

    def test_n_that_does_not_fit_runs_into_the_next_block(self):
        # n = 1000..1007 fill 4020 of 4096; n = 1008 straddles two blocks.
        blocks = self.blocks(range(1000, 1040))
        assert blocks[0][-1] == (1008, 0, 76) and blocks[1][0] == (1008, 76, 429)
        self.assert_same_bits(range(1000, 1040), 0.75, 2.2)

    def test_n_larger_than_a_block_between_smaller_ones(self):
        # n = 9000 has 4501 weights, n = 8192 one more than a block.
        ns = [*range(126, 140), 9000, *range(140, 160), 8192, 160]
        blocks = self.blocks(ns)
        assert [[run for run in block if run[0] in (8192, 9000)] for block in blocks] == [
            [(9000, 0, 3158)],
            [(9000, 3158, 1343), (8192, 0, 1243)],
            [(8192, 1243, 2854)],
        ]
        assert len(blocks[1]) > 2  # 9000 shares its second block with smaller n
        self.assert_same_bits(ns, 1.0, 40.0)

    def test_level_above_some_peaks(self):
        # At tau = 200 every weight of n < 199 fails the peak test (its
        # highest density ratio is n + 1), so the first block keeps nothing,
        # and the second mixes emptied n with kept ones.
        ns = range(126, 300)
        models = [BernoulliModel(n) for n in ns]
        values = divergences.e_beta_gamma_sweep(models, 1.0, 200.0)
        assert {v.value for v, n in zip(values, ns) if n < 199} == {0.0}
        assert all(v.value > 0.0 for v, n in zip(values, ns) if n >= 200)
        assert sum(n // 2 + 1 for n in range(126, 199)) > divergences._ARRAY_BLOCK
        self.assert_same_bits(ns, 1.0, 200.0)

    @pytest.mark.parametrize("beta, gamma", [(2.5, 3.0), (0.3, 77.0)])
    def test_beta_other_than_one(self, beta, gamma):
        self.assert_same_bits(range(120, 260), beta, gamma)

    def test_coin_flips_packed_around_a_gaussian_model(self):
        # n = 130 and 131 share a block across the Gaussian model between
        # them; n = 5 takes the scalar path.
        models = [BernoulliModel(130), GaussianModel(3), BernoulliModel(131), BernoulliModel(5)]
        values = divergences.e_beta_gamma_sweep(models, 0.75, 2.2)
        assert len(values) == len(models)
        for model, value in zip(models, values):
            alone = e_beta_gamma_numeric(model, 0.75, 2.2)
            assert value.value.hex() == alone.value.hex(), model
            assert value.error_estimate.hex() == alone.error_estimate.hex(), model
            assert value.method == alone.method

    def test_peak_memory_does_not_grow_with_the_sweep(self):
        # The blocks stream: a sweep holds a few blocks of weights at a time,
        # not every weight of every n.  tracemalloc sees numpy's data buffers.
        def peak(ns):
            models = [BernoulliModel(n) for n in ns]
            tracemalloc.start()
            try:
                divergences.e_beta_gamma_sweep(models, 0.75, 2.2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        divergences.e_beta_gamma_sweep([BernoulliModel(126)], 0.75, 2.2)  # first-call allocations
        assert peak(range(126, 501)) <= 1.1 * peak(range(126, 301))

    def test_mixed_models_and_scalar_path(self):
        # Below n = 126 the scalar path; a Gaussian list goes model by model.
        self.assert_same_bits([3, 200, 60, 126, 125, 1], 0.75, 2.2)
        models = [GaussianModel(1), GaussianModel(4)]
        assert divergences.e_beta_gamma_sweep(models, 0.75, 2.2) == [
            e_beta_gamma_numeric(model, 0.75, 2.2) for model in models
        ]
        assert divergences.e_beta_gamma_sweep([], 0.75, 2.2) == []
        with pytest.raises(ValueError):
            divergences.e_beta_gamma_sweep([BernoulliModel(200)], 2.0, 1.0)


class TestGenericEngine:
    def test_bernoulli_hockey_stick_matches_specialised_path(self):
        # Both parities of n, so the even-n middle weight (counted once) is
        # covered, and tau from total variation up to the search's top end.
        for n in (1, 2, 7, 50, 200):
            model = BernoulliModel(n)
            for tau in (1.0, 1.5, 2.9333, 10.0, 40.0, 160.0):
                fast = e_beta_gamma_numeric(model, 1.0, tau).value
                generic = f_mi_numeric(model, HockeyStick(1.0, tau)).value
                assert abs(fast - generic) <= 1e-11, (n, tau)

    def test_hockey_stick_beta_scaling(self):
        # E_{b,b} = b * E_{1,1}: the integrand scales linearly.
        model = BernoulliModel(4)
        tv = f_mi_numeric(model, HockeyStick(1.0, 1.0)).value
        half = f_mi_numeric(model, HockeyStick(0.5, 0.5)).value
        assert half == pytest.approx(0.5 * tv, rel=1e-9)

    def test_gaussian_multi_sample_reduction(self):
        model = GaussianModel(4, 1.0, 2.0)
        closed = hellinger_divergence(model, 1.5).value
        quad = f_mi_numeric(model, Hellinger(1.5)).value
        assert quad == pytest.approx(closed, rel=1e-6)

    def test_gaussian_divergence_detected_by_growth(self):
        with pytest.raises(DivergenceInfiniteError):
            f_mi_numeric(GaussianModel(1, 1.0, 1.0), Hellinger(4.0))

    def test_scaled_values_at_least_one(self):
        for n in (1, 4):
            value = f_mi_numeric(BernoulliModel(n), Hellinger(2.0)).value
            assert value >= 1.0 - 1e-10


def test_oracles_import_nothing_private_from_divergences():
    # The oracles must not reuse the kink roots or slice bounds they certify.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fdivrisk.divergences"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


class TestAppendixIdentities:
    def test_combinatorial_identity_small(self):
        assert combinatorial_identity_check(0)
        assert combinatorial_identity_check(2)
        assert combinatorial_identity_check(20)
        for n in range(0, 30):
            assert combinatorial_identity_check(n)

    def test_combinatorial_identity_domain(self):
        with pytest.raises(ValueError):
            combinatorial_identity_check(-1)

    def test_central_binomial_stirling_bracket_small(self):
        # 4^n / C(2n, n) <= (8/7) sqrt(pi n), i.e. C(2n, n) >= (7/8) 4^n / sqrt(pi n);
        # the constant is sharp-ish at n = 1 where the ratio is ~0.886.
        for n in range(1, 500):
            lhs = n * math.log(4.0) - log_comb(2 * n, n)
            rhs = math.log(8.0 / 7.0) + 0.5 * math.log(math.pi * n)
            assert lhs <= rhs


class TestDivergenceValue:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            DivergenceValue(1.0, "guesswork")
        with pytest.raises(ValueError):
            DivergenceValue(1.0, "quadrature", -1e-3)

    @pytest.mark.parametrize("value, error", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan)])
    def test_non_finite_rejected(self, value, error):
        with pytest.raises(ArithmeticError, match="not finite"):
            DivergenceValue(value, "quadrature", error)

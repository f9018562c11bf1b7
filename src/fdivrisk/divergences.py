"""f-mutual-information values between the parameter and the observations.

One entry point per family: ``hellinger_divergence(model, p)`` and
``e_beta_gamma_numeric(model, beta, gamma)``.  Closed forms where they
exist: the Hellinger family on both models, and the coin-flip hockey-stick
family as a closed form (incomplete-beta sum) over Hamming weights.  That
sum runs one weight at a time in pure Python below ``_ARRAY_MIN_WEIGHTS``
weights k <= n/2 (n < 126), and in numpy blocks of weights from there on;
only the block functions import numpy, so smaller runs never load it.
The Gaussian hockey-stick family is an adaptive quadrature over the
parameter, with each slice in the sample mean in closed form.

Value convention: Hellinger-family results are stored "scaled" as
(p-1) * H_p + 1, which is exactly what the bound formulas consume; the raw
divergence is (scaled - 1) / (p - 1).  Hockey-stick results are the raw
E_{beta,gamma} value.  Family parameters are checked by constructing the
generator (``Hellinger(p)`` or ``HockeyStick(beta, gamma)``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .generators import Hellinger, HockeyStick
from .models import BernoulliModel, GaussianModel, Model
from .numerics import (
    _beta_cont_frac_array,
    adaptive_quadrature,
    log_comb,
    norm_cdf,
    norm_pdf,
    regularized_incomplete_beta,
)

__all__ = [
    "DivergenceInfiniteError",
    "DivergenceValue",
    "e_beta_gamma_numeric",
    "hellinger_divergence",
]


class DivergenceInfiniteError(ValueError):
    """The requested f-mutual information diverges (its defining integral
    is infinite for the given parameters)."""


@dataclass(frozen=True)
class DivergenceValue:
    """A computed f-mutual-information value with provenance.

    ``error_estimate`` is an absolute bound on the numerical error of
    quadrature and closed-form results.  The Hellinger closed forms report
    zero: they do not bound their rounding.  A value or error estimate that
    is not finite (an overflow, or a ``nan`` from cancellation) raises
    ``FloatingPointError``, so no bound is ever built on one.
    """

    value: float
    method: str  # "closed_form" | "quadrature"
    error_estimate: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.error_estimate)):
            raise FloatingPointError(
                f"{self.method} divergence is not finite: value {self.value}, "
                f"error estimate {self.error_estimate}"
            )
        if self.method not in ("closed_form", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.error_estimate < 0.0:
            raise ValueError("error estimate must be non-negative")


# --------------------------------------------------------------------------
# Hellinger information, both models
# --------------------------------------------------------------------------


def hellinger_divergence(model: Model, p: float) -> DivergenceValue:
    """Scaled order-p Hellinger information between the parameter and the
    data, in closed form.

    Coin-flip model: (p-1) H_p + 1 = (n+1)^(p-1) * sum_k C(n,k)^p *
    G(kp+1) G((n-k)p+1) / G(np+2), with G the gamma function.  Evaluated
    through log-gamma, with each term scaled by the largest, and summed by
    ``math.fsum``: the k-terms span many orders of magnitude once n grows,
    and the exactly rounded sum does not depend on their order.

    Gaussian model: (p-1) H_p + 1 = ((1 + r)^p / (1 + (2-p) p r))^(1/2),
    with r = sigma_w_sq / (sigma_sq / n) the ratio of the prior variance to
    the noise variance of the sample mean.
    """
    Hellinger(p)  # checks the order
    if isinstance(model, GaussianModel):
        r = model.sigma_w_sq / model.noise_var
        denom = 1.0 + (2.0 - p) * p * r
        if denom <= 0.0:
            raise DivergenceInfiniteError(
                f"order-{p} Hellinger information is infinite at variance ratio {r}"
            )
        return DivergenceValue(((1.0 + r) ** p / denom) ** 0.5, "closed_form")
    n = model.n
    log_np1 = math.log(n + 1.0)
    log_terms = [
        (p - 1.0) * log_np1
        + p * log_comb(n, k)
        + math.lgamma(k * p + 1.0)
        + math.lgamma((n - k) * p + 1.0)
        - math.lgamma(n * p + 2.0)
        for k in range(n + 1)
    ]
    top = max(log_terms)
    total = math.fsum(math.exp(t - top) for t in log_terms)
    return DivergenceValue(math.exp(top) * total, "closed_form")


# --------------------------------------------------------------------------
# Coin-flip model: kink roots and the closed-form hockey-stick sum
# --------------------------------------------------------------------------

_KINK_TOL = 1e-13
_KINK_MAX_ITER = 128
_EPS = sys.float_info.epsilon
# Relative error of the incomplete-beta continued fraction: its 1e-16
# convergence test plus a few roundings in each of at most 500 Lentz steps.
_BETACF_REL_ERR = 1e-12


def _kink_root(excess, slope, inside: float, outside: float, start: float) -> float:
    """Root of the concave ``excess``, positive at ``inside`` (the mode) and
    negative at ``outside``, by Newton's method kept inside the bracket.

    A step that leaves the bracket is replaced by a bisection step.  Stops
    once a Newton step or the bracket is no longer than ``_KINK_TOL``.
    """
    x = start
    for _ in range(_KINK_MAX_ITER):
        lo, hi = (inside, outside) if inside < outside else (outside, inside)
        if hi - lo <= _KINK_TOL:
            break
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        v = excess(x)
        if v > 0.0:
            inside = x
        elif v < 0.0:
            outside = x
        else:
            return x
        d = slope(x)
        if d == 0.0:
            continue  # x is now a bracket end, so the next pass bisects
        step = v / d
        x -= step
        if abs(step) <= _KINK_TOL and lo <= x <= hi:
            return x
    return 0.5 * (inside + outside)


def _bernoulli_kink_interval(model: BernoulliModel, k: int, log_tau: float):
    """Interval where the density ratio exceeds tau for Hamming weight k.

    The log-kernel k log w + (n-k) log(1-w) is concave with its peak at the
    mode w = k/n, so the level set is a single interval.  Each end is found
    by safeguarded Newton, started where the Gaussian approximation of the
    kernel around the mode crosses the level.  Returns None when the ratio
    never exceeds tau.
    """
    n = model.n
    mode = k / n
    logc = math.log(n + 1.0) + log_comb(n, k)

    def excess(w: float) -> float:
        v = logc
        if k:
            v += k * math.log(w)
        if k < n:
            v += (n - k) * math.log1p(-w)
        return v - log_tau

    def slope(w: float) -> float:
        return k / w - (n - k) / (1.0 - w)

    peak = excess(mode)
    if peak <= 0.0:
        return None
    half_width = math.sqrt(2.0 * peak * mode * (1.0 - mode) / n)
    lo = 0.0 if k == 0 else _kink_root(excess, slope, mode, 0.0, mode - half_width)
    hi = 1.0 if k == n else _kink_root(excess, slope, mode, 1.0, mode + half_width)
    return lo, hi


def _log_beta_kernel_size(a: float, b: float, x: float) -> float:
    """Sum of the magnitudes of the terms of log(x^a (1-x)^b / B(a, b)) for
    0 < x < 1.

    Each term is rounded to within two ulps, so 4 eps times this size bounds
    the absolute rounding error of the log-density, which grows like n log n.
    """
    return (
        math.lgamma(a + b)
        + abs(math.lgamma(a))
        + abs(math.lgamma(b))
        - a * math.log(x)
        - b * math.log1p(-x)
    )


def _bernoulli_terms_scalar(
    model: BernoulliModel, beta: float, gamma: float
) -> tuple[list, list]:
    """Per-weight terms of E_{beta,gamma} and their error bounds, one weight
    at a time (see :func:`_e_beta_gamma_bernoulli`)."""
    n = model.n
    log_tau = math.log(gamma) - math.log(beta)
    values = []
    errors = []
    for k in range(n // 2 + 1):
        interval = _bernoulli_kink_interval(model, k, log_tau)
        if interval is None:
            continue
        a = k + 1.0
        b = n - k + 1.0
        term = -gamma * (interval[1] - interval[0])
        err = _EPS * (beta + gamma)
        for sign, w in zip((-1.0, 1.0), interval):
            i_w = regularized_incomplete_beta(a, b, w)
            term += sign * beta * i_w
            if w in (0.0, 1.0):
                continue  # an exact end: I_0 = 0 and I_1 = 1
            size = _log_beta_kernel_size(a, b, w)
            tail = min(i_w, 1.0 - i_w)
            err += beta * (tail * (4.0 * _EPS * size + _BETACF_REL_ERR) + _EPS)
            slope = max(abs(k / w - (n - k) / (1.0 - w)), _EPS)
            root_err = _KINK_TOL + 4.0 * _EPS * (size + abs(log_tau)) / slope
            err += gamma * slope * root_err * root_err
        weight = 1.0 if 2 * k == n else 2.0
        values.append(weight * term)
        errors.append(weight * err)
    return values, errors


# Hamming weights (k <= n/2) from which the kernel switches to numpy blocks,
# so n >= 126.  Measured over the parameter search's tau grid, the two paths
# break even near 51 weights; below that the arrays' fixed cost of a few
# hundred numpy calls exceeds the scalar loop's work.
_ARRAY_MIN_WEIGHTS = 64
# Weights per numpy block: bounds the size of the temporaries.
_ARRAY_BLOCK = 1024


def _kink_roots_array(excess, slope, inside, outside, x) -> np.ndarray:
    """:func:`_kink_root` over arrays, element by element.

    Each element stops under the scalar rules and keeps the value it stopped
    at.  ``excess`` and ``slope`` map an array of abscissae to arrays.  Works
    in place on ``inside``, ``outside`` and ``x``.
    """
    import numpy as np

    root = x.copy()
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_KINK_MAX_ITER):
        lo = np.minimum(inside, outside)
        hi = np.maximum(inside, outside)
        narrow = ~done & (hi - lo <= _KINK_TOL)
        np.copyto(root, 0.5 * (inside + outside), where=narrow)
        done |= narrow
        if done.all():
            return root
        np.copyto(x, 0.5 * (lo + hi), where=~((lo < x) & (x < hi)))
        v = excess(x)
        live = ~done
        np.copyto(inside, x, where=live & (v > 0.0))
        np.copyto(outside, x, where=live & (v < 0.0))
        hit = live & (v == 0.0)
        np.copyto(root, x, where=hit)
        done |= hit
        d = slope(x)
        step = v / d
        moving = ~done & (d != 0.0)
        x_next = x - step
        converged = moving & (np.abs(step) <= _KINK_TOL) & (lo <= x_next) & (x_next <= hi)
        np.copyto(root, x_next, where=converged)
        done |= converged
        np.copyto(x, x_next, where=moving)
    np.copyto(root, 0.5 * (inside + outside), where=~done)
    return root


def _bernoulli_terms_array(
    model: BernoulliModel, beta: float, gamma: float
) -> tuple[list, list]:
    """:func:`_bernoulli_terms_scalar` over blocks of weights in numpy.

    Each weight takes the scalar path's steps in the same order (peak test,
    Newton kink roots, incomplete-beta ends, error bound), so the two agree
    to within the libm and numpy rounding of log, log1p and exp.
    """
    import numpy as np

    n = model.n
    log_tau = math.log(gamma) - math.log(beta)
    # lgam[i] = lgamma(i + 1): log-factorials, and lgamma of the Beta shapes.
    lgam = np.fromiter(map(math.lgamma, range(1, n + 3)), float, n + 2)
    log_np1 = math.log(n + 1.0)
    weights = n // 2 + 1
    values: list = []
    errors: list = []
    with np.errstate(all="ignore"):  # settled and exact ends may hit log(0)
        for first in range(0, weights, _ARRAY_BLOCK):
            ks = np.arange(first, min(first + _ARRAY_BLOCK, weights))
            k = ks.astype(float)
            rest = n - k
            logc = log_np1 + (lgam[n] - lgam[ks] - lgam[n - ks])
            mode = k / n
            log_mode = np.log(mode, out=np.zeros_like(mode), where=ks > 0)
            peak = logc + k * log_mode + rest * np.log1p(-mode) - log_tau
            keep = peak > 0.0
            if not keep.any():
                continue
            ks, k, rest, logc, mode, peak = (v[keep] for v in (ks, k, rest, logc, mode, peak))

            # Lower roots in the first half, upper roots in the second.
            k2 = np.concatenate((k, k))
            rest2 = np.concatenate((rest, rest))
            logc2 = np.concatenate((logc, logc))

            def excess(w):
                return logc2 + k2 * np.log(w) + rest2 * np.log1p(-w) - log_tau

            def slope(w):
                return k2 / w - rest2 / (1.0 - w)

            size = len(k)
            half_width = np.sqrt(2.0 * peak * mode * (1.0 - mode) / n)
            # Weight 0 peaks at w = 0: its lower bracket [0, 0] is already
            # closed, so that root comes out as exactly 0.
            inside = np.concatenate((mode, mode))
            outside = np.concatenate((np.zeros(size), np.ones(size)))
            start = np.concatenate((mode - half_width, mode + half_width))
            w = _kink_roots_array(excess, slope, inside, outside, start)

            # Regularized incomplete beta I_w(a, b) at every end, from the
            # continued fraction on whichever side converges.
            a = k2 + 1.0
            b = rest2 + 1.0
            lg_a = np.concatenate((lgam[ks], lgam[ks]))
            lg_b = np.concatenate((lgam[n - ks], lgam[n - ks]))
            log_w = np.log(w)
            log_1mw = np.log1p(-w)
            exact = (w == 0.0) | (w == 1.0)
            inner = ~exact
            front = np.exp(lgam[n + 1] - lg_a - lg_b + a * log_w + b * log_1mw)
            flip = ~(w < (a + 1.0) / (a + b + 2.0))
            cf_a = np.where(flip, b, a)
            cf_b = np.where(flip, a, b)
            cf_x = np.where(flip, 1.0 - w, w)
            frac = np.zeros_like(w)
            frac[inner] = _beta_cont_frac_array(cf_a[inner], cf_b[inner], cf_x[inner])
            i_w = np.where(flip, 1.0 - front * frac / b, front * frac / a)
            i_w = np.where(exact, w, i_w)

            kernel_size = lgam[n + 1] + np.abs(lg_a) + np.abs(lg_b) - a * log_w - b * log_1mw
            tail = np.minimum(i_w, 1.0 - i_w)
            cf_err = beta * (tail * (4.0 * _EPS * kernel_size + _BETACF_REL_ERR) + _EPS)
            ratio_slope = np.maximum(np.abs(slope(w)), _EPS)
            root_err = _KINK_TOL + 4.0 * _EPS * (kernel_size + abs(log_tau)) / ratio_slope
            root_err = gamma * ratio_slope * root_err * root_err
            cf_err = np.where(exact, 0.0, cf_err)
            root_err = np.where(exact, 0.0, root_err)

            lo, hi = w[:size], w[size:]
            term = -gamma * (hi - lo) + -beta * i_w[:size] + beta * i_w[size:]
            err = _EPS * (beta + gamma) + cf_err[:size] + root_err[:size]
            err = err + cf_err[size:] + root_err[size:]
            weight = np.where(2 * ks == n, 1.0, 2.0)
            values.extend((weight * term).tolist())
            errors.extend((weight * err).tolist())
    return values, errors


def _e_beta_gamma_bernoulli(model: BernoulliModel, beta: float, gamma: float) -> DivergenceValue:
    """E_{beta,gamma} as a finite sum over Hamming weights.

    For weight k the density ratio is the Beta(k+1, n-k+1) density, so its
    term beta*ratio - gamma integrates over the kink interval [lo, hi] to
    beta (I_hi - I_lo) - gamma (hi - lo), with I the regularized incomplete
    beta function.  Weights k and n-k mirror each other (w <-> 1-w), so only
    k <= n/2 is evaluated and the rest counted twice.  From
    ``_ARRAY_MIN_WEIGHTS`` such weights on, they are evaluated in numpy
    blocks; below it, one at a time.

    The error bound covers the rounding of the incomplete-beta front factor
    and of the continued fraction, and the kink roots: the integrand vanishes
    at a root, so a root off by d moves the term by at most about
    gamma * |slope| * d^2, slope being the log-ratio's derivative there.
    """
    n = model.n
    if n // 2 + 1 >= _ARRAY_MIN_WEIGHTS:
        values, errors = _bernoulli_terms_array(model, beta, gamma)
    else:
        values, errors = _bernoulli_terms_scalar(model, beta, gamma)
    scale = 1.0 / (n + 1.0)
    return DivergenceValue(scale * math.fsum(values), "closed_form", scale * math.fsum(errors))


# --------------------------------------------------------------------------
# Gaussian model: quadrature over w, each slice in the sample mean in closed form
# --------------------------------------------------------------------------

_GAUSSIAN_REL_TOL = 1e-8
_GAUSSIAN_BOX_SD = 8.0


def _e_beta_gamma_gaussian(model: GaussianModel, beta: float, gamma: float) -> DivergenceValue:
    """E_{beta,gamma} between the parameter and the sample mean.

    For fixed w the log-ratio is a downward parabola in x, so the set where
    the density ratio exceeds gamma / beta is an interval whose ends solve a
    quadratic; it is non-empty exactly when |w| >= w_min.  Over it the inner
    x-integral of beta*joint - gamma*product is a difference of Gaussian
    CDFs, evaluated exactly, and an outer adaptive quadrature integrates over
    w from w_min.  Both factors are even in (w, x), so only w >= 0 is
    integrated.
    """
    s2 = model.noise_var
    m2 = model.marginal_var
    sw2 = model.sigma_w_sq
    s = math.sqrt(s2)
    m = math.sqrt(m2)
    sw = math.sqrt(sw2)
    # Threshold for the x-quadratic: -(x-w)^2/(2 s2) + x^2/(2 m2) > mu.
    mu = math.log(gamma / beta) - 0.5 * math.log(m2 / s2)
    w_min = math.sqrt(2.0 * sw2 * mu) if mu > 0.0 else 0.0
    a = 0.5 / m2 - 0.5 / s2  # < 0 since the noise variance is the smaller one

    def outer(w: float) -> float:
        if w * w / (2.0 * sw2) - mu <= 0.0:
            return 0.0
        b = w / s2
        c = -w * w / (2.0 * s2) - mu
        discriminant = b * b - 4.0 * a * c
        # At extreme variance ratios rounding sets a to 0 (marginal_var
        # rounds to noise_var) or cancels the discriminant below 0.
        if discriminant < 0.0 or a == 0.0:
            raise ArithmeticError(
                "Gaussian hockey-stick slice quadratic lost to rounding at variance ratio "
                f"r = sigma_w_sq / (sigma_sq / n) = {sw2 / s2}"
            )
        q = -0.5 * (b + math.copysign(math.sqrt(discriminant), b))
        if q == 0.0:
            return 0.0
        r1 = q / a
        r2 = c / q
        x_lo, x_hi = (r1, r2) if r1 <= r2 else (r2, r1)
        inner = beta * (norm_cdf((x_hi - w) / s) - norm_cdf((x_lo - w) / s)) - gamma * (
            norm_cdf(x_hi / m) - norm_cdf(x_lo / m)
        )
        return norm_pdf(w, 0.0, sw2) * inner

    w_hi = _GAUSSIAN_BOX_SD * sw
    # Everything beyond the integration window is bounded by beta times the
    # prior tail mass there.
    tail = 2.0 * beta * (1.0 - norm_cdf(max(w_min, w_hi) / sw))
    if w_min >= w_hi:
        return DivergenceValue(0.0, "quadrature", tail)
    val, err = adaptive_quadrature(outer, w_min, w_hi, rel_tol=_GAUSSIAN_REL_TOL, abs_tol=1e-18)
    return DivergenceValue(2.0 * val, "quadrature", 2.0 * err + tail)


# --------------------------------------------------------------------------
# Public numeric entry points
# --------------------------------------------------------------------------


def e_beta_gamma_numeric(model: Model, beta: float, gamma: float) -> DivergenceValue:
    """E_{beta,gamma} mutual information between the parameter and the data.

    Coin-flip model: closed form (incomplete-beta sum) over Hamming weights,
    between the kink roots of each weight's density ratio; evaluated one
    weight at a time for n < 126, and in numpy blocks of weights from
    n = 126 on.  Gaussian model: outer quadrature over w with the per-slice
    x-interval handled in closed form.
    """
    HockeyStick(beta, gamma)  # checks beta and gamma
    if isinstance(model, BernoulliModel):
        return _e_beta_gamma_bernoulli(model, beta, gamma)
    return _e_beta_gamma_gaussian(model, beta, gamma)

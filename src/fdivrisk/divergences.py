"""f-mutual-information values between the parameter and the observations.

One entry point per family: ``hellinger_divergence(model, p)``, and
``e_beta_gamma_sweep(models, beta, gamma)``, which picks the kernel of each
model of a list; ``e_beta_gamma_numeric`` is its one-model form.  Closed
forms where they exist: the Hellinger family on both models, and the
coin-flip hockey-stick family as a closed form (incomplete-beta sum) over
Hamming weights.  That sum (``_bernoulli_sums``) runs one weight at a time
in pure Python below ``_ARRAY_MIN_WEIGHTS`` weights k <= n/2 (n < 126), and
in numpy blocks of weights from there on.  The weights of consecutive n of a
sweep share a block, so a sweep over large n makes one pass of numpy calls
per block rather than per n, with the same bits as each n alone.  A block
yields one term per weight, 0.0 where the weight's peak fails the level, and
each n sums its own run of them.  Only the block functions import numpy, so smaller runs never load it.  This module
finds the kink roots and sums the terms; each I_x(a, b) comes from the
scalar or numpy incomplete beta of ``numerics``, given the log w and
log(1 - w) that the error bound reads too.
The Gaussian hockey-stick family is an adaptive quadrature over the
parameter, with each slice in the sample mean in closed form.

A search evaluates these kernels 50 to 80 times per optimum.  The three
coin-flip sums read their log-factorials from one table (``_log_factorials``)
that grows to the largest n asked for, and the Gaussian slice writes out
the normal CDF and density, keeping every float operation and its order.

Value convention: Hellinger-family results are stored "scaled" as
(p-1) * H_p + 1, which is exactly what the bound formulas consume; the raw
divergence is (scaled - 1) / (p - 1).  Hockey-stick results are the raw
E_{beta,gamma} value.  Family parameters are checked by constructing the
generator (``Hellinger(p)`` or ``HockeyStick(beta, gamma)``).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator

from .generators import Hellinger, HockeyStick, _checked_make
from .models import BernoulliModel, GaussianModel, Model
from .numerics import (
    _incomplete_beta,
    _incomplete_beta_array,
    adaptive_quadrature,
)

__all__ = [
    "DivergenceInfiniteError",
    "DivergenceValue",
    "e_beta_gamma_numeric",
    "e_beta_gamma_sweep",
    "hellinger_divergence",
]


class DivergenceInfiniteError(ValueError):
    """The requested f-mutual information diverges (its defining integral
    is infinite for the given parameters)."""


class DivergenceValue(
    namedtuple("DivergenceValue", "value method error_estimate", defaults=(0.0,))
):
    """A computed f-mutual-information value with provenance.

    ``method`` is "closed_form", "closed_form_log" (the Gaussian Hellinger
    closed form taken through logs where (1 + r)^p overflows) or
    "quadrature".  ``error_estimate`` is an absolute bound on the numerical
    error of quadrature and closed-form results.  The Hellinger closed forms
    report zero: they do not bound their rounding.  A value or error
    estimate that is not finite (an overflow, or a ``nan`` from
    cancellation) raises ``FloatingPointError``, so no bound is ever built
    on one.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(self.value) and math.isfinite(self.error_estimate)):
            raise FloatingPointError(
                f"{self.method} divergence is not finite: value {self.value}, "
                f"error estimate {self.error_estimate}"
            )
        if self.method not in ("closed_form", "closed_form_log", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.error_estimate < 0.0:
            raise ValueError("error estimate must be non-negative")
        return self


_LOG_FACTORIALS: tuple[float, ...] = ()


def _log_factorials(n: int) -> tuple[float, ...]:
    """lgamma(i + 1) = log i! for i = 0..n+1 at least: the log-factorials of
    the coin-flip sums at n, and lgamma of their Beta shapes.  One table,
    grown to the largest n asked for; a caller reads its prefix, whose
    entries do not depend on the table's length.

    The new entries come from a list comprehension, a Python-level loop, so
    a signal handler runs between them: one C-level call over a huge n held
    SIGTERM and Ctrl-C for seconds, until it ran out of memory.  The grown
    table is bound as one new tuple, so a caller on another thread reads
    either table whole."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) < n + 2:
        table = _LOG_FACTORIALS = (*table, *[math.lgamma(i) for i in range(len(table) + 1, n + 3)])
    return table


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
    the noise variance of the sample mean.  Where (1 + r)^p overflows, the
    value is exp((p log(1 + r) - log(denominator)) / 2), and the method
    reads "closed_form_log".
    """
    Hellinger(p)  # checks the order
    if isinstance(model, GaussianModel):
        r = model.sigma_w_sq / model.noise_var
        denom = 1.0 + (2.0 - p) * p * r
        if denom <= 0.0:
            raise DivergenceInfiniteError(
                f"order-{p} Hellinger information is infinite at variance ratio {r}"
            )
        try:
            power = (1.0 + r) ** p
        except OverflowError:
            # (1 + r)^p overflows although the quotient may not: take logs.
            log_scaled = 0.5 * (p * math.log1p(r) - math.log(denom))
            return DivergenceValue(math.exp(log_scaled), "closed_form_log")
        return DivergenceValue((power / denom) ** 0.5, "closed_form")
    n = model.n
    lead = (p - 1.0) * math.log(n + 1.0)
    # n+2 lgamma calls per order: log G(jp+1) for j <= n, and log G(np+2).
    log_fact = _log_factorials(n)
    log_gamma_p = [math.lgamma(j * p + 1.0) for j in range(n + 1)]
    log_gamma_top = math.lgamma(n * p + 2.0)
    log_terms = [
        lead
        + p * ((log_fact[n] - log_fact[k]) - log_fact[n - k])
        + log_gamma_p[k]
        + log_gamma_p[n - k]
        - log_gamma_top
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


def _kink_end(
    k: int, rest: int, logc: float, log_tau: float, inside: float, outside: float, x: float
) -> float:
    """Kink end of Hamming weight k (``rest`` = n - k > 0): the root of the
    concave logc + k log w + rest log(1-w) - log tau, positive at ``inside``
    (the mode) and negative at ``outside``, by Newton's method from ``x``
    kept inside the bracket.

    A step that leaves the bracket is replaced by a bisection step, so every
    x whose logs are taken lies strictly inside (0, 1), and at k = 0 the
    term k log x adds 0.0.  Stops once a Newton step or the bracket is no
    longer than ``_KINK_TOL``.
    """
    log = math.log
    log1p = math.log1p
    for _ in range(_KINK_MAX_ITER):
        lo, hi = (inside, outside) if inside < outside else (outside, inside)
        if hi - lo <= _KINK_TOL:
            break
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        v = logc + k * log(x) + rest * log1p(-x) - log_tau
        if v > 0.0:
            inside = x
        elif v < 0.0:
            outside = x
        else:
            return x
        d = k / x - rest / (1.0 - x)
        if d == 0.0:
            continue  # x is now a bracket end, so the next pass bisects
        step = v / d
        x -= step
        if abs(step) <= _KINK_TOL and lo <= x <= hi:
            return x
    return 0.5 * (inside + outside)


def _bernoulli_sum_scalar(n: int, beta: float, gamma: float) -> tuple[float, float]:
    """``math.fsum`` of the per-weight terms of (n + 1) E_{beta,gamma} and of
    their error bounds, one weight at a time (see :func:`e_beta_gamma_sweep`).

    Weight k's density ratio (n+1) C(n, k) w^k (1-w)^(n-k) is log-concave
    with its peak at the mode w = k/n, so it exceeds tau on one interval (or
    none).  :func:`_kink_end` finds each end from where the Gaussian
    approximation around the mode crosses the level; weight 0 peaks at w = 0.
    """
    log_tau = math.log(gamma) - math.log(beta)
    log_np1 = math.log(n + 1.0)
    log_fact = _log_factorials(n)
    lg_n1 = log_fact[n]  # log n!
    lg_ab = log_fact[n + 1]  # log G(a + b), the Beta(a, b) shapes summing to n + 2
    values = []
    errors = []
    for k in range(n // 2 + 1):
        rest = n - k
        a = k + 1.0
        b = rest + 1.0
        lg_a = log_fact[k]
        lg_b = log_fact[rest]
        logc = log_np1 + ((lg_n1 - lg_a) - lg_b)  # log((n+1) C(n, k))
        mode = k / n
        peak = logc
        if k:
            peak += k * math.log(mode)
        peak += rest * math.log1p(-mode)
        peak -= log_tau
        if peak <= 0.0:
            continue
        half_width = math.sqrt(2.0 * peak * mode * (1.0 - mode) / n)
        lo = 0.0 if k == 0 else _kink_end(k, rest, logc, log_tau, mode, 0.0, mode - half_width)
        hi = _kink_end(k, rest, logc, log_tau, mode, 1.0, mode + half_width)
        term = -gamma * (hi - lo)
        err = _EPS * (beta + gamma)
        for sign, w in ((-1.0, lo), (1.0, hi)):
            if w == 0.0 or w == 1.0:
                term += sign * beta * w  # an exact end, I_0 = 0 or I_1 = 1: nothing to bound
                continue
            log_w = math.log(w)
            log1m_w = math.log1p(-w)
            i_w = _incomplete_beta(a, b, w, lg_ab - lg_a - lg_b, log_w, log1m_w)
            term += sign * beta * i_w
            # The terms of log(w^a (1-w)^b / B(a, b)) are each rounded within
            # two ulps, so 4 eps times their magnitudes bounds its rounding.
            size = lg_ab + abs(lg_a) + abs(lg_b) - a * log_w - b * log1m_w
            tail = min(i_w, 1.0 - i_w)
            err += beta * (tail * (4.0 * _EPS * size + _BETACF_REL_ERR) + _EPS)
            slope = max(abs(k / w - rest / (1.0 - w)), _EPS)
            root_err = _KINK_TOL + 4.0 * _EPS * (size + abs(log_tau)) / slope
            err += gamma * slope * root_err * root_err
        weight = 1.0 if 2 * k == n else 2.0
        values.append(weight * term)
        errors.append(weight * err)
    return math.fsum(values), math.fsum(errors)


# Hamming weights (k <= n/2) from which the kernel switches to numpy blocks,
# so n >= 126.  Below the break-even the arrays' fixed cost of a few hundred
# numpy calls exceeds the scalar loop's work.  One n alone over the 33 tau of
# the parameter search's grid, one process on a Xeon vCPU, best of 15: the
# scalar loop takes 21.3 ms at 51 weights (n = 100) against 24.8 ms packed,
# 25.3 against 25.2 at 59 (n = 116), and 27.7 against 26.1 at 64 (n = 126).
# The pinned bits of n = 116..125 rest on the scalar path, so the switch
# stays at 64.
_ARRAY_MIN_WEIGHTS = 64
# Weights per numpy block, the (n, k) pairs of consecutive n of a sweep
# together; each temporary holds at most 2 x 4096 float64 (64 KiB), and the
# values do not depend on it.  Nine tau points on 2 vCPUs took 0.22 s at
# n = 10^4 and 2.2 s at n = 10^5 (1024: 0.30 / 3.6 s, 8192: 0.23 / 2.3 s).
_ARRAY_BLOCK = 4096


def _kink_roots_array(k, rest, logc, log_tau: float, inside, outside, x) -> np.ndarray:
    """:func:`_kink_end` over arrays of its arguments (``log_tau`` stays a
    float), element by element: each element stops under the scalar rules and
    keeps the value it stopped at.  Works in place on ``inside``, ``outside``
    and ``x``.
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
        v = logc + k * np.log(x) + rest * np.log1p(-x) - log_tau
        live = ~done
        np.copyto(inside, x, where=live & (v > 0.0))
        np.copyto(outside, x, where=live & (v < 0.0))
        hit = live & (v == 0.0)
        np.copyto(root, x, where=hit)
        done |= hit
        d = k / x - rest / (1.0 - x)
        step = v / d
        moving = ~done & (d != 0.0)
        x_next = x - step
        converged = moving & (np.abs(step) <= _KINK_TOL) & (lo <= x_next) & (x_next <= hi)
        np.copyto(root, x_next, where=converged)
        done |= converged
        np.copyto(x, x_next, where=moving)
    np.copyto(root, 0.5 * (inside + outside), where=~done)
    return root


def _weight_blocks(ns: list[int]):
    """The pairs (n, k) of weights k <= n/2, n after n, cut into blocks of
    ``_ARRAY_BLOCK`` pairs (the last may be shorter).  Yields each block as a
    list of runs (n, first k, count): consecutive n share a block, and an n
    with more weights than fit runs on into the next."""
    block: list = []
    room = _ARRAY_BLOCK
    for n in ns:
        first = 0
        weights = n // 2 + 1
        while first < weights:
            count = min(room, weights - first)
            block.append((n, first, count))
            first += count
            room -= count
            if not room:
                yield block
                block = []
                room = _ARRAY_BLOCK
    if block:
        yield block


def _bernoulli_sums_array(
    ns: list[int], beta: float, gamma: float
) -> Iterator[tuple[float, float]]:
    """:func:`_bernoulli_sum_scalar` over numpy blocks of weights, for each
    n of ``ns`` in turn: yields its pair once n's last weight is done.

    The weights of consecutive n fill each block (:func:`_weight_blocks`), so
    a sweep over n makes one pass of numpy calls per block, not per n.  Each
    run takes its own count of the block's terms.  Where the scalar path
    skips a weight whose peak fails the level, a block holds 0.0 for it:
    ``math.fsum`` rounds the exact sum once and returns +0.0 for any zero
    sum, so the added zeros move no bit.
    """
    import numpy as np

    log_tau = math.log(gamma) - math.log(beta)
    lgam = np.array(_log_factorials(max(ns))[: max(ns) + 2])  # lgam[i] = log i!
    values: list = []
    errors: list = []
    for block in _weight_blocks(ns):
        with np.errstate(all="ignore"):  # settled and exact ends may hit log(0)
            block_values, block_errors = _block_terms(block, lgam, log_tau, beta, gamma)
        start = 0
        for n, first, count in block:
            values.extend(block_values[start : start + count])
            errors.extend(block_errors[start : start + count])
            start += count
            if first + count == n // 2 + 1:
                yield math.fsum(values), math.fsum(errors)
                values = []
                errors = []


def _block_terms(
    block: list, lgam: np.ndarray, log_tau: float, beta: float, gamma: float
) -> tuple[list, list]:
    """The terms of one block of :func:`_weight_blocks` and their error
    bounds: one of each per weight of the block, in block order, and 0.0 for
    both where the weight's peak fails the level.

    Every element carries its own n and log(n + 1), and reads the
    log-factorial table ``lgam``, whose entries do not depend on its length,
    so it takes the same operations whatever else shares its block.  Each
    weight takes the scalar path's steps in the same order (peak test, Newton
    kink roots, incomplete-beta ends, error bound), so the two agree to
    within the libm and numpy rounding of log, log1p and exp.
    """
    import numpy as np

    run_n, run_first, run_count = (np.array(column) for column in zip(*block))
    run_end = np.cumsum(run_count)
    ns = np.repeat(run_n, run_count)
    ks = np.arange(run_end[-1]) - np.repeat(run_end - run_count - run_first, run_count)
    log_np1 = np.repeat([math.log(n + 1.0) for n, _, _ in block], run_count)
    n = ns.astype(float)
    k = ks.astype(float)
    rest = n - k
    logc = log_np1 + (lgam[ns] - lgam[ks] - lgam[ns - ks])
    mode = k / n
    log_mode = np.log(mode, out=np.zeros_like(mode), where=ks > 0)
    peak = logc + k * log_mode + rest * np.log1p(-mode) - log_tau
    keep = peak > 0.0
    ns, n, ks, k, rest, logc, mode, peak = (
        v[keep] for v in (ns, n, ks, k, rest, logc, mode, peak)
    )

    # Lower roots in the first half, upper roots in the second.
    k2 = np.concatenate((k, k))
    rest2 = np.concatenate((rest, rest))
    size = len(k)
    half_width = np.sqrt(2.0 * peak * mode * (1.0 - mode) / n)
    # Weight 0 peaks at w = 0: its lower bracket [0, 0] is already
    # closed, so that root comes out as exactly 0.
    inside = np.concatenate((mode, mode))
    outside = np.concatenate((np.zeros(size), np.ones(size)))
    start = np.concatenate((mode - half_width, mode + half_width))
    w = _kink_roots_array(k2, rest2, np.concatenate((logc, logc)), log_tau, inside, outside, start)

    a = k2 + 1.0
    b = rest2 + 1.0
    lg_a = np.concatenate((lgam[ks], lgam[ks]))
    lg_b = np.concatenate((lgam[ns - ks], lgam[ns - ks]))
    lg_ab = np.concatenate((lgam[ns + 1], lgam[ns + 1]))
    log_w = np.log(w)
    log1m_w = np.log1p(-w)
    i_w = _incomplete_beta_array(a, b, w, lg_ab - lg_a - lg_b, log_w, log1m_w)
    exact = (w == 0.0) | (w == 1.0)
    kernel_size = lg_ab + np.abs(lg_a) + np.abs(lg_b) - a * log_w
    kernel_size -= b * log1m_w
    tail = np.minimum(i_w, 1.0 - i_w)
    cf_err = beta * (tail * (4.0 * _EPS * kernel_size + _BETACF_REL_ERR) + _EPS)
    ratio_slope = np.maximum(np.abs(k2 / w - rest2 / (1.0 - w)), _EPS)
    root_err = _KINK_TOL + 4.0 * _EPS * (kernel_size + abs(log_tau)) / ratio_slope
    root_err = gamma * ratio_slope * root_err * root_err
    cf_err = np.where(exact, 0.0, cf_err)
    root_err = np.where(exact, 0.0, root_err)

    lo, hi = w[:size], w[size:]
    term = -gamma * (hi - lo) + -beta * i_w[:size] + beta * i_w[size:]
    err = _EPS * (beta + gamma) + cf_err[:size] + root_err[:size]
    err = err + cf_err[size:] + root_err[size:]
    weight = np.where(2 * ks == ns, 1.0, 2.0)
    values = np.zeros(keep.shape)
    errors = np.zeros(keep.shape)
    values[keep] = weight * term
    errors[keep] = weight * err
    return values.tolist(), errors.tolist()


def _bernoulli_sums(ns: list[int], beta: float, gamma: float) -> Iterator[tuple[float, float]]:
    """The sum of (n + 1) E_{beta,gamma}'s terms and of their error bounds,
    for each n of ``ns`` in order: one weight at a time below
    ``_ARRAY_MIN_WEIGHTS`` weights, in shared numpy blocks from there on."""
    large = [n // 2 + 1 >= _ARRAY_MIN_WEIGHTS for n in ns]
    packed = _bernoulli_sums_array([n for n, big in zip(ns, large) if big], beta, gamma)
    for n, big in zip(ns, large):
        yield next(packed) if big else _bernoulli_sum_scalar(n, beta, gamma)


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
    # ``outer`` and the tail write out the normal CDF 0.5 erfc(-x / sqrt(2)),
    # and ``outer`` the prior density exp(-0.5 (log(2 pi sw2) + w^2 / sw2)),
    # constants formed once.
    erfc = math.erfc
    exp = math.exp
    root2 = math.sqrt(2.0)
    log_2pi_var = math.log(2.0 * math.pi * sw2)
    two_sw2 = 2.0 * sw2
    two_s2 = 2.0 * s2

    def outer(w: float) -> float:
        ww = w * w
        if ww / two_sw2 - mu <= 0.0:
            return 0.0
        b = w / s2
        c = -ww / two_s2 - mu
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
        inner = beta * (
            0.5 * erfc(-((x_hi - w) / s) / root2) - 0.5 * erfc(-((x_lo - w) / s) / root2)
        ) - gamma * (0.5 * erfc(-(x_hi / m) / root2) - 0.5 * erfc(-(x_lo / m) / root2))
        return exp(-0.5 * (log_2pi_var + ww / sw2)) * inner

    w_hi = _GAUSSIAN_BOX_SD * sw
    # Everything beyond the integration window is bounded by beta times the
    # prior tail mass there.
    tail = 2.0 * beta * (1.0 - 0.5 * erfc(-(max(w_min, w_hi) / sw) / root2))
    if w_min >= w_hi:
        return DivergenceValue(0.0, "quadrature", tail)
    # Each slice's CDF differences round to about eps (beta + gamma); over the
    # prior mass beyond w_min that floor bounds what the quadrature can
    # resolve, so it aims no lower and adds the floor to its estimate.
    floor = _EPS * (beta + gamma) * 0.5 * erfc((w_min / sw) / root2)
    val, err = adaptive_quadrature(
        outer, w_min, w_hi, rel_tol=_GAUSSIAN_REL_TOL, abs_tol=max(1e-18 * beta, floor)
    )
    return DivergenceValue(2.0 * val, "quadrature", 2.0 * (err + floor) + tail)


# --------------------------------------------------------------------------
# Public numeric entry points
# --------------------------------------------------------------------------


def e_beta_gamma_numeric(model: Model, beta: float, gamma: float) -> DivergenceValue:
    """E_{beta,gamma} mutual information between the parameter and the data:
    :func:`e_beta_gamma_sweep` of the one model."""
    return e_beta_gamma_sweep([model], beta, gamma)[0]


def e_beta_gamma_sweep(models: list[Model], beta: float, gamma: float) -> list[DivergenceValue]:
    """E_{beta,gamma} mutual information at each model, in order.

    Coin-flip model: a finite sum over Hamming weights.  For weight k the
    density ratio is the Beta(k+1, n-k+1) density, so its term
    beta*ratio - gamma integrates over the kink interval [lo, hi] to
    beta (I_hi - I_lo) - gamma (hi - lo), with I the regularized incomplete
    beta function.  Weights k and n-k mirror each other (w <-> 1-w), so only
    k <= n/2 is evaluated and the rest counted twice.  From n = 126 on,
    :func:`_bernoulli_sums` evaluates n in numpy blocks, which it shares with
    the other such n of ``models``, with the bits of its n alone; a smaller n
    one weight at a time.  The error bound covers the rounding of the
    incomplete-beta front factor and of the continued fraction, and the kink
    roots: the integrand vanishes at a root, so a root off by d moves the term
    by at most about gamma * |slope| * d^2, slope being the log-ratio's
    derivative there.

    Gaussian model: outer quadrature over w with the per-slice x-interval
    handled in closed form.
    """
    HockeyStick(beta, gamma)  # checks beta and gamma
    sums = _bernoulli_sums(
        [model.n for model in models if isinstance(model, BernoulliModel)], beta, gamma
    )
    results = []
    for model in models:
        if isinstance(model, GaussianModel):
            results.append(_e_beta_gamma_gaussian(model, beta, gamma))
            continue
        total, error = next(sums)
        scale = 1.0 / (model.n + 1.0)
        results.append(DivergenceValue(scale * total, "closed_form", scale * error))
    return results

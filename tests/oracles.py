"""Reference implementations that only the tests use.

Each function here recomputes something the package computes another way,
or states an identity of the paper that the package's closed forms rest on:

- the generator functions f(t), f*(0) and f^{-1}(y), and the master bound
  built from them, which the two family bounds instantiate;
- ``f_mi_numeric``: the f-mutual information of any generator by adaptive
  quadrature of its definition;
- ``monte_carlo_divergence``: the same under the product measure by Monte
  Carlo, as a ``MonteCarloEstimate``;
- the chi-squared closed form of the coin-flip model, its envelope, the
  central-binomial identity and the Renyi re-parametrisation;
- the joint-vs-product density ratios of both models, which only the
  generic quadrature needs, and the log binomial coefficient and normal
  density they are built from;
- ``norm_cdf``, the normal CDF, and ``regularized_incomplete_beta``, a
  front end to the package's scalar incomplete-beta kernel that checks its
  arguments and computes log(1 / B(a, b)) itself: the package writes both
  out in place, with terms its callers already hold;
- ``e_beta_gamma_bernoulli_decimal``: the coin-flip hockey-stick
  information to 40 digits, from Decimal kink roots and binomial tails;
- ``bisect_root``, a generic bisection, which finds the quadrature's kinks
  and, on the package's incomplete beta, recomputes each Beta median from
  its bracket's evaluated ends.

The oracles share one rule with what they certify: ``f_mi_numeric``
integrates with the package's ``numerics.adaptive_quadrature``, the
Gauss-Kronrod rule that the Gaussian hockey-stick kernel runs too and that
``test_numerics.py::TestAdaptiveQuadrature`` checks against exact integrals.
They share nothing else on that path: the quadrature finds its own kinks by
its own bisection, integrates its own integrand (the density ratio, not the
kernel's closed-form slices) between them piece by piece to its own
tolerances, and imports nothing private from ``fdivrisk.divergences`` (a
test in ``test_divergences.py`` checks this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from fdivrisk.divergences import DivergenceInfiniteError, DivergenceValue
from fdivrisk.generators import Generator, Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel, Model, make_rng
from fdivrisk.numerics import _incomplete_beta, adaptive_quadrature

# --------------------------------------------------------------------------
# Generator functions and the master bound
# --------------------------------------------------------------------------


def evaluate(g: Generator, t: float) -> float:
    """f(t) for t >= 0."""
    if t < 0.0:
        raise ValueError("generator argument must be non-negative")
    if isinstance(g, Hellinger):
        return (t**g.p - 1.0) / (g.p - 1.0)
    return max(0.0, g.beta * t - g.gamma)


def conjugate_at_zero(g: Generator) -> float:
    """f*(0) = sup_{x>=0} -f(x), attained at x = 0."""
    return 1.0 / (g.p - 1.0) if isinstance(g, Hellinger) else 0.0


def generalized_inverse(g: Generator, y: float) -> float:
    """f^{-1}(y) = inf{t >= 0 : f(t) > y} for y in the range of f."""
    if isinstance(g, Hellinger):
        base = (g.p - 1.0) * y + 1.0
        if base < 0.0:
            raise ValueError(f"y={y} below the range of the generator")
        return base ** (1.0 / g.p)
    if y < 0.0:
        raise ValueError(f"y={y} below the range of the generator")
    return (y + g.gamma) / g.beta


def master_bound(
    g: Generator, i_f: "DivergenceValue | float", small_ball: float, rho: float
) -> float:
    """Risk lower bound rho (1 - L f^{-1}((I_f + (1 - L) f*(0)) / L)) at a
    fixed rho and small-ball mass L.

    ``i_f`` is in the canonical convention (scaled for the Hellinger family,
    raw for hockey-stick).  When f*(0) <= 0 the conjugate term drops out.  A
    negative parenthesis is clamped to 0: the underlying tail inequality is
    then trivially true and carries no information.
    """
    if not 0.0 < small_ball <= 1.0:
        raise ValueError("small-ball mass must lie in (0, 1]")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    value = i_f.value if isinstance(i_f, DivergenceValue) else float(i_f)
    raw = (value - 1.0) / (g.p - 1.0) if isinstance(g, Hellinger) else value
    if raw < -1e-9:
        raise ValueError("divergence value must be non-negative")
    raw = max(0.0, raw)
    f_star = conjugate_at_zero(g)
    if f_star <= 0.0:
        arg = raw / small_ball
    else:
        arg = (raw + (1.0 - small_ball) * f_star) / small_ball
    return rho * max(0.0, 1.0 - small_ball * generalized_inverse(g, arg))


# --------------------------------------------------------------------------
# Identities of the paper
# --------------------------------------------------------------------------


def chi_squared_bernoulli(model: BernoulliModel) -> DivergenceValue:
    """Scaled chi-squared information chi^2 + 1 = (n+1)/(2n+1) * 4^n / C(2n,n)."""
    n = model.n
    log_value = (
        math.log(n + 1.0)
        - math.log(2.0 * n + 1.0)
        + n * math.log(4.0)
        - (math.lgamma(2 * n + 1.0) - 2.0 * math.lgamma(n + 1.0))
    )
    return DivergenceValue(math.exp(log_value), "closed_form")


def chi_squared_scaled_upper_bound(n: int) -> float:
    """Envelope 16*sqrt(pi*n)/21 dominating chi^2 + 1 for every n >= 1."""
    return 16.0 * math.sqrt(math.pi * n) / 21.0


def combinatorial_identity_check(n: int) -> bool:
    """Exact big-integer check of sum_k C(2k,k) C(2(n-k),n-k) = 4^n."""
    if not (isinstance(n, int) and n >= 0):
        raise ValueError("n must be a non-negative integer")
    total = sum(math.comb(2 * k, k) * math.comb(2 * (n - k), n - k) for k in range(n + 1))
    return total == 4**n


def renyi_from_hellinger(scaled: "DivergenceValue | float", p: float) -> float:
    """Renyi divergence of order alpha = p from the scaled Hellinger value.

    D_alpha = log((p-1) H_p + 1) / (alpha - 1); the exponential-form bound
    built on it reproduces the Hellinger-form bound exactly.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    value = scaled.value if isinstance(scaled, DivergenceValue) else float(scaled)
    if not value > 0.0:
        raise ValueError("scaled divergence must be positive")
    return math.log(value) / (p - 1.0)


# --------------------------------------------------------------------------
# Density ratios
# --------------------------------------------------------------------------


def log_comb(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k) via log-gamma."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def norm_pdf(x: float, mean: float, var: float) -> float:
    """Density of the normal law N(mean, var) at x."""
    d = x - mean
    return math.exp(-0.5 * (math.log(2.0 * math.pi * var) + d * d / var))


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), its arguments checked."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    return _incomplete_beta(a, b, x, math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))


@lru_cache(maxsize=None)
def _log_comb_table(n: int) -> tuple[float, ...]:
    return tuple(log_comb(n, k) for k in range(n + 1))


def bernoulli_log_density_ratio(model: BernoulliModel, w: float, k: int) -> float:
    """log of d P_{W,K} / d(P_W x P_K) at (w, k)."""
    n = model.n
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    if not (isinstance(k, (int, np.integer)) and 0 <= k <= n):
        raise ValueError(f"k must be an integer in 0..{n}")
    logc = math.log(n + 1) + _log_comb_table(n)[k]
    if w == 0.0:
        return logc if k == 0 else -math.inf
    if w == 1.0:
        return logc if k == n else -math.inf
    return logc + k * math.log(w) + (n - k) * math.log1p(-w)


def bernoulli_density_ratio(model: BernoulliModel, w: float, k: int) -> float:
    """(n+1) C(n,k) w^k (1-w)^(n-k): the posterior density of W given k."""
    return math.exp(bernoulli_log_density_ratio(model, w, k))


def gaussian_log_density_ratio(model: GaussianModel, w: float, xbar: float) -> float:
    """log of d P_{W,Xbar} / d(P_W x P_Xbar) at (w, xbar)."""
    s2 = model.noise_var
    m2 = model.marginal_var
    return 0.5 * math.log(m2 / s2) - 0.5 * (xbar - w) ** 2 / s2 + 0.5 * xbar**2 / m2


def gaussian_density_ratio(model: GaussianModel, w: float, xbar: float) -> float:
    return math.exp(gaussian_log_density_ratio(model, w, xbar))


# --------------------------------------------------------------------------
# Root finding
# --------------------------------------------------------------------------


def bisect_root(f, lo: float, hi: float, *, tol: float) -> float:
    """Bisection root of ``f`` on [lo, hi]; endpoints must straddle zero.

    ``tol`` is absolute in the abscissa, and at most 256 steps are taken.
    Infinite endpoint values are fine, only their sign is used.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"root not bracketed on [{lo}, {hi}]")
    for _ in range(256):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --------------------------------------------------------------------------
# Generic quadrature of the f-mutual information
# --------------------------------------------------------------------------

_BERNOULLI_REL_TOL = 1e-10
_GAUSSIAN_OUTER_REL_TOL = 1e-8
_GAUSSIAN_INNER_REL_TOL = 1e-10
_GAUSSIAN_BOX_SD = 8.0


def _level_crossings(excess, lo: float, peak: float, hi: float) -> tuple[float, ...]:
    """Where the unimodal ``excess`` (positive at ``peak``) crosses zero in
    (lo, hi), by bisection on each side of the peak."""
    roots = []
    if lo < peak and excess(lo) < 0.0:
        roots.append(bisect_root(excess, lo, peak, tol=1e-13))
    if peak < hi and excess(hi) < 0.0:
        roots.append(bisect_root(excess, peak, hi, tol=1e-13))
    return tuple(roots)


def _f_mi_bernoulli(model: BernoulliModel, g: Generator) -> tuple[float, float]:
    n = model.n
    values = []
    errors = []
    for k in range(n + 1):
        edges: tuple[float, ...] = (0.0, 1.0)
        if isinstance(g, HockeyStick):
            log_tau = math.log(g.gamma / g.beta)

            def excess(w: float, k=k) -> float:
                return bernoulli_log_density_ratio(model, w, k) - log_tau

            # The log-ratio of weight k is concave, with its peak at w = k / n;
            # the integrand kinks where it crosses log tau.
            if excess(k / n) > 0.0:
                edges = (0.0, *_level_crossings(excess, 0.0, k / n, 1.0), 1.0)

        for lo, hi in zip(edges, edges[1:]):
            val, err = adaptive_quadrature(
                lambda w, k=k: evaluate(g, bernoulli_density_ratio(model, w, k)),
                lo,
                hi,
                rel_tol=_BERNOULLI_REL_TOL,
                abs_tol=1e-14,
            )
            values.append(val)
            errors.append(err)
    scale = 1.0 / (n + 1.0)
    return scale * math.fsum(values), scale * math.fsum(errors)


def _f_mi_gaussian_hockey(model: GaussianModel, g: HockeyStick) -> tuple[float, float]:
    m2 = model.marginal_var
    sw = math.sqrt(model.sigma_w_sq)
    sw2 = model.sigma_w_sq
    log_tau = math.log(g.gamma / g.beta)

    def peak_x(w: float) -> float:
        # The log-ratio is a downward parabola in x with its vertex here.
        return w * m2 / sw2

    def peak_excess(w: float) -> float:
        return gaussian_log_density_ratio(model, w, peak_x(w)) - log_tau

    def inner(w: float) -> float:
        """Integral over the sample means where the ratio exceeds tau."""
        if peak_excess(w) <= 0.0:
            return 0.0
        centre = peak_x(w)

        def excess(x: float) -> float:
            return gaussian_log_density_ratio(model, w, x) - log_tau

        reach = math.sqrt(model.noise_var)
        while excess(centre - reach) >= 0.0 or excess(centre + reach) >= 0.0:
            reach *= 2.0
        x_lo, x_hi = _level_crossings(excess, centre - reach, centre, centre + reach)
        val, _ = adaptive_quadrature(
            lambda x: norm_pdf(x, 0.0, m2) * evaluate(g, gaussian_density_ratio(model, w, x)),
            x_lo,
            x_hi,
            rel_tol=_GAUSSIAN_INNER_REL_TOL,
            abs_tol=1e-17,
        )
        return val

    # The peak excess grows with |w|; the positive region starts at w_min.
    w_hi = _GAUSSIAN_BOX_SD * sw
    if peak_excess(0.0) > 0.0:
        w_min = 0.0
    elif peak_excess(w_hi) > 0.0:
        w_min = bisect_root(peak_excess, 0.0, w_hi, tol=1e-13)
    else:
        w_min = w_hi
    tail = 2.0 * g.beta * (1.0 - norm_cdf(w_hi / sw))
    if w_min >= w_hi:
        return 0.0, tail
    val, err = adaptive_quadrature(
        lambda w: norm_pdf(w, 0.0, sw2) * inner(w),
        w_min,
        w_hi,
        rel_tol=_GAUSSIAN_OUTER_REL_TOL,
        abs_tol=1e-18,
    )
    return 2.0 * val, 2.0 * err + tail


def _f_mi_gaussian_hellinger(model: GaussianModel, g: Hellinger) -> tuple[float, float]:
    """Iterated quadrature of f_p(density ratio) against the product law.

    The inner x-integrand is a Gaussian bump around a w-dependent centre, so
    the inner window tracks that centre.  The outer window starts at +-8
    prior standard deviations and doubles until the edge integrand is
    negligible; unbounded growth (or float overflow) means the defining
    integral diverges.
    """
    p = g.p
    s2 = model.noise_var
    m2 = model.marginal_var
    m = math.sqrt(m2)
    sw = math.sqrt(model.sigma_w_sq)
    sw2 = model.sigma_w_sq
    curv = (p - 1.0) / (2.0 * m2) - p / (2.0 * s2)  # x^2 coefficient; always < 0

    def inner(w: float) -> float:
        centre = (p * w / s2) / (-2.0 * curv)
        width = math.sqrt(-0.5 / curv)
        lo = min(-_GAUSSIAN_BOX_SD * m, centre - 10.0 * width)
        hi = max(_GAUSSIAN_BOX_SD * m, centre + 10.0 * width)
        val, _ = adaptive_quadrature(
            lambda x: norm_pdf(x, 0.0, m2) * evaluate(g, gaussian_density_ratio(model, w, x)),
            lo,
            hi,
            rel_tol=_GAUSSIAN_INNER_REL_TOL,
            abs_tol=1e-15,
        )
        return val

    def outer(w: float) -> float:
        return norm_pdf(w, 0.0, sw2) * inner(w)

    try:
        scale = max(abs(outer(0.0)), abs(outer(sw)), 1e-300)
        half_width = _GAUSSIAN_BOX_SD * sw
        for _ in range(5):
            if abs(outer(half_width)) <= 1e-10 * scale:
                val, err = adaptive_quadrature(
                    outer, 0.0, half_width, rel_tol=_GAUSSIAN_OUTER_REL_TOL, abs_tol=1e-16
                )
                return 2.0 * val, 2.0 * err
            half_width *= 2.0
    except OverflowError:
        pass
    raise DivergenceInfiniteError(
        f"order-{p} Hellinger integrand keeps growing; the divergence is infinite"
    )


def _binomial_tail(n: int, k: int, x: Decimal) -> Decimal:
    """I_x(k+1, n-k+1) = sum_{j>k} C(n+1, j) x^j (1-x)^(n+1-j): the chance
    of more than k heads in n+1 flips of an x-coin."""
    if x in (0, 1):
        return x
    term = math.comb(n + 1, k + 1) * x ** (k + 1) * (1 - x) ** (n - k)
    odds = x / (1 - x)
    total = term
    for j in range(k + 1, n + 1):
        term = term * (n + 1 - j) / (j + 1) * odds
        total += term
    return total


def _kink_root_decimal(ratio, log_ratio_slope, tau: Decimal, inside, outside) -> Decimal:
    """Where the log-concave ``ratio`` (above ``tau`` at ``inside``) falls to
    ``tau`` between ``inside`` and ``outside`` (0 or 1).

    Bisection narrows the bracket to 1e-12, then Newton's method on
    log(ratio / tau) runs from its outer end: the log-ratio is concave, so
    from where it is negative the iterates approach the root from outside,
    monotonically and quadratically.
    """
    while abs(outside - inside) > Decimal("1e-12") or outside in (0, 1):
        mid = (inside + outside) / 2
        if ratio(mid) > tau:
            inside = mid
        else:
            outside = mid
    x = outside
    for _ in range(64):
        step = (ratio(x) / tau).ln() / log_ratio_slope(x)
        x -= step
        if abs(step) < Decimal("1e-36"):
            return x
    raise ArithmeticError("Decimal kink-root Newton iteration did not converge")


def e_beta_gamma_bernoulli_decimal(n: int, tau: float) -> Decimal:
    """E_{1,tau} of the coin-flip model at n, to about 40 digits.

    Weight k's density ratio R_k(w) = (n+1) C(n, k) w^k (1-w)^(n-k) is the
    Beta(k+1, n-k+1) density, so (R_k - tau)_+ integrates over its kink
    interval [lo, hi] to I_hi - I_lo - tau (hi - lo), with I the binomial
    tail of :func:`_binomial_tail`; E is the mean of these over k = 0..n.
    Every weight is evaluated, without the package's mirror symmetry, and
    ``tau`` is taken exactly as the float it is.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        tau_d = Decimal(tau)
        total = Decimal(0)
        for k in range(n + 1):
            rest = n - k
            scale = (n + 1) * math.comb(n, k)

            def ratio(w: Decimal) -> Decimal:
                # Decimal raises on 0 ** 0, which the weight-0 and weight-n
                # ratios meet at their peaks.
                return scale * (w**k if k else 1) * ((1 - w) ** rest if rest else 1)

            def log_ratio_slope(w: Decimal) -> Decimal:
                return k / w - rest / (1 - w)

            mode = Decimal(k) / n
            if ratio(mode) <= tau_d:
                continue
            lo = _kink_root_decimal(ratio, log_ratio_slope, tau_d, mode, Decimal(0)) if k else 0
            hi = _kink_root_decimal(ratio, log_ratio_slope, tau_d, mode, Decimal(1)) if rest else 1
            total += _binomial_tail(n, k, hi) - _binomial_tail(n, k, lo) - tau_d * (hi - lo)
        return total / (n + 1)


def f_mi_numeric(model: Model, g: Generator) -> DivergenceValue:
    """Generic quadrature of the f-mutual information for any generator,
    in the canonical convention (scaled for Hellinger, raw for hockey-stick).
    """
    if isinstance(model, BernoulliModel):
        raw, err = _f_mi_bernoulli(model, g)
    elif isinstance(g, HockeyStick):
        raw, err = _f_mi_gaussian_hockey(model, g)
    else:
        raw, err = _f_mi_gaussian_hellinger(model, g)
    if isinstance(g, Hellinger):
        return DivergenceValue((g.p - 1.0) * raw + 1.0, "quadrature", (g.p - 1.0) * err)
    return DivergenceValue(raw, "quadrature", err)


# --------------------------------------------------------------------------
# Monte Carlo under the product measure
# --------------------------------------------------------------------------

_MC_CHUNK = 1_000_000


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte-Carlo divergence value, in the canonical convention, and its
    standard error."""

    value: float
    error_estimate: float


def monte_carlo_divergence(
    model: Model, g: Generator, samples: int = 10**7, seed: int = 1729
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the f-mutual information under the product
    measure, with its standard error; bit-for-bit reproducible per seed."""
    if samples < 10**4:
        raise ValueError("samples must be at least 10^4")

    def f(ratio: np.ndarray) -> np.ndarray:
        if isinstance(g, Hellinger):
            return (ratio**g.p - 1.0) / (g.p - 1.0)
        return np.maximum(0.0, g.beta * ratio - g.gamma)

    rng = make_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    if isinstance(model, BernoulliModel):
        n = model.n
        log_comb_tab = np.array(
            [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in range(n + 1)]
        )
    else:
        sw = math.sqrt(model.sigma_w_sq)
        m2 = model.marginal_var
        s2 = model.noise_var
    while done < samples:
        size = min(_MC_CHUNK, samples - done)
        if isinstance(model, BernoulliModel):
            w = rng.random(size)
            # Under the product of the marginals the Hamming weight is
            # uniform on 0..n, independent of the bias draw.
            k = rng.integers(0, n + 1, size)
            log_ratio = math.log(n + 1.0) + log_comb_tab[k] + k * np.log(w) + (n - k) * np.log1p(-w)
        else:
            w = rng.normal(0.0, sw, size)
            x = rng.normal(0.0, math.sqrt(m2), size)
            log_ratio = 0.5 * math.log(m2 / s2) - 0.5 * (x - w) ** 2 / s2 + 0.5 * x**2 / m2
        vals = f(np.exp(log_ratio))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += size
    mean = total / samples
    var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
    std_err = math.sqrt(var / samples)
    if isinstance(g, Hellinger):
        return MonteCarloEstimate((g.p - 1.0) * mean + 1.0, (g.p - 1.0) * std_err)
    return MonteCarloEstimate(mean, std_err)

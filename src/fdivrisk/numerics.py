"""Scalar numerical kernels: nested quadrature, root finding, special functions.

Deterministic pure-Python building blocks shared by the divergence and bound
engines, plus a numpy form of the incomplete-beta continued fraction for the
coin-flip hockey-stick kernel at large n.  That form imports numpy itself,
so runs that never build an array do not load it.  The quadrature assumes a
smooth integrand: a kinked one is integrated piece by piece, one call per
smooth piece.
"""

from __future__ import annotations

import heapq
import math

__all__ = [
    "QuadratureError",
    "adaptive_quadrature",
    "beta_median",
    "bisect_root",
    "golden_section_max",
    "log_comb",
    "norm_cdf",
    "norm_pdf",
    "regularized_incomplete_beta",
]


# --------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule
# --------------------------------------------------------------------------

# Positive abscissae of the 15-point Kronrod extension of the 7-point Gauss
# rule; odd indices are the embedded Gauss nodes.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
)
_WGK_CENTER = 0.20948214108472782
_WG = (
    0.12948496616886969,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694


# Panel budget of adaptive_quadrature.
_MAX_PANELS = 4096


class QuadratureError(ArithmeticError):
    """Adaptive integration exhausted its budget before meeting tolerance."""


def _kronrod15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel on [a, b]: (integral, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for i in range(7):
        dx = half * _XGK[i]
        pair = f(mid - dx) + f(mid + dx)
        resk += _WGK[i] * pair
        if i % 2 == 1:
            resg += _WG[i // 2] * pair
    return half * resk, abs(half * (resk - resg))


def adaptive_quadrature(
    f, a: float, b: float, *, rel_tol: float = 1e-10, abs_tol: float = 0.0
) -> tuple[float, float]:
    """Globally adaptive Gauss-Kronrod integration of ``f`` over [a, b].

    The nested rule's error estimate is only meaningful where ``f`` is
    smooth, so a kinked integrand must be integrated piece by piece, split
    at its kinks, rather than left for adaptivity to find them.  Returns
    ``(value, error_estimate)`` or raises :class:`QuadratureError` after
    ``_MAX_PANELS`` panels.
    """
    if b < a:
        raise ValueError("integration bounds must be ordered")
    if a == b:
        return 0.0, 0.0

    total, total_err = _kronrod15(f, a, b)
    heap = [(-total_err, 0, a, b, total, total_err)]
    counter = 1

    min_width = (b - a) * 4e-16
    stuck_err = 0.0
    panels = 1
    while total_err + stuck_err > max(abs_tol, rel_tol * abs(total)):
        if not heap or panels >= _MAX_PANELS:
            raise QuadratureError(
                f"integration stalled at error {total_err + stuck_err:.3e} "
                f"after {panels} panels"
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        total_err -= err
        if hi - lo <= min_width or err == 0.0:
            # Panel cannot be meaningfully refined; park its error.
            stuck_err += err
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _kronrod15(f, lo, mid)
        v2, e2 = _kronrod15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += e1 + e2
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
        panels += 1
    return total, total_err + stuck_err


# --------------------------------------------------------------------------
# Root finding and scalar maximisation
# --------------------------------------------------------------------------


def bisect_root(f, lo: float, hi: float, *, tol: float = 1e-13) -> float:
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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, *, tol: float, max_iter: int) -> tuple[float, float]:
    """Golden-section maximisation of a unimodal ``f`` on [lo, hi].

    Returns ``(x_star, f(x_star))`` after at most ``max_iter`` steps;
    ``tol`` is absolute on the bracket width.
    """
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
    x = 0.5 * (lo + hi)
    return x, f(x)


# --------------------------------------------------------------------------
# Special functions
# --------------------------------------------------------------------------


def log_comb(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k) via log-gamma."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def norm_cdf(x: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_pdf(x: float, mean: float, var: float) -> float:
    d = x - mean
    return math.exp(-0.5 * (math.log(2.0 * math.pi * var) + d * d / var))


_BETACF_MAX_ITER = 500
_BETACF_EPS = 1e-16
_BETACF_FPMIN = 1e-300


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETACF_FPMIN:
            d = _BETACF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETACF_FPMIN:
            c = _BETACF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError(f"incomplete-beta continued fraction stalled (a={a}, b={b}, x={x})")


def _beta_cont_frac_array(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_beta_cont_frac` over arrays, element by element.

    Every element takes the same floating-point steps as the scalar loop and
    keeps its value from the step at which it converged.  Raises the same
    ``ArithmeticError`` if any element has not converged after
    ``_BETACF_MAX_ITER`` steps.
    """
    import numpy as np

    def clamp_tiny(v: np.ndarray) -> None:
        np.copyto(v, _BETACF_FPMIN, where=np.abs(v) < _BETACF_FPMIN)

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    clamp_tiny(d)
    d = 1.0 / d
    h = d.copy()
    out = np.empty_like(x)
    pending = np.ones(x.shape, dtype=bool)
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        clamp_tiny(d)
        c = 1.0 + aa / c
        clamp_tiny(c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        clamp_tiny(d)
        c = 1.0 + aa / c
        clamp_tiny(c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _BETACF_EPS
        done &= pending
        np.copyto(out, h, where=done)
        pending &= ~done
        if not pending.any():
            return out
    i = int(np.argmax(pending))
    raise ArithmeticError(
        f"incomplete-beta continued fraction stalled (a={a[i]}, b={b[i]}, x={x[i]})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def beta_median(a: float, b: float) -> float:
    """Median of the Beta(a, b) distribution by bisection on I_x(a, b)."""
    return bisect_root(
        lambda x: regularized_incomplete_beta(a, b, x) - 0.5,
        0.0,
        1.0,
        tol=1e-12,
    )

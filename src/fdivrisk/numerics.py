"""Numerical kernels: adaptive quadrature, the incomplete beta, Beta medians.

Deterministic pure-Python building blocks shared by the divergence and bound
engines; only the kernels a run evaluates live here, and the references
that only the tests use live in ``tests/oracles.py``.  This is the one
module that knows how the regularized incomplete beta I_x(a, b) is
evaluated: ``_incomplete_beta`` for the Beta medians, the scalar coin-flip
hockey-stick kernel and the exact coin-flip risk, and its numpy twin
``_incomplete_beta_array`` for that kernel at large n.  Both forms take the
same six arguments: every caller, the Beta medians included, passes
log(1 / B(a, b)), log x and log(1 - x), which the coin-flip kernels' error
bound or own terms read too.  The numpy forms import numpy themselves, so
runs that never build an array do not load it.

The quadrature assumes a smooth integrand: a kinked one is integrated piece
by piece, one call per smooth piece.  A Beta median is a bisection of
I_x(a, b) - 1/2 on [0, 1], 40 halvings; the parameter search of the bounds
is written out in ``bounds``, its one caller.
"""

from __future__ import annotations

import heapq
import math

__all__ = [
    "QuadratureError",
    "adaptive_quadrature",
    "beta_median",
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
    f, a: float, b: float, *, rel_tol: float, abs_tol: float
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
    # Each step replaces one panel by two, so the heap holds every panel.
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if len(heap) >= _MAX_PANELS:
            raise QuadratureError(
                f"integration stalled at error {total_err:.3e} after {len(heap)} panels"
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        total_err -= err
        mid = 0.5 * (lo + hi)
        v1, e1 = _kronrod15(f, lo, mid)
        v2, e2 = _kronrod15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += e1 + e2
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
    return total, total_err


# --------------------------------------------------------------------------
# Regularized incomplete beta and the Beta median
# --------------------------------------------------------------------------


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


def _incomplete_beta(
    a: float, b: float, x: float, log_norm: float, log_x: float, log1m_x: float
) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], given log_norm = lgamma(a + b)
    - lgamma(a) - lgamma(b), ``log_x`` = log x and ``log1m_x`` = log(1 - x):
    the front factor x^a (1-x)^b / B(a, b) with the continued fraction on
    whichever side of (a+1)/(a+b+2) converges.  Exact, x itself, at x = 0 and
    x = 1, where the logs are not read."""
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(log_norm + a * log_x + b * log1m_x)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


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


def _incomplete_beta_array(
    a: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    log_norm: np.ndarray,
    log_x: np.ndarray,
    log1m_x: np.ndarray,
) -> np.ndarray:
    """:func:`_incomplete_beta` over arrays, element by element, with the
    same operands in the same order; numpy's log, log1p and exp may round
    differently from libm's.  The caller passes ``log_x`` = log x and
    ``log1m_x`` = log(1 - x), which are -inf at the exact ends."""
    import numpy as np

    inner = (x != 0.0) & (x != 1.0)
    front = np.exp(log_norm + a * log_x + b * log1m_x)
    flip = ~(x < (a + 1.0) / (a + b + 2.0))
    cf_a = np.where(flip, b, a)
    cf_b = np.where(flip, a, b)
    cf_x = np.where(flip, 1.0 - x, x)
    frac = np.zeros_like(x)
    frac[inner] = _beta_cont_frac_array(cf_a[inner], cf_b[inner], cf_x[inner])
    return np.where(inner, np.where(flip, 1.0 - front * frac / b, front * frac / a), x)


def beta_median(a: float, b: float) -> float:
    """Median of the Beta(a, b) distribution by bisection on I_x(a, b) - 1/2.

    I_0 = 0 and I_1 = 1 exactly, so only midpoints are evaluated, each
    strictly inside (0, 1) with its own logs: 40 halvings of [0, 1] take the
    bracket below 1e-12."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        log_mid, log1m_mid = math.log(mid), math.log1p(-mid)
        excess = _incomplete_beta(a, b, mid, log_norm, log_mid, log1m_mid) - 0.5
        if excess == 0.0:
            return mid
        if excess > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)

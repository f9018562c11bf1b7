"""Risk lower bounds built from f-mutual-information values.

The master inequality lower-bounds the Bayes risk by
rho * (1 - L * f^{-1}((I_f + (1 - L) f*(0)) / L)) for every rho > 0, with L
the small-ball mass at radius rho.  With a linear small-ball envelope
L <= c * rho both parametric families reduce to maximising
rho * (1 - C rho^t - b), which has an exact maximiser.  The general
inequality itself is kept in ``tests/oracles.py``, as the reference the two
family instantiations are checked against.

The hockey-stick bound is invariant under scaling beta: E_{beta,gamma} =
beta E_{1,gamma/beta}, so it depends only on tau = gamma / beta, and the
parameter search runs over tau alone with beta = 1.

``family_bound`` is the one bound every CLI command and the certification
suite compute: the fixed-parameter bound of a family, or its searched one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divergences import (
    DivergenceInfiniteError,
    DivergenceValue,
    e_beta_gamma_numeric,
    hellinger_divergence,
)
from .generators import Generator, Hellinger, HockeyStick
from .models import BernoulliModel, Model
from .numerics import golden_section_max

__all__ = [
    "BoundResult",
    "FAMILIES",
    "FIXED_BETA",
    "FIXED_GAMMA",
    "default_order",
    "family_bound",
    "hellinger_bound",
    "hockey_stick_bound",
    "optimize_parameters",
    "optimize_rho_closed_form",
]

FAMILIES = ("hellinger", "hockey_stick")


@dataclass(frozen=True)
class BoundResult:
    """A risk lower bound together with everything that produced it.

    ``vacuous`` marks parameter choices whose bound is non-positive at every
    rho; the value is then reported as 0 (the risk is non-negative anyway)
    and ``rho_star`` is meaningless.
    """

    value: float
    rho_star: float
    generator: Generator
    divergence: DivergenceValue
    vacuous: bool = False


def _as_divergence(value: "DivergenceValue | float") -> DivergenceValue:
    if isinstance(value, DivergenceValue):
        return value
    return DivergenceValue(float(value), "closed_form")


def _coefficient(small_ball: float) -> float:
    c = float(small_ball)
    if not c > 0.0:
        raise ValueError("small-ball coefficient must be positive")
    return c


# --------------------------------------------------------------------------
# rho maximisation: sup_rho rho * (1 - c rho^t - b)
# --------------------------------------------------------------------------


def optimize_rho_closed_form(c: float, t: float, b: float = 0.0) -> tuple[float, float]:
    """Exact maximiser and maximum of h(rho) = rho (1 - c rho^t - b).

    rho* = ((1-b) / ((t+1) c))^(1/t) and
    h(rho*) = t / c^(1/t) * ((1-b) / (t+1))^(1 + 1/t).
    Returns (0, 0) when b >= 1 (the bound is vacuous for every rho).
    """
    if not c > 0.0:
        raise ValueError("c must be positive")
    if not t > 0.0:
        raise ValueError("t must be positive")
    if not b >= 0.0:
        raise ValueError("b must be non-negative")
    if b >= 1.0:
        return 0.0, 0.0
    rho_star = ((1.0 - b) / ((t + 1.0) * c)) ** (1.0 / t)
    value = (t / c ** (1.0 / t)) * ((1.0 - b) / (t + 1.0)) ** (1.0 + 1.0 / t)
    return rho_star, value


# --------------------------------------------------------------------------
# The two family instantiations of the master bound
# --------------------------------------------------------------------------


def hellinger_bound(
    p: float,
    scaled_divergence: "DivergenceValue | float",
    small_ball_coeff: float,
) -> BoundResult:
    """Best-rho Hellinger bound for a linear small-ball envelope.

    Maximises rho (1 - (c rho)^((p-1)/p) * scaled^(1/p)) exactly.
    """
    generator = Hellinger(p)
    div = _as_divergence(scaled_divergence)
    if div.value < 1.0 - 1e-9:
        raise ValueError("scaled divergence must be at least 1")
    c = _coefficient(small_ball_coeff)
    t = (p - 1.0) / p
    scaled = max(1.0, div.value)
    rho_star, value = optimize_rho_closed_form(c**t * scaled ** (1.0 / p), t)
    return BoundResult(value, rho_star, generator, div)


def hockey_stick_bound(
    beta: float,
    gamma: float,
    e_value: "DivergenceValue | float",
    small_ball_coeff: float,
) -> BoundResult:
    """Best-rho hockey-stick bound for a linear small-ball envelope.

    Maximises rho (1 - (E + gamma c rho) / beta); for E < beta the maximum is
    (beta - E)^2 / (4 gamma beta c), otherwise the bound is vacuous.
    """
    generator = HockeyStick(beta, gamma)
    div = _as_divergence(e_value)
    if div.value < -1e-9:
        raise ValueError("divergence value must be non-negative")
    c = _coefficient(small_ball_coeff)
    e = max(0.0, div.value)
    if e >= beta:
        return BoundResult(0.0, 0.0, generator, div, vacuous=True)
    rho_star, value = optimize_rho_closed_form(gamma * c / beta, 1.0, e / beta)
    return BoundResult(value, rho_star, generator, div)


# --------------------------------------------------------------------------
# Parameter search (sup over p, or over tau = gamma / beta)
# --------------------------------------------------------------------------


def _log_grid(lo: float, hi: float, points: int) -> tuple[float, ...]:
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return tuple(math.exp(math.log(lo) + i * step) for i in range(points))


# Hellinger orders with p - 1 log-spaced in [2^-6, 7].
_P_GRID = tuple(1.0 + x for x in _log_grid(2.0**-6, 7.0, 33))
# tau in [1, 160] covers every gamma / beta with 0.05 <= beta <= gamma <= 8.
_TAU_GRID = _log_grid(1.0, 160.0, 33)
_REFINE_BUDGET = 64


def _grid_then_golden(grid: tuple[float, ...], bound_at) -> BoundResult:
    """Scan ``grid``, golden-section between the winner's neighbours, and
    return the best result seen anywhere, so a non-unimodal stretch cannot
    make refinement return less than the grid.  Points whose divergence is
    infinite are skipped."""
    best: BoundResult | None = None

    def objective(x: float) -> float:
        nonlocal best
        try:
            result = bound_at(x)
        except DivergenceInfiniteError:
            return -math.inf
        if best is None or result.value > best.value:
            best = result
        return result.value

    values = [objective(x) for x in grid]
    if best is None:
        raise ValueError("no feasible point in the search grid")
    i = max(range(len(grid)), key=values.__getitem__)
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    golden_section_max(objective, lo, hi, tol=1e-9 * (hi - lo), max_iter=_REFINE_BUDGET)
    return best


def _family_key(family: str) -> str:
    key = family.replace("-", "_")
    if key not in FAMILIES:
        raise ValueError(f"unknown bound family {family!r}")
    return key


def optimize_parameters(model: Model, family: str) -> BoundResult:
    """Best bound over a parametric family: grid scan plus local refinement.

    ``family`` is "hellinger" (sup over the order p) or "hockey_stick".  The
    hockey-stick bound depends on (beta, gamma) only through tau = gamma /
    beta, since E_{beta,gamma} = beta E_{1,tau} makes (beta - E)^2 / (4 gamma
    beta c) equal (1 - E_{1,tau})^2 / (4 tau c); so the search runs over tau
    with beta = 1.  The inner rho maximisation is always exact.
    """
    c = model.small_ball_coefficient()
    if _family_key(family) == "hellinger":
        return _grid_then_golden(
            _P_GRID, lambda p: hellinger_bound(p, hellinger_divergence(model, p), c)
        )
    return _grid_then_golden(
        _TAU_GRID,
        lambda tau: hockey_stick_bound(1.0, tau, e_beta_gamma_numeric(model, 1.0, tau), c),
    )


# --------------------------------------------------------------------------
# One bound per family, as the CLI and the certification suite compute it
# --------------------------------------------------------------------------

# Fixed-mode hockey-stick parameters.
FIXED_BETA = 0.75
FIXED_GAMMA = 2.2


def default_order(model: Model) -> float:
    """Fixed-mode Hellinger order: 2 for the coin-flip model, 3/2 Gaussian."""
    return 2.0 if isinstance(model, BernoulliModel) else 1.5


def family_bound(
    model: Model, family: str, *, p: float | None, beta: float, gamma: float, optimize: bool
) -> BoundResult:
    """The bound of one family: with ``optimize`` the searched bound of
    :func:`optimize_parameters`, otherwise the Hellinger bound at order ``p``
    (``default_order(model)`` when None) or the hockey-stick bound at
    ``(beta, gamma)``."""
    if optimize:
        return optimize_parameters(model, family)
    c = model.small_ball_coefficient()
    if _family_key(family) == "hellinger":
        if p is None:
            p = default_order(model)
        return hellinger_bound(p, hellinger_divergence(model, p), c)
    return hockey_stick_bound(beta, gamma, e_beta_gamma_numeric(model, beta, gamma), c)

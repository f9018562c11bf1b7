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
parameter search runs over tau alone with beta = 1.  ``_search`` yields
the points of one search: a grid of p or tau refined by golden section, 80
candidate points.  ``_drive`` evaluates each point, sends its value back and
keeps the first best result.  The tau scan skips a grid point whose bound at
E = 0, a ceiling on its bound, is already below the best one evaluated, so a
hockey-stick search evaluates 50 to 80 divergences; the Hellinger search
evaluates all 80.

``family_bounds`` is the one bound entry of every CLI command and of the
certification suite: the columns of the requested families over a list of
models, keyed in ``FAMILIES`` order, each the fixed-parameter bound of the
family or its searched one.  The fixed hockey-stick column of the coin-flip
models evaluates its divergences together (``e_beta_gamma_sweep``).  The
searches of every requested family run as one list, family after family, on
two processes where they can (``_split_map``, which the risk oracles of
``validation.risk_reports`` use too): a run forks once for its searched
bounds, whatever the number of families, and a forked child searches every
other (family, model) pair while this process searches the rest.  If either
share falls short, the child is killed and this process searches the whole
list again, so the first model that fails in the first family that fails
raises its own error.  Each search is a pure function of its model and
family, so the columns' bits and their first error do not depend on the CPU
count.  Every parameter comes from the caller; the CLI decides the defaults.
"""

from __future__ import annotations

import math
import os
import threading
from collections import namedtuple
from collections.abc import Iterable

from .divergences import (
    DivergenceInfiniteError,
    DivergenceValue,
    e_beta_gamma_numeric,
    e_beta_gamma_sweep,
    hellinger_divergence,
)
from .generators import Hellinger, HockeyStick
from .models import Model

__all__ = [
    "BoundResult",
    "FAMILIES",
    "family_bounds",
    "hellinger_bound",
    "hockey_stick_bound",
    "optimize_parameters",
    "optimize_rho_closed_form",
]

FAMILIES = ("hellinger", "hockey_stick")


def _worker_count() -> int:
    """CPUs this process may run on; ``_split_map`` forks its one child only
    where there are two or more."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BoundResult(
    namedtuple("BoundResult", "value rho_star generator divergence vacuous", defaults=(False,))
):
    """A risk lower bound together with everything that produced it: the
    ``generator`` (a :data:`Generator`) and the ``divergence`` (a
    :class:`DivergenceValue`) it was computed from.

    ``vacuous`` marks parameter choices whose bound is non-positive at every
    rho; the value is then reported as 0 (the risk is non-negative anyway)
    and ``rho_star`` is meaningless.
    """

    __slots__ = ()


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
    p: float, scaled_divergence: DivergenceValue, small_ball_coeff: float
) -> BoundResult:
    """Best-rho Hellinger bound for a linear small-ball envelope.

    Maximises rho (1 - (c rho)^((p-1)/p) * scaled^(1/p)) exactly.
    """
    generator = Hellinger(p)
    if scaled_divergence.value < 1.0 - 1e-9:
        raise ValueError("scaled divergence must be at least 1")
    c = _coefficient(small_ball_coeff)
    t = (p - 1.0) / p
    scaled = max(1.0, scaled_divergence.value)
    rho_star, value = optimize_rho_closed_form(c**t * scaled ** (1.0 / p), t)
    return BoundResult(value, rho_star, generator, scaled_divergence)


def hockey_stick_bound(
    beta: float, gamma: float, e_value: DivergenceValue, small_ball_coeff: float
) -> BoundResult:
    """Best-rho hockey-stick bound for a linear small-ball envelope.

    Maximises rho (1 - (E + gamma c rho) / beta); for E < beta the maximum is
    (beta - E)^2 / (4 gamma beta c), otherwise the bound is vacuous.
    """
    generator = HockeyStick(beta, gamma)
    if e_value.value < -1e-9:
        raise ValueError("divergence value must be non-negative")
    c = _coefficient(small_ball_coeff)
    e = max(0.0, e_value.value)
    if e >= beta:
        return BoundResult(0.0, 0.0, generator, e_value, vacuous=True)
    rho_star, value = optimize_rho_closed_form(gamma * c / beta, 1.0, e / beta)
    return BoundResult(value, rho_star, generator, e_value)


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


# The scan skips a grid point only when its ceiling, times this factor, is
# below the best value.  The ceiling and the bound are each a few rounded
# operations, one of them a pow with exponent 2.0, so they can differ by a few
# ulps; the margin keeps every point whose bound could tie the best.  It moves
# a ceiling up only because every value, and so every ceiling, is >= 0, as
# every bound is: a negative ceiling would be moved down.
_CEILING_MARGIN = 1.0 + 1e-12


def _search(grid: tuple[float, ...], ceiling):
    """The points of one parameter search, as a generator: it yields each
    point to evaluate and is sent back that point's value, or -inf where the
    divergence is infinite.

    It scans ``grid``, golden-sections between the winner's neighbours until
    the bracket is 1e-9 of its width, and yields the bracket's midpoint
    last.  Each step shrinks the bracket by 1/phi whatever values are sent,
    so every section takes 44 steps: 33 + 2 + 44 + 1 = 80 candidate points.
    :func:`_drive` keeps the first best result of every point evaluated, so
    a non-unimodal stretch cannot make refinement return less than the grid.

    ``ceiling(x)`` is an upper bound on the value at ``x``.  The scan skips a
    grid point whose ceiling is below the best value sent so far: it counts
    as -inf and is never yielded.  Such a point can be neither the grid's
    winner nor the first best result, so the skipping changes the number of
    evaluations and never the result."""
    values: list[float] = []
    for x in grid:
        skip = ceiling(x) * _CEILING_MARGIN < max(values, default=-math.inf)
        values.append(-math.inf if skip else (yield x))
    i = max(range(len(grid)), key=values.__getitem__)
    if values[i] == -math.inf:
        raise ValueError("no feasible point in the search grid")
    lo = grid[max(0, i - 1)]
    hi = grid[min(len(grid) - 1, i + 1)]
    tol = 1e-9 * (hi - lo)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = yield x1
    f2 = yield x2
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = yield x2
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = yield x1
    yield 0.5 * (lo + hi)


def _drive(points, bound_at) -> BoundResult:
    """Evaluate ``bound_at`` at each point the search ``points`` yields, in
    order, and send back its value, or -inf where the divergence is
    infinite.  Return the first best result: a later one replaces it only
    if its value is strictly greater.  Any other exception of ``bound_at``
    leaves at once, and no further point is evaluated."""
    best = value = None
    for x in iter(lambda: points.send(value), None):
        try:
            result = bound_at(x)
        except DivergenceInfiniteError:
            value = -math.inf
        else:
            value = result.value
            if best is None or value > best.value:
                best = result
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
    with beta = 1.  Since E >= 0, no tau gives more than its bound at E = 0,
    1 / (4 tau c), and the tau scan skips the grid points where that ceiling
    is below the best bound found.  The Hellinger search has no such ceiling
    and evaluates every point.  The inner rho maximisation is always exact.
    """
    c = model.small_ball_coefficient()
    if _family_key(family) == "hellinger":
        return _drive(
            _search(_P_GRID, lambda p: math.inf),
            lambda p: hellinger_bound(p, hellinger_divergence(model, p), c),
        )
    return _drive(
        _search(_TAU_GRID, lambda tau: optimize_rho_closed_form(tau * c, 1.0)[1]),
        lambda tau: hockey_stick_bound(1.0, tau, e_beta_gamma_numeric(model, 1.0, tau), c),
    )


# --------------------------------------------------------------------------
# One family's bounds over a list of models, as the CLI and the certification
# suite compute them
# --------------------------------------------------------------------------


def _split_map(fn, items: list) -> list:
    """``fn`` at each item, in order, on two processes when there are two
    items or more, this process may run on two CPUs and no other thread is
    alive (a fork beside running threads could copy a held lock).

    A forked child computes the items at odd positions and this process the
    rest.  The child sends the pickled list of all its results through a
    pipe, or exits non-zero without sending anything, so no exception
    crosses it.  Anything short of two complete shares (an item that fails
    on either process, a child that dies, a short or unreadable payload)
    kills and reaps the child and maps the whole list on this process, as
    where no child can start: the first failing item in order then raises
    its own exception.  Before each of its items this process reaps the
    child if it has exited, so a child that failed starts that map at once;
    before each of its own the child exits, sending nothing, if this process
    is gone, so it outlives a killed parent by one item at most.  Any other
    exception, such as ``KeyboardInterrupt``, kills and reaps the child and
    propagates.  Where ``fn`` is a pure function of its item, the results do
    not depend on the CPU count.
    """
    pid = None
    if len(items) >= 2 and hasattr(os, "fork") and _worker_count() >= 2:
        if threading.active_count() == 1:
            # Imported here, before the fork: only a run that forks pays for it.
            import pickle

            try:
                read_end, write_end = os.pipe()
            except OSError:
                pass
            else:
                parent = os.getpid()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_end)
                    os.close(write_end)
    if pid == 0:
        # The child writes nothing but its pipe, and leaves by os._exit: it
        # never flushes the parent's buffered output or runs its exit handlers.
        code = 1
        try:
            os.close(read_end)
            theirs = []
            for item in items[1::2]:
                if os.getppid() != parent:
                    os._exit(1)  # the parent is gone: nobody reads the share
                theirs.append(fn(item))
            payload = pickle.dumps(theirs, pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    if pid is not None:
        os.close(write_end)
        status = 0  # the child's exit status, once it is reaped and pid is None
        try:
            with open(read_end, "rb") as pipe:
                ours = []
                for item in items[0::2]:
                    if pid is not None:
                        reaped, status = os.waitpid(pid, os.WNOHANG)
                        if reaped:
                            pid = None
                    if status:
                        break  # the child sent nothing: map the whole list now
                    ours.append(fn(item))
                else:
                    theirs = pickle.loads(pipe.read())
            if pid is not None:
                _, status = os.waitpid(pid, 0)
                pid = None
            if status == 0:
                results = [None] * len(items)
                results[0::2] = ours
                results[1::2] = theirs
                return results
        except Exception:
            pass  # the whole list is mapped below, as where no child starts
        finally:
            if pid is not None:
                import signal  # imported here: only an abandoned child needs it

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [fn(item) for item in items]


def family_bounds(
    models: list[Model],
    families: Iterable[str],
    *,
    p: float,
    beta: float,
    gamma: float,
    optimize: bool,
) -> dict[str, list[BoundResult]]:
    """``{family: column}`` for each of ``families``, canonical and keyed
    in ``FAMILIES`` order, each column holding the family's bound at each
    model, in order.

    With ``optimize`` each bound is the searched one of
    :func:`optimize_parameters`, and every (family, model) search is one
    item of one list, family after family, split between this process and a
    forked child where two CPUs are free (the same bits on one process or
    two).  Otherwise the Hellinger column is the bound at order ``p``, and
    then the hockey-stick column the bound at ``(beta, gamma)``, whose
    divergences ``e_beta_gamma_sweep`` evaluates together.  Every name is
    checked before any bound is computed."""
    requested = {_family_key(family) for family in families}
    if optimize:
        pairs = [(model, key) for key in FAMILIES if key in requested for model in models]
        searched = iter(_split_map(lambda pair: optimize_parameters(*pair), pairs))
        return {key: [next(searched) for _ in models] for key in FAMILIES if key in requested}
    columns = {}
    if "hellinger" in requested:
        columns["hellinger"] = [
            hellinger_bound(p, hellinger_divergence(model, p), model.small_ball_coefficient())
            for model in models
        ]
    if "hockey_stick" in requested:
        columns["hockey_stick"] = [
            hockey_stick_bound(beta, gamma, divergence, model.small_ball_coefficient())
            for model, divergence in zip(models, e_beta_gamma_sweep(models, beta, gamma))
        ]
    return columns

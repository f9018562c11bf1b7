"""The oracles ``validate`` and ``--oracle`` run, and the bound certification.

Two kinds of cross-checks, deliberately unsophisticated so they share no
code path with what they certify: dense-grid midpoint integration of the
divergence definition, and the Bayes risk, the risk of the posterior median
(simulated for the coin flips, exact for the Gaussian model), that every
emitted lower bound must stay below.  The exact coin-flip risk, a closed
form over Hamming weights, is kept as the reference the simulation is
checked against; it evaluates I_m(a, b) with the package's one scalar
incomplete-beta kernel, passing the log terms its own kernel already holds.

The risk oracles of a sweep (``risk_reports``) run after its bound columns.
The coin-flip draws run on two processes where the process may run on two
CPUs: a forked child draws every other n (``bounds._split_map``, as the
searches of ``bounds.family_bounds`` do), and any failure draws every n again here.  Each n
draws from its own stream, seeded with ``seed + n``, so the reports do not
depend on the CPU count; each process holds about 8 bytes per sample.  The
exact Gaussian reports draw nothing and run on this process alone.
The coin-flip brute-force grid holds three arrays of its points, about 24
bytes a point.  Numpy is imported inside the functions that use it, so runs
that only compute bounds never load it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import bounds
from .bounds import FAMILIES, BoundResult, family_bounds
from .divergences import e_beta_gamma_numeric, hellinger_divergence
from .generators import Generator, Hellinger, HockeyStick
from .models import BernoulliModel, GaussianModel, Model, _beta_median_table
from .numerics import _incomplete_beta

__all__ = [
    "OracleReport",
    "brute_force_divergence",
    "certification_suite",
    "certify_bounds",
    "exact_bernoulli_risk",
    "generator_label",
    "risk_report",
    "risk_reports",
]

# Grid points per chunk of brute_force_divergence's coin-flip product.
_GRID_CHUNK = 65_536


class OracleReport(namedtuple("OracleReport", "quantity analytic oracle passed tolerance_used")):
    """One analytic-vs-oracle comparison.

    ``tolerance_used`` is the absolute acceptance band; stochastic oracles
    widen it to three standard errors.  Bound certifications are one-sided
    (a lower bound only has to stay below the risk).
    """

    __slots__ = ()


def generator_label(g: Generator) -> str:
    if isinstance(g, Hellinger):
        return f"hellinger(p={g.p:g})"
    return f"hockey-stick(beta={g.beta:g},gamma={g.gamma:g})"


def _model_label(model: Model) -> str:
    if isinstance(model, BernoulliModel):
        return f"bernoulli(n={model.n})"
    return f"gaussian(n={model.n},sw2={model.sigma_w_sq:g},s2={model.sigma_sq:g})"


def _apply_generator(g: Generator, ratio: np.ndarray) -> np.ndarray:
    # Independent re-statement of the generators for vectorised oracles,
    # computed in ``ratio``'s buffer.  ``**=`` takes the scalar-power fast
    # paths of ``**`` (p = 2 squares).
    import numpy as np

    if isinstance(g, Hellinger):
        ratio **= g.p
        ratio -= 1.0
        ratio /= g.p - 1.0
        return ratio
    ratio *= g.beta
    ratio -= g.gamma
    return np.maximum(0.0, ratio, out=ratio)


def _canonical(g: Generator, raw: float) -> float:
    return (g.p - 1.0) * raw + 1.0 if isinstance(g, Hellinger) else raw


# --------------------------------------------------------------------------
# Dense-grid divergence oracle
# --------------------------------------------------------------------------


def brute_force_divergence(model: Model, g: Generator, *, grid_points: int) -> float:
    """Midpoint-rule evaluation of the defining divergence integral.

    Deliberately dumb (no adaptivity, no kink handling): its only job is to
    certify the quadrature engine and the closed forms on small instances.
    Returns the canonical (scaled Hellinger / raw hockey-stick) value.

    The coin-flip grid holds log w, log(1 - w) and one buffer of
    ``grid_points`` floats, about 24 bytes a point, and returns the bits of
    the whole-grid expression.  The Gaussian grid works a row of about
    sqrt(``grid_points``) points at a time.
    """
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    import numpy as np

    # An overflow or a nan on the grid raises FloatingPointError.
    with np.errstate(over="raise", invalid="raise"):
        if isinstance(model, BernoulliModel):
            n = model.n
            w = (np.arange(grid_points) + 0.5) / grid_points
            log_w = np.log(w)
            # log1p(-w) in w's buffer, which is not read again.
            log_1mw = np.log1p(np.negative(w, out=w), out=w)
            # Each k's log-ratio (c + k log w) + (n-k) log(1-w), built in one
            # buffer with the whole-grid expression's operations in its order.
            # The second product runs a chunk at a time: element-wise results do
            # not depend on chunking, while each mean is over the whole buffer.
            buf = np.empty(grid_points)
            product = np.empty(min(grid_points, _GRID_CHUNK))
            means = []
            for k in range(n + 1):
                c = math.log(n + 1.0) + (
                    math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                )
                np.multiply(log_w, k, out=buf)
                buf += c
                for start in range(0, grid_points, _GRID_CHUNK):
                    end = min(start + _GRID_CHUNK, grid_points)
                    tmp = np.multiply(log_1mw[start:end], n - k, out=product[: end - start])
                    buf[start:end] += tmp
                np.exp(buf, out=buf)
                means.append(_apply_generator(g, buf).mean())
            raw = float(np.mean(means))
            return _canonical(g, raw)

        side = max(32, int(round(math.sqrt(grid_points))))
        sw = math.sqrt(model.sigma_w_sq)
        m2 = model.marginal_var
        s2 = model.noise_var
        m = math.sqrt(m2)
        w_edge, x_edge = 8.0 * sw, 8.0 * m
        w_grid = -w_edge + (np.arange(side) + 0.5) * (2.0 * w_edge / side)
        x_grid = -x_edge + (np.arange(side) + 0.5) * (2.0 * x_edge / side)
        dw = 2.0 * w_edge / side
        dx = 2.0 * x_edge / side
        pdf_x = np.exp(-0.5 * x_grid**2 / m2) / math.sqrt(2.0 * math.pi * m2)
        total = 0.0
        for w in w_grid:
            log_ratio = (
                0.5 * math.log(m2 / s2) - 0.5 * (x_grid - w) ** 2 / s2 + 0.5 * x_grid**2 / m2
            )
            row = float(np.sum(pdf_x * _apply_generator(g, np.exp(log_ratio))))
            total += math.exp(-0.5 * w * w / (sw * sw)) / math.sqrt(2.0 * math.pi * sw * sw) * row
        return _canonical(g, total * dw * dx)


# --------------------------------------------------------------------------
# Risk oracles
# --------------------------------------------------------------------------


def exact_bernoulli_risk(model: BernoulliModel) -> float:
    """Exact Bayes risk of the posterior median, summed over Hamming weights.

    Per weight k the posterior is Beta(a, b) with a = k+1, b = n-k+1, and m
    is the median that ``simulate_risk`` uses.  Splitting |w - m| at m gives
    the conditional risk a/(a+b) (1 - 2 I_m(a+1, b)) + m (2 I_m(a, b) - 1),
    with I the regularized incomplete beta function.  The recurrence
    I_m(a+1, b) = I_m(a, b) - m^a (1-m)^b / (a B(a, b)) turns it into
    (2 I_m(a, b) - 1)(m - a/(a+b)) + 2 m^a (1-m)^b / ((a+b) B(a, b)), which
    does not cancel where 1 - 2 I_m(a+1, b) would: its first term vanishes
    at the exact median.  Weights are uniform on 0..n, so the risk is the
    mean of these terms.
    """
    n = model.n
    terms = []
    for k, m in enumerate(_beta_median_table(n)):
        a = k + 1.0
        b = n - k + 1.0
        log_m, log1m_m = math.log(m), math.log1p(-m)
        lgamma_ab, lgamma_a, lgamma_b = math.lgamma(a + b), math.lgamma(a), math.lgamma(b)
        log_kernel = a * log_m + b * log1m_m + lgamma_ab - lgamma_a - lgamma_b
        i_m = _incomplete_beta(a, b, m, lgamma_ab - lgamma_a - lgamma_b, log_m, log1m_m)
        terms.append((2.0 * i_m - 1.0) * (m - a / (a + b)) + 2.0 * math.exp(log_kernel) / (a + b))
    return math.fsum(terms) / (n + 1.0)


def risk_report(model: Model, samples: int, seed: int) -> tuple[float, float]:
    """Bayes risk and its standard error: exact for the Gaussian model,
    the Monte-Carlo risk of the posterior median for the coin flips.

    The Monte Carlo draws come from the stream of ``seed`` alone and take
    about 8 bytes per sample; sweeps run up to two reports at once through
    ``risk_reports``.
    """
    if isinstance(model, GaussianModel):
        return model.bayes_risk_reference().value, 0.0
    return model.simulate_risk(samples, seed)


def risk_reports(models: list[Model], samples: int, seed: int) -> list[tuple[float, float]]:
    """``risk_report(model, samples, seed + model.n)`` for each model, in
    order.  Exact reports run on this process; draws run on this process
    and a forked child where two CPUs are free (``bounds._split_map``),
    which inherits numpy, imported here before the fork.

    Each report draws from its own seeded stream, so the reports are
    byte-identical on one process or two.  Each coin-flip report holds about
    8 bytes per sample, so the two processes hold about 16 in all.  A
    report that fails on either process kills the child, and every report
    is drawn again here, so the first error in model order is raised.
    """
    if all(isinstance(model, GaussianModel) for model in models):
        return [risk_report(model, samples, seed + model.n) for model in models]
    import numpy  # noqa: F401

    return bounds._split_map(lambda model: risk_report(model, samples, seed + model.n), models)


def certify_bounds(
    model: Model, bound_results: list[BoundResult], risk: tuple[float, float]
) -> list[OracleReport]:
    """One-sided soundness reports: every lower bound must not exceed the
    oracle risk plus three of its standard errors; ``risk`` is the
    ``(value, std_err)`` pair of :func:`risk_report`."""
    if not bound_results:
        raise ValueError("no bounds to certify")
    value, std_err = risk
    slack = 3.0 * std_err
    return [
        OracleReport(
            quantity=f"{_model_label(model)}: {generator_label(result.generator)} <= risk",
            analytic=result.value,
            oracle=value,
            passed=result.value <= value + slack,
            tolerance_used=slack,
        )
        for result in bound_results
    ]


# --------------------------------------------------------------------------
# Full certification sweep (CLI `validate`)
# --------------------------------------------------------------------------


def _relative_report(quantity: str, analytic: float, oracle: float, rel_tol: float, abs_tol: float) -> OracleReport:
    tolerance = max(rel_tol * abs(analytic), abs_tol)
    return OracleReport(
        quantity=quantity,
        analytic=analytic,
        oracle=oracle,
        passed=abs(analytic - oracle) <= tolerance,
        tolerance_used=tolerance,
    )


def certification_suite(
    models: list[Model],
    *,
    p: float,
    beta: float,
    gamma: float,
    samples: int,
    seed: int,
    optimize: bool,
) -> list[OracleReport]:
    """Certify closed forms against brute force at the first model, and
    every bound against the risk oracle at each model.

    The brute-force checks run first, then the bound columns of every
    family, fixed and, with ``optimize``, searched, one ``family_bounds``
    call each, and then the risk draws of every model (``risk_reports``): a
    check or a bound that fails starts no draw."""
    if not models:
        raise ValueError("no models to certify")
    first = models[0]
    reports: list[OracleReport] = []

    if isinstance(first, BernoulliModel):
        rel, floor, points = 1e-5, 1e-8, 10**6
    else:
        rel, floor, points = 1e-4, 1e-7, 4 * 10**6
    reports.append(
        _relative_report(
            f"{_model_label(first)}: closed-form {generator_label(Hellinger(p))} vs brute force",
            hellinger_divergence(first, p).value,
            brute_force_divergence(first, Hellinger(p), grid_points=points),
            rel,
            floor,
        )
    )
    engine = e_beta_gamma_numeric(first, beta, gamma)
    method = engine.method.replace("_", "-")
    reports.append(
        _relative_report(
            f"{_model_label(first)}: {method} {generator_label(HockeyStick(beta, gamma))} vs brute force",
            engine.value,
            brute_force_divergence(first, HockeyStick(beta, gamma), grid_points=points),
            max(rel, 1e-4),
            max(floor, 1e-6),
        )
    )

    columns: list[list[BoundResult]] = []
    for search in (False, True) if optimize else (False,):
        by_family = family_bounds(models, FAMILIES, p=p, beta=beta, gamma=gamma, optimize=search)
        columns.extend(by_family.values())
    risks = risk_reports(models, samples, seed)
    for model, results, risk in zip(models, zip(*columns), risks):
        reports.extend(certify_bounds(model, list(results), risk))
    return reports

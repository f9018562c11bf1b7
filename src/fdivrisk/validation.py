"""The oracles ``validate`` and ``--oracle`` run, and the bound certification.

Two kinds of cross-checks, deliberately unsophisticated so they share no
code path with what they certify: dense-grid midpoint integration of the
divergence definition, and the Bayes risk, the risk of the posterior median
(simulated for the coin flips, exact for the Gaussian model), that every
emitted lower bound must stay below.  The exact coin-flip risk, a closed
form over Hamming weights, is kept as the reference the simulation is
checked against.

The risk oracles of a sweep (``risk_reports``) run one n per available CPU,
on at most two threads.  Each n draws from its own stream, seeded with
``seed + n``, so the reports do not depend on the CPU count; each worker
holds about 16 bytes per sample.  Numpy, like ``concurrent.futures`` in
``risk_reports``, is imported inside the functions that use it, so runs
that only compute bounds never load it.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .bounds import FAMILIES, BoundResult, default_order, family_bound
from .divergences import e_beta_gamma_numeric, hellinger_divergence
from .generators import Generator, Hellinger, HockeyStick
from .models import BernoulliModel, GaussianModel, Model
from .numerics import regularized_incomplete_beta

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

# Worker threads of risk_reports at most.  A Bernoulli report holds about 16
# bytes per sample, so two workers stay below the 40 bytes per sample of the
# one-shot draw they replaced, whatever the host's CPU count.
_MAX_WORKERS = 2


@dataclass(frozen=True)
class OracleReport:
    """One analytic-vs-oracle comparison.

    ``tolerance_used`` is the absolute acceptance band; stochastic oracles
    widen it to three standard errors.  Bound certifications are one-sided
    (a lower bound only has to stay below the risk).
    """

    quantity: str
    analytic: float
    oracle: float
    passed: bool
    tolerance_used: float


def generator_label(g: Generator) -> str:
    if isinstance(g, Hellinger):
        return f"hellinger(p={g.p:g})"
    return f"hockey-stick(beta={g.beta:g},gamma={g.gamma:g})"


def _model_label(model: Model) -> str:
    if isinstance(model, BernoulliModel):
        return f"bernoulli(n={model.n})"
    return f"gaussian(n={model.n},sw2={model.sigma_w_sq:g},s2={model.sigma_sq:g})"


def _apply_generator(g: Generator, ratio: np.ndarray) -> np.ndarray:
    # Independent re-statement of the generators for vectorised oracles.
    import numpy as np

    if isinstance(g, Hellinger):
        return (ratio**g.p - 1.0) / (g.p - 1.0)
    return np.maximum(0.0, g.beta * ratio - g.gamma)


def _canonical(g: Generator, raw: float) -> float:
    return (g.p - 1.0) * raw + 1.0 if isinstance(g, Hellinger) else raw


# --------------------------------------------------------------------------
# Dense-grid divergence oracle
# --------------------------------------------------------------------------


def brute_force_divergence(model: Model, g: Generator, grid_points: int = 10**6) -> float:
    """Midpoint-rule evaluation of the defining divergence integral.

    Deliberately dumb (no adaptivity, no kink handling): its only job is to
    certify the quadrature engine and the closed forms on small instances.
    Returns the canonical (scaled Hellinger / raw hockey-stick) value.
    """
    if grid_points < 1000:
        raise ValueError("grid_points must be at least 1000")
    import numpy as np

    if isinstance(model, BernoulliModel):
        n = model.n
        w = (np.arange(grid_points) + 0.5) / grid_points
        log_w = np.log(w)
        log_1mw = np.log1p(-w)
        means = []
        for k in range(n + 1):
            log_ratio = (
                math.log(n + 1.0)
                + (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
                + k * log_w
                + (n - k) * log_1mw
            )
            means.append(_apply_generator(g, np.exp(log_ratio)).mean())
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
        log_ratio = 0.5 * math.log(m2 / s2) - 0.5 * (x_grid - w) ** 2 / s2 + 0.5 * x_grid**2 / m2
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
    for k in range(n + 1):
        a = k + 1.0
        b = n - k + 1.0
        m = model.posterior_median(k)
        log_kernel = (
            a * math.log(m)
            + b * math.log1p(-m)
            + math.lgamma(a + b)
            - math.lgamma(a)
            - math.lgamma(b)
        )
        terms.append(
            (2.0 * regularized_incomplete_beta(a, b, m) - 1.0) * (m - a / (a + b))
            + 2.0 * math.exp(log_kernel) / (a + b)
        )
    return math.fsum(terms) / (n + 1.0)


def risk_report(model: Model, samples: int, seed: int) -> tuple[float, float]:
    """Bayes risk and its standard error: exact for the Gaussian model,
    the Monte-Carlo risk of the posterior median for the coin flips.

    The Monte Carlo draws come from the stream of ``seed`` alone and take
    about 16 bytes per sample; sweeps run up to two reports at once through
    ``risk_reports``.
    """
    if isinstance(model, GaussianModel):
        return model.bayes_risk_reference().value, 0.0
    return model.simulate_risk(samples, seed)


def _worker_count() -> int:
    """Oracle worker threads: one per CPU this process may run on, at most
    ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_WORKERS)


def risk_reports(
    models: Iterable[Model], samples: int, seed: int
) -> Iterator[tuple[float, float]]:
    """Yield ``risk_report(model, samples, seed + model.n)`` for each model,
    in order, computed on one worker thread per available CPU, at most
    ``_MAX_WORKERS``.

    Each report draws from its own seeded stream and numpy's random fills
    run without the GIL, so the reports are byte-identical for any worker
    count, and the caller can compute bounds while the workers draw.  The
    first call to ``next`` submits every model.  If a report raises, its
    exception surfaces in order and the models not yet started are
    cancelled; closing the generator early cancels them too.  Draws already
    running finish on their own, and the interpreter waits for them at exit.
    """
    # Imported here: a top-level import would slow every `import fdivrisk.cli`.
    from concurrent.futures import ThreadPoolExecutor

    models = list(models)
    if not models:
        return
    pool = ThreadPoolExecutor(max_workers=min(_worker_count(), len(models)))
    try:
        yield from pool.map(lambda m: risk_report(m, samples, seed + m.n), models)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


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
    p: float | None,
    beta: float,
    gamma: float,
    samples: int,
    seed: int,
    optimize: bool,
) -> list[OracleReport]:
    """Certify closed forms against brute force at the first model, and
    every bound against the risk oracle at each model; ``p=None`` picks
    the default order of the first model.
    """
    if not models:
        raise ValueError("no models to certify")
    first = models[0]
    if p is None:
        p = default_order(first)
    reports: list[OracleReport] = []

    if isinstance(first, BernoulliModel):
        rel, floor, points = 1e-5, 1e-8, 10**6
    else:
        rel, floor, points = 1e-4, 1e-7, 4 * 10**6
    reports.append(
        _relative_report(
            f"{_model_label(first)}: closed-form {generator_label(Hellinger(p))} vs brute force",
            hellinger_divergence(first, p).value,
            brute_force_divergence(first, Hellinger(p), points),
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
            brute_force_divergence(first, HockeyStick(beta, gamma), points),
            max(rel, 1e-4),
            max(floor, 1e-6),
        )
    )

    risks = risk_reports(models, samples, seed)
    searches = (False, True) if optimize else (False,)
    for model in models:
        results = [
            family_bound(model, family, p=p, beta=beta, gamma=gamma, optimize=search)
            for search in searches
            for family in FAMILIES
        ]
        reports.extend(certify_bounds(model, results, next(risks)))
    return reports

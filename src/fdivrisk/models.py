"""The two estimation settings the bound engine targets.

Both use absolute-error loss |w - w_hat|.  Each model exposes the joint-vs-
product density ratio over a sufficient statistic (Hamming weight for the
coin-flip setting, sample mean for the Gaussian one) so divergence integrals
stay low-dimensional for any sample count, plus a linear small-ball envelope
and the Bayes risk (simulated for the coin flips, exact for the Gaussian
model) that every emitted bound is certified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .numerics import beta_median, log_comb, log_norm_pdf, norm_pdf

__all__ = [
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "BernoulliModel",
    "GaussianModel",
    "Model",
    "RiskReference",
    "SmallBallBound",
    "make_rng",
]

DEFAULT_SEED = 1729
DEFAULT_SAMPLES = 10**6
# Hamming weights drawn per rng.binomial call in BernoulliModel.simulate_risk.
_BINOMIAL_BLOCK = 65_536


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based RNG (Philox) keyed by ``seed``.

    Distinct seeds give statistically independent, individually reproducible
    streams, so a sweep that seeds each n with its own value stays
    deterministic when the n's run concurrently.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))


@dataclass(frozen=True)
class SmallBallBound:
    """Linear envelope: P(|W - w| <= rho) <= coefficient * rho for all w, rho."""

    coefficient: float

    def __post_init__(self):
        if not self.coefficient > 0.0:
            raise ValueError("small-ball coefficient must be positive")


@dataclass(frozen=True)
class RiskReference:
    """Reference Bayes risk; ``std_err`` is zero when the value is exact."""

    value: float
    std_err: float
    method: str  # "exact"


@lru_cache(maxsize=None)
def _log_comb_table(n: int) -> tuple[float, ...]:
    return tuple(log_comb(n, k) for k in range(n + 1))


@lru_cache(maxsize=None)
def _beta_median_table(n: int) -> tuple[float, ...]:
    # Posterior of the bias after observing Hamming weight k is Beta(k+1, n-k+1).
    return tuple(beta_median(k + 1.0, n - k + 1.0) for k in range(n + 1))


@dataclass(frozen=True)
class BernoulliModel:
    """Uniform prior on a coin bias, n conditionally independent flips.

    The 2^n outcome sequences collapse onto the Hamming weight k, which is
    uniform on {0, ..., n} under the prior-marginal law.
    """

    n: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")

    def small_ball_coefficient(self) -> SmallBallBound:
        # Interval mass under U[0,1]: P(|W - w| <= rho) <= 2*rho.
        return SmallBallBound(2.0)

    def log_density_ratio(self, w: float, k: int) -> float:
        """log of d P_{W,K} / d(P_W x P_K) at (w, k)."""
        if not 0.0 <= w <= 1.0:
            raise ValueError("w must lie in [0, 1]")
        if not (isinstance(k, (int, np.integer)) and 0 <= k <= self.n):
            raise ValueError(f"k must be an integer in 0..{self.n}")
        logc = math.log(self.n + 1) + _log_comb_table(self.n)[k]
        if w == 0.0:
            return logc if k == 0 else -math.inf
        if w == 1.0:
            return logc if k == self.n else -math.inf
        return logc + k * math.log(w) + (self.n - k) * math.log1p(-w)

    def density_ratio(self, w: float, k: int) -> float:
        """(n+1) C(n,k) w^k (1-w)^(n-k): the posterior density of W given k."""
        return math.exp(self.log_density_ratio(w, k))

    def marginal_mass(self, k: int) -> float:
        """P(K = k) under the prior-marginal law: uniform, 1/(n+1)."""
        if not 0 <= k <= self.n:
            raise ValueError(f"k must lie in 0..{self.n}")
        return 1.0 / (self.n + 1)

    def posterior_median(self, k: int) -> float:
        return _beta_median_table(self.n)[k]

    def posterior_mean(self, k: int) -> float:
        return (k + 1.0) / (self.n + 2.0)

    def simulate_risk(self, estimator: str, samples: int, seed: int) -> tuple[float, float]:
        """Monte-Carlo risk of ``estimator`` and its standard error.

        Draws ``samples`` (bias, Hamming weight) pairs from the Philox stream
        of ``seed``.  The call holds one array of ``samples`` floats and, at
        its peak (the standard deviation), one more: about 16 bytes per
        sample.  Its result depends only on the arguments, so calls for
        different seeds may run on different threads.
        """
        if samples < 2:
            raise ValueError("samples must be at least 2 (the standard error needs two)")
        if estimator == "posterior_median":
            table = np.array(_beta_median_table(self.n))
        elif estimator == "posterior_mean":
            table = (np.arange(self.n + 1) + 1.0) / (self.n + 2.0)
        else:
            raise ValueError(f"unknown estimator {estimator!r}")
        rng = make_rng(seed)
        err = rng.random(samples)
        # Draw the Hamming weights a block at a time and overwrite each block
        # of biases with its errors, so the call holds one sample-sized array.
        # Binomial draws take the stream element by element, so the values
        # equal those of a single rng.binomial(self.n, err) call.
        for start in range(0, samples, _BINOMIAL_BLOCK):
            block = err[start : start + _BINOMIAL_BLOCK]
            block -= table[rng.binomial(self.n, block)]
            np.abs(block, out=block)
        return float(err.mean()), float(err.std(ddof=1) / math.sqrt(samples))


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian location: W ~ N(0, sigma_w_sq), n observations W + noise.

    The sample mean is sufficient, so the model works over x_bar with noise
    variance sigma_sq / n throughout.
    """

    n: int
    sigma_w_sq: float = 1.0
    sigma_sq: float = 2.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (self.sigma_w_sq > 0.0 and self.sigma_sq > 0.0):
            raise ValueError("variances must be strictly positive")

    @property
    def noise_var(self) -> float:
        """Variance of x_bar given W = w."""
        return self.sigma_sq / self.n

    @property
    def marginal_var(self) -> float:
        """Variance of x_bar under the prior-marginal law."""
        return self.sigma_w_sq + self.noise_var

    @property
    def posterior_var(self) -> float:
        return self.sigma_w_sq / (1.0 + self.n * self.sigma_w_sq / self.sigma_sq)

    def small_ball_coefficient(self) -> SmallBallBound:
        # Peak prior density times interval length.
        return SmallBallBound(2.0 / math.sqrt(2.0 * math.pi * self.sigma_w_sq))

    def log_density_ratio(self, w: float, xbar: float) -> float:
        """log of d P_{W,Xbar} / d(P_W x P_Xbar) at (w, xbar)."""
        return log_norm_pdf(xbar, w, self.noise_var) - log_norm_pdf(xbar, 0.0, self.marginal_var)

    def density_ratio(self, w: float, xbar: float) -> float:
        return math.exp(self.log_density_ratio(w, xbar))

    def marginal_mass(self, xbar: float) -> float:
        """Density of x_bar under the prior-marginal law."""
        return norm_pdf(xbar, 0.0, self.marginal_var)

    def posterior_mean(self, xbar: float) -> float:
        return xbar * self.sigma_w_sq / self.marginal_var

    def risk_upper_bound(self) -> float:
        """L2 risk of the posterior mean: an upper bound on the Bayes risk."""
        return math.sqrt(self.posterior_var)

    def bayes_risk_reference(self) -> RiskReference:
        """Exact Bayes risk under absolute loss.

        The posterior is Gaussian, so the posterior mean is the Bayes
        estimator and the risk is the mean absolute deviation
        sqrt(2/pi) * posterior standard deviation.
        """
        return RiskReference(math.sqrt(2.0 / math.pi) * math.sqrt(self.posterior_var), 0.0, "exact")

    def simulate_risk(self, estimator: str, samples: int, seed: int) -> tuple[float, float]:
        if samples < 2:
            raise ValueError("samples must be at least 2 (the standard error needs two)")
        if estimator not in ("posterior_median", "posterior_mean"):
            raise ValueError(f"unknown estimator {estimator!r}")
        # The posterior is Gaussian, so its median and mean coincide.
        rng = make_rng(seed)
        w = rng.normal(0.0, math.sqrt(self.sigma_w_sq), samples)
        xbar = w + rng.normal(0.0, math.sqrt(self.noise_var), samples)
        err = np.abs(w - xbar * (self.sigma_w_sq / self.marginal_var))
        return float(err.mean()), float(err.std(ddof=1) / math.sqrt(samples))


Model = Union[BernoulliModel, GaussianModel]

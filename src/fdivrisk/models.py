"""The two estimation settings the bound engine targets.

Both use absolute-error loss |w - w_hat|, which the posterior median
minimises.  Each model works over a sufficient statistic (Hamming weight for
the coin-flip setting, sample mean for the Gaussian one) so divergences stay
low-dimensional for any sample count.  Each model is an immutable named
tuple whose constructor checks its fields, also for ``_replace``.  Each
gives the coefficient c of a linear small-ball envelope, P(|W - w| <= rho)
<= c * rho, and the simulated risk of the posterior median, which every
emitted bound is certified against; the Gaussian model also gives that risk
exactly.  The coin-flip posterior medians come from
``_beta_median_table(n)``, n + 1 calls of ``numerics.beta_median`` (40
incomplete-beta evaluations each), which the simulation and the exact risk
in ``validation`` each build once per call; a run reads each n's table once,
so none is kept.  The coin-flip density ratio, which only the test oracles
integrate, lives in ``tests/oracles.py``.  The simulations import numpy
themselves, so runs that only compute bounds never load it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .generators import _checked_make
from .numerics import beta_median

__all__ = [
    "BernoulliModel",
    "GaussianModel",
    "Model",
    "RiskReference",
    "make_rng",
]

# Hamming weights drawn per rng.binomial call in BernoulliModel.simulate_risk.
_BINOMIAL_BLOCK = 65_536


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based RNG (Philox) keyed by ``seed``.

    Distinct seeds give statistically independent, individually reproducible
    streams, so a sweep that seeds each n with its own value, ``--seed`` + n,
    stays deterministic when the n's run concurrently.
    """
    _check_seed(seed)
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"the stream seed --seed + n must be non-negative, got {seed}")


def _check_samples(samples: int) -> None:
    if samples < 2:
        raise ValueError("samples must be at least 2 (the standard error needs two)")


class RiskReference(namedtuple("RiskReference", "value")):
    """Exact reference Bayes risk."""

    __slots__ = ()


def _beta_median_table(n: int) -> tuple[float, ...]:
    # Posterior of the bias after observing Hamming weight k is Beta(k+1, n-k+1).
    return tuple(beta_median(k + 1.0, n - k + 1.0) for k in range(n + 1))


class BernoulliModel(namedtuple("BernoulliModel", "n")):
    """Uniform prior on a coin bias, n conditionally independent flips.

    The 2^n outcome sequences collapse onto the Hamming weight k, which is
    uniform on {0, ..., n} under the prior-marginal law.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        return self

    def small_ball_coefficient(self) -> float:
        # Interval mass under U[0,1]: P(|W - w| <= rho) <= 2*rho.
        return 2.0

    def simulate_risk(self, samples: int, seed: int) -> tuple[float, float]:
        """Monte-Carlo risk of the posterior median and its standard error.

        Draws ``samples`` (bias, Hamming weight) pairs from the Philox stream
        of ``seed``.  The call holds one array of ``samples`` floats, about 8
        bytes per sample: the standard deviation is taken in place.  Its
        result depends only on the arguments, so calls for different seeds
        may run in different processes.
        """
        _check_samples(samples)
        import numpy as np

        table = np.array(_beta_median_table(self.n))
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
        mean = err.mean()
        # err.std(ddof=1) in place: the operations numpy's _var runs on a
        # copy, err - mean, squared and summed, so the bits are the same.
        err -= mean
        np.multiply(err, err, out=err)
        std = math.sqrt(np.add.reduce(err) / (samples - 1))
        return float(mean), float(std / math.sqrt(samples))


class GaussianModel(namedtuple("GaussianModel", "n sigma_w_sq sigma_sq", defaults=(1.0, 2.0))):
    """Gaussian location: W ~ N(0, sigma_w_sq), n observations W + noise.

    The sample mean is sufficient, so the model works over x_bar with noise
    variance sigma_sq / n throughout.  The variances default to 1.0 and 2.0.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (self.sigma_w_sq > 0.0 and self.sigma_sq > 0.0):
            raise ValueError("variances must be strictly positive")
        # An infinite noise variance is no distribution; r would read 0.
        if not math.isfinite(self.sigma_sq):
            raise ValueError(f"noise variance sigma_sq must be finite, got {self.sigma_sq}")
        # Every Gaussian information depends on the variances through the
        # ratio r = sigma_w_sq / (sigma_sq / n), so r must exist and be finite.
        if not (self.noise_var > 0.0 and math.isfinite(self.sigma_w_sq / self.noise_var)):
            raise ValueError(
                f"variance ratio sigma_w_sq / (sigma_sq / n) is not finite at "
                f"sigma_w_sq = {self.sigma_w_sq}, sigma_sq = {self.sigma_sq}, n = {self.n}"
            )
        return self

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
        spread = self.n * self.sigma_w_sq
        # Where n * sigma_w_sq overflows, r = sigma_w_sq / noise_var does not.
        r = spread / self.sigma_sq if math.isfinite(spread) else self.sigma_w_sq / self.noise_var
        return self.sigma_w_sq / (1.0 + r)

    def small_ball_coefficient(self) -> float:
        # Peak prior density times interval length; where 2 pi sigma_w_sq
        # overflows, the square roots are taken apart.
        spread = 2.0 * math.pi * self.sigma_w_sq
        if math.isfinite(spread):
            return 2.0 / math.sqrt(spread)
        return math.sqrt(2.0 / math.pi) / math.sqrt(self.sigma_w_sq)

    def bayes_risk_reference(self) -> RiskReference:
        """Exact Bayes risk under absolute loss.

        The posterior is Gaussian, so its median is its mean and the risk
        is the mean absolute deviation sqrt(2/pi) * posterior standard
        deviation.
        """
        return RiskReference(math.sqrt(2.0 / math.pi) * math.sqrt(self.posterior_var))

    def simulate_risk(self, samples: int, seed: int) -> tuple[float, float]:
        """Monte-Carlo risk of the posterior median and its standard error."""
        _check_samples(samples)
        import numpy as np

        # The posterior is Gaussian, so its median is its mean.
        rng = make_rng(seed)
        w = rng.normal(0.0, math.sqrt(self.sigma_w_sq), samples)
        xbar = w + rng.normal(0.0, math.sqrt(self.noise_var), samples)
        err = np.abs(w - xbar * (self.sigma_w_sq / self.marginal_var))
        return float(err.mean()), float(err.std(ddof=1) / math.sqrt(samples))


Model = BernoulliModel | GaussianModel

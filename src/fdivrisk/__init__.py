"""Lower bounds on the Bayesian risk of estimation problems via f-divergences.

The package computes f-mutual-information values for the Hellinger and
hockey-stick families (closed forms, and a quadrature over the prior for the
Gaussian hockey-stick family), turns them into risk lower bounds with exact
rho-maximisation and a parameter search, and certifies every emitted number
against brute-force divergence grids and the Bayes risk.  See the
``fdivrisk`` CLI for sweeps, CSV/SVG emission and the validation suite.
"""

from .bounds import (
    BoundResult,
    hellinger_bound,
    hockey_stick_bound,
    optimize_parameters,
    optimize_rho_closed_form,
)
from .divergences import (
    DivergenceInfiniteError,
    DivergenceValue,
    e_beta_gamma_numeric,
    hellinger_bernoulli_closed_form,
    hellinger_divergence,
    hellinger_gaussian_closed_form,
    raw_from_scaled,
)
from .generators import Generator, Hellinger, HockeyStick
from .models import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    BernoulliModel,
    GaussianModel,
    Model,
    RiskReference,
    SmallBallBound,
)
from .validation import (
    OracleReport,
    brute_force_divergence,
    certify_bounds,
    exact_bernoulli_risk,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliModel",
    "BoundResult",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "DivergenceInfiniteError",
    "DivergenceValue",
    "GaussianModel",
    "Generator",
    "Hellinger",
    "HockeyStick",
    "Model",
    "OracleReport",
    "RiskReference",
    "SmallBallBound",
    "brute_force_divergence",
    "certify_bounds",
    "e_beta_gamma_numeric",
    "exact_bernoulli_risk",
    "hellinger_bernoulli_closed_form",
    "hellinger_bound",
    "hellinger_divergence",
    "hellinger_gaussian_closed_form",
    "hockey_stick_bound",
    "optimize_parameters",
    "optimize_rho_closed_form",
    "raw_from_scaled",
]

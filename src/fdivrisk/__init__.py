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
    hellinger_divergence,
)
from .generators import Generator, Hellinger, HockeyStick
from .models import BernoulliModel, GaussianModel, Model
from .validation import (
    OracleReport,
    brute_force_divergence,
    certify_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliModel",
    "BoundResult",
    "DivergenceInfiniteError",
    "DivergenceValue",
    "GaussianModel",
    "Generator",
    "Hellinger",
    "HockeyStick",
    "Model",
    "OracleReport",
    "brute_force_divergence",
    "certify_bounds",
    "e_beta_gamma_numeric",
    "hellinger_bound",
    "hellinger_divergence",
    "hockey_stick_bound",
    "optimize_parameters",
    "optimize_rho_closed_form",
]

"""Lower bounds on the Bayesian risk of estimation problems via f-divergences.

The package computes f-mutual-information values (closed forms plus a
kink-aware quadrature engine), turns them into risk lower bounds with exact
rho-maximisation, and certifies every emitted number against independent
Monte-Carlo and brute-force oracles.  See the ``fdivrisk`` CLI for sweeps,
CSV/SVG emission and the validation suite.
"""

from .bounds import (
    BoundResult,
    hellinger_bound,
    hockey_stick_bound,
    master_bound,
    optimize_parameters,
    optimize_rho_closed_form,
    optimize_rho_golden,
)
from .divergences import (
    DivergenceInfiniteError,
    DivergenceValue,
    chi_squared_bernoulli,
    chi_squared_scaled_upper_bound,
    combinatorial_identity_check,
    e_beta_gamma_numeric,
    f_mi_numeric,
    hellinger_bernoulli_closed_form,
    hellinger_divergence,
    hellinger_gaussian_closed_form,
    raw_from_scaled,
    renyi_from_hellinger,
)
from .generators import (
    Generator,
    Hellinger,
    HockeyStick,
    chi_squared,
    generalized_inverse_numeric,
    total_variation,
)
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
    monte_carlo_divergence,
    monte_carlo_risk,
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
    "chi_squared",
    "chi_squared_bernoulli",
    "chi_squared_scaled_upper_bound",
    "combinatorial_identity_check",
    "e_beta_gamma_numeric",
    "exact_bernoulli_risk",
    "f_mi_numeric",
    "generalized_inverse_numeric",
    "hellinger_bernoulli_closed_form",
    "hellinger_bound",
    "hellinger_divergence",
    "hellinger_gaussian_closed_form",
    "hockey_stick_bound",
    "master_bound",
    "monte_carlo_divergence",
    "monte_carlo_risk",
    "optimize_parameters",
    "optimize_rho_closed_form",
    "optimize_rho_golden",
    "raw_from_scaled",
    "renyi_from_hellinger",
    "total_variation",
]

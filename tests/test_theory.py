"""Relations that every bound obeys whatever the model and its parameters,
checked without an oracle.

Data processing: (W, X^n) is a function of (W, X^{n+1}), so every
f-divergence between the joint law of (W, X^n) and the product of its
marginals is non-decreasing in n.  Each bound falls as its divergence grows,
and the small-ball coefficient does not depend on n, so each fixed-parameter
bound column is non-increasing in n.  The comparisons are exact: no
tolerance covers a rise."""

import pytest

from fdivrisk.bounds import FAMILIES, family_bounds
from fdivrisk.models import BernoulliModel, GaussianModel

# (p, beta, gamma): each Hellinger order and each hockey-stick pair once.  The
# Gaussian Hellinger information is finite only for p <= 2.
COIN_FLIP_PARAMETERS = [(2.0, 0.75, 2.2), (1.01, 1.0, 1.5), (8.0, 1.0, 40.0)]
GAUSSIAN_PARAMETERS = [(1.5, 0.75, 2.2), (1.01, 1.0, 1.5), (2.0, 1.0, 40.0)]


def assert_columns_non_increasing(models, p, beta, gamma):
    columns = family_bounds(models, FAMILIES, p=p, beta=beta, gamma=gamma, optimize=False)
    for family, column in columns.items():
        values = [result.value for result in column]
        rises = [
            (model.n, before, after)
            for model, before, after in zip(models[1:], values, values[1:])
            if after > before
        ]
        assert rises == [], family


@pytest.mark.parametrize(("p", "beta", "gamma"), COIN_FLIP_PARAMETERS)
def test_coin_flip_bounds_are_non_increasing_in_n(p, beta, gamma):
    # n = 1..300 crosses n = 126, where the hockey-stick kernel switches from
    # one weight at a time to numpy blocks.
    assert_columns_non_increasing([BernoulliModel(n) for n in range(1, 301)], p, beta, gamma)


@pytest.mark.parametrize(("sigma_w_sq", "sigma_sq"), [(1.0, 2.0), (100.0, 1.0), (0.01, 1.0), (1.0, 1e-3)])
@pytest.mark.parametrize(("p", "beta", "gamma"), GAUSSIAN_PARAMETERS)
def test_gaussian_bounds_are_non_increasing_in_n(p, beta, gamma, sigma_w_sq, sigma_sq):
    models = [GaussianModel(n, sigma_w_sq, sigma_sq) for n in range(1, 201)]
    assert_columns_non_increasing(models, p, beta, gamma)

"""The value records: immutable named tuples whose constructors run the
parameter checks.

Each record keeps the field names, order and defaults, and each check its
exception type and message.
"""

import math

import pytest

from fdivrisk.bounds import BoundResult
from fdivrisk.divergences import DivergenceValue
from fdivrisk.generators import Hellinger, HockeyStick
from fdivrisk.models import BernoulliModel, GaussianModel, RiskReference
from fdivrisk.validation import OracleReport

INF = math.inf
NAN = math.nan

RECORDS = [
    (Hellinger(2.0), ("p",)),
    (HockeyStick(0.75, 2.2), ("beta", "gamma")),
    (DivergenceValue(1.5, "quadrature", 1e-9), ("value", "method", "error_estimate")),
    (
        BoundResult(0.1, 0.2, Hellinger(2.0), DivergenceValue(1.5, "closed_form")),
        ("value", "rho_star", "generator", "divergence", "vacuous"),
    ),
    (RiskReference(0.3), ("value",)),
    (BernoulliModel(4), ("n",)),
    (GaussianModel(3, 1.5, 0.5), ("n", "sigma_w_sq", "sigma_sq")),
    (
        OracleReport("q", 1.0, 2.0, True, 0.5),
        ("quantity", "analytic", "oracle", "passed", "tolerance_used"),
    ),
]


@pytest.mark.parametrize("record, fields", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record, fields):
    assert record._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # __slots__ = () leaves no instance dictionary to add attributes to.
    with pytest.raises(AttributeError):
        record.extra = 1


def test_defaults():
    assert GaussianModel(3) == GaussianModel(3, 1.0, 2.0)
    assert GaussianModel(3, sigma_sq=4.0) == GaussianModel(3, 1.0, 4.0)
    assert DivergenceValue(1.5, "closed_form").error_estimate == 0.0
    bound = BoundResult(0.1, 0.2, Hellinger(2.0), DivergenceValue(1.5, "closed_form"))
    assert bound.vacuous is False


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Hellinger(1.0), ValueError, "p must exceed 1"),
        (lambda: Hellinger(NAN), ValueError, "p must exceed 1"),
        (lambda: Hellinger(-INF), ValueError, "p must exceed 1"),
        (lambda: Hellinger(INF), ValueError, "p must be finite, got inf"),
        (lambda: Hellinger(p=0.5), ValueError, "p must exceed 1"),
        (lambda: HockeyStick(0.0, 1.0), ValueError, "beta must be positive"),
        (lambda: HockeyStick(NAN, 1.0), ValueError, "beta must be positive"),
        (lambda: HockeyStick(1.0, 0.5), ValueError, "gamma must be at least beta"),
        (lambda: HockeyStick(1.0, NAN), ValueError, "gamma must be at least beta"),
        (lambda: HockeyStick(INF, INF), ValueError, "beta must be finite, got inf"),
        (lambda: HockeyStick(1.0, INF), ValueError, "gamma must be finite, got inf"),
        (
            lambda: HockeyStick(5e-324, 5e-324),
            ValueError,
            "beta must be at least 2.2250738585072014e-308, got 5e-324",
        ),
        (lambda: BernoulliModel(0), ValueError, "n must be a positive integer"),
        (lambda: BernoulliModel(2.0), ValueError, "n must be a positive integer"),
        (lambda: GaussianModel(1.5), ValueError, "n must be a positive integer"),
        (lambda: GaussianModel(1, 0.0), ValueError, "variances must be strictly positive"),
        (lambda: GaussianModel(1, NAN), ValueError, "variances must be strictly positive"),
        (
            lambda: GaussianModel(1, 1.0, INF),
            ValueError,
            "noise variance sigma_sq must be finite, got inf",
        ),
        (
            lambda: GaussianModel(1, INF),
            ValueError,
            "variance ratio sigma_w_sq / (sigma_sq / n) is not finite at "
            "sigma_w_sq = inf, sigma_sq = 2.0, n = 1",
        ),
        (
            lambda: DivergenceValue(NAN, "closed_form"),
            FloatingPointError,
            "closed_form divergence is not finite: value nan, error estimate 0.0",
        ),
        (
            lambda: DivergenceValue(1.0, "quadrature", INF),
            FloatingPointError,
            "quadrature divergence is not finite: value 1.0, error estimate inf",
        ),
        (lambda: DivergenceValue(1.0, "magic"), ValueError, "unknown method 'magic'"),
        (
            lambda: DivergenceValue(1.0, "closed_form", -1.0),
            ValueError,
            "error estimate must be non-negative",
        ),
        # _replace and _make build the record through its constructor too.
        (lambda: Hellinger(2.0)._replace(p=INF), ValueError, "p must be finite, got inf"),
        (lambda: Hellinger._make([0.5]), ValueError, "p must exceed 1"),
        (
            lambda: HockeyStick(0.75, 2.2)._replace(gamma=0.5),
            ValueError,
            "gamma must be at least beta",
        ),
        (
            lambda: DivergenceValue(1.5, "closed_form")._replace(value=NAN),
            FloatingPointError,
            "closed_form divergence is not finite: value nan, error estimate 0.0",
        ),
        (lambda: BernoulliModel(3)._replace(n=0), ValueError, "n must be a positive integer"),
        (lambda: BernoulliModel._make([2.0]), ValueError, "n must be a positive integer"),
        (
            lambda: GaussianModel(3)._replace(sigma_sq=0.0),
            ValueError,
            "variances must be strictly positive",
        ),
    ],
)
def test_constructor_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=lambda r: type(r).__name__)
def test_replace_and_make_keep_good_values(record):
    for copy in (record._replace(), type(record)._make(record)):
        assert type(copy) is type(record)
        assert copy == record

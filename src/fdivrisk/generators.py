"""Convex generators of the two f-divergence families driving the bounds.

A generator is an increasing convex function f on [0, inf) with f(1) = 0.
These types only name a family member and check its parameters; every
other check of p, beta or gamma in the package constructs one of them.  The
divergence kernels and the family bounds use each family's closed forms
directly.  Pointwise evaluation, the conjugate at zero and the generalized
inverse, which only the general master inequality needs, are kept in
``tests/oracles.py`` as functions of the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Generator", "Hellinger", "HockeyStick"]


@dataclass(frozen=True)
class Hellinger:
    """Generator f(t) = (t^p - 1)/(p - 1) of the order-p Hellinger divergence.

    Requires p > 1 so that f is increasing and convex on [0, inf); p = 2
    gives the chi-squared divergence.
    """

    p: float

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")


@dataclass(frozen=True)
class HockeyStick:
    """Generator f(t) = max(0, beta*t - gamma) of the generalized hockey-stick
    divergence E_{beta,gamma}.

    Requires gamma >= beta > 0; beta = gamma = 1 yields total variation.
    """

    beta: float
    gamma: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if not self.gamma >= self.beta:
            raise ValueError("gamma must be at least beta")


Generator = Hellinger | HockeyStick

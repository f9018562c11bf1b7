"""Convex generators of the two f-divergence families driving the bounds.

A generator is an increasing convex function f on [0, inf) with f(1) = 0.
These types only name a family member and check its parameters; every
other check of p, beta or gamma in the package constructs one of them.  Each
is an immutable named tuple whose constructor runs the checks, also for
``_replace`` and ``_make``.  The divergence kernels and the family bounds
use each family's closed forms directly.  Pointwise evaluation, the
conjugate at zero and the generalized inverse, which only the general master
inequality needs, are kept in ``tests/oracles.py`` as functions of the
generator.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

__all__ = ["Generator", "Hellinger", "HockeyStick"]


def _checked_make(cls, iterable):
    """``_make``, which ``_replace`` calls, through the constructor: a
    record with checks takes it, so that a replaced field is checked too."""
    return cls(*iterable)


class Hellinger(namedtuple("Hellinger", "p")):
    """Generator f(t) = (t^p - 1)/(p - 1) of the order-p Hellinger divergence.

    Requires a finite p > 1 so that f is increasing and convex on [0, inf);
    p = 2 gives the chi-squared divergence.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        if not math.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p}")
        return self


class HockeyStick(namedtuple("HockeyStick", "beta gamma")):
    """Generator f(t) = max(0, beta*t - gamma) of the generalized hockey-stick
    divergence E_{beta,gamma}.

    Requires finite gamma >= beta > 0; beta = gamma = 1 yields total variation.
    A subnormal beta is refused: it keeps too few bits for the kernels'
    E_{beta,gamma} = beta E_{1,gamma/beta} to hold in floating point.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")
        if not self.gamma >= self.beta:
            raise ValueError("gamma must be at least beta")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not self.beta >= sys.float_info.min:
            raise ValueError(f"beta must be at least {sys.float_info.min}, got {self.beta}")
        return self


Generator = Hellinger | HockeyStick

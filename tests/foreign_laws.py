"""A law without pieces, for the quadrature fallback.

Kept apart from the test modules, which import scipy, so that a fresh
interpreter can build it and show that the fallback loads scipy itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from deltashock import ArrivalLaw
from deltashock.distributions import TAIL_EPS


@dataclass(frozen=True)
class Gamma2(ArrivalLaw):
    """Gamma(2, rate) gaps: a law without pieces, so it takes the quadrature path."""

    rate: float

    def density(self, t):
        self._check_nonnegative(t)
        t = np.asarray(t, dtype=float)
        return (self.rate**2 * t * np.exp(-self.rate * t))[()]

    def cdf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return (1.0 - (1.0 + self.rate * t) * np.exp(-self.rate * t))[()]

    def sample(self, rng, size):
        return rng.gamma(2.0, 1.0 / self.rate, size=size)

    def raw_moment(self, order):
        self._check_order(order)
        return 2.0 / self.rate if order == 1 else 6.0 / self.rate**2

    def upper_cutoff(self):
        # (1 + x) exp(-x) < TAIL_EPS well before x = -2 ln(TAIL_EPS)
        return -2.0 * math.log(TAIL_EPS) / self.rate

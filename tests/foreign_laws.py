"""A law from outside the package, and the tests' own integration bound.

Gamma2 plugs into the model as any user-written law does, through its
pieces, so the tests check the piece algebra on a law that no built-in one
covers.  tail_bound gives the tests' quadrature references a finite range.
"""

import math
from dataclasses import dataclass

from scipy import optimize

from deltashock import ArrivalLaw


@dataclass(frozen=True)
class Gamma2(ArrivalLaw):
    """Gamma(2, rate) gaps: a law that no built-in one covers."""

    rate: float

    def sample(self, rng, size):
        return rng.gamma(2.0, 1.0 / self.rate, size=size)

    def raw_moment(self, order):
        self._check_order(order)
        return 2.0 / self.rate if order == 1 else 6.0 / self.rate**2

    def density_pieces(self):
        # r^2 t e^(-r t)
        return ((0.0, math.inf, ((self.rate**2, 1, self.rate),)),)

    def survival_pieces(self):
        # (1 + r t) e^(-r t)
        return ((0.0, math.inf, ((1.0, 0, self.rate), (self.rate, 1, self.rate))),)


def tail_bound(law, eps=1e-12):
    """The t at which law's survival mass falls to eps: the upper end of a
    reference quadrature over the law's whole support."""
    hi = 1.0
    while law.survival(hi) > eps:
        hi *= 2.0
    return optimize.brentq(lambda t: float(law.survival(t)) - eps, 0.0, hi, xtol=1e-14)

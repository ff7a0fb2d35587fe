"""Multi-hit shock model: failure at the k-th gap shorter than its threshold.

A system started at t=0 receives shocks separated by i.i.d. gaps Z ~ F.
Each gap is compared against a fresh, independent threshold delta ~ G; the
gap is lethal iff Z <= delta (equality counts as lethal), and the system
fails at the k-th lethal gap.  The total gap count to failure is negative
binomial with success probability p = P(Z <= delta), and the failure time
decomposes into k i.i.d. segments, which gives the closed moment formulas
implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .distributions import ArrivalLaw, ProbabilityLaw, lethal_density, weighted_laplace

__all__ = ["ShockModel", "MomentSummary", "UnrealizableModelError"]


class UnrealizableModelError(ValueError):
    """The model cannot fail (p = 0) or a simulation run cap was exceeded."""


def is_integer(value) -> bool:
    """Whether value is an int; a bool, which subclasses int, is not."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class MomentSummary:
    """Failure-time mean/variance with the per-segment pieces.

    mean = k * segment_mean and variance = k * segment_variance by the
    segment decomposition; both totals refer to the time to failure.
    """

    mean: float
    variance: float
    segment_mean: float
    segment_variance: float

    @classmethod
    def of_segment(cls, k: int, mean: float, variance: float) -> "MomentSummary":
        """The summary of k segments of the given mean and variance."""
        return cls(k * mean, k * variance, mean, variance)


@dataclass(frozen=True)
class ShockModel:
    """The triple (k, arrival law, threshold law)."""

    k: int
    arrivals: ArrivalLaw
    threshold: ProbabilityLaw

    def __post_init__(self):
        if not (is_integer(self.k) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        # materializes the cached probability and rejects p = 0 up front
        self.lethal_prob

    @cached_property
    def lethal_prob(self) -> float:
        """p = P(Z <= delta), the probability a gap is lethal."""
        p = weighted_laplace(self.arrivals, self.threshold, 0.0, "survival").real
        p = min(max(p, 0.0), 1.0)
        if p <= 0.0:
            raise UnrealizableModelError(
                "threshold lies below the arrival support: no gap can be lethal (p = 0)"
            )
        return p

    @property
    def survive_prob(self) -> float:
        """q = 1 - p, the probability a gap is non-lethal."""
        return 1.0 - self.lethal_prob

    def beta_density(self, t):
        """Density of a gap conditional on being lethal (Z <= delta)."""
        return lethal_density(self.arrivals, self.threshold, t) / self.lethal_prob

    def shock_count_pmf(self, n: int) -> float:
        """P(N = n): negative binomial, C(n-1, k-1) p^k q^(n-k) for n >= k."""
        k, p = self.k, self.lethal_prob
        q = 1.0 - p
        if n < k:
            return 0.0
        if q == 0.0:
            return 1.0 if n == k else 0.0
        log_pmf = (
            math.lgamma(n)
            - math.lgamma(k)
            - math.lgamma(n - k + 1)
            + k * math.log(p)
            + (n - k) * math.log(q)
        )
        return math.exp(log_pmf)

    def failure_moments(self) -> MomentSummary:
        """Mean and variance of the failure time.

        Per segment (time between consecutive lethal shocks):
            mu      = E(Z) / p
            sigma^2 = E(Z^2)/p + (2 E(Z) E(Z; Z>delta) - E(Z)^2) / p^2
        and the totals are k*mu and k*sigma^2.  E(Z; Z>delta) =
        q E(Z | Z>delta) is the non-lethal branch's first moment, taken
        without a division by q; at p = 1 it vanishes and is not evaluated,
        and sigma^2 reduces to Var(Z).
        """
        p = self.lethal_prob
        q = 1.0 - p
        ez = self.arrivals.raw_moment(1)
        ez2 = self.arrivals.raw_moment(2)
        cross = 0.0 if q == 0.0 else 2.0 * ez * weighted_laplace(
            self.arrivals, self.threshold, 0.0, "cdf", order=1).real
        mu = ez / p
        sigma2 = ez2 / p + (cross - ez * ez) / (p * p)
        return MomentSummary.of_segment(self.k, mu, sigma2)

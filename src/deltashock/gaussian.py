"""Normal approximation to the failure-time density and cdf.

The failure time is a sum of k i.i.d. inter-lethal segments, so for large k
it is approximately Gaussian with mean k*mu and variance k*sigma^2.  The
approximation is never auto-selected.  `analyze` writes its pdf next to the
inverted curves and reports, in summary.json's approximation_error.normal
block, its largest density and cdf gaps from them over the grid cells where
both inverted values settled.  That is a statistic over the grid: at k = 1
the supremum can lie below the first grid time, t_max / points.  The
distance from simulation is what `compare` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MomentSummary

__all__ = ["NormalApprox"]

# libm's erf elementwise, as an object array; ks_statistic evaluates the cdf
# at no more than a tenth of compare's samples, so the per-element call is
# cheaper than importing scipy.special
_erf = np.frompyfunc(math.erf, 1, 1)


@dataclass(frozen=True)
class NormalApprox:
    """Gaussian with the failure-time mean and standard deviation."""

    center: float
    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")

    @classmethod
    def from_moments(cls, moments: MomentSummary) -> "NormalApprox":
        return cls(center=moments.mean, scale=math.sqrt(moments.variance))

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        z = (t - self.center) / self.scale
        return (np.exp(-0.5 * z * z) / (self.scale * math.sqrt(2.0 * math.pi)))[()]

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        z = (t - self.center) / (self.scale * math.sqrt(2.0))
        return (0.5 * (1.0 + np.asarray(_erf(z), dtype=float)))[()]

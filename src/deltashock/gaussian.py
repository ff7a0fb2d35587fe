"""Normal approximation to the failure-time density, with error diagnostics.

The failure time is a sum of k i.i.d. inter-lethal segments, so for large k
it is approximately Gaussian with mean k*mu and variance k*sigma^2.  The
approximation is never auto-selected: approx_error always quantifies how
far it sits from the numerically inverted density and cdf, which exist for
every model and every k, so callers can judge whether their k is large
enough.  The distance from simulation is what `compare` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laplace import InversionConfig, invert_grid
from .model import MomentSummary, ShockModel

__all__ = ["NormalApprox", "ApproxErrorReport", "approx_error"]

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


@dataclass(frozen=True)
class ApproxErrorReport:
    """Sup-norm (densities) and KS distance (cdfs) against the inversion."""

    sup_norm: float
    ks_distance: float
    grid_lo: float
    grid_hi: float
    points: int


def approx_error(model: ShockModel) -> ApproxErrorReport:
    """Quantify the model's Gaussian approximation error against the
    inverted transform.

    The approximation is NormalApprox.from_moments(model.failure_moments()).
    The grid spans center +/- 5 scale in 400 points, clipped to strictly
    positive times.
    The inversion target is 1e-4: ample for these diagnostics, and it keeps
    kink-adjacent grid points from aborting the sweep.  The first point that
    fails to invert raises its InversionError.
    """
    approx = NormalApprox.from_moments(model.failure_moments())
    lo = max(approx.center - 5.0 * approx.scale, 1e-9 * approx.scale)
    hi = approx.center + 5.0 * approx.scale
    grid = np.linspace(lo, hi, 400)
    inverted = invert_grid(model, grid, InversionConfig(target_error=1e-4))
    error = next((e for e in inverted.errors if e is not None), None)
    if error is not None:
        raise error
    return ApproxErrorReport(
        sup_norm=float(np.max(np.abs(approx.pdf(grid) - inverted.pdf))),
        ks_distance=float(np.max(np.abs(approx.cdf(grid) - inverted.cdf))),
        grid_lo=float(lo),
        grid_hi=float(hi),
        points=len(grid),
    )

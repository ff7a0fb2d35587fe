"""Normal approximation to the failure-time density, with error diagnostics.

The failure time is a sum of k i.i.d. inter-lethal segments, so for large k
it is approximately Gaussian with mean k*mu and variance k*sigma^2.  The
approximation is never auto-selected: approx_error always quantifies how
far it sits from a reference (series closed form, numerical inversion, or
simulation) so callers can judge whether their k is large enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .closedform import closed_form_family, exp_const_cdf, exp_const_pdf
from .laplace import InversionConfig, invert_grid
from .model import MomentSummary, ShockModel

__all__ = ["NormalApprox", "ApproxErrorReport", "approx_error"]


@dataclass(frozen=True)
class NormalApprox:
    """Gaussian with the failure-time mean and standard deviation."""

    center: float
    scale: float
    source: MomentSummary

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")

    @classmethod
    def from_model(cls, model: ShockModel) -> "NormalApprox":
        return cls.from_moments(model.failure_moments())

    @classmethod
    def from_moments(cls, moments: MomentSummary) -> "NormalApprox":
        return cls(center=moments.mean, scale=math.sqrt(moments.variance), source=moments)

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        z = (t - self.center) / self.scale
        return (np.exp(-0.5 * z * z) / (self.scale * math.sqrt(2.0 * math.pi)))[()]

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        z = (t - self.center) / (self.scale * math.sqrt(2.0))
        return (0.5 * (1.0 + erf(z)))[()]


@dataclass(frozen=True)
class ApproxErrorReport:
    """Sup-norm (densities) and KS distance (cdfs) against a reference."""

    sup_norm: float
    ks_distance: float
    reference: str
    grid_lo: float
    grid_hi: float
    points: int


def approx_error(model: ShockModel, approx: NormalApprox, reference="inversion",
                 config: InversionConfig | None = None, points: int = 400,
                 report=None) -> ApproxErrorReport:
    """Quantify the Gaussian approximation error against a reference.

    reference is "series" (exponential gaps + constant threshold only,
    stable for moderate k), "inversion" (any model; also the right choice
    at large k where the series cancels catastrophically), "simulation"
    (pass the SimulationReport via report; KS against the empirical cdf,
    sup-norm against a histogram density), or a (pdf_fn, cdf_fn) pair.

    The grid spans center +/- 5 scale, 400 points by default, clipped to
    strictly positive times.  The default inversion tolerance is relaxed to
    1e-4: ample for these diagnostics, and it keeps kink-adjacent grid
    points from aborting the sweep.
    """
    lo = max(approx.center - 5.0 * approx.scale, 1e-9 * approx.scale)
    hi = approx.center + 5.0 * approx.scale
    grid = np.linspace(lo, hi, points)

    if isinstance(reference, tuple):
        ref_pdf_fn, ref_cdf_fn = reference
        ref_pdf = np.array([float(ref_pdf_fn(t)) for t in grid])
        ref_cdf = np.array([float(ref_cdf_fn(t)) for t in grid])
        ref_name = "callables"
    elif reference == "series":
        if closed_form_family(model) != "exponential_constant":
            raise ValueError("series reference needs exponential gaps and a constant threshold")
        ref_pdf = np.array([exp_const_pdf(model, t) for t in grid])
        ref_cdf = np.array([exp_const_cdf(model, t) for t in grid])
        ref_name = "series"
    elif reference == "inversion":
        inverted = invert_grid(model, grid, config or InversionConfig(target_error=1e-4))
        error = next((e for e in inverted.errors if e is not None), None)
        if error is not None:
            raise error
        ref_pdf, ref_cdf = inverted.pdf, inverted.cdf
        ref_name = "inversion"
    elif reference == "simulation":
        if report is None:
            raise ValueError("simulation reference needs a SimulationReport")
        times = report.sorted_times
        ref_cdf = np.searchsorted(times, grid, side="right") / len(times)
        counts, edges = np.histogram(times, bins=128, range=(lo, hi))
        widths = np.diff(edges)
        density = counts / (len(times) * widths)
        idx = np.clip(np.searchsorted(edges, grid, side="right") - 1, 0, len(density) - 1)
        ref_pdf = density[idx]
        ref_name = "simulation"
    else:
        raise ValueError(f"unknown reference {reference!r}")

    sup_norm = float(np.max(np.abs(approx.pdf(grid) - ref_pdf)))
    ks = float(np.max(np.abs(approx.cdf(grid) - ref_cdf)))
    return ApproxErrorReport(
        sup_norm=sup_norm,
        ks_distance=ks,
        reference=ref_name,
        grid_lo=float(lo),
        grid_hi=float(hi),
        points=points,
    )

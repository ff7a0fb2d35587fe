"""Failure-time Laplace transform and its numerical inversion.

The failure-time density h has transform

    L_h(s) = ( L_lethal(s) / (1 - L_nonlethal(s)) )^k

where L_lethal and L_nonlethal are the survival- and cdf-weighted gap
transforms from the distributions module.  Density and cdf values come from
the Fourier series of the Bromwich integral on a vertical contour,
accelerated through the quotient-difference continued fraction (the
de Hoog-Knight-Stokes scheme); needing only vertical-line transform values
is what makes the approach suit probability densities.  For k = 1 the
density jumps wherever the lethal-branch density f*Gbar does, so that
branch (whose transform and pointwise values are both known) is subtracted
before inversion and added back, leaving a continuous series target.
Moments come from differentiating log L_h at 0, an oracle independent of
the closed moment formulas.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import weighted_laplace, weighted_time_integral
from .model import MomentSummary, ShockModel

__all__ = [
    "InversionConfig",
    "InversionError",
    "TransformEvaluator",
    "laplace_h",
    "invert_transform",
    "invert_density",
    "invert_cdf",
    "moments_from_transform",
]

# Inverted densities this small are oscillation noise; clamp them to 0.
DENSITY_CLAMP = 1e-10
# Period multiple for the series contour: aliasing samples f at t + 2*kappa*t*n.
CONTOUR_PERIOD_RATIO = 2.0


class InversionError(RuntimeError):
    """Transform evaluation hit a pole or the inversion did not settle."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class InversionConfig:
    """Tuning knobs for the Fourier-series inversion.

    discretization is the contour damping parameter A (the contour sits at
    Re s = A / (2 T) for series period 2 T); the aliasing error is of order
    exp(-A) times the sup of the inverted function, so the default
    A = ln(2/target_error) keeps that bound at half the target for
    functions of order one.  euler_depth sets the acceleration depth: the
    continued fraction uses 2*(2*euler_depth + 6) + 1 series terms.
    """

    target_error: float = 1e-8
    euler_depth: int = 12
    discretization: float | None = None

    def __post_init__(self):
        if not self.target_error > 0:
            raise ValueError("target_error must be > 0")
        if self.euler_depth < 8:
            raise ValueError(f"euler_depth must be >= 8, got {self.euler_depth}")

    @property
    def contour_parameter(self) -> float:
        if self.discretization is not None:
            return self.discretization
        return math.log(2.0 / self.target_error)

    @property
    def series_depth(self) -> int:
        return 2 * self.euler_depth + 6


class TransformEvaluator:
    """Evaluates L_h(s) for one model, holding the two weighted transforms."""

    def __init__(self, model: ShockModel):
        self.model = model
        arrivals, threshold = model.arrivals, model.threshold
        self._lethal = lambda s: weighted_laplace(arrivals, threshold, s, "survival")
        self._nonlethal = lambda s: weighted_laplace(arrivals, threshold, s, "cdf")

    def __call__(self, s: complex) -> complex:
        denominator = 1.0 - self._nonlethal(s)
        if abs(denominator) < 1e-14:
            raise InversionError(
                f"transform denominator vanishes at s={s} (|1 - L_nonlethal| < 1e-14)"
            )
        return (self._lethal(s) / denominator) ** self.model.k

    def lethal_transform(self, s: complex) -> complex:
        return self._lethal(s)


def laplace_h(model: ShockModel, s: complex) -> complex:
    """The failure-time transform at a single point."""
    return TransformEvaluator(model)(s)


def _cf_value(d: np.ndarray, z: complex, terms: int) -> complex:
    """Evaluate the continued fraction d[0]/(1 + d[1] z/(1 + ...)) with the
    de Hoog remainder refinement on the last level."""
    a_prev, a_cur = 0.0 + 0.0j, d[0]
    b_prev, b_cur = 1.0 + 0.0j, 1.0 + 0.0j
    for i in range(1, terms - 1):
        a_prev, a_cur = a_cur, a_cur + d[i] * z * a_prev
        b_prev, b_cur = b_cur, b_cur + d[i] * z * b_prev
    h_last = 0.5 * (1.0 + z * (d[terms - 2] - d[terms - 1]))
    remainder = -h_last * (1.0 - cmath.sqrt(1.0 + d[terms - 1] * z / (h_last * h_last)))
    return (a_cur + remainder * a_prev) / (b_cur + remainder * b_prev)


def _series_once(transform, t, config, depth, kappa):
    """One inversion attempt; returns (value, estimate) or None when the
    quotient-difference tables degenerate (0/0 on near-geometric input)."""
    period = kappa * t
    gamma = config.contour_parameter / (2.0 * period)
    n = 2 * depth + 1
    coeffs = np.empty(n, dtype=complex)
    coeffs[0] = transform(complex(gamma, 0.0)) / 2.0
    for j in range(1, n):
        coeffs[j] = transform(complex(gamma, j * math.pi / period))
    top = np.max(np.abs(coeffs))
    if top == 0.0:
        return 0.0, 0.0

    # quotient-difference recurrences for the continued-fraction coefficients
    e = np.zeros((n + 1, depth + 1), dtype=complex)
    q = np.zeros((n + 1, depth + 1), dtype=complex)
    with np.errstate(all="ignore"):
        q[0 : n - 1, 1] = coeffs[1:n] / coeffs[0 : n - 1]
        for r in range(1, depth + 1):
            for i in range(n - 2 * r):
                e[i, r] = q[i + 1, r] - q[i, r] + e[i + 1, r - 1]
            if r < depth:
                for i in range(n - 2 * r - 1):
                    q[i, r + 1] = q[i + 1, r] * e[i + 1, r] / e[i, r]
    d = np.zeros(n, dtype=complex)
    d[0] = coeffs[0]
    for r in range(1, depth + 1):
        d[2 * r - 1] = -q[0, r]
        d[2 * r] = -e[0, r]
    if not np.all(np.isfinite(d.view(float))):
        return None

    z = cmath.exp(1j * math.pi / kappa)
    scale = math.exp(gamma * t) / period
    value = scale * _cf_value(d, z, n).real
    # settle check against two shallower truncations of the same fraction
    shallow = [scale * _cf_value(d, z, n - back).real for back in (4, 8)]
    if not all(map(math.isfinite, [value, *shallow])):
        return None
    return value, max(abs(value - v) for v in shallow)


def invert_transform(transform: Callable[[complex], complex], t: float,
                     config: InversionConfig | None = None,
                     tail_limit: float = 0.0) -> float:
    """Invert an arbitrary transform at t > 0 (the inversion self-test hook).

    tail_limit is the limit of the inverted function at +infinity (0 for
    densities, 1 for cdfs); its aliasing bias tail_limit/(e^A - 1) is
    subtracted, since the periodized series folds that limit back in.
    Retries with a deeper fraction and a shifted contour period when the
    acceleration degenerates or does not settle; raises InversionError with
    the achieved estimate when all attempts stay above the target.
    """
    if not t > 0:
        raise ValueError(f"inversion requires t > 0, got {t}")
    config = config or InversionConfig()
    alias = tail_limit / math.expm1(config.contour_parameter)
    depth = config.series_depth
    attempts = [
        (depth, CONTOUR_PERIOD_RATIO),
        (depth + 10, CONTOUR_PERIOD_RATIO * 1.13),
        (depth + 16, CONTOUR_PERIOD_RATIO * 0.83),
    ]
    best = None
    for attempt_depth, kappa in attempts:
        result = _series_once(transform, t, config, attempt_depth, kappa)
        if result is None:
            continue
        value, estimate = result
        if best is None or estimate < best[1]:
            best = (value, estimate)
        if estimate <= config.target_error:
            return value - alias
    if best is None:
        raise InversionError(f"inversion degenerated at t={t}: no finite acceleration")
    raise InversionError(
        f"inversion did not settle at t={t}: estimate {best[1]:.3g} "
        f"exceeds target {config.target_error:.3g}",
        error_estimate=best[1],
    )


def _lethal_branch_density(model, t: float) -> float:
    return float(model.arrivals.density(t)) * float(model.threshold.survival(t))


def invert_density(model: ShockModel, t: float,
                   config: InversionConfig | None = None) -> float:
    """h(t) by numerical inversion, to within the configured target error.

    Accuracy is as configured wherever h is smooth; within a small
    neighbourhood of a density kink (multiples of a constant threshold) the
    series converges to the local average instead, as any vertical-contour
    Fourier method does.
    """
    config = config or InversionConfig()
    evaluator = TransformEvaluator(model)
    if model.k == 1:
        # subtract the jumpy single-gap lethal branch, invert the smooth rest
        target = lambda s: evaluator(s) - evaluator.lethal_transform(s)
        value = invert_transform(target, t, config) + _lethal_branch_density(model, t)
    else:
        value = invert_transform(evaluator, t, config)
    if abs(value) < DENSITY_CLAMP:
        return 0.0
    if value < 0.0:
        if -value <= 2.0 * config.target_error:
            return 0.0
        raise InversionError(
            f"inverted density at t={t} is {value:.3g}, negative beyond the error budget"
        )
    return value


def invert_cdf(model: ShockModel, t: float,
               config: InversionConfig | None = None) -> float:
    """P(W <= t) by inverting L_h(s)/s at t > 0."""
    config = config or InversionConfig()
    evaluator = TransformEvaluator(model)
    if model.k == 1:
        target = lambda s: (evaluator(s) - evaluator.lethal_transform(s)) / s
        head = weighted_time_integral(model.arrivals, model.threshold, t, "survival")
        value = invert_transform(target, t, config, tail_limit=model.survive_prob) + head
    else:
        value = invert_transform(lambda s: evaluator(s) / s, t, config, tail_limit=1.0)
    slack = 2.0 * config.target_error
    if value < -slack or value > 1.0 + slack:
        raise InversionError(f"inverted cdf at t={t} is {value:.3g}, outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def moments_from_transform(model: ShockModel) -> MomentSummary:
    """Failure-time moments from log L_h near s = 0.

    log L_h is the cumulant generating function at -s, so its first two
    derivatives at 0 give -mean and the variance directly, without the
    mean^2 cancellation.  Central differences with Richardson extrapolation
    are used with a step of 1e-2/mean: the extrapolated truncation error
    falls like step^4, while rounding in the transform values grows like
    1/step^2 in the second difference (a 1e-4/mean step leaves a relative
    variance error near 3e-7 at p = 0.5, against about 1e-10 at 1e-2/mean).
    """
    evaluator = TransformEvaluator(model)

    def log_transform(s: float) -> float:
        value = evaluator(complex(s, 0.0)).real
        if value <= 0.0:
            raise InversionError(f"transform is non-positive at s={s}; cannot take log")
        return math.log(value)

    # crude scale: find eps with L_h(eps) > 0.5, then mean ~ -log L / eps
    eps = 1e-3
    for _ in range(200):
        if evaluator(complex(eps, 0.0)).real > 0.5:
            break
        eps /= 2.0
    else:
        raise InversionError("could not bracket the transform scale near s = 0")
    crude_mean = -log_transform(eps) / eps

    h = 1e-2 / crude_mean

    k0 = log_transform(0.0)
    kp, km = log_transform(h), log_transform(-h)
    kp2, km2 = log_transform(h / 2.0), log_transform(-h / 2.0)

    d1_h = (kp - km) / (2.0 * h)
    d1_h2 = (kp2 - km2) / h
    first = (4.0 * d1_h2 - d1_h) / 3.0

    d2_h = (kp - 2.0 * k0 + km) / (h * h)
    d2_h2 = (kp2 - 2.0 * k0 + km2) / (h * h / 4.0)
    second = (4.0 * d2_h2 - d2_h) / 3.0

    mean = -first
    variance = second
    return MomentSummary(
        mean=mean,
        variance=variance,
        segment_mean=mean / model.k,
        segment_variance=variance / model.k,
    )

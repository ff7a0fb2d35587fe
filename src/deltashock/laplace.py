"""Failure-time Laplace transform and its numerical inversion.

The failure-time density h has transform

    L_h(s) = ( L_lethal(s) / (1 - L_nonlethal(s)) )^k

where L_lethal and L_nonlethal are the survival- and cdf-weighted gap
transforms from the distributions module.  Density and cdf values come from
the Fourier series of the Bromwich integral on a vertical contour,
accelerated through the quotient-difference continued fraction (the
de Hoog-Knight-Stokes scheme); needing only vertical-line transform values
is what makes the approach suit probability densities.  The inversion runs
on a whole grid of times at once: each time keeps its own contour, and the
transform, the quotient-difference table and the fraction are numpy
operations over every time still unsettled.  For k = 1 the
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
    "GridInversion",
    "invert_grid",
    "invert_transform",
    "invert_density",
    "invert_cdf",
    "moments_from_transform",
]

# Inverted densities this small are oscillation noise; clamp them to 0.
DENSITY_CLAMP = 1e-10
# Period multiple for the series contour: aliasing samples f at t + 2*kappa*t*n.
CONTOUR_PERIOD_RATIO = 2.0
# The retry ladder: (extra fraction depth, period multiple) of each attempt.
ATTEMPTS = (
    (0, CONTOUR_PERIOD_RATIO),
    (10, CONTOUR_PERIOD_RATIO * 1.13),
    (16, CONTOUR_PERIOD_RATIO * 0.83),
)
# Contour nodes per batch: a grid is inverted in blocks of times holding
# about this many transform values each, which bounds the memory of one
# attempt (about 7 MB) whatever the grid size and depth.
BLOCK_NODES = 1 << 15


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

    def __call__(self, s):
        """L_h at s, a complex or an ndarray of them.

        An ndarray gives an ndarray of its shape, with nan where the
        denominator vanishes; a complex at such a pole raises InversionError.
        """
        nodes = np.asarray(s, dtype=complex)
        flat = nodes.reshape(-1)
        denominator = 1.0 - self._nonlethal(flat)
        pole = np.logical_not(abs(denominator) >= 1e-14)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(pole, np.nan, (self._lethal(flat) / denominator) ** self.model.k)
        if nodes.ndim:
            return value.reshape(nodes.shape)
        if pole.any():
            raise InversionError(
                f"transform denominator vanishes at s={s} (|1 - L_nonlethal| < 1e-14)"
            )
        return complex(value[0])

    def nonlethal_transform(self, s):
        return self._nonlethal(s)


def laplace_h(model: ShockModel, s: complex) -> complex:
    """The failure-time transform at a single point."""
    return TransformEvaluator(model)(s)


def _fractions(coeffs: np.ndarray, depth: int, z: complex):
    """The continued fraction d0/(1 + d1 z/(1 + ...)) of every row of coeffs.

    coeffs has 2 depth + 1 series terms along its last axis.  The
    quotient-difference rhombus rules give the fraction coefficients d of
    all rows at once, keeping only the live q and e columns.  Returns the
    fraction at z, with the de Hoog remainder refinement on its last level,
    truncated at all its terms and at 4 and 8 fewer (last axis), and whether
    each row's d are finite.  Runs under np.errstate(all="ignore").
    """
    n = coeffs.shape[-1]
    d = np.empty_like(coeffs)
    d[..., 0] = coeffs[..., 0]
    q = coeffs[..., 1:] / coeffs[..., :-1]
    e = np.zeros_like(q)
    for r in range(1, depth + 1):
        e = q[..., 1:] - q[..., :-1] + e[..., 1:q.shape[-1]]
        d[..., 2 * r - 1] = -q[..., 0]
        d[..., 2 * r] = -e[..., 0]
        if r < depth:
            q = q[..., 1:-1] * e[..., 1:] / e[..., :-1]

    # one forward recurrence serves all three truncations: after step i it
    # holds the convergents a fraction of i + 2 terms needs
    stops = (n - 10, n - 6, n - 2)
    states = []
    a_prev, a_cur = 0j, d[..., 0]
    b_prev, b_cur = 1 + 0j, 1 + 0j
    for i in range(1, n - 1):
        a_prev, a_cur = a_cur, a_cur + d[..., i] * z * a_prev
        b_prev, b_cur = b_cur, b_cur + d[..., i] * z * b_prev
        if i in stops:
            states.append((i + 2, a_prev, a_cur, b_prev, b_cur))
    values = []
    for terms, a_prev, a_cur, b_prev, b_cur in reversed(states):
        h_last = 0.5 * (1.0 + z * (d[..., terms - 2] - d[..., terms - 1]))
        remainder = -h_last * (1.0 - np.sqrt(1.0 + d[..., terms - 1] * z / (h_last * h_last)))
        values.append((a_cur + remainder * a_prev) / (b_cur + remainder * b_prev))
    return np.stack(values, axis=-1), np.isfinite(d).all(axis=-1)


def _attempt(transform, t: np.ndarray, depth: int, kappa: float, config: InversionConfig):
    """One attempt of the ladder at the times t, on contours of period kappa t.

    Returns (value, estimate, finite), each of shape (transforms, len(t)):
    the fraction at all its terms, its largest difference to the two
    shallower truncations, and whether the attempt stayed finite.
    """
    n = 2 * depth + 1
    period = kappa * t
    gamma = config.contour_parameter / (2.0 * period)
    nodes = gamma[:, None] + 1j * (np.arange(n) * math.pi / period[:, None])
    coeffs = np.array(transform(nodes), dtype=complex)
    coeffs[..., 0] /= 2.0
    with np.errstate(all="ignore"):
        fractions, finite = _fractions(coeffs, depth, cmath.exp(1j * math.pi / kappa))
        scaled = (np.exp(gamma * t) / period)[:, None] * fractions.real
        value = scaled[..., 0]
        estimate = np.max(abs(value[..., None] - scaled[..., 1:]), axis=-1)
    zero = ~coeffs.any(axis=-1)
    value[zero] = estimate[zero] = 0.0
    return value, estimate, zero | finite & np.isfinite(scaled).all(axis=-1)


def _invert_series(transform, ts: np.ndarray, config: InversionConfig, tails):
    """Invert len(tails) transforms at every time of ts in one batch.

    transform maps an (m, n) ndarray of contour nodes to the
    (len(tails), m, n) ndarray of the transforms' values there.  Each t has
    its own contour (period kappa t, abscissa A / (2 kappa t)) and its own
    settle check, the fraction against two shallower truncations.  Each
    attempt of ATTEMPTS runs only on the times where some transform has not
    settled yet, BLOCK_NODES contour nodes at a time, so memory does not grow
    with the grid.  A transform that vanishes on a whole contour gives 0
    with estimate 0; a non-finite value, coefficient or fraction fails that
    attempt for that time only.

    Returns (values, estimates), both (len(tails), m): the value of the first
    attempt that settled, less its alias bias tail/(e^A - 1), or nan where
    none did; and the best estimate achieved, nan where no attempt gave a
    finite one.
    """
    shape = (len(tails), len(ts))
    values = np.full(shape, np.nan)
    estimates = np.full(shape, np.nan)
    settled = np.zeros(shape, dtype=bool)
    for extra, kappa in ATTEMPTS:
        depth = config.series_depth + extra
        todo = np.flatnonzero(~settled.all(axis=0))
        block = max(1, BLOCK_NODES // (2 * depth + 1))
        for start in range(0, todo.size, block):
            cols = todo[start:start + block]
            value, estimate, finite = _attempt(transform, ts[cols], depth, kappa, config)
            # nan estimates never compare below, so a finite one always improves them
            better = finite & ~settled[:, cols] & ~(estimate >= estimates[:, cols])
            rows, at = np.nonzero(better)
            values[rows, cols[at]] = value[rows, at]
            estimates[rows, cols[at]] = estimate[rows, at]
            settled[rows, cols[at]] = estimate[rows, at] <= config.target_error
    alias = np.asarray(tails, dtype=float)[:, None] / math.expm1(config.contour_parameter)
    return np.where(settled, values - alias, np.nan), estimates


def _series_error(t: float, estimate: float, config: InversionConfig) -> InversionError:
    if math.isnan(estimate):
        return InversionError(f"inversion degenerated at t={t}: no finite acceleration")
    return InversionError(
        f"inversion did not settle at t={t}: estimate {estimate:.3g} "
        f"exceeds target {config.target_error:.3g}",
        error_estimate=estimate,
    )


def invert_transform(transform: Callable, t: float,
                     config: InversionConfig | None = None,
                     tail_limit: float = 0.0) -> float:
    """Invert an arbitrary transform at t > 0 (the inversion self-test hook).

    transform takes an ndarray of s and returns its values elementwise (a
    callable written for one complex s, with math or cmath, can be passed as
    np.vectorize(transform, otypes=[complex])); nan or inf at a pole fails
    the attempt whose contour meets it.
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
    values, estimates = _invert_series(lambda s: transform(s)[np.newaxis],
                                       np.array([t], dtype=float), config, [tail_limit])
    if math.isnan(values[0, 0]):
        raise _series_error(t, float(estimates[0, 0]), config)
    return float(values[0, 0])


@dataclass(frozen=True)
class GridInversion:
    """Inverted density and cdf at each time of a grid, in the grid's order.

    pdf and cdf (None when not asked for) hold nan where that quantity
    failed.  errors[i] is None when both settled at point i, else the
    InversionError of its density, or of its cdf when only that failed.
    When the quantity did not settle, error_estimate is the best estimate
    the retry ladder achieved (above the target), or None when no attempt
    was finite; when it settled but failed the sign or range check,
    error_estimate is None and the message names the offending value.
    """

    pdf: np.ndarray | None
    cdf: np.ndarray | None
    errors: tuple[InversionError | None, ...]


def invert_grid(model: ShockModel, ts, config: InversionConfig | None = None, *,
                pdf: bool = True, cdf: bool = True) -> GridInversion:
    """h(t) and P(W <= t) at every t > 0 of ts by one batched inversion.

    Both come from the same L_h values on each t's contour, the cdf by
    inverting L_h(s)/s.  At k = 1 the lethal branch is subtracted from L_h
    and added back, pointwise to the density and as its time integral to
    the cdf.  Densities smaller than DENSITY_CLAMP are 0, and so are
    negative ones within twice the target; a density more negative than
    that, or a cdf outside [0, 1] by more than twice the target, fails its
    point.  Accuracy is as configured wherever h is smooth; within a small
    neighbourhood of a density kink (multiples of a constant threshold) the
    series converges to the local average instead, as any vertical-contour
    Fourier method does, and those points fail.
    """
    config = config or InversionConfig()
    ts = np.array(ts, dtype=float).reshape(-1)
    if not np.all(ts > 0):
        raise ValueError(f"inversion requires t > 0, got {ts.min()}")
    evaluator = TransformEvaluator(model)
    single = model.k == 1

    def transform(s):
        h = evaluator(s)
        if single:
            # the smooth rest of L_h once the jumpy single-gap lethal branch is
            # subtracted: L_h - L_lethal = L_h L_nonlethal, as a product
            # without the difference's cancellation
            h = h * evaluator.nonlethal_transform(s)
        return np.stack([h] * pdf + [h / s] * cdf)

    tails = [0.0] * pdf + [model.survive_prob if single else 1.0] * cdf
    values, estimates = _invert_series(transform, ts, config, tails)
    errors: list[InversionError | None] = [None] * len(ts)
    slack = 2.0 * config.target_error

    def checked(which, value, bad, message):
        """value with nan at the bad points, whose errors are recorded."""
        for i in np.flatnonzero(bad):
            t = float(ts[i])
            if math.isnan(values[which, i]):
                errors[i] = _series_error(t, float(estimates[which, i]), config)
            else:
                errors[i] = InversionError(message.format(t=t, value=value[i]))
        return np.where(bad, np.nan, value)

    pdf_values = cdf_values = None
    # the cdf first, so that a point's density error replaces its cdf error
    if cdf:
        value = values[-1]
        if single:
            value = value + [weighted_time_integral(model.arrivals, model.threshold, t,
                                                    "survival") for t in ts]
        bad = np.isnan(value) | (value < -slack) | (value > 1.0 + slack)
        value = checked(-1, value, bad, "inverted cdf at t={t} is {value:.3g}, outside [0, 1]")
        cdf_values = np.where(value > 1.0, 1.0, np.where(value < 0.0, 0.0, value))
    if pdf:
        value = values[0]
        if single:
            value = value + [float(model.arrivals.density(t)) * float(model.threshold.survival(t))
                             for t in ts]
        value = np.where(abs(value) < DENSITY_CLAMP, 0.0, value)
        value = np.where((value < 0.0) & (-value <= slack), 0.0, value)
        pdf_values = checked(0, value, np.isnan(value) | (value < 0.0),
                             "inverted density at t={t} is {value:.3g}, "
                             "negative beyond the error budget")
    return GridInversion(pdf=pdf_values, cdf=cdf_values, errors=tuple(errors))


def invert_density(model: ShockModel, t: float,
                   config: InversionConfig | None = None) -> float:
    """h(t) by numerical inversion, to within the configured target error
    (see invert_grid); raises its InversionError."""
    grid = invert_grid(model, [t], config, cdf=False)
    if grid.errors[0] is not None:
        raise grid.errors[0]
    return float(grid.pdf[0])


def invert_cdf(model: ShockModel, t: float,
               config: InversionConfig | None = None) -> float:
    """P(W <= t) by inverting L_h(s)/s at t > 0 (see invert_grid); raises
    its InversionError."""
    grid = invert_grid(model, [t], config, pdf=False)
    if grid.errors[0] is not None:
        raise grid.errors[0]
    return float(grid.cdf[0])


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

    # crude scale: find eps with L_h(eps) > 0.5, then mean ~ -log L / eps
    eps = 1e-3
    for _ in range(200):
        value = evaluator(complex(eps, 0.0)).real
        if value > 0.5:
            break
        eps /= 2.0
    else:
        raise InversionError("could not bracket the transform scale near s = 0")
    crude_mean = -math.log(value) / eps

    h = 1e-2 / crude_mean
    nodes = np.array([0.0, h, -h, h / 2.0, -h / 2.0])
    values = evaluator(nodes).real
    if not np.all(values > 0.0):
        s = nodes[np.flatnonzero(~(values > 0.0))[0]]
        raise InversionError(f"transform is non-positive at s={s}; cannot take log")
    k0, kp, km, kp2, km2 = np.log(values).tolist()

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

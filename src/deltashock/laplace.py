"""Failure-time Laplace transform and its numerical inversion.

The failure-time density h has transform

    L_h(s) = ( L_lethal(s) / (1 - L_nonlethal(s)) )^k

where L_lethal and L_nonlethal are the survival- and cdf-weighted gap
transforms from the distributions module.  Density and cdf values come from
the Fourier series of the Bromwich integral on a vertical contour,
accelerated through the quotient-difference continued fraction (the
de Hoog-Knight-Stokes scheme); needing only vertical-line transform values
is what makes the approach suit probability densities.  The inversion runs
on a whole grid of times at once.  Its first rung puts every time of a
quarter-octave window on the window's contour, so the window's transform
values and quotient-difference table serve all its times, and only the
fraction's point z depends on the time; a time's value there must also agree
with the one on the window below.  The retries give each time still
unsettled its own contour.  The transform, the table and the fraction are
numpy operations over every window or time in the batch.  For k = 1 the
density jumps wherever the lethal-branch density f*Gbar does, so that
branch (whose transform and pointwise values are both known) is subtracted
before inversion and added back, leaving a continuous series target.
Moments come from the Taylor coefficients at 0 of log L_h = k log L_seg,
one FFT of the segment's log transform on a circle around 0, an oracle
independent of the closed moment formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .distributions import lethal_density, weighted_laplace
from .model import MomentSummary, ShockModel

__all__ = [
    "InversionConfig",
    "InversionError",
    "TransformEvaluator",
    "GridInversion",
    "invert_grid",
    "invert_transform",
    "invert_density",
    "invert_cdf",
    "moments_from_transform",
]

# Inverted densities this small are oscillation noise; clamp them to 0.
DENSITY_CLAMP = 1e-10
# Period multiple for the series contour of window W (the time itself, or its
# quarter-octave): aliasing samples f at t + 2*kappa*W*n.
CONTOUR_PERIOD_RATIO = 2.0
# Quotient-difference depth of the first rung and attempt: its continued fraction
# uses 2 * SERIES_DEPTH + 1 series terms.
SERIES_DEPTH = 30
# The retries after the shared first rung, each time on its own contour:
# (extra fraction depth, period multiple) of each attempt.
ATTEMPTS = (
    (0, CONTOUR_PERIOD_RATIO),
    (10, CONTOUR_PERIOD_RATIO * 1.13),
    (16, CONTOUR_PERIOD_RATIO * 0.83),
)
# The first rung's windows per octave of time: the times of one window share
# its contour, transform values and quotient-difference table.
WINDOWS_PER_OCTAVE = 4
# Contour nodes per batch: a grid is inverted in blocks of times holding
# about this many transform values each, which bounds the memory of one
# rung (about 7 MB) whatever the grid size and depth.
BLOCK_NODES = 1 << 15
# Nodes of the circle around s = 0 whose FFT gives moments_from_transform.
CIRCLE_NODES = 64


class InversionError(RuntimeError):
    """The inversion did not settle, or the transform could not be used."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class InversionConfig:
    """The error target of the Fourier-series inversion.

    The contour damping parameter is A = ln(2/target_error): the contour
    sits at Re s = A / (2 T) for series period 2 T, and the aliasing error
    is of order exp(-A) times the sup of the inverted function, so A keeps
    that bound at half the target for functions of order one.
    """

    target_error: float = 1e-8

    def __post_init__(self):
        if not 0 < self.target_error < math.inf:
            raise ValueError(f"target_error must be finite and > 0, got {self.target_error}")

    @property
    def contour_parameter(self) -> float:
        return math.log(2.0 / self.target_error)


class TransformEvaluator:
    """Evaluates L_h(s) for one model."""

    def __init__(self, model: ShockModel):
        self.model = model

    def __call__(self, s):
        """L_h at s, a complex or an ndarray of them (a complex or an ndarray
        of its shape back), nan where the denominator vanishes."""
        arrivals, threshold = self.model.arrivals, self.model.threshold
        nodes = np.asarray(s, dtype=complex)
        flat = nodes.reshape(-1)
        denominator = 1.0 - weighted_laplace(arrivals, threshold, flat, "cdf")
        pole = np.logical_not(abs(denominator) >= 1e-14)
        with np.errstate(divide="ignore", invalid="ignore"):
            lethal = weighted_laplace(arrivals, threshold, flat, "survival")
            value = np.where(pole, np.nan, (lethal / denominator) ** self.model.k)
        return value.reshape(nodes.shape) if nodes.ndim else complex(value[0])


def _table(coeffs: np.ndarray, depth: int):
    """The continued-fraction coefficients d of every row of coeffs.

    coeffs has 2 depth + 1 series terms along its last axis.  The
    quotient-difference rhombus rules give the d of all rows at once,
    keeping only the live q and e columns.  It runs node-major, on a
    contiguous copy with the series axis first, so each rhombus step is one
    operation on contiguous rows, in the arithmetic and order of the rules
    for one row.  Returns d with the series axis first, of shape
    (2 depth + 1, *coeffs.shape[:-1]), and whether each row's d are finite.
    Runs under np.errstate(all="ignore").
    """
    shape, n = coeffs.shape[:-1], coeffs.shape[-1]
    c = np.ascontiguousarray(np.moveaxis(coeffs, -1, 0)).reshape(n, -1)
    d = np.empty_like(c)
    d[0] = c[0]
    q = c[1:] / c[:-1]
    e = np.zeros_like(q)
    for r in range(1, depth + 1):
        e = q[1:] - q[:-1] + e[1:len(q)]
        d[2 * r - 1] = -q[0]
        d[2 * r] = -e[0]
        if r < depth:
            q = q[1:-1] * e[1:] / e[:-1]
    return d.reshape(n, *shape), np.isfinite(d).all(axis=0).reshape(shape)


def _fractions(d: np.ndarray, z):
    """The continued fraction d0/(1 + d1 z/(1 + ...)) of every column of d.

    d holds the coefficients of _table along its first axis, and z (a
    complex or an ndarray) broadcasts against one row of them, so each
    column can have its own z.  Returns the fraction at z, with the de Hoog
    remainder refinement on its last level, truncated at all its terms and
    at 4 and 8 fewer (last axis).  Runs under np.errstate(all="ignore").
    """
    # numpy rounds a complex product alike in every loop over contiguous
    # operands, but not in every broadcasting one: so z fills a whole row
    z = np.broadcast_to(z, d[0].shape).copy()
    # one forward recurrence serves all three truncations: after step i it
    # holds the convergents a fraction of i + 2 terms needs, numerators A
    # and denominators B stacked as rows 0 and 1
    n = len(d)
    stops = (n - 10, n - 6, n - 2)
    states = []
    prev = np.stack((np.zeros_like(d[0]), np.ones_like(d[0])))
    cur = np.stack((d[0], np.ones_like(d[0])))
    for i in range(1, n - 1):
        prev, cur = cur, cur + d[i] * z * prev
        if i in stops:
            states.append((i + 2, prev, cur))
    values = []
    for terms, prev, cur in reversed(states):
        h_last = 0.5 * (1.0 + z * (d[terms - 2] - d[terms - 1]))
        remainder = -h_last * (1.0 - np.sqrt(1.0 + d[terms - 1] * z / (h_last * h_last)))
        a, b = cur + remainder * prev
        values.append(a / b)
    return np.stack(values, axis=-1)


def _attempt(transform, t: np.ndarray, windows: np.ndarray, depth: int, kappa: float,
             config: InversionConfig):
    """One rung of the ladder at the times t, on the contours of their windows.

    windows holds one or more windows W per time, one row each.  The times
    of one W share its contour, of period kappa W and abscissa
    A / (2 kappa W), so its 2 depth + 1 transform values and its
    quotient-difference table; each time evaluates the fraction at its own
    z = exp(i pi t / (kappa W)) and scales it by e^(A t / (2 kappa W)) /
    (kappa W).  Returns (value, estimate, finite), each of shape
    (transforms, len(t)): the fraction on the first row's window at all its
    terms; its largest difference to its two shallower truncations and to
    the value on each other row's window; and whether every window stayed
    finite.
    """
    n = 2 * depth + 1
    spans, at = np.unique(windows, return_inverse=True)
    at = at.reshape(windows.shape)
    period = kappa * spans
    gamma = config.contour_parameter / (2.0 * period)
    nodes = gamma[:, None] + 1j * (np.arange(n) * math.pi / period[:, None])
    coeffs = np.array(transform(nodes), dtype=complex)
    coeffs[..., 0] /= 2.0
    with np.errstate(all="ignore"):
        d, finite = _table(coeffs, depth)
        # every row of windows in one pass; t / windows is exactly 1 where
        # each time is its own window
        fractions = _fractions(d[..., at], np.exp(1j * (t / windows * (math.pi / kappa)))).real
        scaled = (np.exp(gamma[at] * t) / period[at])[..., None] * fractions
        value = scaled[:, 0, :, 0]
        others = np.concatenate((scaled[:, 0, :, 1:], np.moveaxis(scaled[:, 1:, :, 0], 1, -1)),
                                axis=-1)
        estimate = np.max(abs(value[..., None] - others), axis=-1)
    zero = ~coeffs.any(axis=-1)[:, at].any(axis=1)
    finite = finite[:, at].all(axis=1) & np.isfinite(scaled).all(axis=(1, -1))
    value[zero] = estimate[zero] = 0.0
    return value, estimate, zero | finite


def _windows(ts: np.ndarray) -> np.ndarray:
    """The first rung's two windows of each time, as rows: W(t) =
    2^(ceil(4 log2 t) / 4), the quarter-octave lattice point at or above t,
    and the lattice point below it."""
    lattice = np.ceil(WINDOWS_PER_OCTAVE * np.log2(ts))
    return np.exp2(np.stack((lattice, lattice - 1.0)) / WINDOWS_PER_OCTAVE)


def _invert_series(transform, ts: np.ndarray, config: InversionConfig, tails):
    """Invert len(tails) transforms at every time of ts in one batch.

    transform maps an (m, n) ndarray of contour nodes to the
    (len(tails), m, n) ndarray of the transforms' values there.  The first
    rung (depth SERIES_DEPTH, period ratio CONTOUR_PERIOD_RATIO) puts each
    t on the contour of its window W(t) = 2^(ceil(4 log2 t) / 4), the
    quarter-octave lattice point at or above it, which every time of the
    window shares (see _windows); its estimate also takes in the value on
    the window below, W(t) 2^(-1/4), a second period that catches errors
    the fraction's own truncations miss.  The attempts of ATTEMPTS follow,
    each t its own window.  Each rung runs only on the times where some
    transform has not settled yet, BLOCK_NODES contour nodes at a time, so
    memory does not grow with the grid.  A transform that vanishes on every
    contour of a time gives 0 with estimate 0; a non-finite value,
    coefficient or fraction fails that rung for that time only.  A time's
    windows depend on that time alone, so the contours its value comes from
    do not depend on the batch.

    Returns (values, estimates), both (len(tails), m): the value of the first
    rung that settled, less its alias bias tail/(e^A - 1), or nan where
    none did; and the best estimate achieved, nan where no rung gave a
    finite one.
    """
    shape = (len(tails), len(ts))
    values = np.full(shape, np.nan)
    estimates = np.full(shape, np.nan)
    settled = np.zeros(shape, dtype=bool)
    rungs = [(0, CONTOUR_PERIOD_RATIO, _windows(ts))]
    rungs += [(extra, kappa, ts[np.newaxis]) for extra, kappa in ATTEMPTS]
    for extra, kappa, windows in rungs:
        depth = SERIES_DEPTH + extra
        todo = np.flatnonzero(~settled.all(axis=0))
        block = max(1, BLOCK_NODES // ((2 * depth + 1) * len(windows)))
        for start in range(0, todo.size, block):
            cols = todo[start:start + block]
            value, estimate, finite = _attempt(transform, ts[cols], windows[:, cols], depth, kappa,
                                               config)
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
    """Invert an arbitrary transform at finite t > 0 (the inversion self-test hook).

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
    if not 0 < t < math.inf:
        raise ValueError(f"inversion requires a finite t > 0, got {t}")
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
    """h(t) and P(W <= t) at every finite t > 0 of ts by one batched inversion.

    Both come from the same L_h values on each t's contour, the cdf by
    inverting L_h(s)/s.  At k = 1 the lethal branch is subtracted from L_h
    and added back, pointwise to the density (lethal_density) and as its
    time integral to the cdf, both from the same pieces.  Densities smaller
    than DENSITY_CLAMP are 0, and so are negative ones within twice the
    target; a density more negative than that, or a cdf outside [0, 1] by
    more than twice the target, fails its point.  Accuracy is as
    configured wherever h is smooth; within a small neighbourhood of a
    density kink (multiples of a constant threshold) the series converges
    to the local average instead, as any vertical-contour Fourier method
    does, and those points fail.
    """
    config = config or InversionConfig()
    ts = np.array(ts, dtype=float).reshape(-1)
    bad = ~((ts > 0) & (ts < math.inf))
    if bad.any():
        raise ValueError(f"inversion requires a finite t > 0, got {ts[bad][0]}")
    evaluator = TransformEvaluator(model)
    single = model.k == 1

    def transform(s):
        h = evaluator(s)
        if single:
            # the smooth rest of L_h once the jumpy single-gap lethal branch is
            # subtracted: L_h - L_lethal = L_h L_nonlethal, as a product
            # without the difference's cancellation
            h = h * weighted_laplace(model.arrivals, model.threshold, s, "cdf")
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
            value = value + weighted_laplace(model.arrivals, model.threshold, 0.0, "survival",
                                             upper=ts).real
        bad = np.isnan(value) | (value < -slack) | (value > 1.0 + slack)
        value = checked(-1, value, bad, "inverted cdf at t={t} is {value:.3g}, outside [0, 1]")
        cdf_values = np.where(value > 1.0, 1.0, np.where(value < 0.0, 0.0, value))
    if pdf:
        value = values[0]
        if single:
            value = value + lethal_density(model.arrivals, model.threshold, ts)
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
    """Failure-time moments from log L_h's Taylor coefficients at s = 0.

    log L_h is the cumulant generating function at -s, so c_1 = -mean and
    c_2 = variance / 2, without the mean^2 cancellation.  log L_h = k log
    L_seg, with L_seg the transform of one segment (the model at k = 1), so
    the coefficients are k times the segment's, and the circle is the
    segment's whatever k.  Cauchy's integral on the circle |s| = r =
    0.25/segment mean by the trapezoid rule, one FFT of log L_seg at
    CIRCLE_NODES nodes, gives each segment coefficient times r^m; it reads
    only the transform.
    """
    evaluator = TransformEvaluator(replace(model, k=1))

    # crude scale: find eps with L_seg(eps) > 0.5, then segment mean ~ -log L / eps
    eps = 1e-3
    for _ in range(200):
        value = evaluator(complex(eps, 0.0)).real
        if value > 0.5:
            break
        eps /= 2.0
    else:
        raise InversionError("could not bracket the transform scale near s = 0")
    crude_mean = -math.log(value) / eps

    radius = 0.25 / crude_mean
    nodes = radius * np.exp(2j * math.pi * np.arange(CIRCLE_NODES) / CIRCLE_NODES)
    values = evaluator(nodes)
    bad = ~(np.isfinite(values) & (values != 0.0))
    if bad.any():
        s = complex(nodes[np.flatnonzero(bad)[0]])
        raise InversionError(f"transform is zero or not finite at s={s}; cannot take log")
    taylor = np.fft.fft(np.log(values)) / CIRCLE_NODES
    segment_mean = -taylor[1].real / radius
    segment_variance = 2.0 * taylor[2].real / (radius * radius)
    return MomentSummary.of_segment(model.k, segment_mean, segment_variance)

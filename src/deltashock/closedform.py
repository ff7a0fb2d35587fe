"""Exact formulas for the two tractable model families.

closed_form_family(model) names the family a ShockModel belongs to, and
every function here takes the model and refuses one outside its family.
Exponential gaps with a constant threshold admit a series density (shifted
Erlang terms with alternating binomial weights) plus closed moments;
uniform gaps with a constant threshold strictly inside their support admit
a closed mean and the published variance.  The published variance is
dimensionally inconsistent and disagrees with both the general formula and
simulation; it is kept verbatim behind unif_const_variance_published so the
discrepancy can be reported, while the variance of the model's general
segment moments is the authoritative value.  These formulas compute their
own lethal probability from the laws' parameters, so they stay a route
independent of the general moments and of the transform.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import gammainc

from .distributions import Constant, Exponential, Uniform
from .model import MomentSummary, ShockModel

__all__ = [
    "closed_form_family",
    "exp_const_pdf",
    "exp_const_cdf",
    "exp_const_moments",
    "unif_const_mean",
    "unif_const_variance_published",
]

# Rows j per numpy block of the exp+constant series, each of k or k + 1 terms.
SERIES_BLOCK = 256
# A direction of the series walk stops once every row beyond it adds less
# than this fraction of the largest term kept.
SERIES_TAIL = 2.0**-60
# log of the smallest positive double: a tail bound below it adds nothing.
LOG_TINY = -745.2


def closed_form_family(model: ShockModel) -> str | None:
    """"exponential_constant", "uniform_constant" or None (no closed form).

    Uniform gaps on (lower, upper) need the constant threshold strictly
    inside: at or above upper every gap is lethal, and the uniform-case
    formulas divide by tau - lower.
    """
    arrivals, threshold = model.arrivals, model.threshold
    if isinstance(threshold, Constant):
        if isinstance(arrivals, Exponential):
            return "exponential_constant"
        if isinstance(arrivals, Uniform) and arrivals.lower < threshold.tau < arrivals.upper:
            return "uniform_constant"
    return None


def _exp_const(model: ShockModel) -> tuple[float, float, int]:
    """(rate, tau, k) of an exponential_constant model; ValueError otherwise."""
    if closed_form_family(model) != "exponential_constant":
        raise ValueError(f"no exponential_constant closed form for {model!r}")
    return model.arrivals.rate, model.threshold.tau, model.k


def _unif_const(model: ShockModel) -> tuple[float, float, float, int]:
    """(lower, upper, tau, k) of a uniform_constant model; ValueError otherwise."""
    if closed_form_family(model) != "uniform_constant":
        raise ValueError(f"no uniform_constant closed form for {model!r}")
    return model.arrivals.lower, model.arrivals.upper, model.threshold.tau, model.k


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! of an int array, by math.lgamma one value at a time."""
    return np.array([math.lgamma(v + 1) for v in n.ravel().tolist()]).reshape(n.shape)


@np.errstate(divide="ignore", invalid="ignore")
def _series_sum(k: int, j_max: int, log_head, terms) -> float:
    """math.fsum of the terms of rows j = 0..j_max of a series, over only the
    rows that matter.

    log_head(j) gives, for a 1-D int array j, log h_j of the row heads: every
    term (j, i) has magnitude at most C(k, i) h_j, so row j adds at most
    2^k h_j, and log h_j is concave in j.  terms(j, log_h) gives the
    (len(j), columns) array of the terms of the rows of a column of j, with
    log_h their log heads.  Both may take logs of zero and of negative
    numbers on the way; numpy's warnings for those are off here.

    When the rows fit in one block of SERIES_BLOCK they are summed whole.
    Otherwise the sum starts from the block around the largest head, found
    by bisection on the sign of log h_(j+1) - log h_j, and walks outward one
    block at a time.  Past the peak the head ratio r of two neighbouring
    rows only falls with each further row (concavity), so every row beyond
    an edge row j adds at most 2^k h_j r/(1 - r) in all; a direction stops
    once that bound is below SERIES_TAIL times the largest term kept.  fsum
    is exact whatever the order, so the result is the exactly rounded sum
    of the kept terms, within 2 SERIES_TAIL times the largest term of the
    sum over every row.
    """
    def block(lo, hi):
        j = np.arange(lo, hi)
        log_h = log_head(j)
        return log_h, terms(j[:, None], log_h[:, None])

    if j_max < SERIES_BLOCK:
        return math.fsum(block(0, j_max + 1)[1].ravel().tolist())

    lo, hi = 0, j_max
    while lo < hi:  # the first j whose head exceeds the next one's
        mid = (lo + hi) // 2
        here, after = log_head(np.array([mid, mid + 1]))
        lo, hi = (lo, mid) if after < here else (mid + 1, hi)
    lo = min(max(lo - SERIES_BLOCK // 2, 0), j_max + 1 - SERIES_BLOCK)
    hi = lo + SERIES_BLOCK
    log_h, rows = block(lo, hi)
    kept = [rows]
    largest = float(np.abs(rows).max())
    # the log heads of the two outermost rows at each edge, inner one first
    up, down = log_h[-2:], log_h[1::-1]

    def negligible(inner, outer):
        log_ratio = outer - inner
        if not log_ratio < 0.0:
            return False
        log_bound = k * math.log(2.0) + outer + log_ratio - math.log(-math.expm1(log_ratio))
        log_tail = math.log(SERIES_TAIL * largest) if largest > 0.0 else -math.inf
        return log_bound < max(log_tail, LOG_TINY)

    while hi <= j_max and not negligible(*up):
        log_h, rows = block(hi, min(hi + SERIES_BLOCK, j_max + 1))
        hi += len(log_h)
        kept.append(rows)
        largest = max(largest, float(np.abs(rows).max()))
        up = np.concatenate((up, log_h))[-2:]
    while lo > 0 and not negligible(*down):
        log_h, rows = block(max(lo - SERIES_BLOCK, 0), lo)
        lo -= len(log_h)
        kept.append(rows)
        largest = max(largest, float(np.abs(rows).max()))
        down = np.concatenate((down, log_h[::-1]))[-2:]
    return math.fsum(itertools.chain.from_iterable(rows.ravel().tolist() for rows in kept))


def _pdf_series(lam: float, tau: float, k: int, t: float):
    """(log_head, terms) of the exp_const_pdf series at t > 0; see there."""
    base_log = k * math.log(lam) - lam * t - math.lgamma(k)
    log_lam = math.log(lam)
    i_tau = np.arange(1, k + 1) * tau
    signed_choose = np.array([(-1.0) ** i * math.comb(k, i) for i in range(1, k + 1)])

    def log_head(j):
        # -inf for a row at or past its step, where j + k - 1 >= 1
        x0 = np.maximum(t - j * tau, 0.0)
        return base_log + j * log_lam - _log_factorial(j) + (j + k - 1) * np.log(x0)

    def terms(j, log_h):
        u = i_tau / np.maximum(t - j * tau, 0.0)
        # log1p(-u) is -inf at a step; clamped to LOG_TINY it still gives
        # (x/x0)^e - 1 = -1 for e >= 1, and 0 for e = 0 (the step indicator)
        shrink = np.expm1((j + k - 1) * np.maximum(np.log1p(-u), LOG_TINY))
        # past its step a term is absent: -1
        return np.exp(log_h) * signed_choose * np.where(u <= 1.0, shrink, -1.0)

    return log_head, terms


def exp_const_pdf(model: ShockModel, t: float) -> float:
    """Failure-time density for exponential gaps and a constant threshold.

    h(t) = (lam^k e^(-lam t)/(k-1)!) * sum_j sum_i (-1)^i C(k,i) (lam^j/j!)
           * [(t - (j+i)tau) U(t - (j+i)tau)]^(j+k-1)

    with U the unit step (1 at and above the shift) and the convention that
    a zero exponent means the step indicator itself; the j sum truncates at
    floor(t/tau) because later steps are all zero.  Row j is its head

        h_j = lam^(j+k) e^(-lam t) x0^e / (j! (k-1)!),   x0 = t - j tau, e = j + k - 1,

    built in log space, times sum_i (-1)^i C(k,i) (x/x0)^e with x = x0 - i tau.
    Since sum_i (-1)^i C(k,i) = 0, that is the sum over i = 1..k of
    (-1)^i C(k,i) m_i with m_i = (x/x0)^e - 1 = expm1(e log1p(-i tau/x0)),
    and -1 for an absent term.  Each m_i is small where the alternating sum
    cancels, and is accurately rounded however large e and t are; the head's
    own rounding is common to its row.  So |term| <= C(k,i) h_j, and log h_j
    is concave in j (-log j! and e log x0 both are): _series_sum sums the
    window of rows around the peak head, within 2^-59 of the largest term.
    At the ten points of the default rare-lethality grid (p = 0.01, t/tau
    up to 1.3e5) that builds 768 to 2,304 terms, and the value is within
    3e-12 relative of a 60-digit sum.
    """
    lam, tau, k = _exp_const(model)
    if t <= 0.0:
        return 0.0
    return max(_series_sum(k, int(math.floor(t / tau)), *_pdf_series(lam, tau, k, t)), 0.0)


def _cdf_series(lam: float, tau: float, k: int, t: float):
    """(log_head, terms) of the exp_const_cdf series at t > 0; see there."""
    i = np.arange(k + 1)
    choose_log = np.array([math.log(math.comb(k, v)) for v in i.tolist()])
    sign = (-1.0) ** i

    def negbin_log(j):
        # log C(j + k - 1, j)
        return _log_factorial(j + k - 1) - _log_factorial(j) - math.lgamma(k)

    def log_head(j):
        return negbin_log(j) - lam * tau * j

    def terms(j, log_h):
        # rebuilt from (j + i) tau, as the series is written, rather than
        # from log_h: the sum cancels, and this rounds each term once less
        c = (j + i) * tau
        # P(j + k, 0) = 0, so a term with c >= t is absent (log -inf)
        tail = np.log(gammainc(j + k, lam * np.maximum(t - c, 0.0)))
        return sign * np.exp(choose_log + negbin_log(j) - lam * c + tail)

    return log_head, terms


def exp_const_cdf(model: ShockModel, t: float) -> float:
    """Term-by-term integral of the series density: shifted Erlang cdfs.

    Each series term integrates to exp(-lam c) * P(j+k, lam (t-c)) with
    c = (j+i)tau and P the regularized lower incomplete gamma, weighted by
    (-1)^i C(k,i) C(j+k-1, j).  With q = e^(-lam tau), P <= 1 and
    q^i <= 1, a term is at most C(k,i) C(j+k-1, j) q^j, a head log-concave
    in j, so the sum walks the same window as exp_const_pdf (see
    _series_sum).  Stable in double precision up to k around 30; beyond
    that the alternating terms outgrow the unit-bounded sum, so use the
    inverted transform as the reference there instead.
    """
    lam, tau, k = _exp_const(model)
    if t <= 0.0:
        return 0.0
    total = _series_sum(k, int(math.floor(t / tau)), *_cdf_series(lam, tau, k, t))
    return min(max(total, 0.0), 1.0)


def exp_const_moments(model: ShockModel) -> MomentSummary:
    """Closed moments: mean k/(lam p), variance k(1 + 2 lam tau e^(-lam tau))/(lam p)^2,
    with p = 1 - e^(-lam tau)."""
    lam, tau, k = _exp_const(model)
    p = -math.expm1(-lam * tau)
    mu = 1.0 / (lam * p)
    sigma2 = (1.0 + 2.0 * lam * tau * math.exp(-lam * tau)) / (lam * lam * p * p)
    return MomentSummary(
        mean=k * mu, variance=k * sigma2, segment_mean=mu, segment_variance=sigma2
    )


def unif_const_mean(model: ShockModel) -> float:
    """Closed mean k (b^2 - a^2) / (2 (tau - a)) for the uniform case."""
    a, b, tau, k = _unif_const(model)
    return k * (b * b - a * a) / (2.0 * (tau - a))


def unif_const_variance_published(model: ShockModel) -> float:
    """The published uniform-case variance, verbatim: a fidelity artifact.

    k [2 mu2 (tau - a) + mu1 (b^2 - 2 tau^2 + a^2)] / (2 mu1 (tau - a))
    with mu1, mu2 the first and second raw gap moments.  The expression is
    dimensionally inconsistent (numerator ~ time^3 over denominator ~
    time^2) and disagrees with simulation; use the general segment-moment
    variance for anything except reporting the discrepancy.
    """
    a, b, tau, k = _unif_const(model)
    mu1 = (a + b) / 2.0
    mu2 = (a * a + a * b + b * b) / 3.0
    return (
        k
        * (2.0 * mu2 * (tau - a) + mu1 * (b * b - 2.0 * tau * tau + a * a))
        / (2.0 * mu1 * (tau - a))
    )


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
from scipy.special import gammainc, gammaln

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

# Values of j per numpy block of the exp_const_pdf series (times k + 1 terms).
SERIES_BLOCK = 4096


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


def _series_sum(tau: float, k: int, t: float, log_terms) -> float:
    """math.fsum of the terms (-1)^i exp(log_terms(j, c, choose_log)) of the
    series over j <= t/tau and i = 0..k, with shifts c = (j+i)tau.

    log_terms gets a column of j, the (len(j), k + 1) array of c and the log
    binomials log C(k, i), and returns the log magnitudes, -inf for absent
    terms.  The terms are built as numpy arrays, SERIES_BLOCK values of j at
    a time, and fed to fsum one block at a time: fsum is exact whatever the
    order, and the memory stays that of a block however large t/tau is.
    """
    choose_log = np.array([math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
                           for i in range(k + 1)])
    sign = np.array([(-1.0) ** i for i in range(k + 1)])
    i = np.arange(k + 1)

    def blocks():
        j_max = int(math.floor(t / tau))
        for start in range(0, j_max + 1, SERIES_BLOCK):
            j = np.arange(start, min(start + SERIES_BLOCK, j_max + 1))[:, None]
            log_mag = log_terms(j, (j + i) * tau, choose_log)
            present = log_mag > -745.0
            yield (sign * np.exp(np.where(present, log_mag, -np.inf)))[present].tolist()

    return math.fsum(itertools.chain.from_iterable(blocks()))


def exp_const_pdf(model: ShockModel, t: float) -> float:
    """Failure-time density for exponential gaps and a constant threshold.

    h(t) = (lam^k e^(-lam t)/(k-1)!) * sum_j sum_i (-1)^i C(k,i) (lam^j/j!)
           * [(t - (j+i)tau) U(t - (j+i)tau)]^(j+k-1)

    with U the unit step (1 at and above the shift) and the convention that
    a zero exponent means the step indicator itself; the j sum truncates at
    floor(t/tau) because later steps are all zero.  The (j, i) terms are
    built in log space and summed exactly rounded (see _series_sum): the i
    sum alternates in sign and would otherwise lose precision for large
    rate*t.  The series stays ill-conditioned there all the same (about
    1e-7 relative at t/tau near 3e4, p = 0.01), since the terms themselves
    carry rounding.
    """
    lam, tau, k = _exp_const(model)
    if t <= 0.0:
        return 0.0
    base_log = k * math.log(lam) - lam * t - math.lgamma(k)
    log_lam = math.log(lam)

    def log_terms(j, c, choose_log):
        x = t - c
        exponent = j + k - 1
        log_mag = (base_log + j * log_lam - gammaln(j + 1) + choose_log
                   + exponent * np.log(np.where(x > 0.0, x, 1.0)))
        # a term is absent past its step, and at it unless its exponent is 0
        return np.where((x > 0.0) | (x == 0.0) & (exponent == 0), log_mag, -np.inf)

    return max(_series_sum(tau, k, t, log_terms), 0.0)


def _exp_const_pdf_naive(model: ShockModel, t: float) -> float:
    """Direct power/factorial evaluation; cross-check for rate*t <= 30."""
    lam, tau, k = _exp_const(model)
    if t <= 0.0:
        return 0.0
    total = 0.0
    j_max = int(math.floor(t / tau))
    for j in range(j_max + 1):
        for i in range(k + 1):
            x = t - (j + i) * tau
            if x < 0.0:
                break
            total += (
                (-1.0) ** i
                * math.comb(k, i)
                * lam ** (j + k)
                * x ** (j + k - 1)
                * math.exp(-lam * t)
                / (math.factorial(j) * math.factorial(k - 1))
            )
    return total


def exp_const_cdf(model: ShockModel, t: float) -> float:
    """Term-by-term integral of the series density: shifted Erlang cdfs.

    Each series term integrates to exp(-lam c) * P(j+k, lam (t-c)) with
    c = (j+i)tau and P the regularized lower incomplete gamma, summed as
    the density's terms are (see _series_sum).  Stable in double precision
    up to k around 30; beyond that the alternating terms outgrow the
    unit-bounded sum, so use the inverted transform as the reference there
    instead.
    """
    lam, tau, k = _exp_const(model)
    if t <= 0.0:
        return 0.0

    def log_terms(j, c, choose_log):
        # P(j + k, 0) = 0, so a term with c >= t is absent (log -inf)
        with np.errstate(divide="ignore"):
            tail = np.log(gammainc(j + k, lam * np.maximum(t - c, 0.0)))
        negbin_log = gammaln(j + k) - gammaln(j + 1) - math.lgamma(k)
        return choose_log + negbin_log - lam * c + tail

    return min(max(_series_sum(tau, k, t, log_terms), 0.0), 1.0)


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


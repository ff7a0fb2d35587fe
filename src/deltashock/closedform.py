"""Exact formulas for the two tractable model families.

Exponential gaps with a constant threshold admit a series density (shifted
Erlang terms with alternating binomial weights) plus closed moments;
uniform gaps with a constant threshold admit a closed mean and two variance
expressions.  The published closed-form variance for the uniform case is
dimensionally inconsistent and disagrees with both the general formula and
simulation; it is kept verbatim behind unif_const_variance_published so the
discrepancy can be reported, while unif_const_variance_general carries the
correctness contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy.special import gammainc

from .distributions import Constant, Exponential, Uniform
from .model import MomentSummary, ShockModel

__all__ = [
    "ExpConstParams",
    "UnifConstParams",
    "exp_const_pdf",
    "exp_const_cdf",
    "exp_const_moments",
    "unif_const_mean",
    "unif_const_variance_published",
    "unif_const_variance_general",
    "unif_const_variance_comparison",
    "VarianceComparison",
]


@dataclass(frozen=True)
class ExpConstParams:
    """Exponential gaps (rate) against a constant threshold tau, k hits to fail."""

    rate: float
    tau: float
    k: int

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")

    @property
    def lethal_prob(self) -> float:
        return -math.expm1(-self.rate * self.tau)

    def to_model(self) -> ShockModel:
        return ShockModel(self.k, Exponential(self.rate), Constant(self.tau))


@dataclass(frozen=True)
class UnifConstParams:
    """Uniform gaps on (lower, upper) against a constant threshold tau in between."""

    lower: float
    upper: float
    tau: float
    k: int

    def __post_init__(self):
        if not self.lower >= 0:
            raise ValueError(f"lower must be >= 0, got {self.lower}")
        if not self.upper > self.lower:
            raise ValueError(f"upper must exceed lower, got ({self.lower}, {self.upper})")
        if not (self.lower < self.tau < self.upper):
            raise ValueError(
                f"tau must lie strictly inside ({self.lower}, {self.upper}), got {self.tau}"
            )
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")

    @property
    def lethal_prob(self) -> float:
        return (self.tau - self.lower) / (self.upper - self.lower)

    def to_model(self) -> ShockModel:
        return ShockModel(self.k, Uniform(self.lower, self.upper), Constant(self.tau))


def _kahan_add(total: float, compensation: float, term: float):
    y = term - compensation
    new_total = total + y
    return new_total, (new_total - total) - y


def exp_const_pdf(params: ExpConstParams, t: float) -> float:
    """Failure-time density for exponential gaps and a constant threshold.

    h(t) = (lam^k e^(-lam t)/(k-1)!) * sum_j sum_i (-1)^i C(k,i) (lam^j/j!)
           * [(t - (j+i)tau) U(t - (j+i)tau)]^(j+k-1)

    with U the unit step (1 at and above the shift) and the convention that
    a zero exponent means the step indicator itself; the j sum truncates at
    floor(t/tau) because later steps are all zero.  Terms are evaluated in
    log space and accumulated with Kahan compensation: the i sum alternates
    in sign and would otherwise lose precision for large rate*t.
    """
    if t <= 0.0:
        return 0.0
    lam, tau, k = params.rate, params.tau, params.k
    base_log = k * math.log(lam) - lam * t - math.lgamma(k)
    log_lam = math.log(lam)
    choose_log = [
        math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
        for i in range(k + 1)
    ]

    total = 0.0
    compensation = 0.0
    j_max = int(math.floor(t / tau))
    for j in range(j_max + 1):
        coef_log = base_log + j * log_lam - math.lgamma(j + 1)
        exponent = j + k - 1
        for i in range(k + 1):
            x = t - (j + i) * tau
            if x < 0.0:
                break
            if exponent == 0:
                log_mag = coef_log + choose_log[i]
            elif x == 0.0:
                continue
            else:
                log_mag = coef_log + choose_log[i] + exponent * math.log(x)
            term = math.exp(log_mag) if log_mag > -745.0 else 0.0
            if i % 2:
                term = -term
            total, compensation = _kahan_add(total, compensation, term)
    return max(total, 0.0)


def _exp_const_pdf_naive(params: ExpConstParams, t: float) -> float:
    """Direct power/factorial evaluation; cross-check for rate*t <= 30."""
    if t <= 0.0:
        return 0.0
    lam, tau, k = params.rate, params.tau, params.k
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


def exp_const_cdf(params: ExpConstParams, t: float) -> float:
    """Term-by-term integral of the series density: shifted Erlang cdfs.

    Each series term integrates to exp(-lam c) * P(j+k, lam (t-c)) with
    c = (j+i)tau and P the regularized lower incomplete gamma.  Stable in
    double precision up to k around 30; beyond that the alternating terms
    outgrow the unit-bounded sum, so use the inverted transform as the
    reference there instead.
    """
    if t <= 0.0:
        return 0.0
    lam, tau, k = params.rate, params.tau, params.k
    choose_log = [
        math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
        for i in range(k + 1)
    ]

    total = 0.0
    compensation = 0.0
    j_max = int(math.floor(t / tau))
    for j in range(j_max + 1):
        negbin_log = math.lgamma(j + k) - math.lgamma(j + 1) - math.lgamma(k)
        for i in range(k + 1):
            c = (j + i) * tau
            x = t - c
            if x < 0.0:
                break
            tail = float(gammainc(j + k, lam * x))
            if tail <= 0.0:
                continue
            log_mag = choose_log[i] + negbin_log - lam * c + math.log(tail)
            term = math.exp(log_mag) if log_mag > -745.0 else 0.0
            if i % 2:
                term = -term
            total, compensation = _kahan_add(total, compensation, term)
    return min(max(total, 0.0), 1.0)


def exp_const_moments(params: ExpConstParams) -> MomentSummary:
    """Closed moments: mean k/(lam p), variance k(1 + 2 lam tau e^(-lam tau))/(lam p)^2."""
    lam, tau, k = params.rate, params.tau, params.k
    p = params.lethal_prob
    mu = 1.0 / (lam * p)
    sigma2 = (1.0 + 2.0 * lam * tau * math.exp(-lam * tau)) / (lam * lam * p * p)
    return MomentSummary(
        mean=k * mu, variance=k * sigma2, segment_mean=mu, segment_variance=sigma2
    )


def unif_const_mean(params: UnifConstParams) -> float:
    """Closed mean k (b^2 - a^2) / (2 (tau - a)) for the uniform case."""
    a, b = params.lower, params.upper
    return params.k * (b * b - a * a) / (2.0 * (params.tau - a))


def unif_const_variance_published(params: UnifConstParams) -> float:
    """The published uniform-case variance, verbatim: a fidelity artifact.

    k [2 mu2 (tau - a) + mu1 (b^2 - 2 tau^2 + a^2)] / (2 mu1 (tau - a))
    with mu1, mu2 the first and second raw gap moments.  The expression is
    dimensionally inconsistent (numerator ~ time^3 over denominator ~
    time^2) and disagrees with simulation; use the general value for
    anything except reporting the discrepancy.
    """
    a, b, tau, k = params.lower, params.upper, params.tau, params.k
    mu1 = (a + b) / 2.0
    mu2 = (a * a + a * b + b * b) / 3.0
    return (
        k
        * (2.0 * mu2 * (tau - a) + mu1 * (b * b - 2.0 * tau * tau + a * a))
        / (2.0 * mu1 * (tau - a))
    )


def unif_const_variance_general(params: UnifConstParams) -> float:
    """Variance via the general segment-moment formula; the authoritative value."""
    return params.to_model().failure_moments().variance


class VarianceComparison(NamedTuple):
    general: float
    published: float
    absolute_difference: float


def unif_const_variance_comparison(params: UnifConstParams) -> VarianceComparison:
    """Both uniform-case variance values side by side with their gap."""
    general = unif_const_variance_general(params)
    published = unif_const_variance_published(params)
    return VarianceComparison(general, published, abs(general - published))

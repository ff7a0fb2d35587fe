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
import sys

import numpy as np

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
# Parts a bracket of rows splits into per round of the peak search (_peak_rows).
PEAK_WAYS = 64
# log n! comes from a table of math.lgamma below this, the Stirling series above.
LOG_FACTORIAL_TABLE = 32
LOG_FACTORIALS = np.array([math.lgamma(n + 1.0) for n in range(LOG_FACTORIAL_TABLE)])
# ln 2 split into a 20-bit head and its tail, and ln(2 pi)/2, correctly rounded.
LN2_HI = 726817 / 2**20
LN2_LO = 4.7493250390316726e-07
HALF_LOG_2PI = 0.9189385332046728
# Series terms per numpy array: a grid of times is summed in blocks of about
# this many terms (0.5 MB), so memory does not grow with the grid.
SERIES_NODES = 1 << 16
# A series value is refused (nan) where the rounding scale of its alternating
# terms, 2^-52 times the sum of their absolute values, exceeds this fraction
# of the value: there the terms cancel to fewer digits than it keeps.
SERIES_TRUST = 1e-8


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


def _log_factorial(n) -> np.ndarray:
    """log n! of an int n >= 0 or an int array of them, as an array of its shape.

    Below LOG_FACTORIAL_TABLE it is math.lgamma(n + 1) from a table; above,
    the Stirling series of log Gamma(x) at x = n + 1 (DLMF 5.11.1),

        (x - 1/2) ln x - x + ln(2 pi)/2 + 1/(12x) - 1/(360x^3) + 1/(1260x^5) - 1/(1680x^7),

    whose next term is below 2e-17 there.  With x = m 2^e, m in [1/2, 1),
    ln x = e LN2_HI + (ln m + e LN2_LO), and (x - 1/2) e LN2_HI - x is exact
    for x < 2^24: so the rounding of ln x is not scaled by x, and a value is
    within 2 ulp of log n! (0.86 ulp at most measured for n < 10^7, where
    math.lgamma's own values reach 1.9 ulp).
    """
    x = n + 1.0
    m, e = np.frexp(x)
    r = 1.0 / x
    r2 = r * r
    tail = HALF_LOG_2PI + r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680)))
    half = x - 0.5
    stirling = (half * (e * LN2_HI) - x) + (half * (np.log(m) + e * LN2_LO) + tail)
    return np.where(n < LOG_FACTORIAL_TABLE,
                    LOG_FACTORIALS[np.minimum(n, LOG_FACTORIAL_TABLE - 1)], stirling)


def _binomials(k: int) -> list[int]:
    """C(k, i) for i = 0..k, exact integers from the recurrence
    C(k, i + 1) = C(k, i) (k - i) / (i + 1), one product per step."""
    row = [1]
    for i in range(k):
        row.append(row[-1] * (k - i) // (i + 1))
    return row


def _peak_rows(t: np.ndarray, last: np.ndarray, log_head) -> np.ndarray:
    """The first row j in 0..last of each time whose head exceeds the next
    one's (last where none does): the largest head, as log h_j is concave.

    t is a column of times and last their int last rows.  A bracket [lo, hi]
    holds each time's row; a round makes one log_head call on the
    PEAK_WAYS - 1 splits of every open bracket and the rows after them, and
    keeps the part up to the first split that falls, so a bracket of w rows
    is pinned in about log_PEAK_WAYS(w) rounds, where bisection takes
    log_2(w).  Both find the same row wherever log h_(j+1) < log h_j turns
    true once and stays so.
    """
    lo, hi = np.zeros_like(last), last.copy()
    ways = np.arange(1, PEAK_WAYS)
    while (live := np.flatnonzero(lo < hi)).size:
        a, b = lo[live, None], hi[live, None]
        split = a + (b - a) * ways // PEAK_WAYS
        log_h = log_head(t[live], np.concatenate((split, split + 1), axis=1))
        # hi itself closes the list of splits, as a row that always falls
        split = np.concatenate((split, b), axis=1)
        falls = np.concatenate((log_h[:, PEAK_WAYS - 1:] < log_h[:, :PEAK_WAYS - 1],
                                np.ones_like(b, dtype=bool)), axis=1)
        first = falls.argmax(axis=1)
        rows = np.arange(len(live))
        hi[live] = split[rows, first]
        lo[live] = np.where(first > 0, split[rows, first - 1] + 1, lo[live])
    return lo


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _series_sums(k: int, tau: float, ts: np.ndarray, log_head, terms,
                 max_scale: float) -> tuple[list[float], list[float]]:
    """math.fsum of the terms of rows j = 0..floor(t/tau) of a series at every
    time t > 0 of the 1-D array ts, over only the rows that matter, and the
    sum of their absolute values, the scale of the terms' own rounding.

    log_head(t, j) gives log h_j of the row heads at times t and int rows j
    that broadcast: a term (j, i) is at most C(k, i) h_j, so row j adds at
    most 2^k h_j, and log h_j is concave in j.  terms(t, j, log_h) gives the
    terms of the rows j along a new last axis.  Both may take logs of zero
    and of negative numbers, and their products may overflow; numpy's
    warnings for those are off here.

    A time gets nan for both sums without a walk where one row it keeps,
    its largest head's (row 0 if it is summed whole), alone has a sum of
    |terms| above max_scale or not a number, and after its walk where its
    kept |terms| add up past the float range.

    The times go in blocks of about SERIES_NODES terms, one (times, rows,
    terms) array per step.  A time of at most SERIES_BLOCK rows is summed
    whole.  Every other one starts from the block around its largest head,
    found by a PEAK_WAYS-way search on the sign of log h_(j+1) - log h_j
    (_peak_rows), and walks outward one block at a time, up and then down.
    Past the peak the head ratio r of two neighbouring rows only falls with
    each further row (concavity), so every row beyond an edge row j adds at most
    2^k h_j r/(1 - r) in all; a direction stops once that bound is below
    SERIES_TAIL times the largest term kept.  fsum is exact whatever the
    order, so a result is the exactly rounded sum of its time's own kept
    terms, whatever the other times, within 2 SERIES_TAIL times the largest
    term of the sum over every row.
    """
    def block(t, j):
        log_h = np.broadcast_to(log_head(t, j), (len(t), j.shape[-1]))
        return log_h, terms(t[..., None], j[..., None], log_h[..., None])

    def negligible(inner, outer, largest):
        log_ratio = outer - inner
        if not log_ratio < 0.0:
            return False
        log_bound = k * math.log(2.0) + outer + log_ratio - math.log(-math.expm1(log_ratio))
        # a sum of logs: SERIES_TAIL * largest underflows to 0 at 2^-1015 and below
        log_tail = math.log(SERIES_TAIL) + math.log(largest) if largest > 0.0 else -math.inf
        return log_bound < max(log_tail, LOG_TINY)

    def magnitudes(values, n):
        """Each time's largest |term| in its block of values, and the sum of
        |term| over the first n rows, the ones it keeps."""
        size = np.abs(values)
        kept = step[:values.shape[1]] < n[:, None]
        return (size.max(axis=(1, 2)).tolist(),
                np.where(kept, size.sum(axis=2), 0.0).sum(axis=1).tolist())

    j_max = np.floor(ts / tau).astype(np.int64)
    step = np.arange(SERIES_BLOCK)
    width = max(1, SERIES_NODES // (min(int(j_max.max(initial=0)) + 1, SERIES_BLOCK) * (k + 1)))
    sums, abs_sums = [math.nan] * len(ts), [math.nan] * len(ts)
    for start in range(0, len(ts), width):
        t, last = ts[start:start + width, None], j_max[start:start + width]
        # a time of at most SERIES_BLOCK rows is summed whole, so row 0 will do
        peak = _peak_rows(t, np.where(last < SERIES_BLOCK, 0, last), log_head)
        walk = np.abs(block(t, peak[:, None])[1]).sum(axis=(1, 2)) <= max_scale
        index = np.flatnonzero(walk) + start
        t, last, peak = t[walk], last[walk], peak[walk]
        if not len(t):
            continue
        lo = np.clip(peak - SERIES_BLOCK // 2, 0, np.maximum(last + 1 - SERIES_BLOCK, 0))
        # times that all start at row 0 share one row of j, and of log j!
        rows = min(int(last.max()) + 1, SERIES_BLOCK)
        log_h, first = block(t, lo[:, None] + step[:rows] if lo.any() else step[:rows])
        hi = lo + np.minimum(last + 1 - lo, rows)
        kept = [[block_rows[:n]] for block_rows, n in zip(first, (hi - lo).tolist())]
        largest, scales = magnitudes(first, hi - lo)
        # the log heads of the two outermost rows at each edge, inner one first
        for up, edge in ((True, log_h[:, -2:].tolist()), (False, log_h[:, 1::-1].tolist())):
            while (go := np.array([i for i in range(len(last))
                                   if (hi[i] <= last[i] if up else lo[i] > 0)
                                   and not negligible(*edge[i], largest[i])], dtype=int)).size:
                # the next block that way, its rows outward; a block cut at
                # row 0 or j_max repeats its end row, and keeps its n others
                n = np.minimum(last[go] + 1 - hi[go] if up else lo[go], SERIES_BLOCK)
                j = hi[go, None] + step if up else lo[go, None] - 1 - step
                log_h, more = block(t[go], np.clip(j, 0, last[go, None]))
                (hi if up else lo)[go] += n if up else -n
                for i, block_rows, size, m, a, pair in zip(
                        go.tolist(), more, n.tolist(), *magnitudes(more, n),
                        log_h[:, -2:].tolist()):
                    kept[i].append(block_rows[:size])
                    largest[i] = max(largest[i], m)
                    scales[i] += a
                    edge[i] = pair
        for i, parts, scale in zip(index.tolist(), kept, scales):
            if math.isfinite(scale):
                sums[i] = math.fsum(itertools.chain.from_iterable(
                    rows.ravel().tolist() for rows in parts))
                abs_sums[i] = scale
    return sums, abs_sums


def _pdf_series(lam: float, tau: float, k: int):
    """(log_head, terms) of the exp_const_pdf series; see there."""
    log_lam = math.log(lam)
    i_tau = np.arange(1, k + 1) * tau
    # inf for a C(k, i) past the float range, whose terms then refuse their time
    signed_choose = np.array([(-1.0) ** i * (float(c) if c <= sys.float_info.max else math.inf)
                              for i, c in enumerate(_binomials(k)) if i])

    def log_head(t, j):
        base_log = k * math.log(lam) - lam * t - math.lgamma(k)
        # -inf for a row at or past its step, where j + k - 1 >= 1
        x0 = np.maximum(t - j * tau, 0.0)
        return base_log + j * log_lam - _log_factorial(j) + (j + k - 1) * np.log(x0)

    def terms(t, j, log_h):
        # a subnormal x0 overflows u to inf, which reads as past the step
        with np.errstate(over="ignore"):
            u = i_tau / np.maximum(t - j * tau, 0.0)
        # log1p(-u) is -inf at a step; clamped to LOG_TINY it still gives
        # (x/x0)^e - 1 = -1 for e >= 1, and 0 for e = 0 (the step indicator)
        shrink = np.expm1((j + k - 1) * np.maximum(np.log1p(-u), LOG_TINY))
        # past its step a term is absent: -1
        return np.exp(log_h) * signed_choose * np.where(u <= 1.0, shrink, -1.0)

    return log_head, terms


def _series_at(model: ShockModel, t, series, clamp, bound):
    """clamp(sum) of a series at each t > 0 of a float or an array, 0.0 at
    t <= 0, and nan where SERIES_TRUST refuses the sum.

    bound(lam, p) bounds the series' true value.  A computed sum exceeds it
    only by its own rounding, about 2^-52 times its sum of |terms|, so a time
    with one kept row whose 2^-52 sum of |terms| alone is above
    2 SERIES_TRUST bound is one the rule refuses after its walk: it is
    refused before it (see _series_sums).
    """
    lam, tau, k = _exp_const(model)
    max_scale = 2.0 * SERIES_TRUST * bound(lam, -math.expm1(-lam * tau)) * 2.0**52
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    if not np.isfinite(flat).all():
        raise ValueError(f"times must be finite, got {t!r}")
    values = np.zeros(flat.shape)
    positive = np.flatnonzero(flat > 0.0)
    sums, scales = _series_sums(k, tau, flat[positive], *series(lam, tau, k), max_scale)
    values[positive] = [clamp(total) if 2.0**-52 * scale <= SERIES_TRUST * abs(total) else math.nan
                        for total, scale in zip(sums, scales)]
    return float(values[0]) if times.ndim == 0 else values.reshape(times.shape)


def exp_const_pdf(model: ShockModel, t):
    """Failure-time density for exponential gaps and a constant threshold, at
    a float t (a float back) or at an array of times (an array back).

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
    is concave in j (-log j! and e log x0 both are): _series_sums sums each
    time's window of rows around its peak head, within 2^-59 of the largest
    term, in one pass over the grid and whatever its other times.  On the
    default rare-lethality grid (p = 0.01, t/tau up to 1.3e5) a time keeps
    256 to 768 rows of k terms, within 3e-12 relative of a 60-digit sum.
    The rows' own terms still alternate, and as k grows or p falls they
    cancel to fewer digits: a value is nan where 2^-52 times the sum of its
    terms' absolute values exceeds SERIES_TRUST times the value.  On the
    default 200-point analyze grid every value is kept through k = 10 at
    p = 0.5, k = 6 at p = 0.1 and k = 4 at p = 0.01, and nearly every one is
    refused at k = 20, 8 and 5.  Use the inverted transform there.
    """
    # W is the first lethal gap plus an independent rest, so h <= sup(f Gbar)/p = lam/p
    return _series_at(model, t, _pdf_series, lambda total: max(total, 0.0),
                      lambda lam, p: lam / p)


def _cdf_series(lam: float, tau: float, k: int):
    """(log_head, terms) of the exp_const_cdf series; see there."""
    # imported on use, so that the CLI's scipy-free commands stay so
    from scipy.special import gammainc

    i = np.arange(k + 1)
    choose_log = np.array([math.log(c) for c in _binomials(k)])
    sign = (-1.0) ** i
    m = np.arange(1.0, k)

    def negbin_log(j):
        # log C(j + k - 1, j) for terms, kept though log_head's log1p sum finds
        # the peak better: on the 10-point rare-p01 analyze grid (k = 3, p =
        # 0.01) this cdf is within 1.14e-10 of a 40-digit mpmath sum, 4.1e-12
        # from t = 674.8 up; the log1p sum here is 1.95e-10 off, 8.8e-11 to
        # 9.2e-11 from t = 674.8 up, and fails TestFrozenLadder's rare-p01 grid
        return _log_factorial(j + k - 1) - _log_factorial(j) - math.lgamma(k)

    def log_head(t, j):
        # log C(j + k - 1, j) as the sum over m = 1..k-1 of log1p(j/m), whose
        # rounding is on the scale of the sum itself: negbin_log, a difference
        # of two log factorials near 2e6 at j = 2e5, keeps it only to about
        # 1e-9, noise that swamps the head's (k-1)/j^2 curvature near its
        # peak and so moves the row _peak_rows finds
        return np.log1p(np.asarray(j)[..., None] / m).sum(axis=-1) - lam * tau * j

    def terms(t, j, log_h):
        # rebuilt from (j + i) tau, as the series is written, rather than
        # from log_h: the sum cancels, and this rounds each term once less
        c = (j + i) * tau
        # P(j + k, 0) = 0, so a term with c >= t is absent (log -inf)
        tail = np.log(gammainc(j + k, lam * np.maximum(t - c, 0.0)))
        return sign * np.exp(choose_log + negbin_log(j) - lam * c + tail)

    return log_head, terms


def exp_const_cdf(model: ShockModel, t):
    """Term-by-term integral of the series density, at a float or an array of
    times like exp_const_pdf: shifted Erlang cdfs.

    Each series term integrates to exp(-lam c) * P(j+k, lam (t-c)) with
    c = (j+i)tau and P the regularized lower incomplete gamma, weighted by
    (-1)^i C(k,i) C(j+k-1, j).  With q = e^(-lam tau), P <= 1 and
    q^i <= 1, a term is at most C(k,i) C(j+k-1, j) q^j, a head log-concave
    in j, so the sum walks the same windows as exp_const_pdf (see
    _series_sums), and a value is refused (nan) by the same SERIES_TRUST
    rule.  On the default 200-point analyze grid every value is kept through
    k = 10 at p = 0.5, k = 5 at p = 0.1 and k = 3 at p = 0.01.
    """
    return _series_at(model, t, _cdf_series, lambda total: min(max(total, 0.0), 1.0),
                      lambda lam, p: 1.0)


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


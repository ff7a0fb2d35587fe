"""Closed-form formulas for the exponential and uniform gap cases."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammainc, gammaln

from deltashock import closedform
from deltashock import (
    Constant,
    Exponential,
    InversionConfig,
    ShockModel,
    Uniform,
    closed_form_family,
    exp_const_cdf,
    exp_const_moments,
    exp_const_pdf,
    invert_grid,
    unif_const_mean,
    unif_const_variance_published,
)

LN2 = math.log(2.0)


def exp_const(lam, tau, k):
    return ShockModel(k, Exponential(lam), Constant(tau))


def unif_const(a, b, tau, k):
    return ShockModel(k, Uniform(a, b), Constant(tau))


def exp_const_pdf_loop(model, t):
    """The series density term by term with Kahan summation: the reference
    the vectorized exp_const_pdf replaced."""
    if t <= 0.0:
        return 0.0
    lam, tau, k = model.arrivals.rate, model.threshold.tau, model.k
    base_log = k * math.log(lam) - lam * t - math.lgamma(k)
    choose_log = [math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
                  for i in range(k + 1)]
    total = compensation = 0.0
    for j in range(int(math.floor(t / tau)) + 1):
        coef_log = base_log + j * math.log(lam) - math.lgamma(j + 1)
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
            term = (-1) ** i * (math.exp(log_mag) if log_mag > -745.0 else 0.0)
            y = term - compensation
            new_total = total + y
            total, compensation = new_total, (new_total - total) - y
    return max(total, 0.0)


def exp_const_pdf_naive(model, t):
    """Direct power/factorial evaluation; cross-check for rate*t <= 30."""
    if t <= 0.0:
        return 0.0
    lam, tau, k = model.arrivals.rate, model.threshold.tau, model.k
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


def exp_const_cdf_loop(model, t):
    """The series cdf term by term with Kahan summation: the reference the
    block sum of exp_const_cdf replaced."""
    if t <= 0.0:
        return 0.0
    lam, tau, k = model.arrivals.rate, model.threshold.tau, model.k
    choose_log = [math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)
                  for i in range(k + 1)]
    total = compensation = 0.0
    for j in range(int(math.floor(t / tau)) + 1):
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
            term = (-1) ** i * (math.exp(log_mag) if log_mag > -745.0 else 0.0)
            y = term - compensation
            new_total = total + y
            total, compensation = new_total, (new_total - total) - y
    return min(max(total, 0.0), 1.0)


def series_sum_frozen(k, j_max, log_head, terms):
    """The per-time series walk as it was before the grid engine, frozen:
    exp_const_pdf and exp_const_cdf must match it bit for bit at every time
    of a grid.  log_head(j) and terms(j, log_h) close over one time."""
    def block(lo, hi):
        j = np.arange(lo, hi)
        log_h = log_head(j)
        return log_h, terms(j[:, None], log_h[:, None])

    if j_max < closedform.SERIES_BLOCK:
        return math.fsum(block(0, j_max + 1)[1].ravel().tolist())
    lo, hi = 0, j_max
    while lo < hi:
        mid = (lo + hi) // 2
        here, after = log_head(np.array([mid, mid + 1]))
        lo, hi = (lo, mid) if after < here else (mid + 1, hi)
    lo = min(max(lo - closedform.SERIES_BLOCK // 2, 0), j_max + 1 - closedform.SERIES_BLOCK)
    hi = lo + closedform.SERIES_BLOCK
    log_h, rows = block(lo, hi)
    kept = [rows]
    largest = float(np.abs(rows).max())
    up, down = log_h[-2:], log_h[1::-1]

    def negligible(inner, outer):
        log_ratio = outer - inner
        if not log_ratio < 0.0:
            return False
        log_bound = k * math.log(2.0) + outer + log_ratio - math.log(-math.expm1(log_ratio))
        log_tail = math.log(closedform.SERIES_TAIL * largest) if largest > 0.0 else -math.inf
        return log_bound < max(log_tail, closedform.LOG_TINY)

    while hi <= j_max and not negligible(*up):
        log_h, rows = block(hi, min(hi + closedform.SERIES_BLOCK, j_max + 1))
        hi += len(log_h)
        kept.append(rows)
        largest = max(largest, float(np.abs(rows).max()))
        up = np.concatenate((up, log_h))[-2:]
    while lo > 0 and not negligible(*down):
        log_h, rows = block(max(lo - closedform.SERIES_BLOCK, 0), lo)
        lo -= len(log_h)
        kept.append(rows)
        largest = max(largest, float(np.abs(rows).max()))
        down = np.concatenate((down, log_h[::-1]))[-2:]
    return math.fsum(itertools.chain.from_iterable(rows.ravel().tolist() for rows in kept))


def exp_const_frozen(model, t, series):
    """The exp_const_pdf (series = closedform._pdf_series) or exp_const_cdf
    (closedform._cdf_series) value at one time t by series_sum_frozen,
    unclamped."""
    if t <= 0.0:
        return 0.0
    lam, tau, k = model.arrivals.rate, model.threshold.tau, model.k
    log_head, terms = series(lam, tau, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        return series_sum_frozen(k, int(math.floor(t / tau)), lambda j: log_head(t, j),
                                 lambda j, log_h: terms(t, j, log_h))


def high_precision_pdf(mpmath, tau, k, t):
    """The series density of rate-1 gaps as a 60-digit sum that skips only
    the j whose heads lie e^150 below the largest."""
    j = np.arange(int(t / tau) + 1)
    log_size = (j + k - 1) * np.log(np.maximum(t - j * tau, 1e-300)) - gammaln(j + 1)
    with mpmath.workdps(60):
        T, TAU = mpmath.mpf(t), mpmath.mpf(tau)
        total = mpmath.mpf(0)
        for jj in j[log_size > log_size.max() - 150.0].tolist():
            for i in range(k + 1):
                x = T - (jj + i) * TAU
                if x > 0:
                    total += ((-1) ** i * mpmath.binomial(k, i) * x ** (jj + k - 1)
                              / mpmath.factorial(jj))
        return float(total * mpmath.exp(-T) / mpmath.factorial(k - 1))


def integrate_series_pdf(model, upper):
    """Piecewise quadrature of the series density between its kinks."""
    tau = model.threshold.tau
    edges = [j * tau for j in range(int(upper / tau) + 1)] + [upper]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi > lo:
            val, _ = integrate.quad(lambda t: exp_const_pdf(model, t), lo, hi,
                                    epsabs=1e-12, epsrel=1e-11, limit=300)
            total += val
    return total


class TestSeriesPdf:
    def test_head_is_pure_exponential(self):
        model = exp_const(1.0, 1.0, 1)
        for t in (0.1, 0.5, 0.999):
            assert exp_const_pdf(model, t) == pytest.approx(math.exp(-t), abs=1e-13)

    def test_zero_below_origin(self):
        model = exp_const(1.0, 1.0, 2)
        assert exp_const_pdf(model, 0.0) == 0.0
        assert exp_const_pdf(model, -1.0) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_subnormal_times_are_zero_without_a_warning(self):
        # i tau / x0 overflows to inf at these times, past every step
        model = exp_const(1.0, LN2, 3)
        assert exp_const_pdf(model, 5e-324) == 0.0
        assert exp_const_pdf(model, 1e-310) == 0.0
        assert exp_const_pdf(model, np.array([5e-324, 1e-310, 1.0]))[:2].tolist() == [0.0, 0.0]

    def test_step_convention_at_threshold(self):
        # at t = tau the two zero-exponent step terms cancel exactly
        model = exp_const(1.0, 1.0, 1)
        assert exp_const_pdf(model, 1.0) == 0.0

    @pytest.mark.parametrize("lam,tau,k", [
        (0.7, 0.5, 1), (1.0, 1.0, 1), (1.0, 0.5, 2), (2.0, 0.4, 3), (1.0, 1.0, 5), (1.0, LN2, 3),
    ])
    def test_log_space_matches_naive_for_moderate_arguments(self, lam, tau, k):
        model = exp_const(lam, tau, k)
        for t in np.linspace(0.05, 30.0 / lam, 40):
            naive = exp_const_pdf_naive(model, float(t))
            stable = exp_const_pdf(model, float(t))
            assert abs(stable - naive) < 1e-12 * max(1.0, abs(naive))

    def test_many_steps_against_high_precision_sum(self):
        """t/tau near 4e4 at p = 0.01, where the series is ill-conditioned.

        t is the third point of the default 10-point analyze grid of
        k = 3, Exponential(1) gaps and a Constant(-ln 0.99) threshold, where
        the vectorized sum and the term-by-term loop differ most.
        """
        mpmath = pytest.importorskip("mpmath")
        tau, k, t = -math.log(0.99), 3, 404.8559153597423
        model = exp_const(1.0, tau, k)
        # the 60-digit sum skips j whose terms lie e^150 below the largest
        j = np.arange(int(t / tau) + 1)
        log_size = (j + k - 1) * np.log(np.maximum(t - j * tau, 1e-300)) - gammaln(j + 1)
        with mpmath.workdps(60):
            T, TAU = mpmath.mpf(t), mpmath.mpf(tau)
            total = mpmath.mpf(0)
            for jj in j[log_size > log_size.max() - 150.0].tolist():
                for i in range(k + 1):
                    x = T - (jj + i) * TAU
                    if x > 0:
                        total += ((-1) ** i * mpmath.binomial(k, i) * x ** (jj + k - 1)
                                  / mpmath.factorial(jj))
            exact = float(total * mpmath.exp(-T) / mpmath.factorial(k - 1))
        loop_error = abs(exp_const_pdf_loop(model, t) - exact)
        assert 0.0 < loop_error < 1e-7 * exact
        assert abs(exp_const_pdf(model, t) - exact) <= 2.0 * loop_error

    def test_rare_lethality_grid_against_high_precision_sum(self):
        """Every point of the default 10-point analyze grid at p = 0.01
        (t/tau up to 1.3e5) is within 1e-10 relative of a 60-digit sum."""
        mpmath = pytest.importorskip("mpmath")
        tau, k = -math.log(0.99), 3
        model = exp_const(1.0, tau, k)
        moments = model.failure_moments()
        t_max = moments.mean + 6.0 * math.sqrt(moments.variance)
        for t in np.linspace(t_max / 10, t_max, 10).tolist():
            exact = high_precision_pdf(mpmath, tau, k, t)
            assert abs(exp_const_pdf(model, t) - exact) <= 1e-10 * exact

    def test_far_tail_below_the_tail_bound_underflow(self):
        """Past t = 1990 on exp+Constant(ln 2), k = 3, the largest kept term
        is at most 2^-1015, where SERIES_TAIL times it underflows to 0."""
        mpmath = pytest.importorskip("mpmath")
        ts = [1990.0, 2000.0, 2050.0, 2100.0]
        got = exp_const_pdf(exp_const(1.0, LN2, 3), np.array(ts))
        exact = [high_precision_pdf(mpmath, LN2, 3, t) for t in ts]
        assert np.allclose(got, exact, rtol=1e-10, atol=2.0**-1068)

    @pytest.mark.parametrize("lam,tau,k", [(1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 0.5, 2)])
    def test_integrates_to_one(self, lam, tau, k):
        model = exp_const(lam, tau, k)
        moments = model.failure_moments()
        upper = moments.mean + 45 * math.sqrt(moments.variance)
        assert integrate_series_pdf(model, upper) == pytest.approx(1.0, abs=1e-6)

    def test_first_moment_matches_closed_mean(self):
        model = exp_const(1.0, 1.0, 2)
        moments = exp_const_moments(model)
        upper = moments.mean + 45 * math.sqrt(moments.variance)
        tau = model.threshold.tau
        edges = [j * tau for j in range(int(upper / tau) + 1)] + [upper]
        total = 0.0
        for lo, hi in zip(edges, edges[1:]):
            val, _ = integrate.quad(lambda t: t * exp_const_pdf(model, t), lo, hi,
                                    epsabs=1e-12, epsrel=1e-11, limit=300)
            total += val
        assert total == pytest.approx(moments.mean, abs=1e-6)

    def test_every_gap_lethal_reduces_to_erlang(self):
        model = exp_const(2.0, 1e6, 3)
        for t in (0.2, 1.3, 4.0):
            erlang = 2.0**3 * t**2 * math.exp(-2.0 * t) / math.factorial(2)
            assert exp_const_pdf(model, t) == pytest.approx(erlang, rel=1e-12)


class TestSeriesCdf:
    @pytest.mark.parametrize("lam,tau,k", [(1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 0.5, 2), (2.0, 0.4, 3)])
    def test_matches_quadrature_of_pdf(self, lam, tau, k):
        model = exp_const(lam, tau, k)
        for t in (0.3, tau, 2.2, 5.7):
            assert exp_const_cdf(model, t) == pytest.approx(
                integrate_series_pdf(model, t), abs=1e-10)

    def test_many_steps_against_high_precision_sum(self):
        """Up to 600 steps per threshold at p = 0.095, where the alternating
        terms reach about 1e3 and the sum loses three digits."""
        mpmath = pytest.importorskip("mpmath")
        lam, tau, k = 1.0, 0.1, 3
        model = exp_const(lam, tau, k)
        loop_errors, errors = [], []
        for t in (10.0, 30.0, 60.0):
            with mpmath.workdps(40):
                T, TAU = mpmath.mpf(t), mpmath.mpf(tau)
                exact = float(mpmath.fsum(
                    (-1) ** i * mpmath.binomial(k, i) * mpmath.binomial(j + k - 1, j)
                    * mpmath.exp(-(j + i) * TAU)
                    * mpmath.gammainc(j + k, 0, T - (j + i) * TAU, regularized=True)
                    for j in range(int(t / tau) + 1) for i in range(k + 1)
                    if (j + i) * TAU < T))
            loop_errors.append(abs(exp_const_cdf_loop(model, t) - exact))
            errors.append(abs(exp_const_cdf(model, t) - exact))
        assert 0.0 < max(loop_errors) < 1e-11
        assert max(errors) <= max(loop_errors)

    def test_kept_terms_below_the_tail_bound_underflow(self):
        # p = 1e-4, k = 3: some 8e7 rows, and a largest kept term at most 2^-1015
        model = exp_const(1.0, -math.log1p(-1e-4), 3)
        value = exp_const_cdf(model, 8036.006383190049)
        assert math.isnan(value) or 0.0 <= value <= 1.0

    def test_limits(self):
        model = exp_const(1.0, 1.0, 2)
        assert exp_const_cdf(model, 0.0) == 0.0
        assert exp_const_cdf(model, 200.0) == pytest.approx(1.0, abs=1e-12)


class TestSeriesWindow:
    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.floats(0.2, 5.0),
        # p = 1 - e^(-lam tau), or every gap lethal (the Erlang limit)
        p=st.one_of(st.floats(0.02, 0.99), st.just(None)),
        k=st.integers(1, 6),
        fraction=st.floats(0.001, 1.2),
        on_step=st.booleans(),
        block=st.sampled_from([2, 16, closedform.SERIES_BLOCK]),
    )
    def test_window_matches_full_range_sum(self, lam, p, k, fraction, on_step, block):
        """The window sums to the full-range fsum of the same terms, within
        the tail bound: 2^-60 of the largest term, one per direction, plus
        the rounding of the two sums; and to the frozen per-time walk
        exactly."""
        tau = 1e6 if p is None else -math.log1p(-p) / lam
        model = exp_const(lam, tau, k)
        moments = exp_const_moments(model)
        t = fraction * (moments.mean + 6.0 * math.sqrt(moments.variance))
        if on_step and t >= tau:
            t = math.floor(t / tau) * tau
        j = np.arange(int(math.floor(t / tau)) + 1)
        for series in (closedform._pdf_series, closedform._cdf_series):
            log_head, terms = series(lam, tau, k)
            with np.errstate(divide="ignore", invalid="ignore"):
                every = terms(t, j[:, None], log_head(t, j)[:, None])
            full = math.fsum(every.ravel().tolist())
            with mock.patch.object(closedform, "SERIES_BLOCK", block):
                (window,), (scale,) = closedform._series_sums(k, tau, np.array([t]),
                                                             log_head, terms, math.inf)
                assert window == exp_const_frozen(model, t, series)
            tail = 2.0 * closedform.SERIES_TAIL * float(np.abs(every).max())
            assert abs(window - full) <= tail + math.ulp(full) + 2.0 * math.ulp(0.0)
            # the rows left out bound their |terms| as they bound their terms
            full_scale = math.fsum(np.abs(every).ravel().tolist())
            assert abs(scale - full_scale) <= tail + 1e-12 * full_scale


    def test_walk_shares_the_largest_term_of_every_block(self):
        """Both directions stop against the largest term kept so far, which
        here lies in the first block up, beyond the window around the peak
        head: the rows whose terms are built are the frozen walk's."""
        peak, half = 1000, closedform.SERIES_BLOCK // 2
        t, tau, k = 5000.5, 1.0, 1

        def log_head(t, j):
            return -((j - peak) / 50.0) ** 2 + 0.0 * t

        def recording_terms(asked):
            def terms(t, j, log_h):
                asked.update(np.unique(j).tolist())
                # the window's terms are 1e-12 of their heads, the others whole
                return np.exp(log_h) * np.where(abs(j - peak) <= half, 1e-12, 1.0)
            return terms

        walked, frozen_walked = set(), set()
        sums, _ = closedform._series_sums(k, tau, np.array([t]), log_head,
                                          recording_terms(walked), math.inf)
        frozen_terms = recording_terms(frozen_walked)
        frozen = series_sum_frozen(k, int(t / tau), lambda j: log_head(t, j),
                                   lambda j, log_h: frozen_terms(t, j, log_h))
        assert sums == [frozen]
        assert walked == frozen_walked
        # the walk went past the window, and stopped well short of rows 0 and j_max
        assert min(walked) < peak - half and max(walked) > peak + half
        assert 0 < min(walked) and max(walked) < int(t / tau)


class TestSeriesGrid:
    @settings(max_examples=40, deadline=None)
    @given(
        lam=st.floats(0.2, 5.0),
        # log-uniform down to 1e-4; a time past 256 tau walks its window
        p=st.floats(-4.0, math.log10(0.5)).map(lambda e: 10.0**e),
        k=st.integers(1, 6),
        fractions=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=6),
        on_step=st.lists(st.booleans(), min_size=6, max_size=6),
        order=st.randoms(use_true_random=False),
    )
    def test_each_time_is_its_own_walk(self, lam, p, k, fractions, on_step, order):
        """Each value of a grid is bit for bit the frozen per-time walk's and
        the value at that time alone, under any permutation and on any
        sub-grid: a value does not depend on the other times.  The grid
        holds times at or below 0 and on exact multiples of tau."""
        tau = -math.log1p(-p) / lam
        model = exp_const(lam, tau, k)
        moments = exp_const_moments(model)
        t_max = moments.mean + 6.0 * math.sqrt(moments.variance)
        ts = np.array([math.floor(f * t_max / tau) * tau if step else f * t_max
                       for f, step in zip(fractions, on_step)])
        perm = np.array(order.sample(range(len(ts)), len(ts)))
        sub = perm[:order.randint(1, len(ts))]
        closed = [(exp_const_pdf, closedform._pdf_series, lambda v: max(v, 0.0))]
        if p >= 1e-2:  # the cdf's gammainc walk is slow at lower p
            closed.append((exp_const_cdf, closedform._cdf_series,
                           lambda v: min(max(v, 0.0), 1.0)))
        positive = ts > 0.0
        for closed_form, series, clamp in closed:
            values = closed_form(model, ts)
            assert values.shape == ts.shape
            singles = [closed_form(model, t) for t in ts.tolist()]
            assert all(type(single) is float for single in singles)
            assert values.tobytes() == np.array(singles).tobytes()
            assert closed_form(model, ts[perm]).tobytes() == values[perm].tobytes()
            assert closed_form(model, ts[sub]).tobytes() == values[sub].tobytes()
            # the engine's sums are the frozen walk's, and a value is its
            # clamped sum unless the sum's rounding scale refuses it
            sums, scales = closedform._series_sums(k, tau, ts[positive], *series(lam, tau, k),
                                                   math.inf)
            frozen = [exp_const_frozen(model, t, series) for t in ts[positive].tolist()]
            assert np.array(sums).tobytes() == np.array(frozen).tobytes()
            refused = 2.0**-52 * np.array(scales) > closedform.SERIES_TRUST * np.abs(sums)
            kept = np.array([clamp(total) for total in sums])
            assert values[positive].tobytes() == np.where(refused, np.nan, kept).tobytes()
            assert (values[~positive] == 0.0).all()

    def test_memory_does_not_grow_with_the_grid(self):
        """10^4 times of up to 87 rows each: one array of all their terms
        would take 21 MB, and the blocks of SERIES_NODES terms stay below
        8 MB in all."""
        model = exp_const(1.0, LN2, 3)
        ts = np.linspace(-1.0, 60.0, 10_000)
        exp_const_pdf(model, ts[:10])
        tracemalloc.start()
        try:
            values = exp_const_pdf(model, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert values.shape == ts.shape and np.isfinite(values).all()

    def test_refuses_times_that_are_not_finite(self):
        model = exp_const(1.0, LN2, 3)
        for closed_form in (exp_const_pdf, exp_const_cdf):
            for bad in (math.nan, math.inf, np.array([1.0, math.nan])):
                with pytest.raises(ValueError, match="finite"):
                    closed_form(model, bad)


class TestSeriesRefusal:
    @pytest.mark.parametrize("p, k", [
        (0.5, 3), (0.5, 20), (0.5, 30),
        (0.1, 3), (0.1, 6), (0.1, 10),
        (0.01, 3), (0.01, 4), (0.01, 8),
    ])
    def test_kept_values_agree_with_the_inversion(self, p, k):
        """On the 20-point default analyze grid, every value the series keeps
        (the others are nan) is within 1e-7 of the inversion at target 1e-11,
        times the largest density for the pdf.  At k = 3, the bench
        workloads' k, every value is kept."""
        model = exp_const(1.0, -math.log1p(-p), k)
        moments = model.failure_moments()
        t_max = moments.mean + 6.0 * math.sqrt(moments.variance)
        ts = np.linspace(t_max / 20, t_max, 20)
        inverted = invert_grid(model, ts, InversionConfig(target_error=1e-11))
        for series, reference, scale in (
                (exp_const_pdf(model, ts), inverted.pdf, np.nanmax(inverted.pdf)),
                (exp_const_cdf(model, ts), inverted.cdf, 1.0)):
            kept = ~np.isnan(series)
            if k == 3:
                assert kept.all()
            both = kept & ~np.isnan(reference)
            assert np.all(np.abs(series - reference)[both] <= 1e-7 * scale)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [0.5, 0.01])
    def test_large_hit_count_is_refused_without_a_warning(self, p):
        """At k = 10^4 the middle C(k, i) overflow a float, so every time of
        the default analyze grid is refused before its walk: the pdf is nan
        there, and nothing raises or warns."""
        model = exp_const(1.0, -math.log1p(-p), 10**4)
        moments = model.failure_moments()
        t_max = moments.mean + 6.0 * math.sqrt(moments.variance)
        assert np.isnan(exp_const_pdf(model, np.linspace(t_max / 200, t_max, 200))).all()

    @pytest.mark.filterwarnings("error")
    def test_large_hit_count_cdf_is_refused_without_a_warning(self):
        """The cdf at k = 10^4 and p = 0.01, at its mean and 3 sd above, where
        the row of its largest head overflows.  Below the mean, and near the
        mean at p = 0.5, that row's gammainc factors underflow to 0, so it
        refuses nothing, and the walk runs on over rows of 10^4 terms each
        until memory runs out (ROADMAP item 16)."""
        model = exp_const(1.0, -math.log1p(-0.01), 10**4)
        moments = model.failure_moments()
        ts = moments.mean + math.sqrt(moments.variance) * np.array([0.0, 3.0])
        assert np.isnan(exp_const_cdf(model, ts)).all()


class TestBinomials:
    def test_recurrence_is_math_comb(self):
        for k in range(201):
            assert closedform._binomials(k) == [math.comb(k, i) for i in range(k + 1)]


class TestLogFactorial:
    def test_table_is_lgamma_bitwise(self):
        n = np.arange(closedform.LOG_FACTORIAL_TABLE)
        expected = np.array([math.lgamma(v + 1.0) for v in n.tolist()])
        assert closedform._log_factorial(n).tobytes() == expected.tobytes()

    def test_within_two_ulp_of_a_40_digit_log_gamma(self):
        """n = 32..10^4 and a geometric sample up to 10^7, against mpmath's
        loggamma at 40 digits (below 32 the values are math.lgamma's)."""
        mpmath = pytest.importorskip("mpmath")
        n = np.concatenate((np.arange(closedform.LOG_FACTORIAL_TABLE, 10_001),
                            np.unique(np.geomspace(10_001, 1e7, 2_000).astype(np.int64))))
        got = closedform._log_factorial(n)
        with mpmath.workdps(40):
            exact = [mpmath.loggamma(v + 1) for v in n.tolist()]
            ulps = [abs(value - x) / math.ulp(float(x)) for value, x in zip(got.tolist(), exact)]
        assert max(ulps) <= 2.0

    @pytest.mark.parametrize("n", [
        np.int64(40), np.array(7), np.array([0, 31, 32, 10**6]),
        np.arange(600).reshape(20, 30),
    ])
    def test_keeps_the_shape(self, n):
        got = closedform._log_factorial(n)
        assert got.shape == np.shape(n) and got.dtype == np.float64
        flat = [math.lgamma(v + 1.0) for v in np.ravel(n).tolist()]
        assert np.allclose(got.ravel(), flat, rtol=4e-16, atol=0.0)


def first_fall(log_head, t, last):
    """The first row j < last whose head exceeds row j + 1's, from the heads
    of every row 0..last, or last where none does."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h = log_head(t, np.arange(last + 1))
    falls = log_h[1:] < log_h[:-1]
    return int(falls.argmax()) if falls.any() else last


class TestPeakRows:
    @pytest.mark.parametrize("last", [1, 63, 64, 65, closedform.SERIES_BLOCK, 4097, 10**6])
    @pytest.mark.parametrize("shape", ["falling", "rising", "middle", "flat top"])
    def test_synthetic_heads(self, last, shape):
        """The peak at row 0, at the last row, and inside, one row or a flat
        top of three, for brackets from 1 row to 10^6."""
        peak = {"falling": 0, "rising": last, "middle": last // 3,
                "flat top": last // 2}[shape]

        def log_head(t, j):
            d = np.abs(j - peak)
            if shape == "flat top":
                d = np.maximum(d - 1, 0)
            return -d * 0.5 + 0.0 * t

        rows = closedform._peak_rows(np.array([[1.0]]), np.array([last]), log_head)
        assert rows.tolist() == [first_fall(log_head, 1.0, last)]
        if shape != "flat top":
            assert rows.tolist() == [peak]

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(-5.0, math.log10(0.5)).map(lambda e: 10.0**e),
        k=st.integers(1, 8),
        fractions=st.lists(st.floats(0.0, 1.2), min_size=1, max_size=4),
        on_step=st.booleans(),
    )
    # t = 2^18 tau, where differenced log factorials flipped the cdf head's slope
    @example(p=10**-4.96875, k=3, fractions=[1.0], on_step=False)
    def test_series_heads(self, p, k, fractions, on_step):
        """The pdf's and the cdf's heads, on a grid of times whose last rows
        run from SERIES_BLOCK to 2^18 (the brute force reads every row)."""
        tau = -math.log1p(-p)
        model = exp_const(1.0, tau, k)
        moments = exp_const_moments(model)
        t_max = min(moments.mean + 6.0 * math.sqrt(moments.variance), 2**18 * tau)
        ts = [max(f * t_max, closedform.SERIES_BLOCK * tau) for f in fractions]
        if on_step:
            ts = [math.ceil(t / tau) * tau for t in ts]
        last = np.array([int(math.floor(t / tau)) for t in ts])
        for series in (closedform._pdf_series, closedform._cdf_series):
            log_head, _ = series(1.0, tau, k)
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = closedform._peak_rows(np.array(ts)[:, None], last, log_head)
            assert rows.tolist() == [first_fall(log_head, t, n)
                                     for t, n in zip(ts, last.tolist())]

    def test_rounds_shrink_64_fold(self):
        """A bracket of 1.3e5 rows, the rare-lethality grid's last, is pinned
        in three calls, where bisection takes 17."""
        calls = []

        def log_head(t, j):
            calls.append(j.shape)
            return -np.abs(j - 77_777) + 0.0 * t

        rows = closedform._peak_rows(np.array([[1.0]]), np.array([134_276]), log_head)
        assert rows.tolist() == [77_777]
        assert calls == [(1, 2 * (closedform.PEAK_WAYS - 1))] * 3


class TestExpConstMoments:
    def test_benchmark_values(self):
        assert exp_const_moments(exp_const(1.0, LN2, 3)).mean == pytest.approx(6.0, abs=1e-12)
        assert exp_const_moments(exp_const(1.0, LN2, 1)).variance == pytest.approx(
            4.0 * (1.0 + LN2), abs=1e-12)

    def test_every_gap_lethal_limit(self):
        moments = exp_const_moments(exp_const(1.5, 1e6, 4))
        assert moments.mean == pytest.approx(4.0 / 1.5, rel=1e-12)
        assert moments.variance == pytest.approx(4.0 / 1.5**2, rel=1e-12)

    @pytest.mark.parametrize("lam,tau,k", [
        (1.0, LN2, 3), (0.7, 0.4, 1), (2.2, 1.5, 6), (1.0, 3.0, 2),
    ])
    def test_agrees_with_general_formula(self, lam, tau, k):
        model = exp_const(lam, tau, k)
        closed = exp_const_moments(model)
        general = model.failure_moments()
        assert closed.mean == pytest.approx(general.mean, abs=1e-10 * closed.mean)
        assert closed.variance == pytest.approx(general.variance, abs=1e-10 * closed.variance)

    def test_general_and_special_variance_agree_symbolically(self):
        """The segment-moment variance with the memoryless overshoot
        E(Z | Z > tau) = tau + 1/lam collapses to the special formula."""
        lam, tau = sympy.symbols("lam tau", positive=True)
        p = 1 - sympy.exp(-lam * tau)
        q = 1 - p
        ez = 1 / lam
        ez2 = 2 / lam**2
        overshoot = tau + 1 / lam
        general = ez2 / p + (2 * ez * overshoot * q - ez**2) / p**2
        special = (1 + 2 * lam * tau * sympy.exp(-lam * tau)) / (lam**2 * p**2)
        assert sympy.simplify(general - special) == 0


class TestUniformConst:
    def test_mean_benchmarks(self):
        assert unif_const_mean(unif_const(0.0, 2.0, 1.0, 2)) == pytest.approx(4.0, abs=1e-12)
        assert unif_const_mean(unif_const(1.0, 3.0, 2.0, 1)) == pytest.approx(4.0, abs=1e-12)

    def test_mean_matches_general_formula(self):
        for model in (unif_const(0.0, 2.0, 1.0, 2), unif_const(0.5, 2.5, 1.1, 3)):
            general = model.failure_moments().mean
            assert unif_const_mean(model) == pytest.approx(general, rel=1e-10)

    def test_threshold_near_upper_gives_plain_sum(self):
        model = unif_const(0.0, 2.0, 2.0 - 1e-9, 3)
        assert unif_const_mean(model) == pytest.approx(3.0 * 1.0, rel=1e-8)

    def test_variance_disagreement_on_benchmark(self):
        model = unif_const(0.0, 2.0, 1.0, 1)
        general = model.failure_moments().variance
        published = unif_const_variance_published(model)
        assert general == pytest.approx(14.0 / 3.0, abs=1e-10)
        assert published == pytest.approx(7.0 / 3.0, abs=1e-12)
        assert general - published == pytest.approx(7.0 / 3.0, abs=1e-9)

    def test_general_variance_linear_in_hit_count(self):
        one = unif_const(0.0, 2.0, 1.0, 1).failure_moments().variance
        five = unif_const(0.0, 2.0, 1.0, 5).failure_moments().variance
        assert five == pytest.approx(5.0 * one, rel=1e-12)

    def test_published_formula_arithmetic(self):
        # mu1 = 1, mu2 = 4/3: k (2*mu2*1 + 1*(4 - 2)) / (2*1*1) = (8/3 + 2)/2
        assert unif_const_variance_published(unif_const(0.0, 2.0, 1.0, 1)) == pytest.approx(
            (8.0 / 3.0 + 2.0) / 2.0, abs=1e-14)

    @pytest.mark.parametrize("build", [
        lambda: unif_const_mean(unif_const(0.0, 2.0, 0.0, 1)),
        lambda: unif_const_mean(unif_const(0.0, 2.0, 2.0, 1)),
        lambda: unif_const_mean(unif_const(0.0, 2.0, 2.5, 1)),
        lambda: unif_const_mean(unif_const(1.0, 0.5, 0.7, 1)),
        lambda: unif_const_mean(unif_const(0.0, 2.0, 1.0, 0)),
        lambda: exp_const_moments(exp_const(0.0, 1.0, 1)),
        lambda: exp_const_moments(exp_const(1.0, 0.0, 1)),
        lambda: exp_const_moments(exp_const(1.0, 1.0, 0)),
        lambda: exp_const_moments(exp_const(1.0, 1.0, 1.5)),
    ])
    def test_validation(self, build):
        """Bad inputs of both families, the uniform ones first: each fails
        when its law or model is built, or else in the closed form."""
        with pytest.raises(ValueError):
            build()


class TestExpConstValidation:
    def test_lethal_prob(self):
        # the closed form's own p = 1 - e^(-lam tau) is 1/2, so a segment lasts 1/(lam p) = 2
        assert exp_const_moments(exp_const(1.0, LN2, 1)).segment_mean == pytest.approx(2.0, abs=1e-15)


class TestClosedFormFamily:
    @pytest.mark.parametrize("model,family", [
        (exp_const(1.0, LN2, 3), "exponential_constant"),
        (unif_const(0.0, 2.0, 1.0, 1), "uniform_constant"),
        (unif_const(0.5, 2.5, 1.1, 3), "uniform_constant"),
        (unif_const(0.0, 2.0, 3.0, 2), None),  # p = 1: every gap is lethal
        (unif_const(0.0, 2.0, 2.0, 1), None),  # tau at the upper end, p = 1 as well
        (ShockModel(2, Exponential(1.0), Exponential(1.0)), None),
        (ShockModel(2, Uniform(0.0, 2.0), Uniform(0.0, 1.0)), None),
    ])
    def test_family(self, model, family):
        assert closed_form_family(model) == family

    @pytest.mark.parametrize("closed_form,model", [
        (closed_form, model)
        for forms, own in [
            ((lambda m: exp_const_pdf(m, 1.0), lambda m: exp_const_cdf(m, 1.0), exp_const_moments),
             unif_const(0.0, 2.0, 1.0, 1)),
            ((unif_const_mean, unif_const_variance_published), exp_const(1.0, LN2, 3)),
        ]
        for closed_form in forms
        for model in (own, unif_const(0.0, 2.0, 3.0, 2),
                      ShockModel(2, Exponential(1.0), Exponential(1.0)))
    ])
    def test_closed_forms_refuse_other_families(self, closed_form, model):
        with pytest.raises(ValueError, match="closed form"):
            closed_form(model)

"""Closed-form formulas for the exponential and uniform gap cases."""

import math

import numpy as np
import pytest
import sympy
from scipy import integrate
from scipy.special import gammaln

from deltashock import (
    Constant,
    Exponential,
    ExpConstParams,
    ShockModel,
    UnifConstParams,
    Uniform,
    exp_const_cdf,
    exp_const_moments,
    exp_const_pdf,
    unif_const_mean,
    unif_const_variance_comparison,
    unif_const_variance_general,
    unif_const_variance_published,
)
from deltashock.closedform import _exp_const_pdf_naive

LN2 = math.log(2.0)


def exp_const_pdf_loop(params, t):
    """The series density term by term with Kahan summation: the reference
    the vectorized exp_const_pdf replaced."""
    if t <= 0.0:
        return 0.0
    lam, tau, k = params.rate, params.tau, params.k
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


def integrate_series_pdf(params, upper):
    """Piecewise quadrature of the series density between its kinks."""
    edges = [j * params.tau for j in range(int(upper / params.tau) + 1)] + [upper]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        if hi > lo:
            val, _ = integrate.quad(lambda t: exp_const_pdf(params, t), lo, hi,
                                    epsabs=1e-12, epsrel=1e-11, limit=300)
            total += val
    return total


class TestSeriesPdf:
    def test_head_is_pure_exponential(self):
        params = ExpConstParams(1.0, 1.0, 1)
        for t in (0.1, 0.5, 0.999):
            assert exp_const_pdf(params, t) == pytest.approx(math.exp(-t), abs=1e-13)

    def test_zero_below_origin(self):
        params = ExpConstParams(1.0, 1.0, 2)
        assert exp_const_pdf(params, 0.0) == 0.0
        assert exp_const_pdf(params, -1.0) == 0.0

    def test_step_convention_at_threshold(self):
        # at t = tau the two zero-exponent step terms cancel exactly
        params = ExpConstParams(1.0, 1.0, 1)
        assert exp_const_pdf(params, 1.0) == 0.0

    @pytest.mark.parametrize("lam,tau,k", [
        (0.7, 0.5, 1), (1.0, 1.0, 1), (1.0, 0.5, 2), (2.0, 0.4, 3), (1.0, 1.0, 5), (1.0, LN2, 3),
    ])
    def test_log_space_matches_naive_for_moderate_arguments(self, lam, tau, k):
        params = ExpConstParams(lam, tau, k)
        for t in np.linspace(0.05, 30.0 / lam, 40):
            naive = _exp_const_pdf_naive(params, float(t))
            stable = exp_const_pdf(params, float(t))
            assert abs(stable - naive) < 1e-12 * max(1.0, abs(naive))

    def test_many_steps_against_high_precision_sum(self):
        """t/tau near 4e4 at p = 0.01, where the series is ill-conditioned.

        t is the third point of the default 10-point analyze grid of
        k = 3, Exponential(1) gaps and a Constant(-ln 0.99) threshold, where
        the vectorized sum and the term-by-term loop differ most.
        """
        mpmath = pytest.importorskip("mpmath")
        tau, k, t = -math.log(0.99), 3, 404.8559153597423
        params = ExpConstParams(1.0, tau, k)
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
        loop_error = abs(exp_const_pdf_loop(params, t) - exact)
        assert 0.0 < loop_error < 1e-7 * exact
        assert abs(exp_const_pdf(params, t) - exact) <= 2.0 * loop_error

    @pytest.mark.parametrize("lam,tau,k", [(1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 0.5, 2)])
    def test_integrates_to_one(self, lam, tau, k):
        params = ExpConstParams(lam, tau, k)
        model = ShockModel(k, Exponential(lam), Constant(tau))
        moments = model.failure_moments()
        upper = moments.mean + 45 * math.sqrt(moments.variance)
        assert integrate_series_pdf(params, upper) == pytest.approx(1.0, abs=1e-6)

    def test_first_moment_matches_closed_mean(self):
        params = ExpConstParams(1.0, 1.0, 2)
        moments = exp_const_moments(params)
        upper = moments.mean + 45 * math.sqrt(moments.variance)
        edges = [j * params.tau for j in range(int(upper / params.tau) + 1)] + [upper]
        total = 0.0
        for lo, hi in zip(edges, edges[1:]):
            val, _ = integrate.quad(lambda t: t * exp_const_pdf(params, t), lo, hi,
                                    epsabs=1e-12, epsrel=1e-11, limit=300)
            total += val
        assert total == pytest.approx(moments.mean, abs=1e-6)

    def test_every_gap_lethal_reduces_to_erlang(self):
        params = ExpConstParams(2.0, 1e6, 3)
        for t in (0.2, 1.3, 4.0):
            erlang = 2.0**3 * t**2 * math.exp(-2.0 * t) / math.factorial(2)
            assert exp_const_pdf(params, t) == pytest.approx(erlang, rel=1e-12)


class TestSeriesCdf:
    @pytest.mark.parametrize("lam,tau,k", [(1.0, 1.0, 1), (1.0, 1.0, 2), (1.0, 0.5, 2), (2.0, 0.4, 3)])
    def test_matches_quadrature_of_pdf(self, lam, tau, k):
        params = ExpConstParams(lam, tau, k)
        for t in (0.3, tau, 2.2, 5.7):
            assert exp_const_cdf(params, t) == pytest.approx(
                integrate_series_pdf(params, t), abs=1e-10)

    def test_limits(self):
        params = ExpConstParams(1.0, 1.0, 2)
        assert exp_const_cdf(params, 0.0) == 0.0
        assert exp_const_cdf(params, 200.0) == pytest.approx(1.0, abs=1e-12)


class TestExpConstMoments:
    def test_benchmark_values(self):
        assert exp_const_moments(ExpConstParams(1.0, LN2, 3)).mean == pytest.approx(6.0, abs=1e-12)
        assert exp_const_moments(ExpConstParams(1.0, LN2, 1)).variance == pytest.approx(
            4.0 * (1.0 + LN2), abs=1e-12)

    def test_every_gap_lethal_limit(self):
        moments = exp_const_moments(ExpConstParams(1.5, 1e6, 4))
        assert moments.mean == pytest.approx(4.0 / 1.5, rel=1e-12)
        assert moments.variance == pytest.approx(4.0 / 1.5**2, rel=1e-12)

    @pytest.mark.parametrize("lam,tau,k", [
        (1.0, LN2, 3), (0.7, 0.4, 1), (2.2, 1.5, 6), (1.0, 3.0, 2),
    ])
    def test_agrees_with_general_formula(self, lam, tau, k):
        params = ExpConstParams(lam, tau, k)
        closed = exp_const_moments(params)
        general = params.to_model().failure_moments()
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
        assert unif_const_mean(UnifConstParams(0.0, 2.0, 1.0, 2)) == pytest.approx(4.0, abs=1e-12)
        assert unif_const_mean(UnifConstParams(1.0, 3.0, 2.0, 1)) == pytest.approx(4.0, abs=1e-12)

    def test_mean_matches_general_formula(self):
        for params in (UnifConstParams(0.0, 2.0, 1.0, 2), UnifConstParams(0.5, 2.5, 1.1, 3)):
            general = params.to_model().failure_moments().mean
            assert unif_const_mean(params) == pytest.approx(general, rel=1e-10)

    def test_threshold_near_upper_gives_plain_sum(self):
        params = UnifConstParams(0.0, 2.0, 2.0 - 1e-9, 3)
        assert unif_const_mean(params) == pytest.approx(3.0 * 1.0, rel=1e-8)

    def test_variance_disagreement_on_benchmark(self):
        params = UnifConstParams(0.0, 2.0, 1.0, 1)
        assert unif_const_variance_general(params) == pytest.approx(14.0 / 3.0, abs=1e-10)
        assert unif_const_variance_published(params) == pytest.approx(7.0 / 3.0, abs=1e-12)
        comparison = unif_const_variance_comparison(params)
        assert comparison.absolute_difference == pytest.approx(7.0 / 3.0, abs=1e-9)

    def test_general_variance_linear_in_hit_count(self):
        one = unif_const_variance_general(UnifConstParams(0.0, 2.0, 1.0, 1))
        five = unif_const_variance_general(UnifConstParams(0.0, 2.0, 1.0, 5))
        assert five == pytest.approx(5.0 * one, rel=1e-12)

    def test_published_formula_arithmetic(self):
        # mu1 = 1, mu2 = 4/3: k (2*mu2*1 + 1*(4 - 2)) / (2*1*1) = (8/3 + 2)/2
        assert unif_const_variance_published(UnifConstParams(0.0, 2.0, 1.0, 1)) == pytest.approx(
            (8.0 / 3.0 + 2.0) / 2.0, abs=1e-14)

    @pytest.mark.parametrize("build", [
        lambda: UnifConstParams(0.0, 2.0, 0.0, 1),
        lambda: UnifConstParams(0.0, 2.0, 2.0, 1),
        lambda: UnifConstParams(0.0, 2.0, 2.5, 1),
        lambda: UnifConstParams(1.0, 0.5, 0.7, 1),
        lambda: UnifConstParams(0.0, 2.0, 1.0, 0),
    ])
    def test_validation(self, build):
        with pytest.raises(ValueError):
            build()


class TestExpConstValidation:
    @pytest.mark.parametrize("build", [
        lambda: ExpConstParams(0.0, 1.0, 1),
        lambda: ExpConstParams(1.0, 0.0, 1),
        lambda: ExpConstParams(1.0, 1.0, 0),
        lambda: ExpConstParams(1.0, 1.0, 1.5),
    ])
    def test_validation(self, build):
        with pytest.raises(ValueError):
            build()

    def test_lethal_prob(self):
        assert ExpConstParams(1.0, LN2, 1).lethal_prob == pytest.approx(0.5, abs=1e-15)

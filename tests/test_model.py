"""Shock-model checks: lethality, conditional gap laws, counts, moments."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from deltashock import (
    Constant,
    Exponential,
    ShockModel,
    Uniform,
    UnrealizableModelError,
    weighted_laplace,
)
from foreign_laws import tail_bound

LN2 = math.log(2.0)

MODELS = [
    ShockModel(1, Exponential(1.0), Constant(1.0)),
    ShockModel(3, Exponential(1.0), Constant(LN2)),
    ShockModel(2, Uniform(0.0, 2.0), Constant(1.0)),
    ShockModel(2, Exponential(1.0), Exponential(0.7)),
    ShockModel(1, Uniform(0.5, 2.5), Uniform(0.8, 1.6)),
]


def nonlethal_density(model, t):
    """Density of a gap conditional on being non-lethal (Z > delta): f G / q."""
    return model.arrivals.density(t) * np.asarray(model.threshold.cdf(t)) / model.survive_prob


def nonlethal_gap_mean(model):
    """E(Z | Z > delta): the non-lethal branch's first moment over q."""
    moment = weighted_laplace(model.arrivals, model.threshold, 0.0, "cdf", order=1).real
    return moment / model.survive_prob


def pmf_by_enumeration(k, p, n):
    """Oracle: enumerate gap classifications whose n-th entry is the k-th lethal."""
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        if bits[-1] == 1 and sum(bits) == k:
            total += p**k * (1 - p) ** (n - k)
    return total


class TestLethalProb:
    def test_exponential_constant(self):
        model = ShockModel(1, Exponential(1.0), Constant(LN2))
        assert model.lethal_prob == pytest.approx(0.5, abs=1e-14)

    def test_monte_carlo_cross_check(self):
        model = ShockModel(1, Exponential(1.0), Constant(LN2))
        rng = np.random.default_rng(99)
        gaps = model.arrivals.sample(rng, size=1_000_000)
        thresholds = model.threshold.sample(rng, size=1_000_000)
        empirical = np.mean(gaps <= thresholds)
        se = math.sqrt(0.5 * 0.5 / 1_000_000)
        assert abs(empirical - model.lethal_prob) <= 3 * se

    def test_uniform_constant_midpoint(self):
        assert ShockModel(1, Uniform(0.0, 2.0), Constant(1.0)).lethal_prob == pytest.approx(0.5, abs=1e-14)

    def test_threshold_above_support(self):
        assert ShockModel(2, Uniform(0.0, 2.0), Constant(5.0)).lethal_prob == 1.0
        assert ShockModel(2, Exponential(1.0), Constant(1e9)).lethal_prob == 1.0

    def test_threshold_below_support_rejected(self):
        with pytest.raises(UnrealizableModelError):
            ShockModel(1, Uniform(1.0, 2.0), Constant(0.5))

    def test_random_threshold(self):
        # P(Z <= delta) = lam/(lam + rho) for exponential gap and threshold
        model = ShockModel(1, Exponential(2.0), Exponential(1.0))
        assert model.lethal_prob == pytest.approx(2.0 / 3.0, abs=1e-9)


class TestConditionalDensities:
    def test_alpha_vanishes_below_constant_threshold(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        assert nonlethal_density(model, 0.5) == 0.0

    def test_beta_shape_and_normalizer(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        p = 1.0 - math.exp(-1.0)
        assert model.beta_density(0.5) == pytest.approx(math.exp(-0.5) / p, abs=1e-12)
        assert model.beta_density(2.0) == 0.0

    @pytest.mark.parametrize("model", MODELS[:4])
    def test_both_integrate_to_one(self, model):
        upper = tail_bound(model.arrivals)
        points = [p for p in {*model.arrivals.breakpoints(), *model.threshold.breakpoints()}
                  if 0 < p < upper]
        for density in (functools.partial(nonlethal_density, model), model.beta_density):
            total, _ = integrate.quad(lambda t: float(density(t)), 0, upper,
                                      points=sorted(points) or None,
                                      epsabs=1e-12, epsrel=1e-10, limit=300)
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("model", MODELS)
    def test_mixture_reconstructs_gap_density(self, model):
        p, q = model.lethal_prob, model.survive_prob
        for t in np.linspace(0.01, tail_bound(model.arrivals), 60):
            alpha = 0.0 if q == 0.0 else float(nonlethal_density(model, t))
            mix = p * float(model.beta_density(t)) + q * alpha
            assert mix == pytest.approx(float(model.arrivals.density(t)), abs=1e-12)


class TestShockCountPmf:
    def test_all_lethal_path(self):
        model = ShockModel(3, Exponential(1.0), Constant(LN2))
        assert model.shock_count_pmf(3) == pytest.approx(0.125, abs=1e-12)

    def test_against_enumeration(self):
        model = ShockModel(3, Exponential(1.0), Constant(LN2))
        assert model.shock_count_pmf(4) == pytest.approx(0.1875, abs=1e-12)
        for n in range(3, 9):
            assert model.shock_count_pmf(n) == pytest.approx(
                pmf_by_enumeration(3, model.lethal_prob, n), abs=1e-12)

    def test_geometric_at_one_hit(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        p = model.lethal_prob
        for n in range(1, 12):
            assert model.shock_count_pmf(n) == pytest.approx(p * (1 - p) ** (n - 1), rel=1e-12)

    def test_below_support_is_zero(self):
        assert ShockModel(3, Exponential(1.0), Constant(1.0)).shock_count_pmf(2) == 0.0

    @pytest.mark.parametrize("model", MODELS[:4])
    def test_matches_scipy_negative_binomial(self, model):
        k, p = model.k, model.lethal_prob
        for n in range(k, k + 15):
            assert model.shock_count_pmf(n) == pytest.approx(
                stats.nbinom.pmf(n - k, k, p), rel=1e-10)

    @pytest.mark.parametrize("lam,tau,k", [(1.0, LN2, 3), (1.0, 0.10536051565782628, 2), (2.0, 1.0, 5)])
    def test_partial_sum_reaches_one(self, lam, tau, k):
        model = ShockModel(k, Exponential(lam), Constant(tau))
        n_max = k + math.ceil(50.0 / model.lethal_prob)
        total = sum(model.shock_count_pmf(n) for n in range(k, n_max + 1))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_all_lethal(self):
        model = ShockModel(4, Exponential(1.0), Constant(1e9))
        assert model.shock_count_pmf(4) == 1.0
        assert model.shock_count_pmf(5) == 0.0


class TestFailureMoments:
    def test_benchmark_mean(self):
        model = ShockModel(3, Exponential(1.0), Constant(LN2))
        assert model.failure_moments().mean == pytest.approx(6.0, abs=1e-12)

    def test_benchmark_variance_single_hit(self):
        model = ShockModel(1, Exponential(1.0), Constant(LN2))
        assert model.failure_moments().variance == pytest.approx(4.0 * (1.0 + LN2), abs=1e-12)

    def test_every_gap_lethal_reduces_to_plain_sum(self):
        lam, k = 2.0, 3
        model = ShockModel(k, Exponential(lam), Constant(1e9))
        moments = model.failure_moments()
        assert moments.mean == pytest.approx(k / lam, abs=1e-12)
        assert moments.variance == pytest.approx(k / lam**2, abs=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_linear_in_hit_count(self, model):
        one = ShockModel(1, model.arrivals, model.threshold).failure_moments()
        many = ShockModel(7, model.arrivals, model.threshold).failure_moments()
        assert many.mean == pytest.approx(7 * one.mean, rel=1e-14)
        assert many.variance == pytest.approx(7 * one.variance, rel=1e-14)
        assert many.segment_mean == pytest.approx(one.segment_mean, rel=1e-14)

    @pytest.mark.parametrize("model", MODELS)
    def test_single_hit_mean_is_gap_mean_over_p(self, model):
        single = ShockModel(1, model.arrivals, model.threshold)
        expected = single.arrivals.raw_moment(1) / single.lethal_prob
        assert single.failure_moments().mean == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_variance_positive(self, model):
        assert model.failure_moments().variance > 0.0


class TestNonlethalGapMean:
    def test_memoryless_overshoot(self):
        model = ShockModel(1, Exponential(1.3), Constant(0.9))
        assert nonlethal_gap_mean(model) == pytest.approx(0.9 + 1.0 / 1.3, abs=1e-12)
        # same value through the generic conditional-density route
        quad_val, _ = integrate.quad(lambda t: t * float(nonlethal_density(model, t)),
                                     0, tail_bound(model.arrivals), points=[0.9], limit=300)
        assert nonlethal_gap_mean(model) == pytest.approx(quad_val, abs=1e-9)

    def test_uniform_tail_midpoint(self):
        model = ShockModel(1, Uniform(0.0, 2.0), Constant(1.0))
        assert nonlethal_gap_mean(model) == pytest.approx(1.5, abs=1e-10)


class TestValidation:
    @pytest.mark.parametrize("k", [0, -1, 1.5, "2", True])
    def test_bad_hit_count(self, k):
        with pytest.raises(ValueError):
            ShockModel(k, Exponential(1.0), Constant(1.0))

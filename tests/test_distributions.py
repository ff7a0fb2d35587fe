"""Law-level checks: densities, cdfs, sampling, moments, weighted transforms."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import integrate

from deltashock import (
    ArrivalLaw,
    Constant,
    Exponential,
    ShockModel,
    Uniform,
    ks_statistic,
    laplace_h,
    weighted_laplace,
)
from deltashock.distributions import (
    TAIL_EPS,
    _weighted_laplace_quad,
    weighted_time_integral,
)

LAW_PAIRS = [
    (Exponential(1.0), Constant(1.0)),
    (Uniform(0.5, 2.0), Constant(1.2)),
    (Exponential(1.0), Exponential(0.7)),
    (Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
]


# Every built-in arrival/threshold pair.
BUILTIN_PAIRS = [
    (Exponential(1.1), Constant(0.9)),
    (Uniform(0.3, 2.1), Constant(1.0)),
    (Exponential(1.1), Exponential(0.7)),
    (Exponential(1.1), Uniform(0.5, 1.5)),
    (Uniform(0.3, 2.1), Exponential(0.7)),
    (Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
]


@dataclass(frozen=True)
class Gamma2(ArrivalLaw):
    """Gamma(2, rate) gaps: a law without pieces, so it takes the quadrature path."""

    rate: float

    def density(self, t):
        self._check_nonnegative(t)
        t = np.asarray(t, dtype=float)
        return (self.rate**2 * t * np.exp(-self.rate * t))[()]

    def cdf(self, t):
        t = np.maximum(np.asarray(t, dtype=float), 0.0)
        return (1.0 - (1.0 + self.rate * t) * np.exp(-self.rate * t))[()]

    def sample(self, rng, size=None):
        return rng.gamma(2.0, 1.0 / self.rate, size=size)

    def raw_moment(self, order):
        self._check_order(order)
        return 2.0 / self.rate if order == 1 else 6.0 / self.rate**2

    def upper_cutoff(self, eps=TAIL_EPS):
        # (1 + x) exp(-x) < eps well before x = -2 ln(eps)
        return -2.0 * math.log(eps) / self.rate


def direct_weighted_quad(arrival, threshold, s, weight, order=0, upper=None):
    """Independent oracle: plain quadrature of t^order exp(-st) f(t) w(t)."""
    w_fn = threshold.survival if weight == "survival" else threshold.cdf
    upper = arrival.upper_cutoff() if upper is None else upper
    points = [p for p in (*arrival.breakpoints(), *threshold.breakpoints()) if 0 < p < upper] or None

    def part(trig):
        return integrate.quad(
            lambda t: t**order * math.exp(-s.real * t) * trig(s.imag * t)
            * float(arrival.density(t)) * float(w_fn(t)),
            0.0, upper, points=points, epsabs=1e-13, epsrel=1e-12, limit=500)[0]

    return complex(part(math.cos), -part(math.sin))


def numeric_density(law, t, h=1e-6):
    """Independent oracle: centered difference of the cdf."""
    return (law.cdf(t + h) - law.cdf(t - h)) / (2.0 * h)


def plain_transform_quad(arrival, s):
    """Independent oracle: direct quadrature of exp(-st) f(t)."""
    upper = arrival.upper_cutoff()
    points = [p for p in arrival.breakpoints() if 0 < p < upper] or None
    re, _ = integrate.quad(
        lambda t: math.exp(-s.real * t) * math.cos(s.imag * t) * float(arrival.density(t)),
        0, upper, points=points, epsabs=1e-13, epsrel=1e-12, limit=300)
    im, _ = integrate.quad(
        lambda t: -math.exp(-s.real * t) * math.sin(s.imag * t) * float(arrival.density(t)),
        0, upper, points=points, epsabs=1e-13, epsrel=1e-12, limit=300)
    return complex(re, im)


class TestDensity:
    def test_exponential_at_zero(self):
        assert Exponential(1.0).density(0.0) == 1.0

    def test_uniform_inside_support(self):
        assert Uniform(0.0, 2.0).density(1.0) == 0.5

    def test_uniform_outside_support(self):
        assert Uniform(0.5, 2.0).density(0.2) == 0.0
        assert Uniform(0.5, 2.0).density(3.0) == 0.0

    def test_exponential_value_against_cdf_slope(self):
        law = Exponential(2.0)
        assert law.density(1.0) == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)
        assert law.density(1.0) == pytest.approx(numeric_density(law, 1.0), abs=1e-8)

    @pytest.mark.parametrize("law", [Exponential(1.3), Uniform(0.0, 2.0)])
    def test_rejects_negative_t(self, law):
        with pytest.raises(ValueError):
            law.density(-0.5)
        with pytest.raises(ValueError):
            law.density(np.array([0.5, -0.1]))

    @pytest.mark.parametrize("law", [Exponential(0.6), Exponential(2.5), Uniform(0.0, 2.0), Uniform(1.0, 4.5)])
    def test_density_integrates_to_one(self, law):
        upper = law.upper_cutoff()
        points = [p for p in law.breakpoints() if 0 < p < upper] or None
        total, _ = integrate.quad(lambda t: float(law.density(t)), 0, upper,
                                  points=points, epsabs=1e-12, epsrel=1e-10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCdf:
    def test_constant_threshold_step(self):
        thr = Constant(1.0)
        assert thr.survival(0.5) == 1.0
        # boundary counts as crossed: survival hits 0 exactly at tau
        assert thr.survival(1.0) == 0.0
        assert thr.cdf(1.0) == 1.0

    def test_exponential_median(self):
        law = Exponential(1.0)
        assert law.cdf(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)
        quad_val, _ = integrate.quad(lambda t: float(law.density(t)), 0, math.log(2.0))
        assert law.cdf(math.log(2.0)) == pytest.approx(quad_val, abs=1e-12)

    @pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.5, 2.0), Constant(0.8)])
    def test_survival_complements_cdf(self, law):
        for t in np.linspace(0.0, 5.0, 41):
            assert float(law.survival(t)) == pytest.approx(1.0 - float(law.cdf(t)), abs=0.0)

    @pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.5, 2.0)])
    def test_cdf_monotone_with_limits(self, law):
        grid = np.linspace(0.0, 50.0, 500)
        vals = np.array([float(law.cdf(t)) for t in grid])
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_constant_is_degenerate(self):
        rng = np.random.default_rng(0)
        assert Constant(1.0).sample(rng) == 1.0
        assert np.all(Constant(1.0).sample(rng, size=100) == 1.0)

    def test_exponential_mean_clt_band(self):
        rng = np.random.default_rng(2024)
        draws = Exponential(1.0).sample(rng, size=1_000_000)
        # 3 sigma / sqrt(n) with sigma = 1
        assert abs(draws.mean() - 1.0) < 4e-3

    def test_uniform_support_and_mean(self):
        rng = np.random.default_rng(2025)
        draws = Uniform(0.0, 2.0).sample(rng, size=1_000_000)
        assert np.all((draws > 0.0) & (draws < 2.0))
        assert abs(draws.mean() - 1.0) < 2e-3

    @pytest.mark.parametrize("law", [Exponential(1.0), Exponential(0.3), Uniform(0.7, 2.2), Uniform(0.0, 1.0)])
    def test_samples_match_cdf_by_ks(self, law):
        rng = np.random.default_rng(7)
        draws = law.sample(rng, size=100_000)
        d = ks_statistic(draws, lambda x: np.asarray(law.cdf(x)))
        assert d < 1.63 / math.sqrt(len(draws))


class TestRawMoments:
    def test_exponential(self):
        assert Exponential(1.0).raw_moment(2) == 2.0
        assert Exponential(2.0).raw_moment(1) == 0.5

    def test_uniform_second_moment_against_quadrature(self):
        law = Uniform(0.0, 2.0)
        quad_val, _ = integrate.quad(lambda t: t * t * float(law.density(t)), 0.0, 2.0)
        assert law.raw_moment(2) == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert law.raw_moment(2) == pytest.approx(quad_val, abs=1e-12)

    def test_uniform_midpoint(self):
        assert Uniform(1.0, 3.0).raw_moment(1) == 2.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            Exponential(1.0).raw_moment(3)


class TestValidation:
    @pytest.mark.parametrize("build", [
        lambda: Exponential(0.0),
        lambda: Exponential(-1.0),
        lambda: Uniform(-0.5, 1.0),
        lambda: Uniform(2.0, 1.0),
        lambda: Uniform(1.0, 1.0),
        lambda: Constant(0.0),
    ])
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestWeightedLaplace:
    def test_exponential_constant_closed_form(self):
        lam, tau = 1.3, 0.8
        arrival, threshold = Exponential(lam), Constant(tau)
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = complex(rng.uniform(0, 3), rng.uniform(-4, 4))
            expected = (lam / (s + lam)) * (1.0 - np.exp(-(s + lam) * tau))
            got = weighted_laplace(arrival, threshold, s, "survival")
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("arrival,threshold", BUILTIN_PAIRS)
    @pytest.mark.parametrize("weight", ["survival", "cdf"])
    def test_closed_form_matches_quadrature(self, arrival, threshold, weight):
        rng = np.random.default_rng(11)
        points = [0.0, -1e-4, -1e-2, complex(0.01, 30.0), complex(0.3, -30.0)]
        points += [complex(rng.uniform(0, 2.5), rng.uniform(-30, 30)) for _ in range(10)]
        for s in points:
            closed = weighted_laplace(arrival, threshold, s, weight)
            quad_val = _weighted_laplace_quad(arrival, threshold, complex(s), weight)
            assert closed == pytest.approx(quad_val, rel=1e-8, abs=1e-10)
        for upper in (0.2, 0.9, 1.7, 6.0):
            closed = weighted_time_integral(arrival, threshold, upper, weight)
            quad_val = _weighted_laplace_quad(arrival, threshold, 0j, weight, upper=upper)
            assert closed == pytest.approx(quad_val.real, rel=1e-8, abs=1e-10)
        first = weighted_laplace(arrival, threshold, 0.0, weight, order=1)
        quad_val = _weighted_laplace_quad(arrival, threshold, 0j, weight, order=1)
        assert first == pytest.approx(quad_val, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("arrival,threshold", BUILTIN_PAIRS)
    def test_builtin_pairs_never_reach_quadrature(self, arrival, threshold, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a built-in pair reached integrate.quad")

        monkeypatch.setattr(integrate, "quad", refuse)
        model = ShockModel(2, arrival, threshold)
        model.failure_moments()
        model.mean_nonlethal_gap()
        laplace_h(model, complex(0.4, 3.0))
        for weight in ("survival", "cdf"):
            weighted_laplace(arrival, threshold, complex(0.2, -7.0), weight)
            weighted_time_integral(arrival, threshold, 1.3, weight)

    @pytest.mark.parametrize("arrival,threshold", LAW_PAIRS)
    def test_weights_sum_to_plain_transform(self, arrival, threshold):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = complex(rng.uniform(0, 3), rng.uniform(-5, 5))
            total = (weighted_laplace(arrival, threshold, s, "survival")
                     + weighted_laplace(arrival, threshold, s, "cdf"))
            assert abs(total - plain_transform_quad(arrival, s)) < 1e-8

    def test_huge_constant_threshold_kills_cdf_weight(self):
        for arrival in (Exponential(1.0), Uniform(0.0, 2.0)):
            assert weighted_laplace(arrival, Constant(1e12), 0.0, "cdf") == 0.0

    def test_survival_weight_at_zero_is_lethal_mass(self):
        got = weighted_laplace(Exponential(1.0), Constant(1.0), 0.0, "survival")
        assert got.real == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        quad_val = _weighted_laplace_quad(Exponential(1.0), Constant(1.0), 0.0, "survival")
        assert got == pytest.approx(quad_val, abs=1e-10)

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_laplace(Exponential(1.0), Constant(1.0), 0.0, "pdf")


class TestQuadratureFallback:
    @pytest.mark.parametrize("threshold", [Constant(0.8), Exponential(0.7), Uniform(0.5, 1.5)])
    @pytest.mark.parametrize("weight", ["survival", "cdf"])
    def test_foreign_law_matches_direct_quadrature(self, threshold, weight):
        arrival = Gamma2(1.3)
        for s in (0j, complex(-1e-2, 0.0), complex(0.4, 2.0), complex(1.0, -15.0)):
            got = weighted_laplace(arrival, threshold, s, weight)
            assert got == pytest.approx(direct_weighted_quad(arrival, threshold, s, weight), abs=1e-9)
        for t in (0.3, 1.2, 4.0):
            got = weighted_time_integral(arrival, threshold, t, weight)
            expected = direct_weighted_quad(arrival, threshold, 0j, weight, upper=t).real
            assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("threshold", [Constant(0.8), Exponential(0.7), Uniform(0.5, 1.5)])
    def test_foreign_law_mean_nonlethal_gap(self, threshold):
        model = ShockModel(2, Gamma2(1.3), threshold)
        moment = direct_weighted_quad(model.arrivals, threshold, 0j, "cdf", order=1).real
        assert model.mean_nonlethal_gap() == pytest.approx(moment / model.survive_prob, rel=1e-9)


# Nodes with |s| below and above 1, so that both branches of _phi_powers run
# within one array.
ARRAY_NODES = np.array([[0.0, -1e-2, 0.05 + 0.3j, 0.4 - 0.8j],
                        [0.02 + 2.0j, 1.0 - 15.0j, 3.0 + 40.0j, 0.5 + 0.1j]])


@pytest.mark.parametrize("arrival,threshold", BUILTIN_PAIRS + [(Gamma2(1.3), Uniform(0.5, 1.5))])
@pytest.mark.parametrize("weight", ["survival", "cdf"])
@pytest.mark.parametrize("order", [0, 1])
def test_array_transform_matches_scalar(arrival, threshold, weight, order):
    got = weighted_laplace(arrival, threshold, ARRAY_NODES, weight, order=order)
    assert got.shape == ARRAY_NODES.shape
    for s, value in zip(ARRAY_NODES.ravel().tolist(), got.ravel()):
        expected = weighted_laplace(arrival, threshold, s, weight, order=order)
        assert type(expected) is complex
        assert abs(value - expected) <= 1e-14 * abs(expected)


class TestWeightedTimeIntegral:
    def test_exponential_constant_against_quadrature(self):
        arrival, threshold = Exponential(1.2), Constant(0.7)
        for t in (0.3, 0.7, 1.5, 10.0):
            for weight in ("survival", "cdf"):
                w_fn = threshold.survival if weight == "survival" else threshold.cdf
                expected, _ = integrate.quad(
                    lambda u: float(arrival.density(u)) * float(w_fn(u)),
                    0.0, t, points=[0.7] if t > 0.7 else None)
                got = weighted_time_integral(arrival, threshold, t, weight)
                assert got == pytest.approx(expected, abs=1e-10)

    def test_full_mass_recovers_weighted_transform_at_zero(self):
        for arrival, threshold in LAW_PAIRS:
            full = weighted_time_integral(arrival, threshold, arrival.upper_cutoff() + 1.0, "survival")
            assert full == pytest.approx(
                weighted_laplace(arrival, threshold, 0.0, "survival").real, abs=1e-9)

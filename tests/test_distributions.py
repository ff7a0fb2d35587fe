"""Law-level checks: densities, cdfs, sampling, moments, weighted transforms."""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from deltashock import (
    ArrivalLaw,
    Constant,
    Exponential,
    ProbabilityLaw,
    ShockModel,
    Uniform,
    ks_statistic,
    lethal_density,
    weighted_laplace,
)
from foreign_laws import Gamma2, tail_bound

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


def direct_weighted_quad(arrival, threshold, s, weight, order=0, upper=None):
    """Independent oracle: plain quadrature of t^order exp(-st) f(t) w(t)."""
    w_fn = threshold.survival if weight == "survival" else threshold.cdf
    upper = tail_bound(arrival) if upper is None else upper
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
    upper = tail_bound(arrival)
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
        upper = tail_bound(law)
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
        # the survival pieces are primary: the cdf is their exact complement
        for t in np.linspace(0.0, 5.0, 41):
            assert float(law.cdf(t)) == 1.0 - float(law.survival(t))

    @pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.5, 2.0)])
    def test_cdf_monotone_with_limits(self, law):
        grid = np.linspace(0.0, 50.0, 500)
        vals = np.array([float(law.cdf(t)) for t in grid])
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)


EPS = 2.0**-53
RATES = st.floats(min_value=0.01, max_value=50.0)
LOWERS = st.floats(min_value=0.0, max_value=10.0)
WIDTHS = st.floats(min_value=1e-4, max_value=10.0)
NEGATIVE_TIMES = np.array([-math.inf, -1e300, -10.0, -1.0, -1e-300, -0.0])


class TestDerivedFromPieces:
    """Density, survival and cdf are sums over a law's pieces; these are the
    closed forms the built-in laws used to state by hand, as references that
    the pieces describe the named law."""

    @settings(max_examples=300, deadline=None)
    @given(RATES)
    def test_exponential(self, rate):
        law = Exponential(rate)
        t = np.linspace(0.0, 40.0 / rate, 1001)
        assert np.array_equal(law.density(t), rate * np.exp(-rate * t))
        assert np.array_equal(law.survival(t), np.exp(-rate * t))
        assert np.max(np.abs(law.cdf(t) + np.expm1(-rate * t))) <= 2.0 * EPS

    @settings(max_examples=300, deadline=None)
    @given(LOWERS, WIDTHS)
    def test_uniform(self, lower, width):
        law = Uniform(lower, lower + width)
        upper, width = law.upper, law.upper - law.lower
        t = np.concatenate([np.linspace(0.0, upper + width, 1001),
                            [lower, np.nextafter(lower, 0.0), upper, np.nextafter(upper, 0.0)]])
        # half-open like rng.uniform: the density is 0 at upper
        inside = (lower <= t) & (t < upper)
        assert np.array_equal(law.density(t), np.where(inside, 1.0 / width, 0.0))
        assert law.density(upper) == 0.0
        clipped = np.clip((t - lower) / width, 0.0, 1.0)
        assert np.max(np.abs(law.cdf(t) - clipped)) <= 4.0 * EPS * (upper / width + 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=20.0))
    def test_constant(self, tau):
        law = Constant(tau)
        t = np.concatenate([np.linspace(0.0, 2.0 * tau, 1001), [tau, np.nextafter(tau, 0.0)]])
        assert np.array_equal(law.survival(t), np.where(t < tau, 1.0, 0.0))
        assert np.array_equal(law.cdf(t), np.where(t >= tau, 1.0, 0.0))

    @settings(max_examples=300, deadline=None)
    @given(RATES)
    def test_gamma2(self, rate):
        # Gamma2's density r^2 t e^(-r t) and cdf 1 - (1 + r t) e^(-r t)
        law = Gamma2(rate)
        t = np.linspace(0.0, 40.0 / rate, 1001)
        assert np.array_equal(law.density(t), rate**2 * t * np.exp(-rate * t))
        reference = 1.0 - (1.0 + rate * t) * np.exp(-rate * t)
        assert np.max(np.abs(law.cdf(t) - reference)) <= 2.0 * EPS

    @settings(max_examples=300, deadline=None)
    @given(RATES, LOWERS, WIDTHS)
    def test_every_law_below_zero(self, rate, lower, width):
        for law in (Exponential(rate), Uniform(lower, lower + width), Constant(lower + width),
                    Gamma2(rate)):
            assert np.array_equal(law.survival(NEGATIVE_TIMES), np.ones(NEGATIVE_TIMES.shape))
            assert np.array_equal(law.cdf(NEGATIVE_TIMES), np.zeros(NEGATIVE_TIMES.shape))


def ulp_distance(value: float, exact) -> int:
    """How many doubles lie between value and exact rounded to a double, both
    nonnegative."""
    as_int = lambda x: int(np.array(x, dtype=np.float64).view(np.int64))
    return abs(as_int(value) - as_int(float(exact)))


def mp_uniform_survival(lower, upper):
    lower, upper = mpmath.mpf(lower), mpmath.mpf(upper)
    return lambda t: 1 if t < lower else (upper - t) / (upper - lower) if t < upper else 0


class TestLethalDensity:
    """f times the threshold survival, the k = 1 inversion's density head,
    against 40-digit values at the same float times."""

    @pytest.mark.parametrize("arrival,threshold,density,survival,ulps", [
        (Exponential(1.0), Exponential(0.7), lambda t: mpmath.exp(-t),
         lambda t: mpmath.exp(-mpmath.mpf(0.7) * t), 2),
        (Exponential(1.0), Uniform(0.2, 1.0), lambda t: mpmath.exp(-t),
         mp_uniform_survival(0.2, 1.0), 34),
        (Uniform(0.0, 2.0), Uniform(0.5, 1.5), lambda t: mpmath.mpf(0.5),
         mp_uniform_survival(0.5, 1.5), 0),
    ])
    def test_against_mpmath(self, arrival, threshold, density, survival, ulps):
        ts = np.linspace(0.01, 1.99, 397)
        got = lethal_density(arrival, threshold, ts)
        with mpmath.workdps(40):
            worst = max(ulp_distance(value, density(mpmath.mpf(t)) * survival(mpmath.mpf(t)))
                        for t, value in zip(ts.tolist(), got.tolist()))
        assert worst <= ulps

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            lethal_density(Exponential(1.0), Constant(1.0), np.array([0.5, -0.1]))


POSITIVE = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def laws_with_hand_corners(draw):
    """A law and the corners that its breakpoints listed when Uniform and
    Constant wrote them out by hand (the others listed none)."""
    kind = draw(st.sampled_from(["uniform", "constant", "exponential", "gamma2"]))
    if kind == "uniform":
        bounds = st.floats(min_value=0.0, max_value=1e300)
        lower, upper = sorted(draw(st.lists(bounds, min_size=2, max_size=2, unique=True)))
        return Uniform(lower, upper), (lower, upper)
    if kind == "constant":
        tau = draw(POSITIVE)
        return Constant(tau), (tau,)
    return (Exponential if kind == "exponential" else Gamma2)(draw(POSITIVE)), ()


class TestBreakpoints:
    @settings(max_examples=2000, deadline=None)
    @given(laws_with_hand_corners())
    def test_pieces_give_the_hand_written_corners(self, law_and_corners):
        # every caller keeps only the corners above 0
        law, corners = law_and_corners
        assert law.breakpoints() == tuple(p for p in corners if p != 0.0)


class TestSampling:
    def test_constant_is_degenerate(self):
        rng = np.random.default_rng(0)
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
        draws = np.sort(law.sample(rng, size=100_000))
        d = ks_statistic(draws, draws, law.cdf(draws))
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
        # JSON's Infinity: an infinite tau would make the closed-form density nan
        lambda: Exponential(math.inf),
        lambda: Uniform(0.0, math.inf),
        lambda: Constant(math.inf),
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
            quad_val = direct_weighted_quad(arrival, threshold, complex(s), weight)
            assert closed == pytest.approx(quad_val, rel=1e-8, abs=1e-10)
        for upper in (0.2, 0.9, 1.7, 6.0):
            closed = weighted_laplace(arrival, threshold, 0.0, weight, upper=upper).real
            quad_val = direct_weighted_quad(arrival, threshold, 0j, weight, upper=upper)
            assert closed == pytest.approx(quad_val.real, rel=1e-8, abs=1e-10)
        first = weighted_laplace(arrival, threshold, 0.0, weight, order=1)
        quad_val = direct_weighted_quad(arrival, threshold, 0j, weight, order=1)
        assert first == pytest.approx(quad_val, rel=1e-8, abs=1e-10)

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
        quad_val = direct_weighted_quad(Exponential(1.0), Constant(1.0), 0j, "survival")
        assert got == pytest.approx(quad_val, abs=1e-10)

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_laplace(Exponential(1.0), Constant(1.0), 0.0, "pdf")


class TestQuadratureFallback:
    """Gamma2, a law from outside the package, as arrival and as threshold
    law, against exact values and the tests' own quadrature."""

    def test_threshold_without_pieces(self):
        """Exponential(1) gaps under a Gamma(2, r) threshold, a threshold with
        a t e^-(r t) piece: the lethal branch is
        E(1 - e^-((1 + s) delta)) / (1 + s) = (1 - (r/(r+1+s))^2) / (1 + s)
        and the non-lethal one 1/(1 + s) less that."""
        arrival, r = Exponential(1.0), 1.5
        for s in (0j, complex(0.4, 3.0)):
            lethal = (1.0 - (r / (r + 1.0 + s)) ** 2) / (1.0 + s)
            got = weighted_laplace(arrival, Gamma2(r), s, "survival")
            assert got == pytest.approx(lethal, rel=1e-9)
            got = weighted_laplace(arrival, Gamma2(r), s, "cdf")
            assert got == pytest.approx(1.0 / (1.0 + s) - lethal, rel=1e-9)

    @pytest.mark.parametrize("threshold", [Constant(0.8), Exponential(0.7), Uniform(0.5, 1.5)])
    @pytest.mark.parametrize("weight", ["survival", "cdf"])
    def test_foreign_law_matches_direct_quadrature(self, threshold, weight):
        arrival = Gamma2(1.3)
        for s in (0j, complex(-1e-2, 0.0), complex(0.4, 2.0), complex(1.0, -15.0)):
            got = weighted_laplace(arrival, threshold, s, weight)
            assert got == pytest.approx(direct_weighted_quad(arrival, threshold, s, weight), abs=1e-9)
        for t in (0.3, 1.2, 4.0):
            got = weighted_laplace(arrival, threshold, 0.0, weight, upper=t).real
            expected = direct_weighted_quad(arrival, threshold, 0j, weight, upper=t).real
            assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("threshold", [Constant(0.8), Exponential(0.7), Uniform(0.5, 1.5)])
    def test_foreign_law_nonlethal_gap_mean(self, threshold):
        # E(Z; Z > delta) = q E(Z | Z > delta), the non-lethal branch's
        # first moment; a relative tolerance holds for both alike
        arrival = Gamma2(1.3)
        got = weighted_laplace(arrival, threshold, 0.0, "cdf", order=1).real
        moment = direct_weighted_quad(arrival, threshold, 0j, "cdf", order=1).real
        assert got == pytest.approx(moment, rel=1e-9)


@dataclass(frozen=True)
class GapsWithoutPieces(ArrivalLaw):
    """Gamma2 in every method but density_pieces."""

    rate: float
    sample, raw_moment, survival_pieces = Gamma2.sample, Gamma2.raw_moment, Gamma2.survival_pieces


@dataclass(frozen=True)
class ThresholdWithoutPieces(ProbabilityLaw):
    """Constant in every method but survival_pieces."""

    tau: float
    sample = Constant.sample


class TestLawsWithoutPieces:
    """The model's integrals are closed forms over the laws' pieces, so a law
    that gives none is refused as it is built, naming what it lacks."""

    def test_arrival_law_without_density_pieces(self):
        with pytest.raises(TypeError, match="density_pieces"):
            ShockModel(2, GapsWithoutPieces(1.3), Constant(0.8))

    def test_threshold_law_without_survival_pieces(self):
        with pytest.raises(TypeError, match="survival_pieces"):
            ShockModel(2, Exponential(1.0), ThresholdWithoutPieces(0.8))


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
    @pytest.mark.parametrize("arrival,threshold",
                             BUILTIN_PAIRS + [(Gamma2(1.3), Uniform(0.5, 1.5))])
    @pytest.mark.parametrize("weight", ["survival", "cdf"])
    def test_array_matches_scalar(self, arrival, threshold, weight):
        # times before, on and past every breakpoint of the pairs, and 0
        ts = np.array([0.0, 0.1, 0.3, 0.5, 0.9, 1.0, 1.2, 1.5, 2.0, 2.1, 3.7, 30.0])
        got = weighted_laplace(arrival, threshold, 0.0, weight, upper=ts).real
        assert got.shape == ts.shape
        for t, value in zip(ts.tolist(), got.tolist()):
            expected = weighted_laplace(arrival, threshold, 0.0, weight, upper=t).real
            assert type(expected) is float
            assert abs(value - expected) <= 1e-15 * abs(expected)

    def test_exponential_constant_against_quadrature(self):
        arrival, threshold = Exponential(1.2), Constant(0.7)
        for t in (0.3, 0.7, 1.5, 10.0):
            for weight in ("survival", "cdf"):
                w_fn = threshold.survival if weight == "survival" else threshold.cdf
                expected, _ = integrate.quad(
                    lambda u: float(arrival.density(u)) * float(w_fn(u)),
                    0.0, t, points=[0.7] if t > 0.7 else None)
                got = weighted_laplace(arrival, threshold, 0.0, weight, upper=t).real
                assert got == pytest.approx(expected, abs=1e-10)

    def test_full_mass_recovers_weighted_transform_at_zero(self):
        for arrival, threshold in LAW_PAIRS:
            full = weighted_laplace(arrival, threshold, 0.0, "survival",
                                    upper=tail_bound(arrival) + 1.0).real
            assert full == pytest.approx(
                weighted_laplace(arrival, threshold, 0.0, "survival").real, abs=1e-9)

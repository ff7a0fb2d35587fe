"""Normal approximation values and its error diagnostics."""

import math

import numpy as np
import pytest

from deltashock import (
    Constant,
    Exponential,
    NormalApprox,
    ShockModel,
    SimulationConfig,
    Uniform,
    approx_error,
    exp_const_cdf,
    exp_const_pdf,
    ks_statistic,
    run_batch,
)
from deltashock import gaussian


def model_approx(model):
    return NormalApprox.from_moments(model.failure_moments())


def make_approx(k):
    return model_approx(ShockModel(k, Exponential(1.0), Constant(1.0)))


class TestDensity:
    def test_peak_value(self):
        moments = ShockModel(50, Exponential(1.0), Constant(1.0)).failure_moments()
        approx = NormalApprox.from_moments(moments)
        sigma = math.sqrt(moments.segment_variance)
        expected = 1.0 / (sigma * math.sqrt(2.0 * math.pi * 50))
        assert approx.pdf(approx.center) == pytest.approx(expected, rel=1e-14)

    def test_benchmark_peak_parameterization(self):
        # half-mass threshold at 50 hits: center 100, segment variance 4(1+ln 2)
        model = ShockModel(50, Exponential(1.0), Constant(math.log(2.0)))
        approx = model_approx(model)
        sigma = math.sqrt(4.0 * (1.0 + math.log(2.0)))
        assert approx.center == pytest.approx(100.0, abs=1e-10)
        assert approx.pdf(100.0) == pytest.approx(1.0 / (sigma * math.sqrt(100.0 * math.pi)),
                                                  rel=1e-12)

    def test_one_sigma_point(self):
        approx = make_approx(10)
        peak = approx.pdf(approx.center)
        assert approx.pdf(approx.center + approx.scale) == pytest.approx(
            peak * math.exp(-0.5), rel=1e-13)

    def test_symmetry(self):
        approx = make_approx(3)
        for offset in (0.3, 1.7, 4.0):
            assert approx.pdf(approx.center + offset) == pytest.approx(
                approx.pdf(approx.center - offset), rel=1e-13)

    def test_center_cdf_is_half(self):
        approx = make_approx(5)
        assert approx.cdf(approx.center) == 0.5

    def test_scalar_cdf_is_a_scalar(self):
        approx = make_approx(5)
        for t in (approx.center, 0.3, np.float64(7.0), np.asarray(2.0)):
            value = approx.cdf(t)
            assert np.isscalar(value) and isinstance(value, np.float64)
        assert approx.cdf(np.linspace(0.1, 9.0, 6)).shape == (6,)
        assert approx.cdf(np.zeros((2, 3))).shape == (2, 3)

    def test_vectorized(self):
        approx = make_approx(2)
        grid = np.linspace(0.1, 10.0, 7)
        assert approx.pdf(grid).shape == (7,)
        assert np.all(np.diff(approx.cdf(grid)) > 0.0)

    @pytest.mark.parametrize("k, points", [(3, 7), (50, 200), (1, 100_003)])
    def test_grid_pdf_matches_each_point_bitwise(self, k, points):
        # analyze evaluates the normal column on the whole grid in one call
        approx = make_approx(k)
        grid = np.linspace(1e-3, approx.center + 6.0 * approx.scale, points)
        assert approx.pdf(grid).tolist() == [float(approx.pdf(t)) for t in grid.tolist()]

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            NormalApprox(center=1.0, scale=0.0)


class TestErf:
    """The cdf's erf is libm's math.erf, applied elementwise."""

    def test_within_one_ulp_of_the_exact_erf(self):
        mpmath = pytest.importorskip("mpmath")
        z = np.concatenate((np.linspace(-40.0, 40.0, 4001), np.geomspace(1e-300, 6.0, 501),
                            -np.geomspace(1e-300, 6.0, 501), [0.85624]))
        values = np.asarray(gaussian._erf(z), float)
        with mpmath.workprec(113):
            exact = [mpmath.erf(mpmath.mpf(float(v))) for v in z]
            errors = np.array([float(abs(mpmath.mpf(float(v)) - e)) for v, e in zip(values, exact)])
        assert np.max(errors / np.spacing(np.abs(np.array(exact, dtype=float)))) < 1.0

    def test_within_three_ulp_of_scipy(self):
        from scipy.special import erf

        z = np.linspace(-40.0, 40.0, 2_000_001)
        expected = erf(z)
        ulps = np.abs(np.asarray(gaussian._erf(z), float) - expected) / np.spacing(np.abs(expected))
        # scipy's own erf is 2.37 ulp from the exact value at z = 0.85624,
        # where libm's is 0.63 ulp from it
        assert np.max(ulps) <= 3.0
        assert np.mean(ulps <= 2.0) > 1.0 - 1e-5


class TestApproxError:
    def test_inversion_and_series_references_agree(self):
        model = ShockModel(5, Exponential(1.0), Constant(1.0))
        approx = model_approx(model)
        by_inversion = approx_error(model)
        grid = np.linspace(by_inversion.grid_lo, by_inversion.grid_hi, by_inversion.points)
        series_pdf = np.array([exp_const_pdf(model, t) for t in grid])
        series_cdf = np.array([exp_const_cdf(model, t) for t in grid])
        sup_norm = np.max(np.abs(approx.pdf(grid) - series_pdf))
        ks = np.max(np.abs(approx.cdf(grid) - series_cdf))
        assert by_inversion.ks_distance == pytest.approx(ks, abs=1e-3)
        assert by_inversion.sup_norm == pytest.approx(sup_norm, abs=1e-3)

    def test_grid_spans_five_scales_above_zero(self):
        model = ShockModel(5, Exponential(1.0), Constant(1.0))
        approx = model_approx(model)
        report = approx_error(model)
        assert report.points == 400
        # center - 5 scale < 0 here, so the grid starts just above 0
        assert report.grid_lo == 1e-9 * approx.scale
        assert report.grid_hi == approx.center + 5.0 * approx.scale

    @pytest.mark.parametrize("model", [
        ShockModel(1, Exponential(1.0), Constant(1.0)),
        ShockModel(3, Exponential(1.0), Exponential(1.0)),
        ShockModel(2, Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
    ], ids=["exp-const-k1", "exp-exp-k3", "unif-unif-k2"])
    def test_tracks_simulation(self, model):
        approx = model_approx(model)
        report = run_batch(model, SimulationConfig(runs=100_000, seed=31))
        by_inversion = approx_error(model)
        # the grid holds the KS supremum to within the sampling noise
        assert by_inversion.ks_distance == pytest.approx(ks_statistic(report, approx.cdf),
                                                         abs=0.01)
        if model.k == 1:
            # the single-hit law is badly non-Gaussian; both routes must say so
            assert by_inversion.ks_distance > 0.15

    @pytest.mark.parametrize("arrivals,threshold", [
        (Exponential(1.0), Exponential(1.0)),
        (Uniform(0.5, 2.5), Constant(1.1)),
    ], ids=["exp-exp", "unif-const"])
    def test_ks_ladder_is_nonincreasing(self, arrivals, threshold):
        distances = []
        for k in (1, 5, 20, 100):
            model = ShockModel(k, arrivals, threshold)
            distances.append(approx_error(model).ks_distance)
        assert all(a >= b for a, b in zip(distances, distances[1:]))

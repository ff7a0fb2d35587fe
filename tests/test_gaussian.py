"""Normal approximation values, and the error analyze reports for it."""

import csv
import json
import math

import numpy as np
import pytest

from deltashock import (
    Constant,
    Exponential,
    GridInversion,
    InversionError,
    NormalApprox,
    ShockModel,
    SimulationConfig,
    Uniform,
    exp_const_cdf,
    exp_const_pdf,
    ks_statistic,
    run_batch,
)
from deltashock import cli, gaussian
from deltashock.cli import EXIT_OK, OutputSpec, RunConfig, cmd_analyze


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


def analyze_block(tmp_path, model):
    """cmd_analyze on the model's default grid: the summary's normal error
    block, and the rows of curves.csv as (t, pdf_inverted, cdf_inverted)."""
    out = tmp_path / f"k{model.k}"
    assert cmd_analyze(RunConfig(model=model, output=OutputSpec(str(out)))) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "curves.csv", newline="") as handle:
        rows = [(float(row["t"]), row["pdf_inverted"], row["cdf_inverted"])
                for row in csv.DictReader(handle)]
    return summary["approximation_error"]["normal"], rows


class TestApproxError:
    """analyze's approximation_error.normal block, through cmd_analyze."""

    def test_inversion_and_series_references_agree(self, tmp_path):
        model = ShockModel(5, Exponential(1.0), Constant(1.0))
        approx = model_approx(model)
        block, rows = analyze_block(tmp_path, model)
        grid = np.array([t for t, pdf, cdf in rows if pdf and cdf])
        sup_norm = np.max(np.abs(approx.pdf(grid) - exp_const_pdf(model, grid)))
        ks = np.max(np.abs(approx.cdf(grid) - exp_const_cdf(model, grid)))
        assert block["ks_distance"] == pytest.approx(ks, abs=1e-3)
        assert block["sup_norm"] == pytest.approx(sup_norm, abs=1e-3)

    @pytest.mark.parametrize("model", [
        ShockModel(1, Exponential(1.0), Constant(1.0)),
        ShockModel(3, Exponential(1.0), Exponential(1.0)),
        ShockModel(2, Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
    ], ids=["exp-const-k1", "exp-exp-k3", "unif-unif-k2"])
    def test_tracks_simulation(self, tmp_path, model):
        approx = model_approx(model)
        report = run_batch(model, SimulationConfig(runs=100_000, seed=31))
        block, _ = analyze_block(tmp_path, model)
        # the grid holds the KS supremum to within the sampling noise
        samples = report.sorted_times
        assert block["ks_distance"] == pytest.approx(
            ks_statistic(samples, samples, approx.cdf(samples)), abs=0.01)
        if model.k == 1:
            # the single-hit law is badly non-Gaussian; both routes must say so
            assert block["ks_distance"] > 0.15

    @pytest.mark.parametrize("arrivals,threshold", [
        (Exponential(1.0), Exponential(1.0)),
        (Uniform(0.5, 2.5), Constant(1.1)),
    ], ids=["exp-exp", "unif-const"])
    def test_ks_ladder_is_nonincreasing(self, tmp_path, arrivals, threshold):
        distances = [analyze_block(tmp_path, ShockModel(k, arrivals, threshold))[0]["ks_distance"]
                     for k in (1, 5, 20, 100)]
        assert all(a >= b for a, b in zip(distances, distances[1:]))

    def test_points_count_the_filled_curve_rows(self, tmp_path):
        # k = 1 Uniform(0, 2)+Constant(1) leaves cells of its default grid empty
        model = ShockModel(1, Uniform(0.0, 2.0), Constant(1.0))
        block, rows = analyze_block(tmp_path, model)
        t, pdf, cdf = np.array([row for row in rows if row[1] and row[2]], dtype=float).T
        assert 0 < len(t) < len(rows)
        assert block["points"] == len(t)
        approx = model_approx(model)
        assert block["sup_norm"] == np.max(np.abs(approx.pdf(t) - pdf))
        assert block["ks_distance"] == np.max(np.abs(approx.cdf(t) - cdf))

    def test_no_settled_cell_gives_null_gaps(self, tmp_path, monkeypatch):
        def unsettled(model, ts, config):
            nan = np.full(len(ts), np.nan)
            return GridInversion(pdf=nan, cdf=nan,
                                 errors=tuple(InversionError(f"t={t}") for t in ts))

        monkeypatch.setattr(cli, "invert_grid", unsettled)
        block, rows = analyze_block(tmp_path, ShockModel(3, Exponential(1.0), Constant(1.0)))
        assert block == {"sup_norm": None, "ks_distance": None, "points": 0}
        assert rows and not any(pdf or cdf for _, pdf, cdf in rows)

"""Transform evaluation and numerical inversion against independent oracles."""

import math

import numpy as np
import pytest

from deltashock import (
    Constant,
    Exponential,
    InversionConfig,
    InversionError,
    ShockModel,
    TransformEvaluator,
    Uniform,
    invert_cdf,
    invert_density,
    invert_grid,
    invert_transform,
    laplace_h,
    moments_from_transform,
)
from deltashock.closedform import ExpConstParams, exp_const_cdf, exp_const_pdf
from deltashock import laplace
from deltashock.laplace import _fractions, _invert_series

LN2 = math.log(2.0)

BUILTIN_PAIRS = [
    ShockModel(3, Exponential(1.0), Constant(LN2)),
    ShockModel(1, Uniform(0.0, 2.0), Constant(1.0)),
    ShockModel(2, Exponential(1.0), Exponential(0.7)),
    ShockModel(2, Uniform(0.5, 2.0), Uniform(0.8, 1.6)),
    ShockModel(2, Exponential(1.5), Uniform(0.2, 1.0)),
    ShockModel(2, Uniform(0.0, 2.0), Exponential(1.1)),
]


class TestTransform:
    @pytest.mark.parametrize("model", BUILTIN_PAIRS)
    def test_normalized_at_zero(self, model):
        assert laplace_h(model, 0.0) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("model", BUILTIN_PAIRS[:3])
    def test_bounded_on_right_half_plane(self, model):
        rng = np.random.default_rng(21)
        evaluator = TransformEvaluator(model)
        for _ in range(25):
            s = complex(rng.uniform(0, 4), rng.uniform(-8, 8))
            assert abs(evaluator(s)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_exponential_constant_reduction(self, k):
        lam, tau = 1.0, 1.0
        model = ShockModel(k, Exponential(lam), Constant(tau))
        rng = np.random.default_rng(31)
        for _ in range(50):
            s = complex(rng.uniform(0, 3), rng.uniform(-5, 5))
            ratio = lam / (s + lam)
            expected = (ratio**k) * (1 - np.exp(-(s + lam) * tau)) ** k \
                / (1 - ratio * np.exp(-(s + lam) * tau)) ** k
            assert laplace_h(model, s) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 3])
    def test_uniform_constant_reduction(self, k):
        a, b, tau = 0.0, 2.0, 1.0
        model = ShockModel(k, Uniform(a, b), Constant(tau))
        rng = np.random.default_rng(41)
        for _ in range(50):
            s = complex(rng.uniform(0.05, 3), rng.uniform(-5, 5))
            expected = ((np.exp(-s * a) - np.exp(-s * tau))
                        / (s * (b - a) - np.exp(-s * tau) + np.exp(-s * b))) ** k
            assert laplace_h(model, s) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("model", BUILTIN_PAIRS)
    def test_array_matches_scalar(self, model):
        evaluator = TransformEvaluator(model)
        nodes = np.array([[0.0, 0.05 + 0.3j, 0.4 - 0.8j], [0.02 + 2.0j, 1.0 - 15.0j, 3.0 + 40.0j]])
        got = evaluator(nodes)
        assert got.shape == nodes.shape
        for s, value in zip(nodes.ravel().tolist(), got.ravel()):
            expected = evaluator(s)
            assert type(expected) is complex
            assert abs(value - expected) <= 1e-13 * abs(expected)

    def test_pole_is_nan_in_an_array(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        evaluator = TransformEvaluator(model)
        evaluator._nonlethal = lambda s: np.where(s.real > 1.0, 1.0, 0.5)
        got = evaluator(np.array([0.5, 2.0, 3.0 + 1.0j]))
        assert np.isfinite(got[0]) and np.isnan(got[1:]).all()

    def test_pole_reported(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        evaluator = TransformEvaluator(model)
        evaluator._nonlethal = lambda s: 1.0
        with pytest.raises(InversionError):
            evaluator(0.5)


class TestInvertTransform:
    def test_known_pair_exponential(self):
        got = invert_transform(lambda s: 1.0 / (s + 1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_scalar_callable_through_vectorize(self):
        scalar = np.vectorize(lambda s: 1.0 / complex(s + 1.0) ** 2, otypes=[complex])
        got = invert_transform(scalar, 2.0)
        assert got == pytest.approx(invert_transform(lambda s: 1.0 / (s + 1.0) ** 2, 2.0), abs=1e-12)

    def test_known_pair_gamma(self):
        got = invert_transform(lambda s: 1.0 / (s + 1.0) ** 2, 2.0)
        assert got == pytest.approx(2.0 * math.exp(-2.0), abs=1e-9)

    def test_known_cdf_with_tail_limit(self):
        got = invert_transform(lambda s: 1.0 / (s * (s + 1.0)), 1.5, tail_limit=1.0)
        assert got == pytest.approx(1.0 - math.exp(-1.5), abs=1e-9)

    def test_requires_positive_time(self):
        with pytest.raises(ValueError):
            invert_transform(lambda s: 1.0 / (s + 1.0), 0.0)

    def test_unreachable_target_reported_with_estimate(self):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        evaluator = TransformEvaluator(model)
        strict = InversionConfig(target_error=1e-13)
        with pytest.raises(InversionError) as err:
            # right next to the density kink the series cannot settle to 1e-13
            invert_transform(evaluator, 1.001, strict)
        assert err.value.error_estimate is not None


def fraction_loop(coeffs, depth, z, terms):
    """The quotient-difference table and continued fraction of one row, one
    element at a time: the reference for the vectorized _fractions."""
    n = len(coeffs)
    e = np.zeros((n + 1, depth + 1), dtype=complex)
    q = np.zeros((n + 1, depth + 1), dtype=complex)
    q[0:n - 1, 1] = coeffs[1:n] / coeffs[0:n - 1]
    for r in range(1, depth + 1):
        for i in range(n - 2 * r):
            e[i, r] = q[i + 1, r] - q[i, r] + e[i + 1, r - 1]
        if r < depth:
            for i in range(n - 2 * r - 1):
                q[i, r + 1] = q[i + 1, r] * e[i + 1, r] / e[i, r]
    d = [coeffs[0]] + [x for r in range(1, depth + 1) for x in (-q[0, r], -e[0, r])]
    a_prev, a_cur, b_prev, b_cur = 0j, d[0], 1 + 0j, 1 + 0j
    for i in range(1, terms - 1):
        a_prev, a_cur = a_cur, a_cur + d[i] * z * a_prev
        b_prev, b_cur = b_cur, b_cur + d[i] * z * b_prev
    h_last = 0.5 * (1.0 + z * (d[terms - 2] - d[terms - 1]))
    remainder = -h_last * (1.0 - np.sqrt(1.0 + d[terms - 1] * z / (h_last * h_last)))
    return (a_cur + remainder * a_prev) / (b_cur + remainder * b_prev)


class TestInvertGrid:
    def test_fractions_match_the_element_loop(self):
        depth, kappa = 30, 2.0
        n = 2 * depth + 1
        period = kappa * np.array([0.5, 2.0, 7.0])
        gamma = InversionConfig().contour_parameter / (2.0 * period)
        nodes = gamma[:, None] + 1j * (np.arange(n) * math.pi / period[:, None])
        coeffs = np.stack([1.0 / (nodes + 1.0) ** 2, 1.0 / (nodes * (nodes + 1.0))])
        z = complex(math.cos(math.pi / kappa), math.sin(math.pi / kappa))
        got, finite = _fractions(coeffs, depth, z)
        assert got.shape == (2, 3, 3) and finite.all()
        for row, fractions in zip(coeffs.reshape(-1, n), got.reshape(-1, 3)):
            for value, back in zip(fractions, (0, 4, 8)):
                expected = fraction_loop(row, depth, z, n - back)
                assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("transform,tail,exact", [
        (lambda s: 1.0 / (s + 1.0) ** 2, 0.0, lambda t: t * math.exp(-t)),
        (lambda s: 1.0 / (s * (s + 1.0)), 1.0, lambda t: 1.0 - math.exp(-t)),
    ])
    def test_batch_matches_single_points(self, transform, tail, exact):
        grid = np.linspace(0.1, 12.0, 50)
        config = InversionConfig()
        values, estimates = _invert_series(lambda s: transform(s)[np.newaxis], grid, config, [tail])
        assert values.shape == estimates.shape == (1, 50)
        for t, value, estimate in zip(grid.tolist(), values[0], estimates[0]):
            assert value == invert_transform(transform, t, config, tail_limit=tail)
            assert estimate <= config.target_error
            assert value == pytest.approx(exact(t), abs=config.target_error)

    def test_single_hit_against_closed_forms(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        params = ExpConstParams(1.0, 1.0, 1)
        grid = np.linspace(0.05, 8.0, 50)
        inverted = invert_grid(model, grid)
        settled = [error is None for error in inverted.errors]
        # only points within 0.03 of a kink (multiples of tau) may fail
        assert all(ok or min(abs(t - round(t)), t) < 0.03 for t, ok in zip(grid, settled))
        assert sum(settled) >= 45
        for t, pdf, cdf, ok in zip(grid.tolist(), inverted.pdf, inverted.cdf, settled):
            if ok:
                assert pdf == pytest.approx(exp_const_pdf(params, t), abs=2e-8)
                assert cdf == pytest.approx(exp_const_cdf(params, t), abs=2e-8)
            else:
                assert math.isnan(pdf) or math.isnan(cdf)

    def test_kink_point_fails_alone_with_its_estimate(self):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        config = InversionConfig()
        grid = [0.9, 0.95, 1.0, 1.05, 1.1]
        inverted = invert_grid(model, grid, config)
        failed = [t for t, error in zip(grid, inverted.errors) if error is not None]
        assert failed == [1.0]
        error = inverted.errors[2]
        assert error.error_estimate > config.target_error
        assert np.isnan(inverted.pdf[2]) and np.isnan(inverted.cdf[2])
        with pytest.raises(InversionError) as single:
            invert_density(model, 1.0, config)
        assert single.value.error_estimate == error.error_estimate
        # each quantity keeps the value of its own first settling attempt,
        # whichever attempts the other one needed
        for i in (0, 1, 3, 4):
            assert inverted.pdf[i] == invert_density(model, grid[i], config)
            assert inverted.cdf[i] == invert_cdf(model, grid[i], config)

    def test_requires_positive_times(self):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        with pytest.raises(ValueError):
            invert_grid(model, [0.5, 0.0])

    def test_blocks_match_one_batch(self, monkeypatch):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        grid = np.concatenate([np.linspace(0.1, 8.0, 40), [1.0, 2.0]])
        whole = invert_grid(model, grid)
        # seven times per block at the first attempt, fewer at the deeper ones
        monkeypatch.setattr(laplace, "BLOCK_NODES", 7 * 61)
        blocked = invert_grid(model, grid)
        np.testing.assert_array_equal(blocked.pdf, whole.pdf)
        np.testing.assert_array_equal(blocked.cdf, whole.cdf)
        estimates = [[None if e is None else e.error_estimate for e in inverted.errors]
                     for inverted in (whole, blocked)]
        assert estimates[0] == estimates[1]
        assert estimates[0][-2] > InversionConfig().target_error

    def test_memory_does_not_grow_with_the_grid(self):
        tracemalloc = pytest.importorskip("tracemalloc")
        model = ShockModel(3, Exponential(1.0), Constant(LN2))
        grid = np.linspace(0.05, 30.0, 4000)
        tracemalloc.start()
        try:
            invert_grid(model, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one batch of all 4000 times peaks near 40 MB
        assert peak < 15e6

    def test_settled_value_out_of_range_has_no_estimate(self, monkeypatch):
        def settled(transform, ts, config, tails):
            values = np.array([[0.3, -1e-3, 0.2], [0.5, 0.5, 1.5]])
            return values, np.full(values.shape, 1e-12)

        monkeypatch.setattr(laplace, "_invert_series", settled)
        inverted = invert_grid(ShockModel(2, Exponential(1.0), Constant(1.0)), [1.5, 2.5, 3.5])
        assert inverted.errors[0] is None
        negative, outside = inverted.errors[1:]
        assert "negative" in str(negative) and negative.error_estimate is None
        assert "outside [0, 1]" in str(outside) and outside.error_estimate is None
        assert np.isnan(inverted.pdf[1]) and np.isnan(inverted.cdf[2])
        assert inverted.pdf[2] == 0.2 and inverted.cdf[1] == 0.5


class TestInvertDensity:
    def test_single_hit_head_value(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        assert invert_density(model, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_series_on_grid(self, k):
        model = ShockModel(k, Exponential(1.0), Constant(1.0))
        params = ExpConstParams(1.0, 1.0, k)
        mean = model.failure_moments().mean
        cfg = InversionConfig(target_error=1e-6)
        for t in np.linspace(0.1, 10 * mean, 20):
            assert invert_density(model, float(t), cfg) == pytest.approx(
                exp_const_pdf(params, float(t)), abs=1e-6)

    def test_far_tail_clamps_to_zero(self):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        moments = model.failure_moments()
        far = moments.mean + 40 * math.sqrt(moments.variance)
        assert invert_density(model, far, InversionConfig(target_error=1e-6)) == 0.0

    @pytest.mark.parametrize("model", [
        ShockModel(1, Exponential(1.0), Constant(1.0)),
        ShockModel(3, Exponential(1.0), Constant(LN2)),
        ShockModel(1, Uniform(0.0, 2.0), Constant(1.0)),
        ShockModel(2, Uniform(0.0, 2.0), Constant(1.0)),
    ])
    def test_integrates_to_one(self, model):
        """Trapezoid over a kink-refined grid up to far past the mass."""
        moments = model.failure_moments()
        hi = moments.mean + 12 * math.sqrt(moments.variance)
        grid = set(np.linspace(1e-9, hi, 3000))
        if isinstance(model.threshold, Constant):
            tau = model.threshold.tau
            for j in range(1, int(hi / tau) + 1):
                grid.update((j * tau - 1e-9, j * tau + 1e-9))
        grid = np.array(sorted(grid))
        cfg = InversionConfig(target_error=1e-4)
        values = []
        for t in grid:
            try:
                values.append(invert_density(model, float(t), cfg))
            except InversionError:
                values.append(np.nan)
        values = np.array(values)
        ok = ~np.isnan(values)
        values = np.interp(grid, grid[ok], values[ok])
        assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-4)


class TestInvertCdf:
    def test_single_hit_at_threshold(self):
        # t = tau is the corner of the distribution; run at a matching target
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        got = invert_cdf(model, 1.0, InversionConfig(target_error=1e-7))
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-7)

    def test_vanishes_at_origin(self):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        assert invert_cdf(model, 1e-8, InversionConfig(target_error=1e-6)) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_series_cdf(self, k):
        model = ShockModel(k, Exponential(1.0), Constant(1.0))
        params = ExpConstParams(1.0, 1.0, k)
        mean = model.failure_moments().mean
        cfg = InversionConfig(target_error=1e-6)
        for t in np.linspace(0.2, 6 * mean, 15):
            assert invert_cdf(model, float(t), cfg) == pytest.approx(
                exp_const_cdf(params, float(t)), abs=2e-6)

    def test_monotone_on_grid(self):
        model = ShockModel(2, Uniform(0.0, 2.0), Constant(1.0))
        cfg = InversionConfig(target_error=1e-5)
        grid = np.linspace(0.3, 20.0, 120)
        values = [invert_cdf(model, float(t), cfg) for t in grid]
        assert np.all(np.diff(values) >= -1e-8)

    def test_tail_percentile_against_simulation(self):
        from deltashock import SimulationConfig, run_batch
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        report = run_batch(model, SimulationConfig(runs=100_000, seed=33))
        percentile_999 = float(np.quantile(report.sorted_times, 0.999))
        got = invert_cdf(model, percentile_999, InversionConfig(target_error=1e-6))
        assert got == pytest.approx(0.999, abs=0.002)


class TestMomentsFromTransform:
    def test_benchmark_mean(self):
        model = ShockModel(3, Exponential(1.0), Constant(LN2))
        assert moments_from_transform(model).mean == pytest.approx(6.0, abs=1e-5)

    def test_uniform_variance(self):
        model = ShockModel(1, Uniform(0.0, 2.0), Constant(1.0))
        assert moments_from_transform(model).variance == pytest.approx(14.0 / 3.0, abs=1e-4)

    def test_mean_doubles_with_hit_count(self):
        base = moments_from_transform(ShockModel(2, Exponential(1.0), Constant(1.0)))
        double = moments_from_transform(ShockModel(4, Exponential(1.0), Constant(1.0)))
        assert double.mean == pytest.approx(2.0 * base.mean, rel=1e-8)

    @pytest.mark.parametrize("model", BUILTIN_PAIRS)
    def test_agrees_with_closed_moments(self, model):
        from_transform = moments_from_transform(model)
        closed = model.failure_moments()
        assert from_transform.mean == pytest.approx(closed.mean, rel=1e-5)
        assert from_transform.variance == pytest.approx(closed.variance, rel=1e-5)


class TestInversionConfig:
    def test_defaults(self):
        cfg = InversionConfig()
        assert cfg.contour_parameter == pytest.approx(math.log(2e8))
        assert cfg.series_depth == 30

    def test_explicit_discretization_wins(self):
        assert InversionConfig(discretization=25.0).contour_parameter == 25.0

    @pytest.mark.parametrize("kwargs", [
        dict(target_error=0.0),
        dict(target_error=-1e-9),
        dict(euler_depth=7),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InversionConfig(**kwargs)

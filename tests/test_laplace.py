"""Transform evaluation and numerical inversion against independent oracles."""

import cmath
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
    moments_from_transform,
)
from deltashock.closedform import exp_const_cdf, exp_const_pdf
from deltashock import laplace
from deltashock.laplace import _fractions, _invert_series, _table, _windows

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
        assert TransformEvaluator(model)(0.0) == pytest.approx(1.0, abs=1e-8)

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
            assert TransformEvaluator(model)(s) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 3])
    def test_uniform_constant_reduction(self, k):
        a, b, tau = 0.0, 2.0, 1.0
        model = ShockModel(k, Uniform(a, b), Constant(tau))
        rng = np.random.default_rng(41)
        for _ in range(50):
            s = complex(rng.uniform(0.05, 3), rng.uniform(-5, 5))
            expected = ((np.exp(-s * a) - np.exp(-s * tau))
                        / (s * (b - a) - np.exp(-s * tau) + np.exp(-s * b))) ** k
            assert TransformEvaluator(model)(s) == pytest.approx(expected, rel=1e-9)

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

    @pytest.fixture
    def pole_beyond_one(self, monkeypatch):
        """An evaluator whose L_nonlethal is 1, a pole of L_h, where Re s > 1."""
        weighted = laplace.weighted_laplace

        def nonlethal_pole(arrival, threshold, s, weight):
            if weight == "cdf":
                return np.where(s.real > 1.0, 1.0, 0.5)
            return weighted(arrival, threshold, s, weight)

        monkeypatch.setattr(laplace, "weighted_laplace", nonlethal_pole)
        return TransformEvaluator(ShockModel(1, Exponential(1.0), Constant(1.0)))

    def test_pole_is_nan_in_an_array(self, pole_beyond_one):
        got = pole_beyond_one(np.array([0.5, 2.0, 3.0 + 1.0j]))
        assert np.isfinite(got[0]) and np.isnan(got[1:]).all()

    def test_pole_is_nan_for_a_complex(self, pole_beyond_one):
        finite, pole = pole_beyond_one(0.5), pole_beyond_one(2.0 + 1.0j)
        assert type(finite) is complex and cmath.isfinite(finite)
        assert type(pole) is complex and cmath.isnan(pole)


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

    def test_refuses_infinite_time(self):
        with pytest.raises(ValueError, match="finite t > 0, got inf"):
            invert_transform(lambda s: 1.0 / (s + 1.0), math.inf)

    def test_no_finite_acceleration_reported_without_estimate(self):
        with pytest.raises(InversionError, match="degenerated at t=1.0") as err:
            invert_transform(lambda s: np.full(s.shape, complex(math.nan, 0.0)), 1.0)
        assert err.value.error_estimate is None

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


def fractions_frozen(coeffs, depth, z):
    """_fractions with the series along the last axis, as it was before the
    table ran node-major, frozen: the node-major table must match it bit for
    bit."""
    n = coeffs.shape[-1]
    d = np.empty_like(coeffs)
    d[..., 0] = coeffs[..., 0]
    q = coeffs[..., 1:] / coeffs[..., :-1]
    e = np.zeros_like(q)
    for r in range(1, depth + 1):
        e = q[..., 1:] - q[..., :-1] + e[..., 1:q.shape[-1]]
        d[..., 2 * r - 1] = -q[..., 0]
        d[..., 2 * r] = -e[..., 0]
        if r < depth:
            q = q[..., 1:-1] * e[..., 1:] / e[..., :-1]
    stops = (n - 10, n - 6, n - 2)
    states = []
    a_prev, a_cur = 0j, d[..., 0]
    b_prev, b_cur = 1 + 0j, 1 + 0j
    for i in range(1, n - 1):
        a_prev, a_cur = a_cur, a_cur + d[..., i] * z * a_prev
        b_prev, b_cur = b_cur, b_cur + d[..., i] * z * b_prev
        if i in stops:
            states.append((i + 2, a_prev, a_cur, b_prev, b_cur))
    values = []
    for terms, a_prev, a_cur, b_prev, b_cur in reversed(states):
        h_last = 0.5 * (1.0 + z * (d[..., terms - 2] - d[..., terms - 1]))
        remainder = -h_last * (1.0 - np.sqrt(1.0 + d[..., terms - 1] * z / (h_last * h_last)))
        values.append((a_cur + remainder * a_prev) / (b_cur + remainder * b_prev))
    return np.stack(values, axis=-1), np.isfinite(d).all(axis=-1)


class TestInvertGrid:
    def test_fractions_match_the_element_loop(self):
        depth, kappa = 30, 2.0
        n = 2 * depth + 1
        period = kappa * np.array([0.5, 2.0, 7.0])
        gamma = InversionConfig().contour_parameter / (2.0 * period)
        nodes = gamma[:, None] + 1j * (np.arange(n) * math.pi / period[:, None])
        coeffs = np.stack([1.0 / (nodes + 1.0) ** 2, 1.0 / (nodes * (nodes + 1.0))])
        z = complex(math.cos(math.pi / kappa), math.sin(math.pi / kappa))
        d, finite = _table(coeffs, depth)
        got = _fractions(d, z)
        assert got.shape == (2, 3, 3) and finite.all()
        for row, fractions in zip(coeffs.reshape(-1, n), got.reshape(-1, 3)):
            for value, back in zip(fractions, (0, 4, 8)):
                expected = fraction_loop(row, depth, z, n - back)
                assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("transforms", [1, 2])
    @pytest.mark.parametrize("extra,kappa", laplace.ATTEMPTS)
    @pytest.mark.parametrize("times", [1, 3, 600])
    @pytest.mark.parametrize("special", [False, True])
    def test_fractions_match_the_frozen_table_bitwise(self, transforms, extra, kappa, times,
                                                      special):
        """The node-major table gives the frozen one's values and finite
        mask exactly, at every depth of the retry ladder; with special set,
        the first row holds a zero, a NaN and an inf coefficient."""
        depth = laplace.SERIES_DEPTH + extra
        n = 2 * depth + 1
        period = kappa * np.linspace(0.05, 30.0, times)
        gamma = InversionConfig().contour_parameter / (2.0 * period)
        nodes = gamma[:, None] + 1j * (np.arange(n) * math.pi / period[:, None])
        h = TransformEvaluator(ShockModel(3, Exponential(1.0), Constant(LN2)))(nodes)
        coeffs = np.stack([h, h / nodes][:transforms])
        coeffs[..., 0] /= 2.0
        if special:
            coeffs[0, 0, [3, 7, 11]] = [0.0, np.nan, np.inf]
        z = complex(math.cos(math.pi / kappa), math.sin(math.pi / kappa))
        with np.errstate(all="ignore"):
            d, finite = _table(coeffs, depth)
            got = _fractions(d, np.full(times, z))
            expected, expected_finite = fractions_frozen(coeffs, depth, z)
        assert got.shape == expected.shape == (transforms, times, 3)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(finite, expected_finite)
        assert finite.all() != special

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
        grid = np.linspace(0.05, 8.0, 50)
        inverted = invert_grid(model, grid)
        settled = [error is None for error in inverted.errors]
        # only points within 0.03 of a kink (multiples of tau) may fail
        assert all(ok or min(abs(t - round(t)), t) < 0.03 for t, ok in zip(grid, settled))
        assert sum(settled) >= 45
        for t, pdf, cdf, ok in zip(grid.tolist(), inverted.pdf, inverted.cdf, settled):
            if ok:
                assert pdf == pytest.approx(exp_const_pdf(model, t), abs=2e-8)
                assert cdf == pytest.approx(exp_const_cdf(model, t), abs=2e-8)
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

    def test_refuses_infinite_times(self):
        """An infinite time is refused before any contour runs, not
        returned as a nan cell with its InversionError."""
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        with pytest.raises(ValueError, match="finite t > 0, got inf"):
            invert_grid(model, [1.0, math.inf])

    def test_windows_are_quarter_octaves(self):
        above = np.nextafter(2.0, 3.0)
        ts = np.array([2.0, above, 1.9, 0.3, 1000.0])
        lattice = [4, 5, 4, -6, 40]
        expected = [[2.0 ** (j / 4) for j in lattice], [2.0 ** ((j - 1) / 4) for j in lattice]]
        np.testing.assert_allclose(_windows(ts), expected, rtol=1e-15)
        assert _windows(ts)[0, 0] == 2.0 == _windows(ts)[1, 1]
        assert np.all(_windows(ts)[0] >= ts) and np.all(_windows(ts)[1] < ts)

    @pytest.mark.parametrize("model", [BUILTIN_PAIRS[0], BUILTIN_PAIRS[1]], ids=["k3", "k1"])
    def test_one_point_matches_the_grid_bitwise(self, model):
        """Every time keeps the value and error of its own one-point
        inversion, on a grid whose windows hold several times each; 2 is a
        lattice point, and the next double above it starts a window."""
        above = np.nextafter(2.0, 3.0)
        grid = np.concatenate([np.linspace(1.3, 4.6, 60), [2.0, above]])
        counts = np.unique(_windows(grid)[0], return_counts=True)[1]
        assert np.sum(counts >= 5) >= 3
        assert _windows(np.array([above]))[0, 0] > 2.0
        config = InversionConfig()
        inverted = invert_grid(model, grid, config)
        for i, t in enumerate(grid.tolist()):
            for quantity, one_point in (("pdf", invert_density), ("cdf", invert_cdf)):
                value = getattr(inverted, quantity)[i]
                try:
                    assert one_point(model, t, config) == value
                except InversionError as error:
                    assert math.isnan(value) and inverted.errors[i] is not None
                    if quantity == "pdf":
                        assert error.error_estimate == inverted.errors[i].error_estimate

    def test_blocks_match_one_batch(self, monkeypatch):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        grid = np.concatenate([np.linspace(0.1, 8.0, 40), [1.0, 2.0]])
        whole = invert_grid(model, grid)
        # seven times per block at the shared first rung (two contours
        # each), fewer at the deeper retries; some window straddles a block
        # boundary there
        monkeypatch.setattr(laplace, "BLOCK_NODES", 7 * 61 * 2)
        blocks = [set(_windows(grid[i:i + 7])[0]) for i in range(0, len(grid), 7)]
        assert any(a & b for a, b in zip(blocks, blocks[1:]))
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


def series_frozen(transform, ts, config, tails):
    """_invert_series as it was before its shared first rung, frozen: every
    time on its own contour (period kappa t) at every attempt of ATTEMPTS,
    the table and fraction of fractions_frozen.  The ladder must settle
    every (quantity, t) that this one settles, and agree with it there."""
    shape = (len(tails), len(ts))
    values = np.full(shape, np.nan)
    estimates = np.full(shape, np.nan)
    settled = np.zeros(shape, dtype=bool)
    for extra, kappa in laplace.ATTEMPTS:
        depth = laplace.SERIES_DEPTH + extra
        todo = np.flatnonzero(~settled.all(axis=0))
        block = max(1, laplace.BLOCK_NODES // (2 * depth + 1))
        for start in range(0, todo.size, block):
            cols = todo[start:start + block]
            t = ts[cols]
            n = 2 * depth + 1
            period = kappa * t
            gamma = config.contour_parameter / (2.0 * period)
            nodes = gamma[:, None] + 1j * (np.arange(n) * math.pi / period[:, None])
            coeffs = np.array(transform(nodes), dtype=complex)
            coeffs[..., 0] /= 2.0
            with np.errstate(all="ignore"):
                fractions, finite = fractions_frozen(coeffs, depth, cmath.exp(1j * math.pi / kappa))
                scaled = (np.exp(gamma * t) / period)[:, None] * fractions.real
                value = scaled[..., 0]
                estimate = np.max(abs(value[..., None] - scaled[..., 1:]), axis=-1)
            zero = ~coeffs.any(axis=-1)
            value[zero] = estimate[zero] = 0.0
            finite = zero | finite & np.isfinite(scaled).all(axis=-1)
            better = finite & ~settled[:, cols] & ~(estimate >= estimates[:, cols])
            rows, at = np.nonzero(better)
            values[rows, cols[at]] = value[rows, at]
            estimates[rows, cols[at]] = estimate[rows, at]
            settled[rows, cols[at]] = estimate[rows, at] <= config.target_error
    alias = np.asarray(tails, dtype=float)[:, None] / math.expm1(config.contour_parameter)
    return np.where(settled, values - alias, np.nan), estimates


def default_grid(model, points):
    """analyze's default grid: points times up to mean + 6 sd."""
    moments = model.failure_moments()
    t_max = moments.mean + 6.0 * math.sqrt(moments.variance)
    return np.linspace(t_max / points, t_max, points)


def compare_grid(model):
    """compare's cdf nodes: 512 times up to mean + 8 sd, and the corners."""
    moments = model.failure_moments()
    t_hi = moments.mean + 8.0 * math.sqrt(moments.variance)
    corners = {p for p in (*model.arrivals.breakpoints(), *model.threshold.breakpoints())
               if 0.0 < p < t_hi}
    return np.array(sorted(set(np.linspace(t_hi / 512.0, t_hi, 512)) | corners))


BENCH_MODELS = {
    "exp-const": ShockModel(3, Exponential(1.0), Constant(LN2)),
    "exp-exp": ShockModel(3, Exponential(1.0), Exponential(1.0)),
    "rare-p01": ShockModel(3, Exponential(1.0), Constant(-math.log(0.99))),
}
BENCH_POINTS = {"exp-const": 200, "exp-exp": 12, "rare-p01": 10}
# (t, cdf) on rare-p01's 10-point default grid: the floats of a 40-digit sum
# of exp_const_cdf's series, with tau = -ln 0.99 and q = e^-tau,
#   with mpmath.workdps(40): sum over j >= 0 of C(j + 2, j) q^j times the sum
#   over i in 0..3 with (j + i) tau < t of (-1)^i C(3, i) q^i
#   mpmath.gammainc(j + 3, 0, t - (j + i) tau, regularized=True),
# stopping at the first j with j + 3 > t whose term is below 1e-45.  No sum
# moves by 1e-35 at 60 digits.  exp_const_cdf is up to 1.14e-10 off them,
# about as far as the ladders are (1.10e-10 new, 1.84e-10 frozen), so as a
# reference it would measure its own error as much as theirs.
RARE_P01_CDF = np.array([
    (134.95197178658077, 0.15827820365104528),
    (269.90394357316154, 0.5068757390061913),
    (404.8559153597423, 0.7674554470710625),
    (539.8078871463231, 0.9035523794627291),
    (674.7598589329039, 0.9631908599444532),
    (809.7118307194846, 0.9867418878188745),
    (944.6638025060654, 0.9954232616406866),
    (1079.6157742926462, 0.9984705664687481),
    (1214.567746079227, 0.999501817244113),
    (1349.5197178658077, 0.9998410495452844),
])


class TestFrozenLadder:
    """The ladder with its shared first rung against series_frozen."""

    @staticmethod
    def both(model, grid, target, pdf=True, cdf=True):
        """invert_grid with the ladder and with series_frozen, and the two
        ladders' (values, estimates) on the same transform."""
        config = InversionConfig(target_error=target)
        ladder = laplace._invert_series
        series = []

        def recording(transform, ts, config, tails):
            series.append((ladder(transform, ts, config, tails),
                           series_frozen(transform, ts, config, tails)))
            return series[0][0]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(laplace, "_invert_series", recording)
            new = invert_grid(model, grid, config, pdf=pdf, cdf=cdf)
            patch.setattr(laplace, "_invert_series", lambda *args: series[0][1])
            frozen = invert_grid(model, grid, config, pdf=pdf, cdf=cdf)
        (new_values, _), (frozen_values, _) = series[0]
        # the ladder settles every (quantity, t) the frozen one settles, within 2 target of it
        assert not (np.isnan(new_values) & ~np.isnan(frozen_values)).any()
        both_settled = ~np.isnan(frozen_values)
        assert np.all(abs(new_values - frozen_values)[both_settled] <= 2.0 * target)
        empty = [sum(e is not None for e in inverted.errors) for inverted in (new, frozen)]
        assert empty[0] <= empty[1]
        return new, frozen

    @staticmethod
    def no_farther(new, frozen, exact):
        """new is no farther from exact than frozen's worst point is."""
        worst = np.nanmax(abs(frozen - exact))
        assert np.nanmax(abs(new - exact)) <= worst
        assert np.isnan(new).sum() <= np.isnan(frozen).sum()

    @pytest.mark.parametrize("name", sorted(BENCH_MODELS))
    def test_bench_grids(self, name):
        model = BENCH_MODELS[name]
        grid = default_grid(model, BENCH_POINTS[name])
        new, frozen = self.both(model, grid, 1e-8)
        if name == "rare-p01":
            assert np.array_equal(grid, RARE_P01_CDF[:, 0])
            self.no_farther(new.cdf, frozen.cdf, RARE_P01_CDF[:, 1])
        if name != "exp-exp":
            self.no_farther(new.pdf, frozen.pdf, exp_const_pdf(model, grid))
        if name == "exp-const":
            self.no_farther(new.cdf, frozen.cdf, exp_const_cdf(model, grid))

    @pytest.mark.parametrize("name", sorted(BENCH_MODELS))
    def test_compare_cdf_nodes(self, name):
        model = BENCH_MODELS[name]
        grid = compare_grid(model)
        new, frozen = self.both(model, grid, 1e-6, pdf=False)
        if name != "exp-exp":
            self.no_farther(new.cdf, frozen.cdf, exp_const_cdf(model, grid))

    def test_single_hit_uniform_constant(self):
        model = ShockModel(1, Uniform(0.0, 2.0), Constant(1.0))
        frozen = self.both(model, default_grid(model, 200), 1e-8)[1]
        assert sum(e is not None for e in frozen.errors) == 86

    def test_uniform_uniform(self):
        model = ShockModel(3, Uniform(0.0, 2.0), Uniform(0.5, 1.5))
        self.both(model, default_grid(model, 200), 1e-8)

    def test_single_hit_exponential_constant(self):
        model = ShockModel(1, Exponential(1.0), Constant(LN2))
        grid = default_grid(model, 200)
        new, frozen = self.both(model, grid, 1e-8)
        self.no_farther(new.pdf, frozen.pdf, exp_const_pdf(model, grid))
        self.no_farther(new.cdf, frozen.cdf, exp_const_cdf(model, grid))


class TestInvertDensity:
    def test_single_hit_head_value(self):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        assert invert_density(model, 0.5) == pytest.approx(math.exp(-0.5), abs=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_series_on_grid(self, k):
        model = ShockModel(k, Exponential(1.0), Constant(1.0))
        mean = model.failure_moments().mean
        cfg = InversionConfig(target_error=1e-6)
        ts = np.linspace(0.1, 10 * mean, 20)
        inverted = invert_grid(model, ts, cfg, cdf=False)
        assert not any(inverted.errors)
        for t, value in zip(ts.tolist(), inverted.pdf.tolist()):
            assert value == pytest.approx(exp_const_pdf(model, t), abs=1e-6)

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
        # nan where a point did not settle
        values = invert_grid(model, grid, cfg, cdf=False).pdf
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
        mean = model.failure_moments().mean
        cfg = InversionConfig(target_error=1e-6)
        for t in np.linspace(0.2, 6 * mean, 15):
            assert invert_cdf(model, float(t), cfg) == pytest.approx(
                exp_const_cdf(model, float(t)), abs=2e-6)

    def test_monotone_on_grid(self):
        model = ShockModel(2, Uniform(0.0, 2.0), Constant(1.0))
        cfg = InversionConfig(target_error=1e-5)
        grid = np.linspace(0.3, 20.0, 120)
        values = [invert_cdf(model, float(t), cfg) for t in grid]
        assert np.all(np.diff(values) >= -1e-8)

    def test_unreachable_target_raises_with_estimate(self):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        with pytest.raises(InversionError, match="did not settle at t=1.001") as err:
            invert_cdf(model, 1.001, InversionConfig(target_error=1e-14))
        assert err.value.error_estimate > 1e-14

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

    @pytest.mark.parametrize("model, rel", [(model, 1e-13) for model in BUILTIN_PAIRS] + [
        # p about 0.01: some 300 gaps per run
        (ShockModel(3, Exponential(1.0), Constant(-math.log(0.99))), 1e-11),
        (ShockModel(3, Exponential(1.0), Exponential(99.0)), 1e-11),
        (ShockModel(3, Uniform(0.0, 2.0), Constant(0.02)), 1e-11),
    ] + [
        # the segment's circle does not shrink as k grows
        (ShockModel(k, Exponential(1.0), Constant(-math.log1p(-p))), 1e-12)
        for k in (1000, 10**5) for p in (0.5, 0.01)
    ])
    def test_matches_closed_moments_to_rounding(self, model, rel):
        from_transform = moments_from_transform(model)
        closed = model.failure_moments()
        assert from_transform.mean == pytest.approx(closed.mean, rel=rel, abs=0.0)
        assert from_transform.variance == pytest.approx(closed.variance, rel=rel, abs=0.0)

    @pytest.mark.parametrize("p, rel", [(1e-4, 1e-9), (1e-6, 1e-7)])
    def test_rare_lethality_variance(self, p, rel):
        # what error is left comes from rounding in 1 - L_nonlethal near 0
        model = ShockModel(3, Exponential(1.0), Constant(-math.log1p(-p)))
        closed = model.failure_moments()
        assert moments_from_transform(model).variance == pytest.approx(closed.variance, rel=rel,
                                                                       abs=0.0)

    def test_reads_no_closed_moments(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the transform route read the closed moments")

        monkeypatch.setattr(ShockModel, "failure_moments", refuse)
        model = ShockModel(3, Exponential(1.0), Constant(LN2))
        assert moments_from_transform(model).mean == pytest.approx(6.0, rel=1e-13)

    def test_refuses_a_nan_on_the_circle(self, monkeypatch):
        evaluate = TransformEvaluator.__call__

        def pole_on_circle(self, s):
            value = evaluate(self, s)
            if np.ndim(value):
                value[5] = np.nan
            return value

        monkeypatch.setattr(TransformEvaluator, "__call__", pole_on_circle)
        with pytest.raises(InversionError, match=r"zero or not finite at s=\("):
            moments_from_transform(ShockModel(3, Exponential(1.0), Constant(LN2)))

    def test_unbracketed_scale_raises(self):
        # p = 1e-300: L_h stays below 0.5 down to s = 1e-3 / 2^200
        model = ShockModel(1, Exponential(1.0), Constant(1e-300))
        with pytest.raises(InversionError, match="could not bracket"):
            moments_from_transform(model)


class TestInversionConfig:
    def test_defaults(self):
        cfg = InversionConfig()
        assert cfg.contour_parameter == pytest.approx(math.log(2e8))
        assert laplace.SERIES_DEPTH == 30
        assert InversionConfig(target_error=1e-4).contour_parameter == math.log(2e4)

    @pytest.mark.parametrize("kwargs", [
        dict(target_error=0.0),
        dict(target_error=-1e-9),
        dict(target_error=math.inf),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InversionConfig(**kwargs)

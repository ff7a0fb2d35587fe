"""Monte Carlo engine: determinism, statistical concordance, report shape."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltashock import (
    CHUNK_SIZE,
    Constant,
    Exponential,
    ShockModel,
    SimulationConfig,
    Uniform,
    UnrealizableModelError,
    ks_statistic,
    run_batch,
)
from deltashock import InversionConfig, NormalApprox, exp_const_cdf, simulate
from deltashock import cli, distributions, laplace
from deltashock import model as model_module

LN2 = math.log(2.0)
BENCH = ShockModel(3, Exponential(1.0), Constant(LN2))
RARE = ShockModel(3, Exponential(1.0), Constant(-math.log(0.99)))  # p = 0.01
RARE_EXP = ShockModel(3, Exponential(1.0), Exponential(99.0))  # p = 0.01
# k = 1: the single-gap lethal branch puts corners in the cdf
UNIFORM_HEAD = ShockModel(1, Uniform(0.0, 2.0), Constant(1.0))


class TestDeterminism:
    def test_same_seed_same_report(self, split_counts):
        cfg = SimulationConfig(runs=150_000, seed=42)
        a, b = run_batch(BENCH, cfg), run_batch(BENCH, cfg)
        assert a.mean == b.mean and a.variance == b.variance
        assert np.array_equal(a.sorted_times, b.sorted_times)
        assert a.mean_shock_count == b.mean_shock_count
        assert a.mean_shock_count == int(split_counts(BENCH, 150_000, 42).sum()) / 150_000

    def test_worker_count_never_changes_results(self, split_counts):
        base = run_batch(BENCH, SimulationConfig(runs=200_000, seed=7, workers=1))
        pooled = run_batch(BENCH, SimulationConfig(runs=200_000, seed=7, workers=3))
        assert base.mean == pooled.mean
        assert base.variance == pooled.variance
        assert np.array_equal(base.sorted_times, pooled.sorted_times)
        assert base.mean_shock_count == pooled.mean_shock_count
        assert pooled.mean_shock_count == int(split_counts(BENCH, 200_000, 7).sum()) / 200_000

    @pytest.mark.parametrize("workers, runs, opened", [
        (5000, CHUNK_SIZE + 7, 2),
        (2, 2 * CHUNK_SIZE + 7, 2),
        (3, 3 * CHUNK_SIZE, 3),
    ])
    def test_pool_opens_no_more_workers_than_chunks(self, monkeypatch, workers, runs, opened):
        """A fork pool starts all its workers at the first submit: the batch
        asks for at most one per chunk.  The pool here is a stand-in that
        records its size and maps in this process, so no process starts."""
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        pooled = run_batch(BENCH, SimulationConfig(runs=runs, seed=5, workers=workers))
        assert sizes == [opened]
        base = run_batch(BENCH, SimulationConfig(runs=runs, seed=5, workers=1))
        assert sizes == [opened]
        assert pooled.mean == base.mean and pooled.variance == base.variance
        assert np.array_equal(pooled.sorted_times, base.sorted_times)

    def test_chunk_boundary_sizes(self, split_counts):
        for runs in (CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 7):
            report = run_batch(BENCH, SimulationConfig(runs=runs, seed=3))
            assert report.runs == runs
            assert len(report.sorted_times) == runs
            # the gap total over every run, exactly
            assert report.mean_shock_count == int(split_counts(BENCH, runs, 3).sum()) / runs


class TestStatistics:
    def test_moment_concordance(self):
        report = run_batch(BENCH, SimulationConfig(runs=400_000, seed=12))
        moments = BENCH.failure_moments()
        assert abs(report.mean - moments.mean) <= 3 * report.se_mean
        assert abs(report.variance - moments.variance) <= 3 * report.se_variance

    def test_single_hit_first_shock_probability(self, split_counts):
        model = ShockModel(1, Exponential(1.0), Constant(1.0))
        counts = split_counts(model, 1_000_000, 8)
        p = model.lethal_prob
        se = math.sqrt(p * (1 - p) / len(counts))
        assert abs(np.mean(counts == 1) - p) <= 3 * se

    def test_mean_shock_count(self):
        report = run_batch(BENCH, SimulationConfig(runs=1_000_000, seed=9))
        # negative binomial mean k/p with standard error from its variance
        se = math.sqrt(BENCH.k * BENCH.survive_prob / BENCH.lethal_prob**2 / report.runs)
        assert abs(report.mean_shock_count - BENCH.k / BENCH.lethal_prob) <= 3 * se

    def test_every_gap_lethal_degenerate_counts(self, split_counts):
        model = ShockModel(4, Exponential(2.0), Constant(1e9))
        report = run_batch(model, SimulationConfig(runs=50_000, seed=2))
        assert report.mean_shock_count == 4.0
        assert np.all(split_counts(model, 50_000, 2) == 4)
        se = math.sqrt(model.failure_moments().variance / report.runs)
        assert abs(report.mean - 2.0) <= 3 * se

    def test_ks_against_series_cdf(self):
        from scipy.interpolate import PchipInterpolator
        from deltashock.closedform import exp_const_cdf
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        report = run_batch(model, SimulationConfig(runs=100_000, seed=6))
        hi = float(report.max_time) * 1.01
        nodes = np.linspace(0.0, hi, 2048)
        interp = PchipInterpolator(nodes, [exp_const_cdf(model, float(t)) for t in nodes])
        samples = report.sorted_times
        d = ks_statistic(samples, samples, np.clip(interp(np.clip(samples, 0, hi)), 0, 1))
        assert d < 1.63 / math.sqrt(report.runs)

    def test_ks_against_general_pair_by_inversion(self):
        # a modest node count and tolerance suffice: the KS budget at 2e4
        # runs is 1.2e-2
        from scipy.interpolate import PchipInterpolator
        from deltashock import InversionConfig, invert_grid
        model = ShockModel(2, Exponential(1.0), Exponential(0.7))
        report = run_batch(model, SimulationConfig(runs=20_000, seed=15))
        hi = float(report.max_time) * 1.01
        # denser near the origin where the cdf curvature peaks
        nodes = np.concatenate([np.linspace(hi / 512, hi / 8, 48), np.linspace(hi / 8, hi, 80)[1:]])
        cfg = InversionConfig(target_error=1e-4)
        inverted = invert_grid(model, nodes, cfg, pdf=False)
        assert not any(inverted.errors)
        values = np.maximum.accumulate(inverted.cdf)
        interp = PchipInterpolator(np.concatenate(([0.0], nodes)), np.concatenate(([0.0], values)))
        samples = report.sorted_times
        d = ks_statistic(samples, samples, np.clip(interp(np.clip(samples, 0, hi)), 0, 1))
        assert d < 1.63 / math.sqrt(report.runs)


class TestConditionalGapLaws:
    def test_lethal_and_nonlethal_gaps_follow_their_laws(self, kernel_gaps):
        model = ShockModel(2, Exponential(1.0), Constant(1.0))
        p, q = model.lethal_prob, model.survive_prob
        lethal, nonlethal = kernel_gaps(model, runs=30_000, seed=18, count=20_000)
        lethal_cdf = lambda x: np.minimum(-np.expm1(-np.asarray(x)), p) / p
        nonlethal_cdf = lambda x: np.clip(
            (math.exp(-1.0) - np.exp(-np.maximum(np.asarray(x), 1.0))) / q, 0.0, 1.0)
        critical = 1.63 / math.sqrt(20_000)
        for gaps, cdf in ((lethal, lethal_cdf), (nonlethal, nonlethal_cdf)):
            gaps = np.sort(gaps)
            assert ks_statistic(gaps, gaps, cdf(gaps)) < critical


class TestSplitSampler:
    """Exponential gaps with a constant or an exponential threshold skip the
    wave kernel: each segment's non-lethal count is geometric, drawn from one
    exponential, and the time spent is a gamma (a constant threshold adds the
    segments' exponentials, an exponential one a second gamma)."""

    def test_takes_the_split_and_nothing_else_does(self, monkeypatch):
        from deltashock import simulate

        def refuse(*args):
            raise AssertionError("stepped through the wave kernel")

        monkeypatch.setattr(simulate, "_waves", refuse)
        assert run_batch(RARE, SimulationConfig(runs=1000, seed=0)).runs == 1000
        assert run_batch(RARE_EXP, SimulationConfig(runs=1000, seed=0)).runs == 1000
        with pytest.raises(AssertionError, match="wave kernel"):
            run_batch(ShockModel(2, Exponential(1.0), Uniform(0.0, 2.0)),
                      SimulationConfig(runs=10, seed=0))
        with pytest.raises(AssertionError, match="wave kernel"):
            run_batch(ShockModel(2, Uniform(0.0, 2.0), Exponential(1.0)),
                      SimulationConfig(runs=10, seed=0))
        with pytest.raises(AssertionError, match="wave kernel"):
            run_batch(ShockModel(2, Uniform(0.0, 2.0), Constant(1.0)),
                      SimulationConfig(runs=10, seed=0))

    @pytest.mark.parametrize("model", [
        ShockModel(2, Exponential(1.0), Uniform(0.2, 1.0)),
        ShockModel(2, Uniform(0.0, 2.0), Exponential(1.0)),
        ShockModel(2, Uniform(0.0, 2.0), Constant(1.0)),
        ShockModel(2, Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
    ], ids=["exp-uniform", "uniform-exp", "uniform-const", "uniform-uniform"])
    def test_other_models_draw_nothing(self, model):
        # the wave kernel then draws the chunk's stream from its start
        rng = simulate._chunk_rng(5, 0)
        state = rng.bit_generator.state
        assert simulate._split_runs(model, rng, 1000) is None
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.5, 0.01])
    @pytest.mark.parametrize("k", [1, 3])
    def test_times_match_the_wave_kernel(self, kernel_times, k, p, seed):
        # two-sample KS at alpha = 0.001 against the kernel on its own seed
        from scipy.stats import ks_2samp
        model = ShockModel(k, Exponential(1.0), Constant(-math.log1p(-p)))
        n = 20_000
        split = run_batch(model, SimulationConfig(runs=n, seed=seed)).sorted_times
        kernel = kernel_times(model, n, seed + 1000)
        assert ks_2samp(split, kernel).statistic < 1.95 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("p", [0.5, 0.01, 0.99])
    @pytest.mark.parametrize("k", [1, 3])
    def test_exponential_threshold_times_match_the_wave_kernel(self, kernel_times, k, p):
        # Exp(1) gaps against an Exp(mu) threshold are lethal with p = 1/(1 + mu)
        from scipy.stats import ks_2samp
        model = ShockModel(k, Exponential(1.0), Exponential((1.0 - p) / p))
        n = 20_000
        split = run_batch(model, SimulationConfig(runs=n, seed=1)).sorted_times
        kernel = kernel_times(model, n, 1001)
        assert ks_2samp(split, kernel).statistic < 1.95 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize(
        "model",
        [BENCH, RARE, ShockModel(3, Exponential(1.0), Exponential(1.0)), RARE_EXP],
        ids=["p05", "p01", "exp-p05", "exp-p01"],
    )
    def test_shock_counts_follow_the_negative_binomial(self, split_counts, model):
        # chi-square over cells holding at least 50 expected runs each; the
        # tail beyond the last cell is one more cell
        from scipy.stats import chi2
        runs = 200_000
        observed = np.bincount(split_counts(model, runs, 5))
        cells, expected, lo, mass = [], [], 0, 0.0
        for n in range(len(observed)):
            mass += model.shock_count_pmf(n)
            if mass * runs >= 50:
                cells.append(observed[lo:n + 1].sum())
                expected.append(mass * runs)
                lo, mass = n + 1, 0.0
        cells.append(observed[lo:].sum())
        expected.append(runs - sum(expected))
        cells, expected = np.array(cells), np.array(expected)
        statistic = float(((cells - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.999, len(cells) - 1)

    def test_tiny_threshold_hits_the_cap_instead_of_wrapping(self):
        # about 1e300 non-lethal gaps per run, beyond any int64
        model = ShockModel(3, Exponential(1.0), Constant(1e-300))
        with pytest.raises(UnrealizableModelError):
            run_batch(model, SimulationConfig(runs=100, seed=0))

    @pytest.mark.parametrize("gaps, threshold", [(1.0, 1e300), (1e-10, 1e300)],
                             ids=["1e300", "overflow"])
    def test_fast_exponential_threshold_hits_the_cap_instead_of_wrapping(
            self, monkeypatch, gaps, threshold):
        # p about 1e-300, and subnormal in the second case: counts far beyond
        # any int64, or infinite, which the kernel would step through one
        # wave at a time
        def refuse(*args):
            raise AssertionError("stepped through the wave kernel")

        monkeypatch.setattr(simulate, "_waves", refuse)
        model = ShockModel(3, Exponential(gaps), Exponential(threshold))
        with pytest.raises(UnrealizableModelError):
            run_batch(model, SimulationConfig(runs=100, seed=0))

    def test_cap_counts_every_gap_as_the_kernel_does(self, monkeypatch):
        # every gap lethal: each run takes exactly k = 4 gaps
        model = ShockModel(4, Exponential(2.0), Constant(1e9))
        monkeypatch.setattr(simulate, "MAX_GAPS_PER_RUN", 4)
        assert run_batch(model, SimulationConfig(runs=10, seed=0)).runs == 10
        monkeypatch.setattr(simulate, "MAX_GAPS_PER_RUN", 3)
        with pytest.raises(UnrealizableModelError):
            run_batch(model, SimulationConfig(runs=10, seed=0))

    @staticmethod
    def _same_on_one_and_two_workers(model, split_counts):
        runs = 2 * CHUNK_SIZE + 5
        base = run_batch(model, SimulationConfig(runs=runs, seed=13, workers=1))
        pooled = run_batch(model, SimulationConfig(runs=runs, seed=13, workers=2))
        assert (base.mean, base.variance, base.se_variance) == (
            pooled.mean, pooled.variance, pooled.se_variance)
        assert np.array_equal(base.sorted_times, pooled.sorted_times)
        assert base.mean_shock_count == pooled.mean_shock_count
        assert pooled.mean_shock_count == int(split_counts(model, runs, 13).sum()) / runs

    def test_worker_count_never_changes_rare_results(self, split_counts):
        self._same_on_one_and_two_workers(RARE, split_counts)

    def test_worker_count_never_changes_exponential_threshold_results(self, split_counts):
        self._same_on_one_and_two_workers(RARE_EXP, split_counts)


class TestSegments:
    def test_segments_are_uncorrelated_and_on_the_moments(self, kernel_segments):
        model = ShockModel(3, Exponential(1.0), Constant(1.0))
        segments = kernel_segments(model, 50_000, seed=11)
        moments = model.failure_moments()
        n = segments.size
        assert abs(segments.mean() - moments.segment_mean) <= 4 * math.sqrt(moments.segment_variance / n)
        assert segments.var(ddof=1) == pytest.approx(moments.segment_variance, rel=0.05)
        first, second = segments[:, :-1].ravel(), segments[:, 1:].ravel()
        corr = np.corrcoef(first, second)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(len(first))

    def test_run_cap_applies(self, monkeypatch):
        # a model without the split sampler: the wave kernel's own cap
        slow = ShockModel(3, Uniform(0.0, 2.0), Constant(0.01))
        monkeypatch.setattr(simulate, "MAX_GAPS_PER_RUN", 10)
        with pytest.raises(UnrealizableModelError, match="after 10 gaps"):
            run_batch(slow, SimulationConfig(runs=100, seed=0))

    def test_rows_sum_to_failure_times(self, kernel_segments, kernel_times):
        model = ShockModel(2, Uniform(0.0, 2.0), Constant(1.0))
        segments = kernel_segments(model, 1000, seed=4)
        assert segments.shape == (1000, 2)
        assert np.all(segments > 0.0)
        times = kernel_times(model, 1000, seed=4)
        assert np.allclose(segments.sum(axis=1), times, rtol=1e-12, atol=0.0)


def _frozen_split(model, rng, size):
    """The split sampler (simulate._split_runs) as it was before it wrote in
    place."""
    law, threshold, k = model.arrivals, model.threshold, model.k
    if not isinstance(law, Exponential):
        return None
    if isinstance(threshold, Constant):
        times, nonlethal = np.zeros(size), np.zeros(size)
        for _ in range(k):
            draws = rng.exponential(scale=1.0 / law.rate, size=size)
            times += draws
            nonlethal += np.floor(draws / threshold.tau)
        times += rng.standard_gamma(nonlethal) / law.rate
        return times, nonlethal + k
    if isinstance(threshold, Exponential):
        min_rate = law.rate + threshold.rate
        c = math.log1p(law.rate / threshold.rate)
        nonlethal = np.zeros(size)
        for _ in range(k):
            nonlethal += np.floor(rng.standard_exponential(size) / c)
        gaps = nonlethal + k
        return rng.standard_gamma(gaps) / min_rate + rng.standard_gamma(nonlethal) / law.rate, gaps
    return None


def _frozen_wave_times(model, rng, n_runs):
    """The wave loop as it was before it kept the active runs compacted: it
    gathers and scatters through the run index every wave."""
    times = np.zeros(n_runs)
    gaps = 0
    lethal_counts = np.zeros(n_runs, dtype=np.int64)
    active = np.arange(n_runs)
    while active.size:
        z = np.asarray(model.arrivals.sample(rng, size=active.size), dtype=float)
        delta = np.asarray(model.threshold.sample(rng, size=active.size), dtype=float)
        times[active] += z
        gaps += active.size
        lethal_counts[active] += z <= delta
        active = active[lethal_counts[active] < model.k]
    return times, gaps


def _frozen_chunk(model, n_runs, seed, chunk_index):
    """simulate._simulate_chunk on the frozen kernels, with the moments and
    the gap total taken as they were before they were taken in place."""
    rng = simulate._chunk_rng(seed, chunk_index)
    split = _frozen_split(model, rng, n_runs)
    if split is None:
        times, gaps = _frozen_wave_times(model, rng, n_runs)
    else:
        times, gaps = split[0], int(split[1].astype(np.int64).sum())
    mean = float(times.mean())
    d = times - mean
    d2 = d * d
    moments = simulate._Moments(n_runs, mean, float(d2.sum()), float((d2 * d).sum()),
                                float((d2 * d2).sum()))
    return {"moments": moments, "times": times, "gaps": gaps,
            "min": float(times.min()), "max": float(times.max())}


class TestFrozenKernels:
    """The in-place sampler, the compacted wave loop and the in-place
    moments give every output bit of the kernels they replaced."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("threshold", [Uniform(0.5, 1.5), Exponential(1.0)],
                             ids=["uniform", "exponential"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_wave_loop(self, k, threshold, seed):
        model = ShockModel(k, Uniform(0.0, 2.0), threshold)
        times, gaps = simulate._wave_times(model, simulate._chunk_rng(seed, 0), CHUNK_SIZE)
        frozen_times, frozen_gaps = _frozen_wave_times(
            model, simulate._chunk_rng(seed, 0), CHUNK_SIZE)
        assert times.tobytes() == frozen_times.tobytes()
        assert gaps == frozen_gaps

    @pytest.mark.parametrize("rate", [1.0, 2.5, 0.7, 1e-3])
    def test_exponential_draws(self, rate):
        law, size = Exponential(rate), 10_000
        frozen = np.random.default_rng(3).exponential(scale=1.0 / rate, size=size)
        assert law.sample(np.random.default_rng(3), size).tobytes() == frozen.tobytes()
        out = np.empty(size)
        assert law.sample(np.random.default_rng(3), size, out=out) is out
        assert out.tobytes() == frozen.tobytes()

    @pytest.mark.parametrize("runs", [1, 1000, 150_000])
    @pytest.mark.parametrize("model", [
        BENCH,
        RARE,
        ShockModel(3, Exponential(1.0), Exponential(1.0)),
        RARE_EXP,
        # rates other than 1, where scaling by a rate and by its inverse differ
        ShockModel(2, Exponential(2.5), Constant(0.3)),
        ShockModel(2, Exponential(0.7), Exponential(3.0)),
        ShockModel(1, Exponential(1.0), Uniform(0.0, 2.0)),
        ShockModel(3, Uniform(0.0, 2.0), Constant(1.0)),
    ], ids=["exp-const", "rare-p01", "exp-exp", "rare-exp", "rate-const", "rate-exp",
            "k1-exp-uniform", "wave"])
    def test_batch(self, monkeypatch, model, runs):
        config = SimulationConfig(runs=runs, seed=7)
        report = run_batch(model, config)
        monkeypatch.setattr(simulate, "_simulate_chunk", _frozen_chunk)
        frozen = run_batch(model, config)
        assert report.sorted_times.tobytes() == frozen.sorted_times.tobytes()
        fields = ("mean", "variance", "se_mean", "se_variance", "mean_shock_count",
                  "min_time", "max_time")
        assert [getattr(report, f) for f in fields] == [getattr(frozen, f) for f in fields]


class TestReportShape:
    def test_single_run_has_null_variance(self):
        report = run_batch(BENCH, SimulationConfig(runs=1, seed=0))
        assert report.variance is None
        assert report.se_mean is None
        assert report.se_variance is None
        assert report.runs == 1

    def test_reservoir_caps_samples_but_not_counts(self, monkeypatch):
        # the reservoir ends inside the second of three chunks
        monkeypatch.setattr(simulate, "SAMPLE_RESERVOIR", 100_000)
        report = run_batch(BENCH, SimulationConfig(runs=150_000, seed=21))
        assert len(report.sorted_times) == 100_000
        chunks = [simulate._simulate_chunk(BENCH, n, 21, i)
                  for i, n in enumerate((CHUNK_SIZE, CHUNK_SIZE, 150_000 - 2 * CHUNK_SIZE))]
        every = np.concatenate([chunk["times"] for chunk in chunks])
        # the gap total covers every run, not only the retained ones
        assert report.mean_shock_count == sum(chunk["gaps"] for chunk in chunks) / 150_000
        assert report.sorted_times.tobytes() == np.sort(every[:100_000]).tobytes()
        # the moments cover every run, not only the retained ones
        assert report.mean == pytest.approx(every.mean(), rel=1e-13, abs=0.0)
        assert report.variance == pytest.approx(every.var(ddof=1), rel=1e-12, abs=0.0)
        assert abs(report.mean - every[:100_000].mean()) > 1e-6

    @pytest.mark.parametrize("model, runs, bound", [
        (BENCH, 1 << 20, 1.27),
        (ShockModel(3, Exponential(1.0), Exponential(1.0)), 1 << 20, 1.27),
        # p about 1e-6: some 3e6 gaps per run, which a batch only adds up
        (ShockModel(3, Exponential(1.0), Constant(1e-6)), 1 << 20, 1.27),
        (ShockModel(3, Uniform(0.0, 2.0), Constant(1.0)), 200_000, 3.63),
    ], ids=["exp-const", "exp-exp", "rare-1e-6", "wave"])
    def test_peak_memory_holds_the_sample_once(self, model, runs, bound):
        # 2^20 runs keep 10^6 times in 8 MB, and the split sampler's chunk
        # adds three or four arrays of 512 KB: 1.22 times the sample, measured.
        # 2 * 10^5 runs keep 1.6 MB, and a wave chunk adds about eight such
        # arrays, 3.58 times the sample.  A second copy of the sample would
        # add 1 more.  A one-run batch first, so that what a process
        # allocates once (about 0.77 MB) is not charged to the batch measured
        run_batch(model, SimulationConfig(runs=1, seed=3))
        tracemalloc.start()
        try:
            report = run_batch(model, SimulationConfig(runs=runs, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.sorted_times) == min(runs, simulate.SAMPLE_RESERVOIR)
        assert peak <= bound * report.sorted_times.nbytes

    @pytest.mark.parametrize("model", [BENCH, ShockModel(3, Exponential(1.0), Exponential(1.0))],
                             ids=["exp-const", "exp-exp"])
    def test_split_chunk_frees_its_counts_before_the_moments(self, model):
        # the split sampler's three chunk arrays, then the times and the
        # moments' two temporaries once the float counts are freed: 3.38
        # chunk arrays, measured, and 4.00 if the counts outlived the split.
        # A chunk first, so that what a process allocates once is not charged
        simulate._simulate_chunk(model, CHUNK_SIZE, 3, 0)
        tracemalloc.start()
        try:
            simulate._simulate_chunk(model, CHUNK_SIZE, 3, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * CHUNK_SIZE * 8

    def test_memory_does_not_grow_with_chunks(self, monkeypatch):
        # every gap lethal: one draw of k gaps per run and gammas of shape 0,
        # which draw nothing, so what the batch keeps of each chunk
        # dominates its memory
        model = ShockModel(1, Exponential(1.0), Constant(1e9))
        monkeypatch.setattr(simulate, "SAMPLE_RESERVOIR", 1_000)
        peaks = {}
        for chunks in (4, 16):
            tracemalloc.start()
            try:
                run_batch(model, SimulationConfig(runs=chunks * CHUNK_SIZE, seed=3))
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] - peaks[4] < 1e6

    def test_run_cap_propagates(self, monkeypatch):
        slow = ShockModel(3, Exponential(1.0), Constant(0.01))
        monkeypatch.setattr(simulate, "MAX_GAPS_PER_RUN", 10)
        with pytest.raises(UnrealizableModelError):
            run_batch(slow, SimulationConfig(runs=100, seed=0))

    def test_batch_never_reads_the_analytic_moments(self, monkeypatch):
        # the simulator is the oracle of the analytic routes, so it must run
        # without them
        def refuse(self):
            raise AssertionError("run_batch read the analytic moments")

        monkeypatch.setattr(ShockModel, "failure_moments", refuse)
        report = run_batch(BENCH, SimulationConfig(runs=CHUNK_SIZE + 7, seed=4))
        assert report.runs == len(report.sorted_times) == CHUNK_SIZE + 7


class TestMoments:
    def test_central_sums_match_an_exactly_rounded_reference(self):
        from deltashock.simulate import _Moments
        x = 50.0 + np.random.default_rng(3).exponential(scale=4.0, size=10_001)
        moments = _Moments.from_array(x)
        values = x.tolist()
        mean = math.fsum(values) / len(values)
        assert moments.n == len(values)
        assert moments.mean == pytest.approx(mean, rel=1e-15)
        for order, value in ((2, moments.m2), (3, moments.m3), (4, moments.m4)):
            reference = math.fsum((v - mean) ** order for v in values)
            scale = math.fsum(abs(v - mean) ** order for v in values)
            assert abs(value - reference) <= 1e-12 * scale


def _dense_ks(samples, analytic_cdf):
    """The KS statistic evaluated at every sample: the reference formula."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = len(samples)
    cdf_vals = np.asarray(analytic_cdf(samples), dtype=float)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(grid_hi - cdf_vals, cdf_vals - grid_lo)))


def _counting(function, received):
    """function, appending to received the size of the largest array among
    each call's arguments, or 1 if none is an array."""
    def counted(*args, **kwargs):
        received.append(max((a.size for a in (*args, *kwargs.values())
                             if isinstance(a, np.ndarray)), default=1))
        return function(*args, **kwargs)
    return counted


def _compare_cdf(model, report):
    """compare's KS nodes for report's samples, the inverted cdf at them,
    and a cdf through them: np.interp over the running maximum of those
    values, kinked at every node."""
    moments = model.failure_moments()
    t_hi = max(report.max_time, moments.mean + 8.0 * math.sqrt(moments.variance))
    nodes, cdf = cli._settled_cdf(model, InversionConfig(), t_hi)
    return nodes, cdf, lambda t: np.interp(t, nodes, np.maximum.accumulate(cdf))


@functools.cache
def _uniform_head_case():
    """Failure times of UNIFORM_HEAD and a cdf through its inverted cdf."""
    report = run_batch(UNIFORM_HEAD, SimulationConfig(runs=100_000, seed=11))
    return report.sorted_times, _compare_cdf(UNIFORM_HEAD, report)[2]


@functools.cache
def _bench_case():
    """A 10^6-run BENCH batch, compare's nodes for it and its inverted cdf there."""
    report = run_batch(BENCH, SimulationConfig(runs=1_000_000, seed=4))
    nodes, cdf, _ = _compare_cdf(BENCH, report)
    return report, nodes, cdf


class TestKsStatistic:
    @staticmethod
    def _at_samples(samples, cdf):
        """ks_statistic read at the samples themselves: the dense formula."""
        ordered = np.sort(samples)
        return ks_statistic(ordered, ordered, cdf(ordered))

    def test_self_distance_is_tiny(self):
        rng = np.random.default_rng(2)
        samples = np.sort(rng.exponential(size=5000))
        ecdf = lambda x: np.searchsorted(samples, x, side="right") / len(samples)
        assert self._at_samples(samples, ecdf) <= 1.0 / len(samples) + 1e-12

    def test_wrong_law_is_flagged(self):
        rng = np.random.default_rng(2)
        samples = rng.exponential(size=5000)
        wrong = lambda x: np.clip(np.asarray(x) / 4.0, 0.0, 1.0)
        assert self._at_samples(samples, wrong) > 0.1

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), np.array([1.0]), np.array([0.5]))

    CDFS = {
        # samples are Uniform(0, 2), widened past its support on request
        "true": Uniform(0.0, 2.0).cdf,
        "shifted": Uniform(0.1, 2.1).cdf,
        "normal": NormalApprox.from_moments(UNIFORM_HEAD.failure_moments()).cdf,
        "step": Constant(1.0).cdf,
        # the samples' own ecdf: every point is at distance 1/n
        "ecdf": None,
        # failure times of UNIFORM_HEAD against its inverted cdf
        "uniform_head": None,
    }

    # cdfs whose floats never fall as t rises
    EXACT = ("true", "shifted", "step", "ecdf")

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([1, 63, 64, 65, 1000]), st.integers(1, 100_000)),
        seed=st.integers(0, 2**32 - 1),
        widen=st.sampled_from([0.0, 0.25]),
        tie_step=st.sampled_from([0.0, 1e-3, 0.25]),
        name=st.sampled_from(sorted(CDFS)),
        keep=st.sampled_from([1.0, 0.1, 1e-4]),
    )
    def test_matches_the_dense_formula_bitwise(self, n, seed, widen, tie_step, name, keep):
        rng = np.random.default_rng(seed)
        samples, ordered, cdf = self._case(rng, n, widen, tie_step, name)
        dense = _dense_ks(samples, cdf)
        # the dense formula at the samples themselves, and never above it
        # at some of them or, for a cdf that never falls, at times between
        # them
        assert ks_statistic(ordered, ordered, cdf(ordered)) == dense
        nodes = rng.choice(ordered, size=max(1, round(keep * n)), replace=False)
        if name in self.EXACT:
            nodes = np.concatenate((nodes, rng.uniform(-0.5, 2.5, size=len(nodes))))
        assert ks_statistic(ordered, nodes, cdf(nodes)) <= dense

    @classmethod
    def _case(cls, rng, n, widen, tie_step, name):
        """n samples, sorted and not, and the named cdf."""
        if name == "uniform_head":
            base, cdf = _uniform_head_case()
            samples = rng.choice(base, size=n)
        else:
            samples, cdf = rng.uniform(0.0, 2.0, size=n), cls.CDFS[name]
        # widened samples fall outside the support, where F sits at 0 or 1
        samples = samples * (1.0 + widen) - widen
        if tie_step:
            samples = np.round(samples / tie_step) * tie_step
        ordered = np.sort(samples)
        if name == "ecdf":
            cdf = lambda x: np.searchsorted(ordered, x, side="right") / n
        return samples, ordered, cdf

    # the hypothesis cases stop at 10^5 samples; nodes every `block` samples
    # are a subset of them, like compare's nodes
    @pytest.mark.parametrize("n, block", [(300_000, 128), (1_000_000, 256)])
    @pytest.mark.parametrize("name", sorted(CDFS))
    def test_matches_the_dense_formula_bitwise_in_longer_blocks(self, n, block, name):
        for seed, widen, tie_step in ((1, 0.0, 0.0), (2, 0.25, 1e-3)):
            samples, ordered, cdf = self._case(np.random.default_rng(seed), n, widen, tie_step, name)
            dense = _dense_ks(samples, cdf)
            assert ks_statistic(ordered, ordered, cdf(ordered)) == dense
            nodes = ordered[::block]
            assert ks_statistic(ordered, nodes, cdf(nodes)) <= dense

    @staticmethod
    def _supremum_at(below, n, block):
        """`below` distinct samples under the support, where F = 0, then
        m = n - below samples with F = j/m: the supremum is (i+1)/n - F at
        i = below - 1.  Nodes every `block` samples find it when the node
        set holds that sample, wherever it lies between two of them."""
        m = n - below
        samples = np.concatenate((-1.0 - np.arange(below), np.arange(1, m + 1) * (2.0 / m)))
        cdf = Uniform(0.0, 2.0).cdf
        ordered = np.sort(samples)
        assert ks_statistic(ordered, ordered, cdf(ordered)) == _dense_ks(samples, cdf) == below / n
        nodes = np.concatenate((ordered[::block], [ordered[below - 1]]))
        assert ks_statistic(ordered, nodes, cdf(nodes)) == below / n

    @pytest.mark.parametrize("below", range(2, 2 * 64 + 2))
    def test_supremum_at_every_offset_in_a_block(self, below):
        self._supremum_at(below, below + 60_000, 64)

    @pytest.mark.parametrize("below", range(2, 128 + 2))
    def test_supremum_at_every_offset_in_a_longer_block(self, below):
        self._supremum_at(below, 300_000, 128)

    def test_tolerates_a_wobble_below_the_slack(self):
        # the wobble makes F fall on the flat parts outside [0, 2]
        samples = np.random.default_rng(5).uniform(-1.0, 3.0, size=50_000)
        wobbly = lambda x: Uniform(0.0, 2.0).cdf(x) + 1e-12 * np.sin(1e3 * x)
        ordered = np.sort(samples)
        assert np.any(np.diff(wobbly(ordered)) < 0)
        assert ks_statistic(ordered, ordered, wobbly(ordered)) == _dense_ks(samples, wobbly)

    def test_nan_sample_rejected(self):
        samples = np.sort(np.array([0.3, np.nan, 1.2]))
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic(samples, np.array([1.0]), np.array([0.5]))

    def test_nan_cdf_rejected(self):
        samples = np.sort(np.random.default_rng(6).exponential(size=10_000))
        with pytest.raises(ValueError, match="NaN"):
            ks_statistic(samples, samples, np.where(samples > 1.0, np.nan, 0.5))

    def test_compare_cdfs_see_a_tenth_of_the_samples(self, tmp_path, monkeypatch):
        received = []
        def counted(samples, nodes, cdf):
            received.append(len(cdf))
            return ks_statistic(samples, nodes, cdf)
        monkeypatch.setattr(cli, "ks_statistic", counted)
        simulation = SimulationConfig(runs=100_000, seed=1)
        cli.cmd_compare(cli.RunConfig(model=BENCH, simulation=simulation,
                                      output=cli.OutputSpec(directory=str(tmp_path))))
        # the inverted and the normal cdf, each at the nodes only
        assert len(received) == 2
        assert sum(received) <= 0.1 * 2 * simulation.runs

    def test_compare_nodes_stay_below_the_exact_statistic(self):
        # the inverted cdf at the nodes is within the target of the closed form
        report = run_batch(BENCH, SimulationConfig(runs=100_000, seed=8))
        nodes, cdf, _ = _compare_cdf(BENCH, report)
        samples = report.sorted_times
        exact = ks_statistic(samples, samples, exp_const_cdf(BENCH, samples))
        assert ks_statistic(samples, nodes, cdf) <= exact + 1e-6

    # at k = 1 the normal cdf is furthest from the samples below the first
    # sample, which only the node t = 0 sees
    @pytest.mark.parametrize("model", [BENCH, ShockModel(1, Exponential(1.0), Exponential(0.7))],
                             ids=["exp-const", "k1-exp-exp"])
    def test_compare_reads_the_normal_statistic_at_the_same_nodes(self, tmp_path, model):
        simulation = SimulationConfig(runs=100_000, seed=1)
        cfg = cli.RunConfig(model=model, simulation=simulation,
                            output=cli.OutputSpec(directory=str(tmp_path)))
        cli.cmd_compare(cfg)
        reported = json.loads((tmp_path / "compare.json").read_text())["ks"]["empirical_vs_normal"]
        report = run_batch(model, simulation)
        nodes, _, _ = _compare_cdf(model, report)
        normal = NormalApprox.from_moments(model.failure_moments()).cdf
        samples = report.sorted_times
        assert reported == ks_statistic(samples, nodes, normal(nodes))
        dense = _dense_ks(samples, normal)
        assert 0.995 * dense <= reported <= dense

    def test_k1_compare_passes_weighted_laplace_no_sample_array(self, tmp_path, monkeypatch):
        sizes = []
        for module in (distributions, laplace, model_module):
            monkeypatch.setattr(module, "weighted_laplace", _counting(module.weighted_laplace, sizes))
        cfg = cli.RunConfig(
            model=ShockModel(1, Uniform(0.0, 2.0), Uniform(0.5, 1.5)),
            simulation=SimulationConfig(runs=1_000_000, seed=3),
            output=cli.OutputSpec(directory=str(tmp_path)),
        )
        assert cli.cmd_compare(cfg) == cli.EXIT_OK
        # the contours' arrays, whatever the run count
        assert 0 < max(sizes) <= 0.01 * 1_000_000

    def test_peak_memory_stays_below_one_sample_copy(self):
        report, nodes, cdf = _bench_case()
        inverted = lambda t: np.interp(t, nodes, np.maximum.accumulate(cdf))
        peaks = {}
        for name in ("nodes", "dense"):
            tracemalloc.start()
            if name == "nodes":
                ks_statistic(report.sorted_times, nodes, cdf)
            else:
                _dense_ks(report.sorted_times, inverted)
            peaks[name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # 10^6 float64 samples take 8 MB; the dense pass needs several copies
        assert peaks["nodes"] < 8e6 < peaks["dense"]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(runs=0, seed=0),
        dict(runs=10, seed=-1),
        dict(runs=10, seed=2**64),
        dict(runs=10, seed=0, workers=0),
        dict(runs=1.5, seed=0),
        # bools are ints to isinstance, but no count or seed
        dict(runs=True, seed=0),
        dict(runs=10, seed=False),
        dict(runs=10, seed=0, workers=True),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

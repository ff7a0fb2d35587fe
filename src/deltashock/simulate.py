"""Seeded Monte Carlo engine for the shock process.

Work is split into fixed-size chunks of 2^16 runs; chunk i draws from its
own generator keyed by (seed, i), and chunk summaries are merged in index
order, so results are bit-identical regardless of worker count.  Moments
stream through a single-pass accumulator (merged with the parallel
central-moment formulas up to fourth order, which the variance standard
error needs), and gap counts as their exact integer total, so memory does
not grow with 1/p.  The first SAMPLE_RESERVOIR failure times are kept for
the empirical cdf in one array, allocated once at its final size, filled
chunk by chunk and sorted in place, so the batch holds the retained sample
only once.  The batch reads nothing of the analytic routes it checks.

A chunk is sampled in one of two ways.  An arrival law may draw whole runs
at once for the model's threshold law (ArrivalLaw.sample_failures).
Exponential gaps do, exactly, under a constant or an exponential threshold:
by memorylessness a run's non-lethal gap count is a sum of k geometric
counts, each drawn from one exponential, and its failure time is those
exponentials plus one gamma (constant threshold) or two gammas (exponential
threshold).  A run costs k exponentials and at most two gammas instead of
about k/p gap draws.  Every other model steps through the wave kernel
(_waves), which the tests also use as the reference.  Either way a run that
needs more than MAX_GAPS_PER_RUN gaps raises UnrealizableModelError.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .model import ShockModel, UnrealizableModelError, is_integer

__all__ = [
    "CHUNK_SIZE",
    "KS_CRITICAL_001",
    "SimulationConfig",
    "SimulationReport",
    "run_batch",
    "ks_statistic",
]

CHUNK_SIZE = 1 << 16
# Failure times a batch retains for the empirical cdf; its moments and
# counts cover every run.
SAMPLE_RESERVOIR = 1_000_000
# The runaway-run guard: a run that needs more gaps than this raises
# UnrealizableModelError.
MAX_GAPS_PER_RUN = 10**9
# Asymptotic one-sample Kolmogorov-Smirnov critical constant at alpha = 0.01.
KS_CRITICAL_001 = 1.63
# ks_statistic bounds the distance over blocks of this many order statistics
# and evaluates the cdf inside a block only when the bound can reach the
# supremum.  KS_SLACK widens that test and is the largest decrease of the
# cdf among its evaluated values that the statistic tolerates.
KS_BLOCK = 64
KS_SLACK = 1e-9


@dataclass(frozen=True)
class SimulationConfig:
    """Batch size, stream seed and worker count.  The retained-sample cap
    and the runaway-run guard are SAMPLE_RESERVOIR and MAX_GAPS_PER_RUN."""

    runs: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if not (is_integer(self.runs) and self.runs >= 1):
            raise ValueError(f"runs must be an integer >= 1, got {self.runs!r}")
        if not (is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not (is_integer(self.workers) and self.workers >= 1):
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")


@dataclass
class _Moments:
    """Count, mean and central sums up to fourth order, mergeable in order."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    @classmethod
    def from_array(cls, x: np.ndarray) -> "_Moments":
        n = len(x)
        mean = float(x.mean())
        d = x - mean
        d2 = d * d  # products, not d**3 and d**4, which go through the generic pow
        return cls(n, mean, float(d2.sum()), float((d2 * d).sum()), float((d2 * d2).sum()))

    def merge(self, other: "_Moments") -> "_Moments":
        if self.n == 0:
            return other
        na, nb = self.n, other.n
        n = na + nb
        delta = other.mean - self.mean
        mean = self.mean + delta * nb / n
        m2 = self.m2 + other.m2 + delta**2 * na * nb / n
        m3 = (
            self.m3
            + other.m3
            + delta**3 * na * nb * (na - nb) / n**2
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n
        )
        m4 = (
            self.m4
            + other.m4
            + delta**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
            + 6.0 * delta**2 * (na * na * other.m2 + nb * nb * self.m2) / n**2
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n
        )
        return _Moments(n, mean, m2, m3, m4)

    @property
    def variance(self) -> float | None:
        if self.n < 2:
            return None
        return self.m2 / (self.n - 1)


@dataclass(frozen=True)
class SimulationReport:
    """Summary of one batch: moments, mean shock count, retained sorted times."""

    runs: int
    seed: int
    mean: float
    variance: float | None
    se_mean: float | None
    se_variance: float | None
    mean_shock_count: float
    sorted_times: np.ndarray
    min_time: float
    max_time: float


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def _waves(model, rng, n_runs):
    """Vectorized waves over the still-active runs of a batch.

    Each wave draws one gap per active run, then one threshold per active
    run, and yields (active, z, lethal).
    """
    lethal_counts = np.zeros(n_runs, dtype=np.int64)
    active = np.arange(n_runs)
    for _ in range(MAX_GAPS_PER_RUN):
        z = np.asarray(model.arrivals.sample(rng, size=active.size), dtype=float)
        delta = np.asarray(model.threshold.sample(rng, size=active.size), dtype=float)
        lethal = z <= delta
        yield active, z, lethal
        lethal_counts[active] += lethal
        active = active[lethal_counts[active] < model.k]
        if not active.size:
            return
    raise UnrealizableModelError(
        f"{active.size} runs still unfinished after {MAX_GAPS_PER_RUN} gaps each")


def _split_times(model, rng, n_runs):
    """(times, exact integer gap total) from the arrival law's split sampler,
    or None when the law has no such sampler for the model's threshold."""
    split = model.arrivals.sample_failures(rng, model.k, model.threshold, n_runs)
    if split is None:
        return None
    times, gap_counts = split
    # compared as floats, before a count too large for int64 could wrap
    if gap_counts.max() > MAX_GAPS_PER_RUN:
        over = int((gap_counts > MAX_GAPS_PER_RUN).sum())
        raise UnrealizableModelError(f"{over} runs need more than {MAX_GAPS_PER_RUN} gaps each")
    return times, int(gap_counts.astype(np.int64).sum())


def _wave_times(model, rng, n_runs):
    """(times, gap total) summed over the waves: a wave gives each active run one gap."""
    times = np.zeros(n_runs)
    gaps = 0
    for active, z, _ in _waves(model, rng, n_runs):
        times[active] += z
        gaps += active.size
    return times, gaps


def _simulate_chunk(model, n_runs, seed, chunk_index):
    """Failure times and summaries of one chunk, drawn from its own stream."""
    rng = _chunk_rng(seed, chunk_index)
    split = _split_times(model, rng, n_runs)
    times, gaps = split if split is not None else _wave_times(model, rng, n_runs)
    return {
        "moments": _Moments.from_array(times),
        "times": times,
        "gaps": gaps,
        "min": float(times.min()),
        "max": float(times.max()),
    }


def run_batch(model: ShockModel, config: SimulationConfig) -> SimulationReport:
    """Simulate config.runs failure times; deterministic given (seed, runs).

    The report keeps the first SAMPLE_RESERVOIR failure times, and a run
    that needs more than MAX_GAPS_PER_RUN gaps raises UnrealizableModelError.
    """
    n_chunks = (config.runs + CHUNK_SIZE - 1) // CHUNK_SIZE
    columns = (
        repeat(model, n_chunks),
        [min(CHUNK_SIZE, config.runs - i * CHUNK_SIZE) for i in range(n_chunks)],
        repeat(config.seed, n_chunks),
        range(n_chunks),
    )

    moments = _Moments()
    gaps = 0
    kept = np.empty(min(config.runs, SAMPLE_RESERVOIR))
    filled = 0
    t_min, t_max = math.inf, -math.inf
    with ExitStack() as stack:
        if config.workers == 1 or n_chunks == 1:
            results = map(_simulate_chunk, *columns)
        else:
            # imported on use: a one-worker batch never needs the pool
            from concurrent.futures import ProcessPoolExecutor

            # a fork pool starts all its workers at the first submit, so it
            # gets no more of them than there are chunks
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=min(config.workers, n_chunks)))
            results = pool.map(_simulate_chunk, *columns)
        # each chunk is folded in as it arrives, in chunk order, and its
        # retained times are copied into the reservoir, so only the
        # reservoir outlives it
        for r in results:
            moments = moments.merge(r["moments"])
            gaps += r["gaps"]
            t_min = min(t_min, r["min"])
            t_max = max(t_max, r["max"])
            part = r["times"][: len(kept) - filled]
            kept[filled : filled + len(part)] = part
            filled += len(part)
    kept.sort()

    variance = moments.variance
    se_mean = None if variance is None else math.sqrt(variance / moments.n)
    se_variance = None
    if variance is not None and moments.n >= 4:
        n = moments.n
        m4 = moments.m4 / n
        se_variance = math.sqrt(max(m4 - (n - 3) / (n - 1) * variance**2, 0.0) / n)

    return SimulationReport(
        runs=config.runs,
        seed=config.seed,
        mean=moments.mean,
        variance=variance,
        se_mean=se_mean,
        se_variance=se_variance,
        # the exact integer gap total over the run count
        mean_shock_count=gaps / config.runs,
        sorted_times=kept,
        min_time=t_min,
        max_time=t_max,
    )


def ks_statistic(report, analytic_cdf) -> float:
    """sup |empirical cdf - analytic cdf| over the retained sorted samples.

    `report` may be a SimulationReport or a plain sample array;
    `analytic_cdf` must accept a 1-d numpy array and be finite and
    nondecreasing, as every cdf is.  The result is exactly the float of the
    dense formula max_i max((i+1)/n - F(x_i), F(x_i) - i/n), yet F is
    evaluated only at the edges of blocks of KS_BLOCK order statistics and
    inside the blocks where the supremum can lie.  For a nondecreasing F,
    every i of the block [a, b] has (i+1)/n - F(x_i) <= (b+1)/n - F(x_a)
    and F(x_i) - i/n <= F(x_b) - a/n, and rounding is monotone, so the same
    holds for the computed floats.  The edges give a lower bound on the
    supremum, and a block whose larger bound falls more than KS_SLACK below
    it holds no point that can reach it.

    Raises ValueError for an empty sample, a NaN sample, and a NaN or a
    decrease larger than KS_SLACK among the evaluated cdf values.
    """
    samples = report.sorted_times if isinstance(report, SimulationReport) else np.sort(
        np.asarray(report, dtype=float)
    )
    n = len(samples)
    if n == 0:
        raise ValueError("cannot compute a KS statistic from an empty sample")
    # np.sort puts NaN last
    if np.isnan(samples[-1]):
        raise ValueError("cannot compute a KS statistic from a sample with NaN")
    starts = np.arange(0, n, KS_BLOCK)
    ends = np.minimum(starts + (KS_BLOCK - 1), n - 1)
    edges = np.stack((starts, ends), axis=1).ravel()
    at_edges = _cdf_at(analytic_cdf, samples, edges)
    lower = float(np.max(_ks_distances(edges, at_edges, n)))
    at_starts, at_ends = at_edges[0::2], at_edges[1::2]
    bound = np.maximum((ends + 1) / n - at_starts, at_ends - starts / n)
    live = starts[bound >= lower - KS_SLACK]
    # whole live blocks, the last one padded with its final sample
    inside = np.minimum(live[:, None] + np.arange(KS_BLOCK), n - 1)
    at_inside = _cdf_at(analytic_cdf, samples, inside)
    return float(np.max(_ks_distances(inside, at_inside, n), initial=lower))


def _cdf_at(analytic_cdf, samples, idx):
    """F at samples[idx], shaped like idx; along its last axis F must not
    fall by more than KS_SLACK."""
    values = np.asarray(analytic_cdf(samples[idx.ravel()]), dtype=float).reshape(idx.shape)
    # NaN fails the comparison, and propagates through the running maximum
    if not np.all(values >= np.maximum.accumulate(values, axis=-1) - KS_SLACK):
        raise ValueError("analytic_cdf must be nondecreasing and not NaN on the samples")
    return values


def _ks_distances(idx, values, n):
    """max((i+1)/n - F(x_i), F(x_i) - i/n) elementwise, as the dense formula
    rounds it."""
    return np.maximum((idx + 1) / n - values, values - idx / n)

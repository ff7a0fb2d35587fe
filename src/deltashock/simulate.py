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

The chunk kernels work in place: the split sampler draws, scales and sums
into three chunk-sized arrays, the moments take two temporaries, and a
chunk's arrays are freed before the next chunk is drawn.  A 2^20-run batch
peaks at 1.22 times the retained sample's bytes under tracemalloc.  The
first 10^6-run batch of a fresh interpreter takes about 85 ms and later
ones about 57 ms (exponential gaps, Constant(ln 2), k = 3; 2-core Xeon VM,
Python 3.11, numpy 2.4).

A chunk is sampled in one of two ways.  For Exponential gaps under a
constant or an exponential threshold, the split sampler (_split_runs) draws
whole runs at once, exactly: by memorylessness a run's non-lethal gap count
is a sum of k geometric counts, each drawn from one exponential, and its
failure time is those exponentials plus one gamma (constant threshold) or
two gammas (exponential threshold).  A run costs k exponentials and at
most two gammas instead of about k/p gap draws.  How a run is drawn belongs
to the model, so no law brings a run sampler of its own.  Every other model
steps through the wave kernel (_waves), which the tests also use as the
reference.  It keeps the active runs' lethal counts, and _wave_times their
elapsed times, as compacted arrays, which drop the finished runs only after
a wave that finished some.
Either way a run that needs more than MAX_GAPS_PER_RUN gaps raises
UnrealizableModelError.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .distributions import Constant, Exponential
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
        mean = float(x.mean())
        d = x - mean
        # products, not d**3 and d**4, which go through the generic pow,
        # each written over a factor it no longer needs
        d2 = d * d
        m2 = float(d2.sum())
        d *= d2
        m3 = float(d.sum())
        d2 *= d2
        return cls(len(x), mean, m2, m3, float(d2.sum()))

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
    """Vectorized waves over the still-active runs of a chunk.

    Each wave draws one gap per active run, then one threshold per active
    run, and yields (active, z, lethal, done): the active runs' indices,
    their gaps and lethal flags, and the mask of the runs whose gap was
    their k-th lethal one, or None if no run finished.  The active runs'
    lethal counts are kept in wave order, and after a wave that finished
    runs they and `active` drop those runs; a caller that keeps its own
    array in wave order drops them with the same mask.
    """
    lethal_counts = np.zeros(n_runs, dtype=np.int64)
    active = np.arange(n_runs)
    for _ in range(MAX_GAPS_PER_RUN):
        z = np.asarray(model.arrivals.sample(rng, size=active.size), dtype=float)
        lethal = z <= np.asarray(model.threshold.sample(rng, size=active.size), dtype=float)
        lethal_counts += lethal
        done = lethal_counts >= model.k
        if not done.any():
            yield active, z, lethal, None
            continue
        yield active, z, lethal, done
        if done.all():
            return
        keep = ~done
        active, lethal_counts = active[keep], lethal_counts[keep]
    raise UnrealizableModelError(
        f"{active.size} runs still unfinished after {MAX_GAPS_PER_RUN} gaps each")


def _split_runs(model, rng, n_runs):
    """Failure times and gap counts of n_runs runs, drawn without stepping
    gap by gap, for Exponential gaps under a Constant or an Exponential
    threshold; None, drawing nothing from rng, for any other model.

    A run fails at its k-th gap at or below its own threshold draw.  The gap
    counts come back as floats holding exact integers, so that a caller can
    compare them with a cap before any integer could wrap, and sum them
    exactly below it.
    """
    law, threshold, k = model.arrivals, model.threshold, model.k
    if not (isinstance(law, Exponential) and isinstance(threshold, (Constant, Exponential))):
        return None
    # Memorylessness splits every gap at the threshold.  A segment's
    # non-lethal count M is Geometric(p), drawn as floor(E / c) from one
    # exponential E with P(E >= c) = 1 - p, and a run's count is
    # N = M_1 + ... + M_k.  Nothing is subtracted, so no digits are lost
    # as p -> 0; a count too large for any cap overflows to inf.  The k
    # exponentials of each run are drawn one row of n_runs at a time, the
    # stream order of a single (k, n_runs) draw.  Every step writes into
    # three arrays of n_runs.
    draws, nonlethal = np.empty(n_runs), np.zeros(n_runs)
    if isinstance(threshold, Constant):
        # E ~ Exp(rate), c = tau: the remainder E - M tau, independent of
        # M, is a lethal gap, and each non-lethal gap is tau plus an
        # Exp(rate) excess, so a run lasts E_1 + ... + E_k + Gamma(N)/rate.
        # standard_gamma(0) is 0 and draws nothing.
        times = np.zeros(n_runs)
        with np.errstate(over="ignore"):
            for _ in range(k):
                times += law.sample(rng, n_runs, out=draws)
                draws /= threshold.tau
                nonlethal += np.floor(draws, out=draws)
        rng.standard_gamma(nonlethal, out=draws)
        draws /= law.rate
        times += draws
        nonlethal += k
        return times, nonlethal
    # A gap Z ~ Exp(rate) is lethal against delta ~ Exp(mu) with
    # p = rate / (rate + mu), and min(Z, delta) ~ Exp(rate + mu) is
    # independent of which one is smaller.  A lethal gap is that minimum; a
    # non-lethal one is the minimum plus an Exp(rate) excess.  So a run
    # lasts Gamma(N + k)/(rate + mu) + Gamma(N)/rate.
    c = math.log1p(law.rate / threshold.rate)  # > 0 wherever p > 0
    with np.errstate(over="ignore"):
        for _ in range(k):
            rng.standard_exponential(out=draws)
            draws /= c
            nonlethal += np.floor(draws, out=draws)
    gaps = nonlethal + k
    times = rng.standard_gamma(gaps, out=draws)
    times /= law.rate + threshold.rate
    # the sampler reads each shape before it writes that element's draw, so
    # the second gamma may overwrite its own shapes
    rng.standard_gamma(nonlethal, out=nonlethal)
    nonlethal /= law.rate
    times += nonlethal
    return times, gaps


def _split_times(model, rng, n_runs):
    """(times, exact integer gap total) from the split sampler, or None for
    a model it does not cover."""
    split = _split_runs(model, rng, n_runs)
    if split is None:
        return None
    times, gap_counts = split
    # compared as floats, before a count too large for int64 could wrap
    if gap_counts.max() > MAX_GAPS_PER_RUN:
        over = int((gap_counts > MAX_GAPS_PER_RUN).sum())
        raise UnrealizableModelError(f"{over} runs need more than {MAX_GAPS_PER_RUN} gaps each")
    # CHUNK_SIZE * MAX_GAPS_PER_RUN < 2^53, so every partial sum of these
    # integers is exact in a float, in any order
    return times, int(gap_counts.sum())


def _wave_times(model, rng, n_runs):
    """(times, gap total) summed over the waves: a wave gives each active run
    one gap, and a run's time is stored when it finishes."""
    times = np.empty(n_runs)
    elapsed = np.zeros(n_runs)  # the active runs', in wave order
    gaps = 0
    for active, z, _, done in _waves(model, rng, n_runs):
        elapsed += z
        gaps += z.size
        if done is not None:
            times[active[done]] = elapsed[done]
            elapsed = elapsed[~done]
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
            # so that this chunk's arrays are freed before the next is drawn
            del r, part
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


def ks_statistic(samples, nodes, cdf) -> float:
    """max over the nodes t of max(F_n(t) - F(t), F(t) - F_n(t-)), with F_n
    the ecdf of the sorted samples and F(t) the cdf value at each node.

    A supremum over a subset of times never exceeds the full KS statistic,
    so against the true cdf its KS test rejects no more often than its level.
    At the samples themselves it is the dense formula
    max_i max((i+1)/n - F(x_i), F(x_i) - i/n) bit for bit.

    Raises ValueError for an empty sample, a NaN sample and a NaN cdf value.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("cannot compute a KS statistic from an empty sample")
    # sorted, so a NaN sample is last
    if np.isnan(samples[-1]):
        raise ValueError("cannot compute a KS statistic from a sample with NaN")
    cdf = np.asarray(cdf, dtype=float)
    if np.isnan(cdf).any():
        raise ValueError("cannot compute a KS statistic against a NaN cdf value")
    at = np.searchsorted(samples, nodes, "right") / n
    below = np.searchsorted(samples, nodes, "left") / n
    return float(np.max(np.maximum(at - cdf, cdf - below)))

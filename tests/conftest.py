"""Shared test helpers."""

import numpy as np
import pytest

from deltashock.simulate import CHUNK_SIZE, _chunk_rng, _wave_times, _waves


def _kernel_gaps(model, runs, seed, count):
    """The first `count` lethal and the first `count` non-lethal gaps that the
    wave kernel draws for a batch of `runs` runs, in chunk and wave order.

    Gaps are split by the kernel's own lethal flag, so the conditional gap
    laws test the kernel's labelling as well as its draws.
    """
    lethal, nonlethal = [], []
    for index in range(-(-runs // CHUNK_SIZE)):
        size = min(CHUNK_SIZE, runs - index * CHUNK_SIZE)
        for _, z, hit in _waves(model, _chunk_rng(seed, index), size):
            lethal.append(z[hit])
            nonlethal.append(z[~hit])
    lethal, nonlethal = np.concatenate(lethal)[:count], np.concatenate(nonlethal)[:count]
    assert len(lethal) == len(nonlethal) == count
    return lethal, nonlethal


@pytest.fixture
def kernel_gaps():
    return _kernel_gaps


def _chunk_sizes(runs):
    return [min(CHUNK_SIZE, runs - start) for start in range(0, runs, CHUNK_SIZE)]


def _kernel_times(model, runs, seed):
    """Failure times of `runs` runs summed from the wave kernel's gaps, one
    stream per chunk as in run_batch: the reference for the split sampler."""
    return np.concatenate([_wave_times(model, _chunk_rng(seed, index), size)[0]
                           for index, size in enumerate(_chunk_sizes(runs))])


@pytest.fixture
def kernel_times():
    return _kernel_times


def _chunk_segments(model, rng, n_runs):
    """The k inter-lethal segment lengths of each run of one chunk."""
    segments = np.zeros((n_runs, model.k))
    lethal_counts = np.zeros(n_runs, dtype=np.int64)
    elapsed = np.zeros(n_runs)
    for active, z, lethal in _waves(model, rng, n_runs):
        elapsed[active] += z
        ended = active[lethal]
        segments[ended, lethal_counts[ended]] = elapsed[ended]
        lethal_counts[ended] += 1
        elapsed[ended] = 0.0
    return segments


def _kernel_segments(model, runs, seed):
    """The k inter-lethal segment lengths of each of `runs` runs, shape
    (runs, k), from the wave kernel's gaps, one stream per chunk as in
    kernel_times.  Segment i is the time from the (i-1)-th lethal shock (or
    the start) to the i-th, so a row sums to the run's failure time."""
    return np.concatenate([_chunk_segments(model, _chunk_rng(seed, index), size)
                           for index, size in enumerate(_chunk_sizes(runs))])


@pytest.fixture
def kernel_segments():
    return _kernel_segments


def _split_counts(model, runs, seed):
    """The gap count of each of `runs` runs from the arrival law's split
    sampler, one stream per chunk: exactly the counts run_batch draws for a
    model that has the split, as integers."""
    counts = [model.arrivals.sample_failures(_chunk_rng(seed, index), model.k, model.threshold,
                                             size)[1]
              for index, size in enumerate(_chunk_sizes(runs))]
    return np.concatenate(counts).astype(np.int64)


@pytest.fixture
def split_counts():
    return _split_counts

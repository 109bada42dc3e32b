"""Seeded uniform sampling of orderings and empirical checks of the
progression-count expectation law, the distribution of the longest
embedded progression, and the two-point concentration window.

All randomness comes from a fixed, portable 64-bit generator (splitmix64).
Each sample draws from its own substream derived from (seed, sample index),
so results are bit-identical no matter how samples are distributed across
workers.

Every experiment scans its samples with the set's length engine
(las.length_engine), N_k samples included, one ordering at a time; so
ExperimentConfig refuses sets above las.ENGINE_CAP before any sampling.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from . import asymptotics, counting, las
from .errors import CapExceeded
from .groups import AdditiveSetSpec, Frozen

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Most orderings one Monte Carlo experiment draws (simulate exits 2 above
# it); exhaustive enumeration runs 10! = 3,628,800 orderings serially.
SAMPLE_CAP = 10**7


def _fmix64(z: int) -> int:
    """murmur3 64-bit finalizer; bijective avalanche mix."""
    z &= _M64
    z ^= z >> 33
    z = (z * 0xFF51AFD7ED558CCD) & _M64
    z ^= z >> 33
    z = (z * 0xC4CEB9FE1A85EC53) & _M64
    z ^= z >> 33
    return z


class SplitMix64:
    """splitmix64: state advances by a fixed odd constant, output is the
    finalizer of the state.  Documented, portable, and tiny."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _M64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _M64
        z = self.state
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & _M64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & _M64
        z ^= z >> 31
        return z

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by top-bits rejection; unbiased."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        shift = 64 - bits
        while True:
            v = self.next_u64() >> shift
            if v < n:
                return v


def substream(seed: int, index: int) -> SplitMix64:
    """Generator for sample `index` of an experiment with the given seed.

    The starting state is remixed so neighbouring substreams do not overlap
    as shifted copies of one splitmix sequence.
    """
    return SplitMix64(_fmix64((_fmix64(seed) + (index & _M64) * _GOLDEN) & _M64))


def _shuffled_indices(card: int, rng: SplitMix64) -> list[int]:
    """Unbiased swap shuffle of the canonical indices 0..card-1."""
    out = list(range(card))
    for i in range(card - 1, 0, -1):
        j = rng.randbelow(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def sample_ordering(spec: AdditiveSetSpec, rng: SplitMix64) -> las.Ordering:
    """Uniform random ordering of the set; advances the generator."""
    return las.Ordering.from_indices(spec, _shuffled_indices(spec.cardinality, rng))


_set = object.__setattr__


class ExperimentConfig(Frozen):
    """A reproducible experiment: identical configs give identical results."""

    __slots__ = ("spec", "samples", "seed", "k")

    def __init__(self, spec: AdditiveSetSpec, samples: int, seed: int, k: int | None = None):
        if not 0 <= seed <= _M64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if samples > SAMPLE_CAP:
            raise CapExceeded(f"samples capped at {SAMPLE_CAP}")
        if spec.cardinality > las.ENGINE_CAP:
            raise CapExceeded(f"sampling runs length engines, capped at |A| <= {las.ENGINE_CAP}")
        _set(self, "spec", spec)
        _set(self, "samples", samples)
        _set(self, "seed", seed)
        _set(self, "k", k)


class SubseqCountStats(Frozen):
    """Sample statistics of the k-progression subsequence count."""

    __slots__ = ("mean", "stderr", "expected", "z", "samples")

    def __init__(self, mean: float, stderr: float, expected: float, z: float, samples: int):
        _set(self, "mean", mean)
        _set(self, "stderr", stderr)
        _set(self, "expected", expected)
        _set(self, "z", z)
        _set(self, "samples", samples)


def _tally_chunk(args) -> Counter:
    """{value: count} over the samples start .. stop - 1: the value is the
    sample's L, or its N_k when k is not None."""
    spec, seed, start, stop, k = args
    engine = las.length_engine(spec)
    card = spec.cardinality
    orderings = (_shuffled_indices(card, substream(seed, i)) for i in range(start, stop))
    if k is None:
        return Counter(map(engine.length_of_indices, orderings))
    return Counter(map(engine.count_of_indices, orderings, itertools.repeat(k)))


def _map_chunks(config: ExperimentConfig, parallel: int | None, k: int | None = None) -> Counter:
    """The tally of _tally_chunk over all samples, one range of consecutive
    samples per pool worker (or one range in-process).  The pool has no more
    workers than ranges, and a single range runs in-process."""
    spec, m, seed = config.spec, config.samples, config.seed
    size = -(-m // parallel) if parallel and parallel > 1 else m
    jobs = [(spec, seed, a, min(a + size, m), k) for a in range(0, m, size)]
    if len(jobs) == 1:
        return _tally_chunk(jobs[0])
    import multiprocessing  # only here: importing it slows every CLI start

    with multiprocessing.Pool(len(jobs)) as pool:
        return sum(pool.map(_tally_chunk, jobs), Counter())


def estimate_Nk_mean(
    config: ExperimentConfig, *, parallel: int | None = None
) -> SubseqCountStats:
    """Mean number of k-progression subsequences over sampled orderings,
    with its standard error and z-score against the exact expectation."""
    if config.k is None:
        raise ValueError("config.k is required")
    if config.k < 2:
        raise ValueError("k must be >= 2")
    spec, m, k = config.spec, config.samples, config.k
    count = counting.count_for_set(spec, k).exact
    tally = _map_chunks(config, parallel, k)

    # integer sums keep the statistics independent of chunking
    total = sum(v * c for v, c in tally.items())
    total_sq = sum(v * v * c for v, c in tally.items())
    mean = total / m
    expected = count / math.factorial(k) if count else 0.0
    if m > 1:
        var = (total_sq - total * total / m) / (m - 1)
        stderr = math.sqrt(max(var, 0.0) / m)
    else:
        stderr = 0.0
    if stderr == 0.0:
        z = 0.0 if mean == expected else math.copysign(math.inf, mean - expected)
    else:
        z = (mean - expected) / stderr
    return SubseqCountStats(mean, stderr, expected, z, m)


def empirical_L_distribution(
    config: ExperimentConfig, *, parallel: int | None = None
) -> dict[int, float]:
    """Fraction of sampled orderings attaining each longest-progression
    length; keys are the observed lengths, sorted."""
    tally = _map_chunks(config, parallel)
    m = config.samples
    return {k: tally[k] / m for k in sorted(tally)}


def coverage_experiment(
    config: ExperimentConfig, *, parallel: int | None = None
) -> float:
    """Fraction of sampled orderings whose longest-progression length lands
    in the solved threshold window."""
    lo, hi = asymptotics.solve_threshold(config.spec).window
    tally = _map_chunks(config, parallel)
    inside = sum(cnt for k, cnt in tally.items() if lo <= k <= hi)
    return inside / config.samples

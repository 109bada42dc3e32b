"""Seeded uniform sampling of orderings and empirical checks of the
progression-count expectation law, the distribution of the longest
embedded progression, and the two-point concentration window.

All randomness comes from a fixed, portable 64-bit generator (splitmix64).
Each sample draws from its own substream derived from (seed, sample index),
so results are bit-identical no matter how samples are distributed across
workers.

N_k samples are counted in blocks, one lane per ordering, by
las.count_in_orders; a chunk of fewer than _NK_MIN_LANES samples counts
each ordering by las.count_in_order, the per-ordering route.  Both give the
same integers, so the statistics do not depend on the route.
"""

from __future__ import annotations

import math

from . import asymptotics, counting, las
from .errors import CapExceeded
from .groups import AdditiveSetSpec, Frozen

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# estimate_Nk_mean keeps every progression k-ordering as an index tuple, in
# each pool worker: count * k entries.  4 * 10^6 entries admit cyclic:1000 at
# k = 3 (2,994,000 entries, about 140 MB).
NK_ENTRY_BUDGET = 4 * 10**6
# Most orderings one Monte Carlo experiment draws (simulate exits 2 above
# it); exhaustive enumeration runs 10! = 3,628,800 orderings serially.
SAMPLE_CAP = 10**7
# _nk_chunk counts at most this many orderings in one las.count_in_orders
# call: each element's column then holds 1 KB of 16-bit lanes.
_NK_LANES = 512
# Below this many samples a chunk counts one ordering at a time: on cyclic:1000
# at k = 3 the lane kernel takes x2.7, x1.6 and x1.2 the scalar loop's time at
# one, two and three lanes, and x0.8 at four.
_NK_MIN_LANES = 4


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
        _set(self, "spec", spec)
        _set(self, "samples", samples)
        _set(self, "seed", seed)
        _set(self, "k", k)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.samples, self.seed, self.k) == (
            other.spec, other.samples, other.seed, other.k)

    def __hash__(self) -> int:
        return hash((self.spec, self.samples, self.seed, self.k))

    def __repr__(self) -> str:
        return (
            f"ExperimentConfig(spec={self.spec!r}, samples={self.samples!r}, "
            f"seed={self.seed!r}, k={self.k!r})"
        )

    def __reduce__(self):
        return self.__class__, (self.spec, self.samples, self.seed, self.k)


class SubseqCountStats(Frozen):
    """Sample statistics of the k-progression subsequence count."""

    __slots__ = ("mean", "stderr", "expected", "z", "samples")

    def __init__(self, mean: float, stderr: float, expected: float, z: float, samples: int):
        _set(self, "mean", mean)
        _set(self, "stderr", stderr)
        _set(self, "expected", expected)
        _set(self, "z", z)
        _set(self, "samples", samples)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.mean, self.stderr, self.expected, self.z, self.samples) == (
            other.mean, other.stderr, other.expected, other.z, other.samples)

    def __hash__(self) -> int:
        return hash((self.mean, self.stderr, self.expected, self.z, self.samples))

    def __repr__(self) -> str:
        return (
            f"SubseqCountStats(mean={self.mean!r}, stderr={self.stderr!r}, "
            f"expected={self.expected!r}, z={self.z!r}, samples={self.samples!r})"
        )

    def __reduce__(self):
        return self.__class__, (self.mean, self.stderr, self.expected, self.z, self.samples)


def _nk_chunk(args) -> list[int]:
    spec, seed, start, stop, k = args
    progs = las.progression_index_tuples(spec, k)
    card = spec.cardinality
    if stop - start < _NK_MIN_LANES:
        return [
            las.count_in_order(progs, _shuffled_indices(card, substream(seed, i)))
            for i in range(start, stop)
        ]
    blocks = -(-(stop - start) // _NK_LANES)
    size = -(-(stop - start) // blocks)  # blocks of near-equal size
    out: list[int] = []
    for a in range(start, stop, size):
        seqs = (_shuffled_indices(card, substream(seed, i)) for i in range(a, min(a + size, stop)))
        out += las.count_in_orders(progs, seqs)
    return out


def _map_chunks(worker, config: ExperimentConfig, parallel: int | None, *extra) -> list:
    """worker's results on consecutive sample ranges, one range per pool
    worker (or one range in-process), in sample order.  The pool has no more
    workers than ranges, and a single range runs in-process."""
    spec, m, seed = config.spec, config.samples, config.seed
    size = -(-m // parallel) if parallel and parallel > 1 else m
    jobs = [(spec, seed, a, min(a + size, m), *extra) for a in range(0, m, size)]
    if len(jobs) == 1:
        return [worker(jobs[0])]
    import multiprocessing  # only here: importing it slows every CLI start

    with multiprocessing.Pool(len(jobs)) as pool:
        return pool.map(worker, jobs)


def estimate_Nk_mean(
    config: ExperimentConfig, *, parallel: int | None = None
) -> SubseqCountStats:
    """Mean number of k-progression subsequences over sampled orderings,
    with its standard error and z-score against the exact expectation."""
    if config.k is None:
        raise ValueError("config.k is required")
    spec, m, k = config.spec, config.samples, config.k
    count = counting.count_for_set(spec, k).exact
    if count * k > NK_ENTRY_BUDGET:
        raise CapExceeded(
            f"{spec} has {count} progression {k}-orderings ({count * k} terms); "
            f"N_k sampling is capped at {NK_ENTRY_BUDGET} stored terms"
        )
    values = [v for part in _map_chunks(_nk_chunk, config, parallel, k) for v in part]

    # integer sums keep the statistics independent of chunking
    total = sum(values)
    total_sq = sum(v * v for v in values)
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


def _length_chunk(args) -> dict[int, int]:
    spec, seed, start, stop = args
    length_of = las.length_engine(spec).length_of_indices
    card = spec.cardinality
    tally: dict[int, int] = {}
    for i in range(start, stop):
        L = length_of(_shuffled_indices(card, substream(seed, i)))
        tally[L] = tally.get(L, 0) + 1
    return tally


def _sample_length_counts(
    config: ExperimentConfig, parallel: int | None
) -> dict[int, int]:
    tally: dict[int, int] = {}
    for part in _map_chunks(_length_chunk, config, parallel):
        for key, cnt in part.items():
            tally[key] = tally.get(key, 0) + cnt
    return tally


def empirical_L_distribution(
    config: ExperimentConfig, *, parallel: int | None = None
) -> dict[int, float]:
    """Fraction of sampled orderings attaining each longest-progression
    length; keys are the observed lengths, sorted."""
    tally = _sample_length_counts(config, parallel)
    m = config.samples
    return {k: tally[k] / m for k in sorted(tally)}


def coverage_experiment(
    config: ExperimentConfig, *, parallel: int | None = None
) -> float:
    """Fraction of sampled orderings whose longest-progression length lands
    in the solved threshold window."""
    lo, hi = asymptotics.solve_threshold(config.spec).window
    tally = _sample_length_counts(config, parallel)
    inside = sum(cnt for k, cnt in tally.items() if lo <= k <= hi)
    return inside / config.samples

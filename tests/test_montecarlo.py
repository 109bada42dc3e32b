import math
from collections import Counter

import pytest

from apseq import enumeration, las, montecarlo
from apseq.counting import iter_progressions
from apseq.groups import cyclic, interval_box
from apseq.montecarlo import (
    ExperimentConfig,
    SplitMix64,
    coverage_experiment,
    empirical_L_distribution,
    estimate_Nk_mean,
    sample_ordering,
    substream,
)

# upper 1e-6 tail of the chi-square distribution with 23 degrees of freedom
CHI2_CRIT_DF23 = 70.5496


def test_splitmix_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_randbelow_range_and_edges():
    rng = SplitMix64(1)
    for n in (1, 2, 3, 7, 100):
        for _ in range(200):
            assert 0 <= rng.randbelow(n) < n
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_substreams_differ():
    outs = {substream(9, i).next_u64() for i in range(1000)}
    assert len(outs) == 1000


def test_sample_ordering_deterministic():
    spec = cyclic(5)
    o1 = sample_ordering(spec, substream(42, 0))
    o2 = sample_ordering(spec, substream(42, 0))
    assert o1 == o2
    o3 = sample_ordering(spec, substream(43, 0))
    assert isinstance(o1, las.Ordering)
    assert o1 != o3 or o1.indices == o3.indices


def test_singleton_sample():
    o = sample_ordering(cyclic(1), substream(0, 0))
    assert o.indices == (0,)


def test_shuffle_uniformity_chi_square():
    n, samples = 4, 10**5
    counts: dict[tuple, int] = {}
    for i in range(samples):
        perm = tuple(montecarlo._shuffled_indices(n, substream(42, i)))
        counts[perm] = counts.get(perm, 0) + 1
    cells = math.factorial(n)
    expected = samples / cells
    chisq = sum((c - expected) ** 2 / expected for c in counts.values())
    chisq += (cells - len(counts)) * expected
    assert chisq <= CHI2_CRIT_DF23


def test_estimate_nk_against_expectation():
    cfg = ExperimentConfig(interval_box(50), 2000, 1, 3)
    st = estimate_Nk_mean(cfg)
    assert abs(st.expected - 200.0) <= 1e-9
    assert abs(st.z) <= 3
    cfg = ExperimentConfig(cyclic(50), 2000, 1, 3)
    st = estimate_Nk_mean(cfg)
    assert abs(st.expected - 400.0) <= 1e-9
    assert abs(st.z) <= 3


def test_estimate_nk_full_length():
    # k = |A|: only the two full progressions can appear, so every sampled
    # value is a small nonnegative integer and the expectation is 2/n!
    n = 6
    cfg = ExperimentConfig(interval_box(n), 500, 3, n)
    st = estimate_Nk_mean(cfg)
    assert abs(st.expected - 2 / math.factorial(n)) <= 1e-12
    assert 0.0 <= st.mean <= 1.0


def test_estimate_nk_z_battery():
    sizes = [(20, 3), (30, 3), (40, 3), (25, 4), (36, 4), (48, 4), (60, 3), (18, 3), (24, 4), (50, 5)]
    configs = [(interval_box(n), k) for n, k in sizes]
    configs += [(cyclic(n), k) for n, k in sizes]
    good = 0
    for spec, k in configs:
        st = estimate_Nk_mean(ExperimentConfig(spec, 400, 123, k))
        good += abs(st.z) <= 3
    assert good >= 19  # at least 95% of the 20 committed configurations


def test_estimate_requires_k():
    with pytest.raises(ValueError):
        estimate_Nk_mean(ExperimentConfig(cyclic(5), 10, 0))


def test_empirical_distribution_small_exact():
    spec = cyclic(2)
    hist = empirical_L_distribution(ExperimentConfig(spec, 100, 5))
    assert hist == {2: 1.0}


def test_empirical_distribution_converges():
    for spec in [interval_box(6), cyclic(6)]:
        table = enumeration.distribution(spec)
        exact = {k: c / table.total for k, c in table.as_dict().items()}
        hist = empirical_L_distribution(ExperimentConfig(spec, 20000, 11))
        keys = set(exact) | set(hist)
        tv = 0.5 * sum(abs(hist.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
        assert tv <= 0.02, (spec, tv)


def test_empirical_distribution_linf_against_golden_rows():
    from apseq.cli import _golden_rows

    cases = [
        (cyclic(12), _golden_rows("cyclic")[12]),
        (interval_box(7), _golden_rows("interval")[7]),
    ]
    for spec, golden in cases:
        total = math.factorial(spec.cardinality)
        exact = {k + 1: c / total for k, c in enumerate(golden) if c}
        hist = empirical_L_distribution(ExperimentConfig(spec, 10**4, 11))
        keys = set(exact) | set(hist)
        linf = max(abs(hist.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
        assert linf <= 0.02, (spec, linf)


def test_empirical_distribution_converges_n8():
    for spec in [interval_box(8), cyclic(8)]:
        table = enumeration.distribution(spec)
        exact = {k: c / table.total for k, c in table.as_dict().items()}
        hist = empirical_L_distribution(ExperimentConfig(spec, 10**5, 11))
        keys = set(exact) | set(hist)
        tv = 0.5 * sum(abs(hist.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
        assert tv <= 0.01, (spec, tv)


def test_parallel_matches_serial():
    cfg = ExperimentConfig(cyclic(20), 300, 77)
    assert empirical_L_distribution(cfg) == empirical_L_distribution(cfg, parallel=2)
    # chunks of 300, 100, 6, 3 and 2 samples, and 600 samples in one chunk
    # or two, give the same integers and so the same statistics
    for samples, parallels in ((300, (3,)), (6, (1, 2, 3)), (600, (1, 2))):
        cfg_k = ExperimentConfig(cyclic(20), samples, 77, 3)
        a = estimate_Nk_mean(cfg_k)
        for parallel in parallels:
            b = estimate_Nk_mean(cfg_k, parallel=parallel)
            assert (a.mean, a.stderr, a.expected, a.z) == (b.mean, b.stderr, b.expected, b.z)


def test_nk_chunk_routes_match_count_in_order():
    spec = cyclic(20)
    # a cyclic group's canonical index is its element's value
    progs = [tuple(x for (x,) in terms) for _ap, terms in iter_progressions(spec, 3)]
    want = [
        las.count_in_order(progs, montecarlo._shuffled_indices(20, substream(5, i)))
        for i in range(520)
    ]
    # chunks of 513, 3 and 4 samples, from the first sample and from later ones
    for start, stop in ((0, 513), (7, 520), (4, 7), (10, 14)):
        assert montecarlo._tally_chunk((spec, 5, start, stop, 3)) == Counter(want[start:stop])


def test_single_chunk_runs_in_process(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for a single chunk")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cfg = ExperimentConfig(cyclic(20), 1, 77, 3)
    a = estimate_Nk_mean(cfg)
    b = estimate_Nk_mean(cfg, parallel=4)
    assert (a.mean, a.stderr, a.expected, a.z) == (b.mean, b.stderr, b.expected, b.z)
    assert empirical_L_distribution(cfg, parallel=8) == empirical_L_distribution(cfg)
    # the config's k does not turn the length histogram into an N_k one
    without_k = ExperimentConfig(cyclic(20), 1, 77)
    assert empirical_L_distribution(cfg) == empirical_L_distribution(without_k)


def test_pool_has_no_more_workers_than_chunks(monkeypatch):
    import multiprocessing

    real_pool, sizes = multiprocessing.Pool, []

    def recording_pool(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    cfg = ExperimentConfig(cyclic(20), 2, 77, 3)
    b = estimate_Nk_mean(cfg, parallel=8)
    a = estimate_Nk_mean(cfg)
    assert sizes == [2]
    assert (a.mean, a.stderr, a.expected, a.z) == (b.mean, b.stderr, b.expected, b.z)


def test_coverage_experiment_consistency():
    cfg = ExperimentConfig(cyclic(30), 400, 9)
    coverage = coverage_experiment(cfg)
    from apseq import asymptotics

    lo, hi = asymptotics.solve_threshold(cyclic(30)).window
    hist = empirical_L_distribution(cfg)
    manual = sum(v for k, v in hist.items() if lo <= k <= hi)
    assert abs(coverage - manual) <= 1e-12
    assert 0.0 <= coverage <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(cyclic(5), 0, 1)

"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q -p no:cacheprovider
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gates  # noqa: E402
import run  # noqa: E402
from tracing import layer_report, self_times, tail_percentile  # noqa: E402
from workloads import Job, enum_jobs  # noqa: E402


def _span_tree():
    # bench.round [0, 10]
    #   las.engine_build [1, 4]
    #     las.step_cycles [2, 3]
    #   counting.closed [5, 9]
    return [
        ("bench.round", 0.0, 10.0, -1),
        ("las.engine_build", 1.0, 4.0, 0),
        ("las.step_cycles", 2.0, 3.0, 1),
        ("counting.closed", 5.0, 9.0, 0),
    ]


def test_self_time_is_duration_minus_children():
    assert self_times(_span_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 3.0, 6.0, 0), ("d", 8.0, 12.0, 0)]
    # children cover [1, 6] and [8, 10] inside the parent: 7 of its 10
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_self_times_add_up_to_wall():
    report = layer_report(_span_tree(), {})
    assert report["bench.self_s"] == 3.0
    assert report["las.self_s"] == 3.0
    assert report["counting.self_s"] == 4.0
    assert report["trace.self_sum_s"] == report["trace.wall_s"] == 10.0


@pytest.mark.parametrize(
    "n, percentile",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    got = tail_percentile(list(range(1, n + 1)))
    if percentile is None:
        assert got is None
    else:
        assert got[0] == percentile
        assert n - got[1] >= 10


def test_tail_percentile_uses_nearest_rank():
    assert tail_percentile(list(range(100, 0, -1))) == (90.0, 90)


def test_round_time_sums_command_means_of_scaled_samples():
    # command 0 ran in both rounds, command 1 only in the first; a sample
    # timed while the calibration loop ran twice as slow counts half
    ref = run.CALIBRATION_REF_S
    outputs = [
        {"index": 0, "wall_s": 2.0, "scaled_s": run.scaled(2.0, ref), "orderings": 10},
        {"index": 1, "wall_s": 1.0, "scaled_s": run.scaled(1.0, ref), "orderings": 5},
        {"index": 0, "wall_s": 8.0, "scaled_s": run.scaled(8.0, 2 * ref), "orderings": 10},
    ]
    assert run.per_round(outputs, [True, True, False]) == (4.0, 10.0, 1.5)
    assert run.per_round(outputs, [True, True, True], "wall_s") == (6.0, 15.0, 2.0)


def _cli(argv):
    import apseq.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert apseq.cli.main(argv) == 0
    return out.getvalue()


def test_planted_table_mismatch_raises_fail_ratio():
    co = run.Checkout(ROOT)
    jobs = enum_jobs(0, "")
    index = next(i for i, j in enumerate(jobs) if j.kind == "tables" and j.spec == "interval")
    good = _cli(list(jobs[index].argv))
    bad = good.replace("8,0,282,21984", "8,0,283,21984")
    assert bad != good

    def output(text, rnd):
        return {"round": rnd, "index": index, "argv": list(jobs[index].argv), "code": 0,
                "stdout": text}

    clean = run.Outcome()
    assert run.gate_enum(co, [output(good, 0), output(good, 1)], 0, clean) == [True, True]
    assert clean.failed == 0

    planted = run.Outcome()
    assert run.gate_enum(co, [output(good, 0), output(bad, 1)], 0, planted) == [True, False]
    assert planted.failed / planted.attempted == 0.5


def test_planted_histogram_mismatch_is_caught():
    import apseq

    job = Job(("simulate", "--set", "cyclic:12", "--samples", "20", "--seed", "5",
               "--histogram", "--json"), "histogram", "cyclic:12", 20, seed=5)
    good = _cli(list(job.argv))
    lengths = gates.oracle_lengths(apseq, job)
    assert gates.check_histogram(good, job, lengths) is None
    # move one sample from one length to another
    doc = json.loads(good)
    hist = doc["result"]["histogram"]
    keys = sorted(hist, key=int)
    hist[keys[0]] -= 1 / 20
    hist[keys[-1]] += 1 / 20
    bad = json.dumps(doc, sort_keys=True)
    outcome = run.Outcome()
    outcome.record(gates.check_histogram(good, job, lengths))
    outcome.record(gates.check_histogram(bad, job, lengths))
    assert outcome.failed == 1 and outcome.attempted == 2


def test_window_check_rejects_a_shifted_window():
    # cyclic:9 has its threshold in [4, 5]
    counts = {k: c for k, c in enumerate([0, 9, 72, 72, 54, 54, 54, 54, 54, 54])}
    assert gates.window_reason(counts, 4, 5) is None
    assert gates.window_reason(counts, 5, 6) is not None

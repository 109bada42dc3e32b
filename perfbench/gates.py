"""Output gate: every output of a workload checked against its own oracle.

A check returns None when the output is right and a short reason when it is
not; the caller counts reasons into `failed` instead of stopping.

- enum-exact: rows against the golden CSVs bundled with the package, after
  their SHA-256 manifest has been verified here.
- mc-large: histograms recomputed with the pair-DP witness algorithm on the
  same `sample_ordering(spec, substream(seed, i))` orderings; the threshold
  window is checked against oracle counts and math.lgamma.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

GOLDEN_FILES = {"interval": "interval_distribution.csv", "cyclic": "cyclic_distribution.csv"}
WINDOW_TOL = 1e-9


class GoldenError(Exception):
    pass


def golden_tables(root: str) -> dict[str, dict[int, list[int]]]:
    """Golden rows by family and n, read only after each file matches the
    manifest."""
    data = os.path.join(root, "src", "apseq", "data")
    with open(os.path.join(data, "golden.sha256"), encoding="utf-8") as fh:
        manifest = dict(line.split()[::-1] for line in fh.read().split("\n") if line.strip())
    tables = {}
    for family, name in GOLDEN_FILES.items():
        with open(os.path.join(data, name), "rb") as fh:
            raw = fh.read()
        if hashlib.sha256(raw).hexdigest() != manifest.get(name):
            raise GoldenError(f"{name} does not match golden.sha256")
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        tables[family] = {int(r[0]): [int(v) for v in r[1:]] for r in rows[1:]}
    return tables


def guarded(check, *args) -> str | None:
    """Run a check; an output it cannot parse, or an oracle that raises, is
    a failed check rather than a crashed benchmark."""
    try:
        return check(*args)
    except Exception as exc:  # reported as the check's failure reason
        return f"{check.__name__}: {type(exc).__name__}: {exc}"


def window_reason(counts: dict[int, int], lo: int, hi: int) -> str | None:
    """The threshold x solves log count(x) = log Gamma(x+1) with
    count interpolated between integer nodes, and the difference falls in
    x; so the window [floor x, ceil x] must have f(lo) >= 0 >= f(hi) with
    f(k) = log count(k) - lgamma(k+1)."""
    if not 0 <= hi - lo <= 1:
        return f"window [{lo}, {hi}] is not a floor/ceil pair"

    def f(k):
        return math.log(counts[k]) - math.lgamma(k + 1)

    if hi > lo and (f(lo) < -WINDOW_TOL or f(hi) > WINDOW_TOL):
        return f"window [{lo}, {hi}] does not bracket the threshold"
    if hi == lo and abs(f(lo)) > 1e-6 and not (lo == 2 and f(2) <= 0):
        return f"window [{lo}, {hi}] is not at a root"
    return None


def _size(spec_text: str) -> int:
    return int(spec_text.split(":", 1)[1])


def check_enumerate(stdout: str, job, golden, oracle_profile) -> str | None:
    doc = json.loads(stdout)
    res = doc["result"]
    family = job.spec.split(":", 1)[0]
    n = _size(job.spec)
    want = {k: c for k, c in enumerate(golden[family][n], start=1) if c}
    got = {int(k): v for k, v in res["counts"].items()}
    if res["set"] != job.spec or doc["params"]["symmetry"] != job.symmetry:
        return f"{job.spec}: echoed parameters differ"
    if got != want:
        return f"{job.spec}: counts {got} differ from golden row {want}"
    total = math.factorial(n)
    if res["total"] != total:
        return f"{job.spec}: total {res['total']} != {total}"
    lo, hi = res["window"]
    mass = sum(c for k, c in want.items() if lo <= k <= hi) / total
    if res["window_mass"] != mass:
        return f"{job.spec}: window mass {res['window_mass']} != {mass}"
    return window_reason(oracle_profile(job.spec, hi), lo, hi)


def check_tables(stdout: str, job, golden) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    max_n = int(job.argv[job.argv.index("--max-n") + 1])
    header = ["n"] + [f"k{k}" for k in range(1, max_n + 1)]
    if not rows or rows[0] != header:
        return f"tables {job.spec}: header {rows[:1]}"
    want = [[str(n)] + [str(v) for v in golden[job.spec][n][:max_n]] for n in range(1, max_n + 1)]
    if rows[1:] != want:
        return f"tables {job.spec}: rows differ from golden table"
    return None


def oracle_lengths(apseq, job) -> list[int]:
    """L of each sampled ordering of a simulate job, by the pair DP."""
    spec = apseq.groups.parse_set_spec(job.spec)
    mc = apseq.montecarlo
    return [
        apseq.las.longest_ap_pairdp(mc.sample_ordering(spec, mc.substream(job.seed, i))).length
        for i in range(job.orderings)
    ]


def check_histogram(stdout: str, job, lengths: list[int]) -> str | None:
    doc = json.loads(stdout)
    tally: dict[int, int] = {}
    for L in lengths:
        tally[L] = tally.get(L, 0) + 1
    want = {str(k): tally[k] / job.orderings for k in sorted(tally)}
    res = doc["result"]
    if doc["params"]["set"] != job.spec or res["samples"] != job.orderings:
        return f"{job.spec}: echoed parameters differ"
    if res["histogram"] != want:
        return f"{job.spec} seed {job.seed}: histogram {res['histogram']} != oracle {want}"
    return None


def check_coverage(stdout: str, job, lengths: list[int], oracle_profile) -> str | None:
    doc = json.loads(stdout)
    res = doc["result"]
    lo, hi = res["window"]
    if [math.floor(res["value"]), math.ceil(res["value"])] != [lo, hi]:
        return f"{job.spec}: window {lo, hi} does not round the value {res['value']}"
    inside = sum(1 for L in lengths if lo <= L <= hi) / job.orderings
    if res["coverage"] != inside or res["samples"] != job.orderings:
        return f"{job.spec} seed {job.seed}: coverage {res['coverage']} != oracle {inside}"
    return window_reason(oracle_profile(job.spec, hi), lo, hi)


def make_oracle_profile(apseq):
    """Progression counts from the package's brute-force oracles, which
    know no closed forms.  Cached per (set, k_max)."""
    cache: dict = {}

    def profile(spec_text: str, k_max: int) -> dict[int, int]:
        key = (spec_text, k_max)
        if key not in cache:
            spec = apseq.groups.parse_set_spec(spec_text)
            if spec.is_group:
                prof = apseq.counting.cycle_profile(spec, k_max)
            else:
                prof = apseq.counting.brute_force_profile(spec, k_max)
            cache[key] = dict(enumerate(prof))
        return cache[key]

    return profile

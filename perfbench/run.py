"""Layered benchmark of apseq.

    python3 perfbench/run.py --workload mc-large|enum-exact|verify-mix|all
                             --seed N [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it uses the package under
./src and nothing installed.  Workloads, metrics and the predictions they
support are described in perfbench/README.md.

--trace 0 times the workload with tracing off and prints the end-to-end
metrics.  --trace 1 runs the workload in-process twice, without and with
spans around every layer, and prints the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  A record
of the run (commit, Python, CPU count, seed, load, every metric) is written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import tail_percentile  # noqa: E402
from workloads import DET_ARGV, TRACE_ROUNDS, WORKLOADS, derived_seed, describe, enum_jobs, mc_jobs  # noqa: E402

# Set-up is timed in two batches, one before and one after the timed
# loop, so that one slow stretch of the machine cannot hold every sample.
# A batch times at least SETUP_MIN_REPS fresh interpreters, and more (up to
# SETUP_MAX_REPS) while less than SETUP_MIN_S has been measured.
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 8
SETUP_MIN_S = 1.0
JOB_TIMEOUT_S = 150.0

# The host's speed drifts by up to a third over minutes, and in a slow
# stretch every command slows by about the same factor.  So each timed
# sample is scaled to a reference speed: just before it, the runner times
# a fixed pure-Python loop, and the sample counts as
# wall * CALIBRATION_REF_S / (the loop's time).  CALIBRATION_REF_S is about
# the loop's median time on the 2-CPU host of the baseline.  The unscaled
# times are printed and kept in the run record.
CALIBRATION_REF_S = 0.025


def calibration_s() -> float:
    """Time of a fixed pure-Python loop (about 25 ms): the host's current speed."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(150_000):
        total += (i * 7) % 13
        table[i & 1023] = total
    return time.perf_counter() - t0


def scaled(seconds: float, calibration: float) -> float:
    return seconds * CALIBRATION_REF_S / calibration


class Checkout:
    """Paths and process environment for one source checkout."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.work = os.path.join(HERE, ".work", f"{os.getpid()}")
        self.results = os.path.join(HERE, "results")
        self.peak_rss_kb = 0

    def has_package(self) -> bool:
        return os.path.isfile(os.path.join(self.src, "apseq", "__init__.py"))

    def declared(self, key: str) -> dict[str, str]:
        """Name -> unit of the metrics BENCHMARK.json lists under `key`; the
        JSON line reports exactly these."""
        with open(os.path.join(self.root, "BENCHMARK.json"), encoding="utf-8") as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[key]}

    def spawn(self, argv, *, timeout: float, track_rss: bool) -> tuple[int, str, float]:
        """Run argv to completion; return (exit code, stdout, wall seconds).
        The child's max RSS comes from os.wait4."""
        os.makedirs(self.work, exist_ok=True)
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop and reap the child, then re-raise
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if track_rss:
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return proc.returncode, stdout, wall

    def cli(self, argv, *, track_rss=True):
        return self.spawn([sys.executable, "-m", "apseq.cli", *argv],
                          timeout=JOB_TIMEOUT_S, track_rss=track_rss)

    def child(self, args, *, timeout: float, track_rss=False) -> dict:
        code, stdout, wall = self.spawn([sys.executable, os.path.join(HERE, "child.py"), *args],
                                        timeout=timeout, track_rss=track_rss)
        if code != 0:
            raise RuntimeError(f"child {' '.join(args)} exited with {code}")
        doc = json.loads(stdout.strip().splitlines()[-1])
        doc["spawn_wall_s"] = wall
        return doc

    def commit(self) -> str | None:
        head = os.path.join(self.root, ".git", "HEAD")
        try:
            with open(head, encoding="utf-8") as fh:
                ref = fh.read().strip()
            if ref.startswith("ref: "):
                with open(os.path.join(self.root, ".git", ref[5:]), encoding="utf-8") as fh:
                    return fh.read().strip()
            return ref
        except OSError:
            return None

    def source_digest(self) -> str:
        digest = hashlib.sha256()
        base = os.path.join(self.src, "apseq")
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
        return digest.hexdigest()

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


class Outcome:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._unlisted = 0

    def record(self, reason: str | None) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)
        return reason is None

    def merge(self, attempted: int, failed: int, reasons: list[str]) -> None:
        """Add operations counted elsewhere; `reasons` may list only the
        first few of the `failed` ones."""
        self.attempted += attempted
        self._unlisted += failed - len(reasons)
        self.failures += reasons

    @property
    def failed(self) -> int:
        return len(self.failures) + self._unlisted


# -- gates -------------------------------------------------------------------


def gate_mc(co: Checkout, outputs: list[dict], seed: int, outcome: Outcome) -> list[bool]:
    """The first output of each command line against the oracle, later ones
    (same command line, so same orderings) against it byte for byte.
    Returns pass/fail per output."""
    import apseq.cli  # binds apseq with every layer module loaded
    import gates

    profile = gates.make_oracle_profile(apseq)
    jobs = mc_jobs(seed)
    lengths: dict[int, list[int]] = {}
    reference: dict[int, str] = {}
    ok = []
    for out in outputs:
        job = jobs[out["index"]]
        reason = _exit_reason(out)
        if reason is None and out["index"] in reference:
            if out["stdout"] != reference[out["index"]]:
                reason = f"{' '.join(job.argv)}: output differs from the gated one"
        elif reason is None:
            if job.seed not in lengths:
                lengths[job.seed] = gates.oracle_lengths(apseq, job)
            if job.kind == "histogram":
                reason = gates.guarded(gates.check_histogram, out["stdout"], job, lengths[job.seed])
            else:
                reason = gates.guarded(gates.check_coverage, out["stdout"], job,
                                       lengths[job.seed], profile)
            if reason is None:
                reference[out["index"]] = out["stdout"]
        ok.append(outcome.record(reason))
    return ok


def gate_enum(co: Checkout, outputs: list[dict], seed: int, outcome: Outcome) -> list[bool]:
    """Every output against the golden tables; the cached read of each round
    also against that round's cold run."""
    import apseq.cli  # binds apseq with every layer module loaded
    import gates

    profile = gates.make_oracle_profile(apseq)
    jobs = enum_jobs(seed, "")
    try:
        golden = gates.golden_tables(co.root)
        golden_error = None
    except (gates.GoldenError, OSError, ValueError) as exc:
        golden, golden_error = None, str(exc)
    cold: dict[tuple, str] = {}
    ok = []
    for out in outputs:
        job = jobs[out["index"]]
        reason = _exit_reason(out) or golden_error
        if reason is None:
            if job.kind == "tables":
                reason = gates.guarded(gates.check_tables, out["stdout"], job, golden)
            else:
                reason = gates.guarded(gates.check_enumerate, out["stdout"], job, golden, profile)
        key = (out.get("run"), out["round"])
        if reason is None and job.cache == "cold":
            cold[key] = out["stdout"]
        if reason is None and job.cache == "warm" and out["stdout"] != cold.get(key):
            reason = f"{job.spec}: cached read differs from the cold run"
        ok.append(outcome.record(reason))
    return ok


def _exit_reason(out: dict) -> str | None:
    if out["code"] != 0:
        return f"{' '.join(out['argv'])}: exit code {out['code']}"
    return None


# -- workload runs ------------------------------------------------------------


def measure_setup(co: Checkout, workload: str, raw: list[float]) -> list[float]:
    """Scaled set-up samples of one batch; the unscaled ones go to `raw`."""
    samples: list[float] = []
    while len(samples) < SETUP_MIN_REPS or (
        len(samples) < SETUP_MAX_REPS and sum(samples) < SETUP_MIN_S
    ):
        calibration = calibration_s()
        raw.append(co.child(["--setup", workload], timeout=JOB_TIMEOUT_S)["setup_s"])
        samples.append(scaled(raw[-1], calibration))
    return samples


def determinism_check(co: Checkout, seed: int, outcome: Outcome) -> str:
    """simulate --histogram must print the same bytes at --parallel 1 and 2.
    Never asks for more workers than os.cpu_count()."""
    workers = min(2, os.cpu_count() or 1)
    if workers < 2:
        return "skipped: one CPU"
    argv = DET_ARGV + ["--seed", str(derived_seed(seed, "determinism"))]
    outs = []
    for parallel in (1, workers):
        code, stdout, _ = co.cli(argv + ["--parallel", str(parallel)], track_rss=False)
        outs.append((code, stdout))
    reason = None
    if any(code != 0 for code, _ in outs):
        reason = "determinism: simulate exited nonzero"
    elif outs[0][1] != outs[1][1]:
        reason = "determinism: --parallel 1 and --parallel 2 outputs differ"
    outcome.record(reason)
    return "ok" if reason is None else reason


def timed_cli_loop(co: Checkout, workload: str, seed: int, seconds: float) -> tuple[list[dict], int]:
    """Run the round's commands one after another, round after round, until
    `seconds` have passed and at least one round is complete."""
    outputs = []
    rounds = 0
    start = time.perf_counter()
    while True:
        if workload == "mc-large":
            jobs = mc_jobs(seed)
        else:
            jobs = enum_jobs(seed, os.path.join(co.work, f"cache-{rounds}"))
        for index, job in enumerate(jobs):
            if rounds and time.perf_counter() - start >= seconds:
                return outputs, rounds
            calibration = calibration_s()
            code, stdout, wall = co.cli(list(job.argv))
            outputs.append({"round": rounds, "index": index, "argv": list(job.argv), "code": code,
                            "stdout": stdout, "wall_s": wall, "scaled_s": scaled(wall, calibration),
                            "orderings": job.orderings, "label": job.label})
        rounds += 1


def per_round(outputs: list[dict], passed: list[bool],
              field: str = "scaled_s") -> tuple[float, float, float]:
    """(round time, orderings delivered per round, outputs passed per round).
    A round's time is the sum over its commands of each command's mean time
    (`field` of its outputs) in the run, so a run that ends inside a round
    still weighs every command as a whole round does."""
    walls: dict[int, list[float]] = {}
    delivered: dict[int, list[float]] = {}
    for out, ok in zip(outputs, passed):
        walls.setdefault(out["index"], []).append(out[field])
        delivered.setdefault(out["index"], []).append(out["orderings"] if ok else 0)
    round_s = sum(statistics.fmean(w) for w in walls.values())
    orderings = sum(statistics.fmean(d) for d in delivered.values())
    passes = sum(statistics.fmean(1.0 if d else 0.0 for d in ds) for ds in delivered.values())
    return round_s, orderings, passes


def run_untraced(co: Checkout, workload: str, seed: int, seconds: float) -> dict:
    outcome = Outcome()
    raw_setup: list[float] = []
    setup = measure_setup(co, workload, raw_setup)
    info: dict = {"setup_samples_s": setup, "raw_setup_samples_s": raw_setup}
    if workload == "verify-mix":
        # one fresh interpreter per round, so that no state (such as the
        # threshold solver's log-count cache) grows with the rounds a run fits
        walls, scaled_walls = [], []
        orderings = passes = 0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            calibration = calibration_s()
            doc = co.child(["--workload", workload, "--seed", str(seed),
                            "--first-round", str(len(walls))],
                           timeout=JOB_TIMEOUT_S, track_rss=True)
            walls.append(doc["spawn_wall_s"])
            scaled_walls.append(scaled(doc["spawn_wall_s"], calibration))
            outcome.merge(doc["checks"], doc["failed"], doc["failures"])
            orderings += doc["orderings"]
            passes += doc["checks"] - doc["failed"]
        rounds = len(walls)
        round_s = statistics.fmean(scaled_walls)
        raw_round_s = statistics.fmean(walls)
        orderings /= rounds
        passes /= rounds
        info.update(rounds=rounds, round_walls_s=walls)
    else:
        if workload == "mc-large":
            info["determinism"] = determinism_check(co, seed, outcome)
        outputs, rounds = timed_cli_loop(co, workload, seed, seconds)
        gate = gate_mc if workload == "mc-large" else gate_enum
        passed = gate(co, outputs, seed, outcome)
        round_s, orderings, passes = per_round(outputs, passed)
        raw_round_s = per_round(outputs, passed, "wall_s")[0]
        info.update(rounds=rounds, jobs=len(outputs), job_latency=_latencies(outputs))
    setup += measure_setup(co, workload, raw_setup)
    metrics = {
        "orderings_per_s": orderings / round_s,
        "checks_per_s": passes / round_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": co.peak_rss_kb / 1024.0,
    }
    info.update(round_s=round_s, orderings_per_round=orderings, checks_per_round=passes,
                unscaled={"orderings_per_s": orderings / raw_round_s,
                          "checks_per_s": passes / raw_round_s,
                          "setup_s": statistics.median(raw_setup)},
                fail_ratio=outcome.failed / outcome.attempted if outcome.attempted else 0.0)
    declared = co.declared("end_to_end")
    return {"metrics": {k: (metrics[k], unit) for k, unit in declared.items()},
            "outcome": outcome, "info": info}


def _latencies(outputs: list[dict]) -> dict:
    by_cmd: dict[str, list[float]] = {}
    for out in outputs:
        by_cmd.setdefault(out["label"], []).append(out["wall_s"])
    table = {}
    for key, walls in by_cmd.items():
        row = {"n": len(walls), "mean_s": statistics.fmean(walls),
               "median_s": statistics.median(walls)}
        tail = tail_percentile(walls)
        if tail is not None:
            row[f"p{tail[0]:g}_s"] = tail[1]
        table[key] = row
    return table


def run_traced(co: Checkout, workload: str, seed: int) -> dict:
    outcome = Outcome()
    rounds = TRACE_ROUNDS[workload]
    base = ["--workload", workload, "--seed", str(seed), "--rounds", str(rounds)]
    timeout = JOB_TIMEOUT_S * 2
    plain = co.child(base + ["--trace", "0", "--work", os.path.join(co.work, "plain")],
                     timeout=timeout)
    os.makedirs(co.results, exist_ok=True)
    spans_path = os.path.join(co.results, f"spans-{workload}.tsv.gz")
    traced = co.child(base + ["--trace", "1", "--spans", spans_path,
                              "--work", os.path.join(co.work, "traced")], timeout=timeout)
    if workload == "verify-mix":
        for doc in (plain, traced):
            outcome.merge(doc["checks"], doc["failed"], doc["failures"])
    else:
        for run, doc in enumerate((plain, traced)):
            for out in doc["outputs"]:
                out["run"] = run
        gate = gate_mc if workload == "mc-large" else gate_enum
        gate(co, plain["outputs"] + traced["outputs"], seed, outcome)
    layers = dict(traced["layers"])
    layers["cli.import_s"] = traced["import_s"]
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    metrics = {k: (float(layers.get(k, 0.0)), unit) for k, unit in co.declared("per_layer").items()}
    info = {"rounds": rounds, "layers": layers, "spans_file": os.path.relpath(spans_path, co.root),
            "missing_targets": traced["missing_targets"],
            "fail_ratio": outcome.failed / outcome.attempted if outcome.attempted else 0.0}
    return {"metrics": metrics, "outcome": outcome, "info": info}


# -- reporting ----------------------------------------------------------------


def print_report(workload: str, trace: int, res: dict) -> None:
    info = res["info"]
    print(f"== {workload} ({'traced' if trace else 'untraced'})")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    outcome = res["outcome"]
    print(f"  {'fail_ratio':34s} {info['fail_ratio']:>16.6g} ({outcome.failed}/{outcome.attempted})")
    for reason in outcome.failures[:10]:
        print(f"  FAILED: {reason}")
    if trace:
        print("  per-layer detail:")
        for name, value in sorted(info["layers"].items()):
            print(f"    {name:44s} {value:>16.6g}")
        if info["missing_targets"]:
            print(f"  not traced (absent in this version): {', '.join(info['missing_targets'])}")
    else:
        print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in info["unscaled"].items()))
        for cmd, row in sorted(info.get("job_latency", {}).items()):
            print(f"  job {cmd:44s} " + " ".join(f"{k}={v:.4g}" for k, v in row.items()))


def run_workload(co: Checkout, workload: str, seed: int, seconds: float, trace: int) -> dict:
    co.peak_rss_kb = 0
    if trace:
        res = run_traced(co, workload, seed)
    else:
        res = run_untraced(co, workload, seed, seconds)
    record = {
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "seconds": seconds,
        "commit": co.commit(),
        "source_sha256": co.source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "load": describe(workload, seed),
        "attempted": res["outcome"].attempted,
        "failed": res["outcome"].failed,
        "failures": res["outcome"].failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        "info": res["info"],
    }
    os.makedirs(co.results, exist_ok=True)
    with open(os.path.join(co.results, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_report(workload, trace, res)
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Layered benchmark of apseq.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    co = Checkout(os.getcwd())
    if not co.has_package():
        print("perfbench: no apseq package under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, co.src)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(co, w, args.seed, args.seconds, args.trace) for w in names}
    finally:
        co.cleanup()
    attempted = sum(r["outcome"].attempted for r in results.values())
    failed = sum(r["outcome"].failed for r in results.values())
    metrics = {}
    for w, r in results.items():
        for name, (value, unit) in r["metrics"].items():
            metrics[name if len(results) == 1 else f"{w}.{name}"] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

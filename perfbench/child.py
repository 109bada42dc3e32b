"""Runs rounds of one workload inside this fresh interpreter.

    python3 perfbench/child.py --workload W --seed N [--first-round R0] [--rounds R]
                               [--trace 0|1] [--spans PATH] [--work DIR]
    python3 perfbench/child.py --setup W

mc-large and enum-exact call `apseq.cli.main` with the same command lines
the timed run starts as subprocesses; verify-mix runs the battery.  With
--trace 1 every layer's entry points are wrapped in spans first.  --setup
times the set-up of a workload instead: import apseq.cli, parse each set,
build its length engine.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time


def _load_apseq(root: str):
    t0 = time.perf_counter()
    import apseq.cli

    import_s = time.perf_counter() - t0
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(apseq.cli.__file__).startswith(src + os.sep):
        sys.exit(f"apseq was imported from {apseq.cli.__file__}, not from {src}")
    return apseq, import_s


def setup_probe(workload: str, root: str) -> dict:
    from workloads import setup_specs

    t0 = time.perf_counter()
    apseq, _ = _load_apseq(root)
    for text in setup_specs(workload):
        apseq.las.length_engine(apseq.groups.parse_set_spec(text))
    return {"setup_s": time.perf_counter() - t0}


def _run_cli(apseq, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = apseq.cli.main(list(argv))
        except Exception as exc:  # reported as a failed job, like a nonzero exit
            print(f"{type(exc).__name__}: {exc}", file=sys.__stderr__)
            code = -1
    return code, out.getvalue()


def run_rounds(args, root: str) -> dict:
    from tracing import LAYERS, Tracer, layer_report
    from workloads import enum_jobs, mc_jobs

    apseq, import_s = _load_apseq(root)
    modules = {name: sys.modules[f"apseq.{name}"] for name in LAYERS if f"apseq.{name}" in sys.modules}
    tracer = None
    missing: list[str] = []
    if args.trace:
        tracer = Tracer(f"{args.workload}:{args.seed}")
        missing = tracer.install(modules)
    log_count = getattr(modules.get("asymptotics"), "log_count", None)
    cache_before = log_count.cache_info() if hasattr(log_count, "cache_info") else None

    battery = None
    if args.workload == "verify-mix":
        from battery import Battery

        battery = Battery(args.seed)
    outputs = []
    start = time.perf_counter()
    for r in range(args.first_round, args.first_round + args.rounds):
        with tracer.span("bench.round") if tracer else contextlib.nullcontext():
            if battery is not None:
                battery.round(r)
                continue
            if args.workload == "mc-large":
                jobs = mc_jobs(args.seed)
            else:
                jobs = enum_jobs(args.seed, os.path.join(args.work, f"cache-{r}"))
            for index, job in enumerate(jobs):
                code, text = _run_cli(apseq, job.argv)
                outputs.append({"round": r, "index": index, "argv": list(job.argv),
                                "code": code, "stdout": text})
    wall = time.perf_counter() - start

    result = {"import_s": import_s, "wall_s": wall, "outputs": outputs}
    if battery is not None:
        result.update(checks=battery.checks, failures=battery.failures[:20],
                      failed=len(battery.failures), orderings=battery.orderings)
    if tracer is not None:
        tracer.uninstall()
        delta = None
        if cache_before is not None:
            after = log_count.cache_info()
            delta = (after.hits - cache_before.hits, after.misses - cache_before.misses)
        result["layers"] = layer_report(tracer.spans(), tracer.counters, log_count_delta=delta)
        result["missing_targets"] = missing
        if args.spans:
            tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--setup")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--first-round", type=int, default=0)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    p.add_argument("--work", default=".")
    args = p.parse_args(argv)
    root = os.getcwd()
    result = setup_probe(args.setup, root) if args.setup else run_rounds(args, root)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Data (JSON or CSV) goes to stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 budget or cap violation, 3 internal error (a
failed invariant, a golden-table mismatch or any unexpected exception).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import __version__, asymptotics, counting, enumeration, groups, las, montecarlo
from . import nonabelian
from .errors import CapExceeded, InternalInvariantError
from .groups import AdditiveSetSpec, parse_set_spec

GOLDEN_FILES = {
    "interval": "interval_distribution.csv",
    "cyclic": "cyclic_distribution.csv",
}

# Upper bound of --parallel.  More workers per CPU only add processes; up to
# four per CPU still lets a small host check that the split of the work into
# chunks leaves the output unchanged.
MAX_PARALLEL = 4 * (os.cpu_count() or 1)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parallel_workers(text: str) -> int:
    if not text.isdecimal() or not 1 <= int(text) <= MAX_PARALLEL:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [1, {MAX_PARALLEL}], got {text!r}"
        )
    return int(text)


def _check_csv(path: str | None) -> None:
    """Refuse, before any work, a --csv path that names a directory or lies
    in a missing one; the file is neither opened nor truncated here."""
    if path and os.path.isdir(path):
        raise _UsageError(f"cannot write {path}: Is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise _UsageError(f"cannot write {path}: No such file or directory")


def _write_csv(path: str, text: str) -> None:
    """Write text to the --csv path; a path that cannot be written is a
    usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _envelope(command: str, params: dict, result, seed=None) -> dict:
    doc = {
        "command": command,
        "params": params,
        "result": result,
        "tool_version": __version__,
    }
    if seed is not None:
        doc["seed"] = seed
    return doc


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _parse_sequence(spec: AdditiveSetSpec, text: str) -> las.Ordering:
    """Sequence entries are canonical indices; for the one-dimensional
    interval family a permutation of the values 1..n is also accepted."""
    entries = [int(s) for s in text.split(",")]
    card = spec.cardinality
    if (
        spec.family == groups.INTERVAL
        and spec.d == 1
        and sorted(entries) == list(range(1, card + 1))
    ):
        return las.Ordering(spec, [(v,) for v in entries])
    return las.Ordering.from_indices(spec, entries)


def _parse_coords(spec: AdditiveSetSpec, text: str) -> las.Ordering:
    seq = []
    for part in text.split(";"):
        seq.append(tuple(int(s) for s in part.split(",")))
    return las.Ordering(spec, seq)


def _cmd_count(args) -> int:
    spec = parse_set_spec(args.set)
    if args.method == "brute":
        res = counting.brute_force_count(spec, args.k)
    elif args.method == "bounds":
        if spec.family == groups.INTERVAL:
            if spec.d != 1:
                raise _UsageError("bounds are available for d=1 intervals and groups")
            res = counting.bounds_interval(spec.n, args.k)
        else:
            res = counting.bounds_abelian(spec, args.k)
    else:
        res = counting.count_for_set(spec, args.k)
    result = {
        "set": str(spec),
        "k": args.k,
        "lower": res.lower,
        "upper": res.upper,
        "method": res.method,
    }
    if res.exact is not None:
        result["exact"] = res.exact
    params = {"set": str(spec), "k": args.k, "method": args.method}
    if args.json:
        _emit_json(_envelope("count", params, result))
    elif res.exact is not None:
        print(res.exact)
    else:
        print(f"{res.lower} {res.upper}")
    return 0


def _cmd_las(args) -> int:
    spec = parse_set_spec(args.set)
    if args.coords:
        ordering = _parse_coords(spec, args.coords)
    elif args.sequence:
        ordering = _parse_sequence(spec, args.sequence)
    else:
        raise _UsageError("las requires --sequence or --coords")
    # auto is the default spelling of orbit, on every family
    if args.algorithm == "pairdp":
        algorithm, res = "pairdp", las.longest_ap_pairdp(ordering)
    else:
        algorithm, res = "orbit", las.longest_ap_orbitwalk(ordering)
    result: dict = {"set": str(spec), "length": res.length, "algorithm": algorithm}
    if args.witness and res.base is not None:
        result["witness"] = {
            "base": list(res.base),
            "step": list(res.step),
            "positions": list(res.indices),
        }
    params = {
        "set": str(spec),
        "sequence": list(ordering.indices),
        "algorithm": algorithm,
        "witness": bool(args.witness),
    }
    if args.json:
        _emit_json(_envelope("las", params, result))
    else:
        print(res.length)
    return 0


def _distribution(spec: AdditiveSetSpec, args) -> enumeration.DistributionTable:
    return enumeration.distribution(
        spec,
        symmetry_reduction=args.symmetry,
        parallel=args.parallel,
        cache_dir=args.cache or os.environ.get("APSEQ_CACHE_DIR"),
    )


def _distribution_payload(spec: AdditiveSetSpec, table) -> dict:
    result = {
        "set": str(spec),
        "counts": {str(k): c for k, c in table.as_dict().items() if c},
        "total": table.total,
    }
    # two-point window diagnostic; sets with no k >= 2 have none
    try:
        thr = asymptotics.solve_threshold(spec)
    except ValueError:
        return result
    lo, hi = thr.window
    mass = sum(c for k, c in table.as_dict().items() if lo <= k <= hi)
    result["window"] = [lo, hi]
    result["window_mass"] = mass / table.total
    return result


def _cmd_enumerate(args) -> int:
    spec = parse_set_spec(args.set)
    _check_csv(args.csv)
    table = _distribution(spec, args)
    result = _distribution_payload(spec, table)
    params = {"set": str(spec), "symmetry": bool(args.symmetry)}
    if args.csv:
        card = spec.cardinality
        _write_csv(args.csv, _distribution_csv([(card, table.row())], card))
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.json:
        _emit_json(_envelope("enumerate", params, result))
    else:
        for k, c in sorted(table.as_dict().items()):
            if c:
                print(f"{k},{c}")
    return 0


def _cmd_predict(args) -> int:
    spec = parse_set_spec(args.set)
    thr = asymptotics.solve_threshold(spec, mode=args.mode)
    result = {
        "set": str(spec),
        "value": thr.value,
        "window": list(thr.window),
        "asymptotic": thr.asymptotic,
        "boundary_clamped": thr.boundary_clamped,
        "residual": thr.residual,
        "mode": thr.mode,
    }
    params = {"set": str(spec), "mode": args.mode}
    if args.json:
        _emit_json(_envelope("predict", params, result))
    else:
        print(thr.value)
    return 0


def _cmd_simulate(args) -> int:
    spec = parse_set_spec(args.set)
    config = montecarlo.ExperimentConfig(spec, args.samples, args.seed, args.k)
    params = {
        "set": str(spec),
        "samples": args.samples,
        "seed": args.seed,
    }
    _check_csv(args.csv_out)
    if args.k is not None:
        params["k"] = args.k
        stats = montecarlo.estimate_Nk_mean(config, parallel=args.parallel)
        result = {
            "mean": stats.mean,
            "stderr": stats.stderr,
            "expected": stats.expected,
            "z": stats.z,
            "samples": stats.samples,
        }
        mode = "nk"
    elif args.coverage:
        coverage = montecarlo.coverage_experiment(config, parallel=args.parallel)
        thr = asymptotics.solve_threshold(spec)
        result = {
            "coverage": coverage,
            "window": list(thr.window),
            "value": thr.value,
            "samples": args.samples,
        }
        mode = "coverage"
    else:
        hist = montecarlo.empirical_L_distribution(config, parallel=args.parallel)
        result = {
            "histogram": {str(k): v for k, v in hist.items()},
            "samples": args.samples,
        }
        mode = "histogram"
    params["mode"] = mode
    if args.csv_out:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        if mode == "histogram":
            writer.writerow(["L", "fraction"])
            for k, v in result["histogram"].items():
                writer.writerow([k, v])
        else:
            writer.writerow(sorted(result))
            writer.writerow([result[key] for key in sorted(result)])
        _write_csv(args.csv_out, buf.getvalue())
        print(f"wrote {args.csv_out}", file=sys.stderr)
    if args.json:
        _emit_json(_envelope("simulate", params, result, seed=args.seed))
    else:
        for key in sorted(result):
            print(f"{key}={result[key]}")
    return 0


def _cmd_nonabelian(args) -> int:
    kind, sep, n_str = args.group.partition(":")
    if kind != "dihedral" or not sep:
        raise _UsageError("only dihedral:n groups are supported")
    n = int(n_str)
    left = nonabelian.left_ap_count(n, args.k)
    right = nonabelian.right_ap_count(n, args.k)
    # spot-check of the inversion bijection on the enumerated progressions
    bijection_ok = all(
        nonabelian.is_right_ap(nonabelian.invert_sequence(terms))
        for terms in nonabelian.dihedral_progressions(n, args.k, left=True)
    )
    result = {
        "group": f"dihedral:{n}",
        "k": args.k,
        "left_count": left,
        "right_count": right,
        "counts_equal": left == right,
        "inversion_bijection": bijection_ok,
    }
    params = {"group": f"dihedral:{n}", "k": args.k}
    if args.json:
        _emit_json(_envelope("nonabelian", params, result))
    else:
        print(f"left={left} right={right}")
    return 0


def _golden_rows(family: str) -> dict[int, list[int]]:
    import csv
    import hashlib

    # read beside this file: importlib.resources would import typing
    data = os.path.join(os.path.dirname(__file__), "data")
    name = GOLDEN_FILES[family]
    with open(os.path.join(data, name), "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    with open(os.path.join(data, "golden.sha256"), encoding="utf-8") as fh:
        want = dict(line.split()[::-1] for line in fh.read().strip().splitlines())
    if want.get(name) != digest:
        raise InternalInvariantError(f"golden file {name} fails its checksum")
    rows: dict[int, list[int]] = {}
    reader = csv.reader(io.StringIO(raw.decode("utf-8")))
    next(reader)
    for row in reader:
        rows[int(row[0])] = [int(v) for v in row[1:]]
    return rows


def _distribution_csv(rows: list[tuple[int, list[int]]], max_k: int) -> str:
    """Rows (n, counts for k = 1, 2, ...) as CSV with columns k1..k{max_k}."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n"] + [f"k{k}" for k in range(1, max_k + 1)])
    for n, counts in rows:
        writer.writerow([n] + (counts + [0] * (max_k - len(counts)))[:max_k])
    return buf.getvalue()


def _cmd_tables(args) -> int:
    if args.max_n < 0:
        raise _UsageError(f"--max-n must be >= 0, got {args.max_n}")
    _check_csv(args.csv)
    enumeration.check_budget(args.max_n, args.symmetry, args.parallel)
    family = args.family
    golden = _golden_rows(family)
    rows = []
    mismatches = []
    for n in range(1, args.max_n + 1):
        spec = groups.interval_box(n) if family == "interval" else groups.cyclic(n)
        row = _distribution(spec, args).row()
        rows.append((n, row))
        want = golden.get(n)
        if want is None:
            mismatches.append((n, "missing golden row"))
            continue
        padded = row + [0] * (len(want) - len(row))
        if padded[: len(want)] != want:
            mismatches.append((n, f"got {row}, want nonzero prefix of {want}"))
    text = _distribution_csv(rows, args.max_n)
    if args.csv:
        _write_csv(args.csv, text)
    sys.stdout.write(text)
    for n, msg in mismatches:
        print(f"row {n}: {msg}", file=sys.stderr)
    if mismatches:
        raise InternalInvariantError(f"{len(mismatches)} rows differ from golden table")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="apseq", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count progression k-orderings of a set")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["closed", "brute", "bounds"], default="closed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("las", help="longest progression subsequence of an ordering")
    p.add_argument("--set", required=True)
    p.add_argument("--sequence", help="comma-separated canonical indices")
    p.add_argument("--coords", help="semicolon-separated coordinate tuples")
    p.add_argument("--algorithm", choices=["auto", "orbit", "pairdp"], default="auto")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_las)

    p = sub.add_parser("enumerate", help="exact distribution over all orderings")
    p.add_argument("--set", required=True)
    p.add_argument("--symmetry", action="store_true")
    p.add_argument("--parallel", type=_parallel_workers)
    p.add_argument("--csv")
    p.add_argument("--cache")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("predict", help="solve the threshold equation for a family")
    p.add_argument("--set", required=True)
    p.add_argument("--mode", choices=["interp", "smooth"], default="interp")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="seeded Monte Carlo over random orderings")
    p.add_argument("--set", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int)
    group.add_argument("--coverage", action="store_true")
    group.add_argument("--histogram", action="store_true")
    p.add_argument("--parallel", type=_parallel_workers)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", dest="csv_out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("nonabelian", help="left/right progression counts")
    p.add_argument("--group", required=True, help="dihedral:n")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_nonabelian)

    p = sub.add_parser("tables", help="regenerate golden distribution tables")
    p.add_argument("--family", choices=["interval", "cyclic"], required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--symmetry", action="store_true")
    p.add_argument("--parallel", type=_parallel_workers)
    p.add_argument("--csv")
    p.add_argument("--cache")
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        code, what, text = 1, "usage error", str(exc)
    except CapExceeded as exc:
        code, what, text = 2, "cap exceeded", str(exc)
    except InternalInvariantError as exc:
        code, what, text = 3, "internal error", str(exc)
    except Exception as exc:
        code, what, text = 3, "internal error", f"{type(exc).__name__}: {exc}"
    # a message may echo an input: a long one keeps its head and its length
    if len(text) > 150:
        text = f"{text[:100]}... ({len(text)} characters)"
    print(f"{what}: {text}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

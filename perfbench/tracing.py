"""Spans around apseq's layers, recorded from outside the package.

`Tracer.install` replaces public functions and engine methods of the apseq
modules with wrappers that record a span per call (name, start, end, parent,
run id) in memory.  The names are looked up at call time by the package, so
no source change is needed.  `layer_report` turns the recorded spans into
per-layer numbers; a layer's self time is its spans' durations minus the
part of each interval that child spans cover.

Span names are "<layer>.<what>", so the layer is the text before the first
dot.  Root spans made by the benchmark itself belong to the layer "bench".
"""

from __future__ import annotations

import contextlib
import gzip
import math
import statistics
import time
from array import array

LAYERS = (
    "cli",
    "groups",
    "las",
    "montecarlo",
    "enumeration",
    "asymptotics",
    "counting",
    "nonabelian",
)
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span.

    `spans` is a sequence of (name, start, end, parent) with parent an index
    into the sequence or -1.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def tail_percentile(values) -> tuple[float, float] | None:
    """(p, value) for the highest percentile on PERCENTILE_LADDER with at
    least ten samples beyond it, by nearest rank; None below 20 samples."""
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            best = p
    if best is None:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(round(best * n / 100.0, 6)))
    return best, ordered[rank - 1]


class Tracer:
    """Span recorder.  Columns live in arrays so that a million scan spans
    cost tens of megabytes, not hundreds."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start_col)
        stack = self._stack
        self.name_col.append(nid)
        self.parent_col.append(stack[-1] if stack else -1)
        self.end_col.append(0.0)
        stack.append(idx)
        self.start_col.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end_col[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, *, name_of=None, on_call=None, on_return=None):
        """Wrapper recording one span per call of `fn`.

        name_of(args) picks a per-call span name; on_call(args) and
        on_return(result) update counters.
        """
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = open_(nid if name_of is None else name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_generator(self, name: str, fn):
        """Wrapper for a generator function: each resumption of the generator
        body is one span, under whichever span is consuming it."""
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = open_(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(idx)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        """Wrapper that only counts calls; cheaper than a span for helpers
        called per element."""
        counters = self.counters
        counters.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, modules: dict, module: str, attr: str, make) -> bool:
        """Replace modules[module].attr, and every other binding of the same
        function in the given modules (names imported with `from ... import`),
        by make(original).  Returns False when the function does not exist."""
        original = getattr(modules.get(module), attr, None)
        if original is None:
            return False
        new = make(original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, new)
        return True

    def patch_method(self, cls, attr: str, make) -> bool:
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            self._replace(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._replace(cls, attr, make(raw))
        return True

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def install(self, apseq_modules: dict) -> list[str]:
        """Put spans around every layer's public entry points.  Returns the
        targets that do not exist in this version of the package."""
        missing = []
        fn = self.patch_function
        mods = apseq_modules

        def span(name, **kw):
            return lambda f: self.wrap(name, f, **kw)

        def count(key):
            return lambda f: self.counted(key, f)

        def samples(args):
            self.bump("montecarlo.samples", args[0].samples)

        def cache_outcome(result):
            if result is None:
                self.bump("enumeration.cache.misses")
            else:
                self.bump("enumeration.cache.hits")
                self.bump("enumeration.cache.hit_orderings", result.total)

        def covered(result):
            self.bump("enumeration.covered_orderings", result.total)

        spec_ids: dict = {}

        def scan_name(args):
            spec = args[0].spec
            nid = spec_ids.get(spec)
            if nid is None:
                nid = spec_ids[spec] = self.name_id(f"las.scan[{spec}]")
            return nid

        plan = [
            ("cli", "main", span("cli.main")),
            ("groups", "parse_set_spec", span("groups.parse")),
            ("groups", "element_at", count("groups.index_calls")),
            ("groups", "canonical_index", count("groups.index_calls")),
            ("las", "length_engine", span("las.engine_build")),
            ("las", "step_cycles", span("las.step_cycles")),
            ("las", "longest_ap_orbitwalk", span("las.witness.orbit")),
            ("las", "longest_ap_pairdp", span("las.witness.pairdp")),
            ("montecarlo", "empirical_L_distribution",
             span("montecarlo.sample", on_call=samples)),
            ("montecarlo", "coverage_experiment",
             span("montecarlo.sample", on_call=samples)),
            ("montecarlo", "estimate_Nk_mean", span("montecarlo.nk")),
            ("enumeration", "distribution",
             span("enumeration.distribution", on_return=covered)),
            ("enumeration", "load_distribution",
             span("enumeration.cache.load", on_return=cache_outcome)),
            ("enumeration", "save_distribution", span("enumeration.cache.save")),
            ("asymptotics", "solve_threshold", span("asymptotics.solve")),
            ("counting", "count_for_set", span("counting.closed")),
            ("counting", "count_interval", span("counting.closed")),
            ("counting", "count_lattice", span("counting.closed")),
            ("counting", "count_cyclic", span("counting.closed")),
            ("counting", "count_abelian_exact", span("counting.closed")),
            ("counting", "bounds_interval", span("counting.closed")),
            ("counting", "bounds_abelian", span("counting.closed")),
            ("counting", "iter_progressions",
             lambda f: self.wrap_generator("counting.iter_progressions", f)),
            ("counting", "brute_force_profile", span("counting.oracle")),
            ("counting", "brute_force_count", span("counting.oracle")),
            ("counting", "cycle_profile", span("counting.oracle")),
            ("nonabelian", "left_ap_count", span("nonabelian.count")),
            ("nonabelian", "right_ap_count", span("nonabelian.count")),
        ]
        for module, attr, make in plan:
            if not fn(mods, module, attr, make):
                missing.append(f"{module}.{attr}")

        las = mods.get("las")
        methods = [
            ("GroupLengthEngine", "length_of_positions", span("las.scan", name_of=scan_name)),
            ("GroupLengthEngine", "length_of_indices", span("las.positions")),
            ("IntervalLengthEngine", "length_of_indices", span("las.scan", name_of=scan_name)),
            ("Ordering", "__init__", span("las.ordering")),
            ("Ordering", "from_indices", span("las.ordering")),
        ]
        for cls_name, attr, make in methods:
            if not self.patch_method(getattr(las, cls_name, None), attr, make):
                missing.append(f"las.{cls_name}.{attr}")
        return missing

    # -- output --------------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_col, self.start_col, self.end_col, self.parent_col)
        ]

    def write(self, path: str) -> None:
        """All spans as gzip TSV: run id, span id, parent id, name, start and
        end in nanoseconds since the first span."""
        t0 = self.start_col[0] if len(self.start_col) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("run\tid\tparent\tname\tstart_ns\tend_ns\n")
            rows = zip(self.name_col, self.start_col, self.end_col, self.parent_col)
            buf = []
            for idx, (n, s, e, p) in enumerate(rows):
                buf.append(
                    f"{self.run_id}\t{idx}\t{p}\t{names[n]}\t"
                    f"{round((s - t0) * 1e9)}\t{round((e - t0) * 1e9)}\n"
                )
                if len(buf) >= 65536:
                    fh.write("".join(buf))
                    buf.clear()
            fh.write("".join(buf))


def layer_report(spans, counters: dict, *, log_count_delta=None) -> dict:
    """Per-layer numbers from recorded spans and counters.

    Self times are split by layer, so they add up to the wall time of the
    root spans.  Each scan span carries the set it scanned in its name,
    so scan numbers are also given per set.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for idx, (name, _s, _e, _p) in enumerate(spans):
        by_name.setdefault(name, []).append(idx)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_sum(pred):
        return sum(selfs[i] for name, ids in by_name.items() if pred(name) for i in ids)

    def incl_sum(name):
        return sum(dur(i) for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    out: dict[str, float] = {}
    for layer in ("bench",) + LAYERS:
        out[f"{layer}.self_s"] = self_sum(lambda n, layer=layer: layer_of(n) == layer)
    roots = [i for i, sp in enumerate(spans) if sp[3] < 0]
    out["trace.wall_s"] = sum(dur(i) for i in roots)
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in ("bench",) + LAYERS)

    out["groups.index_calls"] = counters.get("groups.index_calls", 0)
    out["las.engine_build.calls"] = count("las.engine_build")
    out["las.engine_build.s"] = incl_sum("las.engine_build")
    out["las.step_cycles.calls"] = count("las.step_cycles")
    scan_names = sorted(n for n in by_name if n.startswith("las.scan["))
    out["las.scan.calls"] = sum(count(n) for n in scan_names)
    out["las.scan.self_s"] = self_sum(lambda n: n.startswith("las.scan["))
    for name in scan_names:
        durs = [dur(i) * 1e6 for i in by_name[name]]
        key = name[len("las.scan"):]
        out[f"las.scan{key}.calls"] = len(durs)
        out[f"las.scan{key}.median_us"] = statistics.median(durs)
        tail = tail_percentile(durs)
        if tail is not None:
            out[f"las.scan{key}.p{tail[0]:g}_us"] = tail[1]
        out[f"las.scan{key}.self_s"] = sum(selfs[i] for i in by_name[name])
    for algo in ("orbit", "pairdp"):
        ids = by_name.get(f"las.witness.{algo}", ())
        if ids:
            out[f"las.witness.{algo}.calls"] = len(ids)
            out[f"las.witness.{algo}.median_ms"] = statistics.median(dur(i) * 1e3 for i in ids)
    out["las.ordering.s"] = self_sum(lambda n: n == "las.ordering")

    samples = counters.get("montecarlo.samples", 0)
    if samples:
        out["montecarlo.samples"] = samples
        out["montecarlo.self_us_per_sample"] = (
            self_sum(lambda n: n == "montecarlo.sample") / samples * 1e6
        )
    if "montecarlo.nk" in by_name:
        out["montecarlo.nk.self_s"] = self_sum(lambda n: n == "montecarlo.nk")

    out["enumeration.cache.hits"] = counters.get("enumeration.cache.hits", 0)
    out["enumeration.cache.misses"] = counters.get("enumeration.cache.misses", 0)
    if "enumeration.distribution" in by_name:
        out["enumeration.self_s"] = self_sum(lambda n: n == "enumeration.distribution")
        out["enumeration.cache.load_s"] = incl_sum("enumeration.cache.load")
        out["enumeration.cache.save_s"] = incl_sum("enumeration.cache.save")
        computed = counters.get("enumeration.covered_orderings", 0) - counters.get(
            "enumeration.cache.hit_orderings", 0
        )
        scans = _scans_under(spans, "enumeration.distribution")
        if computed:
            out["enumeration.scanned_fraction"] = scans / computed

    out["asymptotics.solve.calls"] = count("asymptotics.solve")
    out["asymptotics.solve.s"] = incl_sum("asymptotics.solve")
    if log_count_delta is not None:
        hits, misses = log_count_delta
        if hits + misses:
            out["asymptotics.log_count.hit_ratio"] = hits / (hits + misses)

    out["counting.closed.s"] = self_sum(lambda n: n == "counting.closed")
    out["counting.oracle.s"] = self_sum(lambda n: n == "counting.oracle")
    if "nonabelian.count" in by_name:
        out["nonabelian.s"] = self_sum(lambda n: n == "nonabelian.count")
    return out


def _scans_under(spans, ancestor: str) -> int:
    # parents are opened before their children, so one forward pass suffices
    inside = [False] * len(spans)
    scans = 0
    for idx, (name, _s, _e, parent) in enumerate(spans):
        flag = name == ancestor or (parent >= 0 and inside[parent])
        inside[idx] = flag
        if flag and name.startswith("las.scan["):
            scans += 1
    return scans

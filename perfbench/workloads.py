"""The benchmark's workloads: which apseq commands and calls each one runs.

Nothing here imports apseq, so run.py can describe a workload before it has
checked that the package is present.

All three workloads are serial closed loops: one command or call at a time,
the next starting when the previous one has finished.  A run repeats whole
rounds until its time is used up, so every run does the same mix of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# mc-large: the paper's concentration experiment at |A| = 1000.  Every
# histogram job draws MC_SAMPLES orderings; the coverage job reuses the
# cyclic:1000 seed, so its lengths are the ones the gate already derives.
MC_SPECS = ("cyclic:1000", "interval:1000", "abelian:10x100", "interval:30,2")
MC_COVERAGE_SPEC = "cyclic:1000"
MC_SAMPLES = 8

# Determinism check, outside the timed region.
DET_ARGV = ["simulate", "--set", "cyclic:40", "--samples", "240", "--histogram", "--json"]

# enum-exact: 9- and 10-element orderings under --symmetry, 8-element ones
# unreduced and through the cache.  A round takes 4 to 6 s and no command
# more than about 2.5 s, so a run times each command three to five times.
ENUM_UNREDUCED_N = 8
ENUM_TABLES_MAX_N = 8

# verify-mix: the acceptance battery in miniature (see battery.py).
LAS_POOL = (
    "cyclic:8", "cyclic:12", "cyclic:20", "cyclic:31", "cyclic:45", "cyclic:60",
    "cyclic:64", "cyclic:81", "cyclic:100", "cyclic:128", "cyclic:150", "cyclic:200",
    "abelian:2x4", "abelian:2x2x2", "abelian:4x8", "abelian:2x4x8", "abelian:6x6",
    "abelian:2x6x12", "abelian:10x10", "abelian:14x14", "abelian:5x25",
    "abelian:3x3x9", "abelian:2x2x2x2x2", "abelian:2x2x4x4",
)

WORKLOADS = ("mc-large", "enum-exact", "verify-mix")
# Rounds that a traced run times, once without spans and once with them.
TRACE_ROUNDS = {"mc-large": 1, "enum-exact": 1, "verify-mix": 5}


@dataclass(frozen=True)
class Job:
    """One README command line, with what its output is checked against."""

    argv: tuple[str, ...]
    kind: str  # histogram | coverage | enumerate | tables
    spec: str
    orderings: int  # orderings whose L the command delivers (the samples of simulate)
    seed: int | None = None
    symmetry: bool = False
    cache: str | None = None  # "cold" or "warm"

    @property
    def label(self) -> str:
        """The command line, with a cache directory shown as cold or warm."""
        argv = list(self.argv)
        if self.cache:
            argv[argv.index("--cache") + 1] = f"<{self.cache}>"
        return " ".join(argv)


def derived_seed(seed: int, *tags) -> int:
    """Deterministic 32-bit seed for a part of a workload."""
    return random.Random(":".join(str(t) for t in (seed,) + tags)).randrange(1 << 32)


def mc_jobs(seed: int) -> list[Job]:
    jobs = []
    for spec in MC_SPECS:
        s = derived_seed(seed, "mc", spec)
        jobs.append(Job(
            ("simulate", "--set", spec, "--samples", str(MC_SAMPLES), "--seed", str(s),
             "--histogram", "--json"),
            "histogram", spec, MC_SAMPLES, seed=s,
        ))
    s = derived_seed(seed, "mc", MC_COVERAGE_SPEC)
    jobs.append(Job(
        ("simulate", "--set", MC_COVERAGE_SPEC, "--samples", str(MC_SAMPLES), "--seed",
         str(s), "--coverage", "--json"),
        "coverage", MC_COVERAGE_SPEC, MC_SAMPLES, seed=s,
    ))
    return jobs


def enum_jobs(seed: int, cache_dir: str) -> list[Job]:
    """The enumeration jobs of one round.  Enumeration is exhaustive, so the
    seed only permutes the job order; the cache pair stays cold-then-warm."""
    full = math.factorial(ENUM_UNREDUCED_N)
    tables = sum(math.factorial(n) for n in range(1, ENUM_TABLES_MAX_N + 1))
    interval, cyclic = f"interval:{ENUM_UNREDUCED_N}", f"cyclic:{ENUM_UNREDUCED_N}"
    groups = [
        [
            Job(("enumerate", "--set", interval, "--json", "--cache", cache_dir),
                "enumerate", interval, full, cache="cold"),
            Job(("enumerate", "--set", interval, "--json", "--cache", cache_dir),
                "enumerate", interval, full, cache="warm"),
        ],
        [Job(("enumerate", "--set", cyclic, "--json"), "enumerate", cyclic, full)],
        [Job(("enumerate", "--set", "interval:9", "--symmetry", "--json"),
             "enumerate", "interval:9", math.factorial(9), symmetry=True)],
        [Job(("enumerate", "--set", "cyclic:10", "--symmetry", "--json"),
             "enumerate", "cyclic:10", math.factorial(10), symmetry=True)],
        [Job(("tables", "--family", "interval", "--max-n", str(ENUM_TABLES_MAX_N)),
             "tables", "interval", tables)],
        [Job(("tables", "--family", "cyclic", "--max-n", str(ENUM_TABLES_MAX_N)),
             "tables", "cyclic", tables)],
    ]
    random.Random(derived_seed(seed, "enum")).shuffle(groups)
    return [job for group in groups for job in group]


def setup_specs(workload: str) -> list[str]:
    """Sets whose length engines a user builds before the first scan."""
    if workload == "mc-large":
        return list(MC_SPECS)
    if workload == "enum-exact":
        specs = ["interval:9", "cyclic:10"]
        for n in range(1, max(ENUM_TABLES_MAX_N, ENUM_UNREDUCED_N) + 1):
            specs += [f"interval:{n}", f"cyclic:{n}"]
        return specs
    return list(LAS_POOL)


def describe(workload: str, seed: int) -> dict:
    """The load of a workload, for the run record."""
    if workload == "mc-large":
        return {
            "round": [" ".join(j.argv) for j in mc_jobs(seed)],
            "determinism": " ".join(DET_ARGV) + " --seed <derived> --parallel 1|2",
        }
    if workload == "enum-exact":
        return {"round": [" ".join(j.argv) for j in enum_jobs(seed, "<fresh dir>")]}
    from battery import describe_round

    return {"round": describe_round()}

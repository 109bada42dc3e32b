"""Property test over generated argv: every input to the commands either
succeeds or fails with a usage (1) or cap (2) exit, never an internal error
(3) or a traceback, and a successful --json run prints one JSON document.

The sets have at most 10 elements, and some are invalid (cyclic:0, a
non-chain abelian group, a composite elementary prime); k, samples and seeds
range over invalid and huge values too; tables runs on --max-n -1..6.
enumerate, simulate and tables may write --csv to a file in a fresh
temporary directory, to a path under a missing directory, or to the
directory itself.  --parallel and --cache are left out: they start processes
or keep files across runs."""

import contextlib
import io
import json
import os
import tempfile

import pytest

from apseq import cli
from apseq.groups import parse_set_spec

pytest.importorskip("hypothesis")  # optional test dependency
from hypothesis import given, settings
from hypothesis import strategies as st

VALID_SETS = (
    [f"interval:{n}" for n in range(1, 11)]
    + ["interval:2,2", "interval:2,3", "interval:3,2"]
    + [f"cyclic:{n}" for n in range(1, 11)]
    + ["abelian:2x2", "abelian:2x4", "elementary:2^2", "elementary:2^3", "elementary:3^2",
       "elementary:7"]
)
INVALID_SETS = [
    "cyclic:0", "cyclic:-1", "interval:0", "interval:2,0", "abelian:4x6", "abelian:1x2",
    "elementary:4", "elementary:3^0", "bogus:3", "cyclic:", "cyclic:x",
]
SIZES = {text: parse_set_spec(text).cardinality for text in VALID_SETS}
assert max(SIZES.values()) == 10

# --csv targets, relative to a fresh temporary directory ("." is the directory)
CSV_PATHS = ["out.csv", os.path.join("missing", "out.csv"), "."]

# mostly k in the range a small set admits, then the invalid and huge ones
K = st.one_of(st.integers(2, 10), st.sampled_from([-1, 0, 1, 11, 12, 10**9]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["count", "las", "enumerate", "predict", "simulate", "nonabelian", "tables"]))
    if command == "nonabelian":
        argv = ["nonabelian", "--group", f"dihedral:{draw(st.integers(-1, 5))}",
                "--k", str(draw(K))]
    elif command == "tables":
        argv = ["tables", "--family", draw(st.sampled_from(["interval", "cyclic"])),
                "--max-n", str(draw(st.integers(-1, 6)))]
    else:
        text = draw(st.sampled_from(VALID_SETS + INVALID_SETS))
        argv = [command, "--set", text]
    if command == "count":
        argv += ["--k", str(draw(K)),
                 "--method", draw(st.sampled_from(["closed", "brute", "bounds"]))]
    elif command == "las":
        size = SIZES.get(text, 3)
        sequence = draw(st.one_of(
            st.permutations(range(size)),
            st.lists(st.integers(-1, size), max_size=size + 1),
        ))
        argv += ["--sequence", ",".join(map(str, sequence)),
                 "--algorithm", draw(st.sampled_from(["auto", "orbit", "pairdp"]))]
        if draw(st.booleans()):
            argv.append("--witness")
    elif command in ("enumerate", "tables"):
        if draw(st.booleans()):
            argv.append("--symmetry")
    elif command == "predict":
        argv += ["--mode", draw(st.sampled_from(["interp", "smooth"]))]
    elif command == "simulate":
        samples = draw(st.one_of(st.integers(-1, 30), st.just(10**9)))
        seed = draw(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64])))
        argv += ["--samples", str(samples), "--seed", str(seed)]
        mode = draw(st.sampled_from(["", "--histogram", "--coverage", "--k"]))
        if mode == "--k":
            argv += ["--k", str(draw(K))]
        elif mode:
            argv.append(mode)
    if command in ("enumerate", "simulate", "tables") and draw(st.booleans()):
        argv += ["--csv", draw(st.sampled_from(CSV_PATHS))]
    if command != "tables" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(argvs())
def test_generated_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if "--csv" in argv:
            at = argv.index("--csv") + 1
            argv = argv[:at] + [os.path.join(tmp, argv[at])] + argv[at + 1:]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    assert "internal error" not in err.getvalue(), argv
    if code == 0 and "--json" in argv:
        json.loads(out.getvalue())

import contextlib
import io
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

import pytest

from apseq import cli
from apseq.errors import InternalInvariantError


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "apseq.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json(capsys):
    code, out, _ = run_main(capsys, "count", "--set", "cyclic:12", "--k", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "count"
    assert doc["result"]["exact"] == 120
    assert doc["result"]["method"] == "ClosedForm"
    assert doc["params"]["set"] == "cyclic:12"


def test_count_methods_agree(capsys):
    code, out, _ = run_main(
        capsys, "count", "--set", "cyclic:12", "--k", "3", "--method", "brute", "--json"
    )
    assert code == 0
    assert json.loads(out)["result"]["exact"] == 120
    # no walk of distinct terms is longer than |A|: 0 at once, as in closed form
    for method in ("brute", "closed"):
        start = time.perf_counter()
        code, out, _ = run_main(capsys, "count", "--set", "cyclic:5", "--k", "1000000000",
                                "--method", method)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "0\n")
    code, out, _ = run_main(
        capsys, "count", "--set", "abelian:4x8", "--k", "3", "--method", "bounds", "--json"
    )
    assert code == 0
    doc = json.loads(out)["result"]
    assert doc["lower"] == 384 and doc["upper"] == 992


def test_count_box_k_above_n(capsys):
    code, out, _ = run_main(capsys, "count", "--set", "interval:2,4", "--k", "3")
    assert code == 0
    assert out == "0\n"
    # closed form and brute force print the same count at k = 1 (|A|) and
    # at k = n + 1 (0) on every family
    for text, n in [("interval:5", 5), ("interval:2", 2), ("interval:3,2", 3),
                    ("cyclic:5", 5), ("abelian:2x4", 4), ("elementary:3^2", 3)]:
        for k in (1, n + 1):
            printed = [run_main(capsys, "count", "--set", text, "--k", str(k),
                                "--method", method)[:2] for method in ("closed", "brute")]
            assert printed[0] == printed[1], (text, k, printed)
            assert printed[0][0] == 0
    # bounds keep to k in [2, n]
    for k in ("1", "6"):
        code, _, err = run_main(capsys, "count", "--set", "interval:5", "--k", k,
                                "--method", "bounds")
        assert code == 1 and "k must be in [2, 5]" in err


def test_las_value_sequence(capsys):
    code, out, _ = run_main(
        capsys, "las", "--set", "interval:7", "--sequence", "2,7,1,6,3,4,5"
    )
    assert code == 0
    assert out.strip() == "4"


def test_las_index_sequence_with_witness(capsys):
    code, out, _ = run_main(
        capsys,
        "las", "--set", "cyclic:7", "--sequence", "0,2,6,1,3,5,4", "--json", "--witness",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["length"] == 4
    assert doc["result"]["witness"]["base"] == [0]
    assert doc["result"]["witness"]["step"] == [6]
    assert doc["result"]["witness"]["positions"] == [0, 2, 5, 6]


def test_las_coords(capsys):
    code, out, _ = run_main(
        capsys,
        "las", "--set", "interval:3,2", "--coords", "1,1;2,2;3,3;1,2;2,1;1,3;3,1;2,3;3,2",
    )
    assert code == 0
    assert out.strip() == "3"


def test_enumerate_json_includes_window(capsys):
    code, out, _ = run_main(capsys, "enumerate", "--set", "cyclic:6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["counts"] == {"3": 468, "4": 192, "5": 48, "6": 12}
    assert doc["result"]["total"] == 720
    assert "window" in doc["result"]
    assert 0.0 <= doc["result"]["window_mass"] <= 1.0


def test_enumerate_csv(tmp_path, capsys):
    out_csv = tmp_path / "row.csv"
    code, _, _ = run_main(
        capsys, "enumerate", "--set", "interval:5", "--csv", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n,k1,k2,k3,k4,k5"
    assert lines[1] == "5,0,20,82,16,2"


def test_predict_json(capsys):
    code, out, _ = run_main(capsys, "predict", "--set", "cyclic:3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["value"] - 3.0) <= 1e-6
    assert doc["result"]["window"] == [3, 3]
    assert doc["result"]["residual"] <= 1e-9


def test_predict_smooth_mode(capsys):
    code, out, _ = run_main(
        capsys, "predict", "--set", "interval:100", "--mode", "smooth", "--json"
    )
    assert code == 0
    assert json.loads(out)["params"]["mode"] == "smooth"


def test_simulate_histogram_and_roundtrip(capsys):
    args = ["simulate", "--set", "cyclic:8", "--samples", "200", "--seed", "5",
            "--histogram", "--json"]
    code, out, _ = run_main(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 5
    # re-running from the echoed params reproduces the same payload
    params = doc["params"]
    rerun = ["simulate", "--set", params["set"], "--samples", str(params["samples"]),
             "--seed", str(params["seed"]), "--histogram", "--json"]
    code2, out2, _ = run_main(capsys, *rerun)
    assert code2 == 0
    assert out2 == out


def test_simulate_nk(capsys):
    code, out, _ = run_main(
        capsys,
        "simulate", "--set", "interval:30", "--samples", "200", "--seed", "9",
        "--k", "3", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["z"]) < 6
    assert doc["params"]["mode"] == "nk"


def test_simulate_coverage(capsys):
    code, out, _ = run_main(
        capsys,
        "simulate", "--set", "cyclic:60", "--samples", "100", "--seed", "4",
        "--coverage", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["result"]["coverage"] <= 1.0
    assert len(doc["result"]["window"]) == 2


def test_simulate_deterministic_across_parallelism():
    base = ["simulate", "--set", "cyclic:40", "--samples", "240", "--seed", "31337",
            "--histogram", "--json"]
    runs = [
        run_cli(*base, "--parallel", "1"),
        run_cli(*base, "--parallel", "2"),
        run_cli(*base, "--parallel", "3"),
        run_cli(*base),
    ]
    for proc in runs:
        assert proc.returncode == 0
    payloads = {proc.stdout for proc in runs}
    assert len(payloads) == 1


def test_nonabelian_command(capsys):
    code, out, _ = run_main(
        capsys, "nonabelian", "--group", "dihedral:4", "--k", "3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["left_count"] == doc["result"]["right_count"]
    assert doc["result"]["counts_equal"] is True
    assert doc["result"]["inversion_bijection"] is True


def test_tables_interval(capsys):
    code, out, _ = run_main(capsys, "tables", "--family", "interval", "--max-n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k1,k2,k3,k4,k5,k6,k7,k8"
    assert lines[5] == "5,0,20,82,16,2,0,0,0"
    assert lines[8] == "8,0,282,21984,15702,2048,274,28,2"


def test_tables_cyclic(capsys):
    code, out, _ = run_main(capsys, "tables", "--family", "cyclic", "--max-n", "6")
    assert code == 0
    assert out.strip().splitlines()[6] == "6,0,0,468,192,48,12"


def test_usage_error_exit_code():
    proc = run_cli("count", "--set", "nosuch:5", "--k", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "usage error" in proc.stderr


def test_cap_exit_code():
    proc = run_cli("enumerate", "--set", "interval:12")
    assert proc.returncode == 2
    assert "cap exceeded" in proc.stderr


def test_oversized_set_exit_code():
    proc = run_cli("predict", "--set", "interval:10,1000000")
    assert proc.returncode == 2
    assert "cap exceeded" in proc.stderr and "interval:10,1000000" in proc.stderr
    # past int()'s 4,300-digit limit the number is named by its digit count
    proc = run_cli("predict", "--set", "cyclic:" + "9" * 5000)
    assert proc.returncode == 2
    assert "cyclic:<5000 digits>" in proc.stderr and len(proc.stderr) < 200


def test_long_malformed_spec_message_is_short():
    # a negative number is no size, so the digit-count naming does not apply
    text = "cyclic:-" + "9" * 5000
    proc = run_cli("predict", "--set", text)
    assert proc.returncode == 1
    assert "malformed set spec 'cyclic:-999" in proc.stderr
    assert f"({len(text)} characters)" in proc.stderr
    assert len(proc.stderr.encode()) < 200


def test_brute_count_above_pair_budget_exit_code(capsys):
    code, out, err = run_main(capsys, "count", "--set", "interval:50,3", "--k", "3",
                              "--method", "brute")
    assert code == 2
    assert out == ""
    assert "cap exceeded" in err and "brute force" in err


def test_simulate_above_engine_cap_exit_code(capsys):
    code, out, err = run_main(capsys, "simulate", "--set", "cyclic:5001", "--samples", "1",
                              "--seed", "1")
    assert code == 2
    assert out == ""
    assert "cap exceeded" in err


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "_cmd_count", broken)
    code, out, err = run_main(capsys, "count", "--set", "cyclic:7", "--k", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: broken command\n"


def test_enumerate_unwritable_cache_warns(tmp_path, capsys):
    argv = ["enumerate", "--set", "cyclic:4"]
    code, uncached, _ = run_main(capsys, *argv)
    assert code == 0
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    code, out, err = run_main(capsys, *argv, "--cache", str(blocker / "sub"))
    assert code == 0
    assert out == uncached
    assert err.startswith(f"warning: result not cached ({blocker / 'sub'}")
    assert err.count("\n") == 1


def test_internal_error_exit_code(capsys, monkeypatch):
    # a row that differs from the golden table is a failed invariant
    monkeypatch.setattr(cli, "_golden_rows", lambda family: {1: [1], 2: [0, 3]})
    code, _, err = run_main(capsys, "tables", "--family", "cyclic", "--max-n", "2")
    assert code == 3
    assert "internal error" in err


@pytest.mark.parametrize("box", ["3,2", "3,3", "4,3", "5,3"])
def test_predict_small_box_clamps_to_k_max(box, capsys):
    # count(n) > n! for these boxes, so the root lies past k_max = n
    n = int(box.split(",")[0])
    code, out, _ = run_main(capsys, "predict", "--set", f"interval:{box}", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["window"] == [n, n]
    assert result["boundary_clamped"] is True


def test_enumerate_window_fault_exit_code(capsys, monkeypatch):
    def broken(spec, mode="interp"):
        raise InternalInvariantError("solver fault")

    monkeypatch.setattr(cli.asymptotics, "solve_threshold", broken)
    code, out, err = run_main(capsys, "enumerate", "--set", "cyclic:4", "--json")
    assert code == 3
    assert out == ""
    assert err == "internal error: solver fault\n"


def test_enumerate_without_threshold_has_no_window(capsys):
    code, out, _ = run_main(capsys, "enumerate", "--set", "cyclic:1", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["total"] == 1
    assert "window" not in result
    assert "window_mass" not in result


def test_predict_elementary_clamps_at_p(capsys):
    code, out, _ = run_main(capsys, "predict", "--set", "elementary:3^7", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["window"] == [3, 3]
    assert result["asymptotic"] is None


def test_predict_two_element_set_is_exact_at_2(capsys):
    # count(2) = 2 = 2!, so the root is the node 2 itself, not a clamp
    code, out, _ = run_main(capsys, "predict", "--set", "cyclic:2", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == 2.0
    assert result["window"] == [2, 2]
    assert result["boundary_clamped"] is False


def test_predict_elementary_clamps_at_k_max_2(capsys):
    code, out, _ = run_main(capsys, "predict", "--set", "elementary:2^3", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["window"] == [2, 2]
    assert result["boundary_clamped"] is True


def test_simulate_elementary_coverage(capsys):
    code, out, _ = run_main(capsys, "simulate", "--set", "elementary:3^4", "--samples", "50",
                            "--seed", "1", "--coverage", "--json")
    assert code == 0
    assert json.loads(out)["result"]["coverage"] == 1.0


def test_enumerate_elementary_window(capsys):
    code, out, _ = run_main(capsys, "enumerate", "--set", "elementary:2^3", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["window"] == [2, 2]
    assert result["window_mass"] == 1.0


def test_predict_abelian(capsys):
    code, out, _ = run_main(capsys, "predict", "--set", "abelian:4x8", "--json")
    assert code == 0
    assert json.loads(out)["result"]["window"] == [5, 6]


def test_simulate_above_sample_cap_exit_code(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started above the cap")

    monkeypatch.setattr(cli.montecarlo, "_map_chunks", no_sampling)
    code, out, err = run_main(capsys, "simulate", "--set", "cyclic:10", "--samples",
                              str(cli.montecarlo.SAMPLE_CAP + 1), "--seed", "1")
    assert code == 2
    assert out == ""
    assert "cap exceeded" in err
    proc = run_cli("simulate", "--set", "cyclic:10", "--samples", "1000000000000", "--seed", "1")
    assert proc.returncode == 2


def test_las_orbit_above_engine_cap_exit_code(capsys):
    seq = ",".join(map(str, range(5001)))
    code, out, err = run_main(capsys, "las", "--set", "cyclic:5001", "--sequence", seq,
                              "--algorithm", "orbit")
    assert code == 2
    assert out == ""
    assert "cap exceeded" in err


def test_data_stream_is_pure_json():
    proc = run_cli("count", "--set", "cyclic:7", "--k", "3", "--json")
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_cli_import_leaves_multiprocessing_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, apseq.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


LAZY_MODULES = ("asymptotics", "counting", "enumeration", "las", "montecarlo", "nonabelian")

# Imports apseq.cli, runs main on the command line given as arguments (if
# any), then reports which apseq modules have run their code.  A module that
# has run has __builtins__ in its namespace; the raw __dict__ is read with
# object.__getattribute__ so that the check itself loads nothing.
_MODULE_PROBE = """
import contextlib, io, json, sys
import apseq.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert apseq.cli.main(sys.argv[1:]) == 0
ran = {
    name.removeprefix("apseq."): "__builtins__" in object.__getattribute__(mod, "__dict__")
    for name, mod in sys.modules.items()
    if name.startswith("apseq.")
}
print(json.dumps({"ran": ran, "stdlib": [m for m in ("hashlib", "csv") if m in sys.modules]}))
"""


def _probe_modules(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_runs_no_command_module():
    probe = _probe_modules()
    ran = probe["ran"]
    # every module the benchmark tracer wraps is registered, so it can wrap it
    assert {"cli", "groups", *LAZY_MODULES} <= set(ran)
    assert [name for name in LAZY_MODULES if ran[name]] == []
    assert ran["groups"] and ran["errors"]
    assert probe["stdlib"] == []


def test_simulate_histogram_runs_only_its_modules():
    ran = _probe_modules("simulate", "--set", "cyclic:30", "--samples", "5", "--seed", "1",
                         "--histogram")["ran"]
    assert ran["montecarlo"] and ran["las"]
    assert not (ran["enumeration"] or ran["nonabelian"] or ran["asymptotics"])


def test_enumerate_runs_only_its_modules():
    ran = _probe_modules("enumerate", "--set", "cyclic:6")["ran"]
    assert ran["enumeration"]
    assert not (ran["montecarlo"] or ran["nonabelian"])


# Runs the command lines given as a JSON list, one after another in one
# interpreter, and reports after each which of the modules that a cold start
# should not pay for have been imported.  dataclasses pulls in inspect (with
# ast, dis and tokenize), and typing is slow to import as well.
_COLD_START_PROBE = """
import contextlib, io, json, sys
import apseq.cli
heavy = ("dataclasses", "inspect", "typing")
seen = {"import": [m for m in heavy if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert apseq.cli.main(argv) == 0, argv
    seen[" ".join(argv)] = [m for m in heavy if m in sys.modules]
print(json.dumps(seen))
"""


def test_readme_commands_import_no_dataclasses_inspect_or_typing():
    # -S keeps site (and whatever .pth files it runs) out of the picture
    readme = [argv for name, argv in sorted(GOLDEN_CASES.items()) if name.startswith("readme_")]
    assert len(readme) == 8
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_START_PROBE, json.dumps(readme)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert len(seen) == 9
    assert {argv: mods for argv, mods in seen.items() if mods} == {}


@pytest.mark.parametrize("spec, k", [("cyclic:3000", "3"), ("cyclic:1000", "1000")])
def test_simulate_nk_above_tuple_budget_exit_code(spec, k, capsys, monkeypatch):
    # cyclic:1000 at k = 1000 has only 400,000 tuples, but 4 * 10^8 stored terms
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampling started above the tuple budget")

    monkeypatch.setattr(cli.montecarlo, "_map_chunks", no_sampling)
    start = time.perf_counter()
    code, out, err = run_main(capsys, "simulate", "--set", spec, "--k", k,
                              "--samples", "2", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "cap exceeded" in err and str(cli.montecarlo.NK_ENTRY_BUDGET) in err


def test_simulate_nk_zero_count_skips_factorial(capsys):
    # cyclic:10 has no 3,000,000-term progression; k! alone would take minutes
    start = time.perf_counter()
    code, out, _ = run_main(capsys, "simulate", "--set", "cyclic:10", "--k", "3000000",
                            "--samples", "1", "--seed", "0", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["expected"], result["mean"]) == (0.0, 0.0)


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 5)])
def test_simulate_seed_out_of_range_is_usage_error(seed, capsys):
    code, out, err = run_main(capsys, "simulate", "--set", "cyclic:10", "--samples", "2",
                              "--seed", seed, "--histogram")
    assert code == 1
    assert out == ""
    assert "seed must be in [0, 2^64)" in err


def test_simulate_largest_seed_is_accepted(capsys):
    code, out, _ = run_main(capsys, "simulate", "--set", "cyclic:10", "--samples", "2",
                            "--seed", str(2**64 - 1), "--histogram", "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 2**64 - 1


@pytest.mark.parametrize("max_n", ["-1", "-3"])
def test_tables_negative_max_n_is_usage_error(max_n, capsys):
    # --max-n 0 stays valid: it prints the bare header (golden case tables_empty)
    code, out, err = run_main(capsys, "tables", "--family", "cyclic", "--max-n", max_n)
    assert code == 1
    assert out == ""
    assert "--max-n must be >= 0" in err


def test_cache_dir_env(tmp_path):
    import os

    env = dict(os.environ)
    env["APSEQ_CACHE_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "apseq.cli", "enumerate", "--set", "cyclic:5", "--json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())


def _truncate(text):
    return text[: len(text) // 2]


def _set_total_to_one(text):
    doc = json.loads(text)
    doc["total"] = 1
    return json.dumps(doc)


def _drop_counts(text):
    doc = json.loads(text)
    del doc["counts"]
    return json.dumps(doc)


@pytest.mark.parametrize("corrupt", [_truncate, _set_total_to_one, _drop_counts])
def test_enumerate_cache_bad_entry_is_a_miss(corrupt, tmp_path, capsys):
    argv = ["enumerate", "--set", "interval:5", "--json"]
    code, uncached, _ = run_main(capsys, *argv)
    assert code == 0
    cached = [*argv, "--cache", str(tmp_path)]
    assert run_main(capsys, *cached)[0] == 0
    (entry,) = tmp_path.iterdir()
    entry.write_text(corrupt(entry.read_text()))
    code, out, err = run_main(capsys, *cached)
    assert code == 0
    assert out == uncached
    assert err.count("warning") == 1
    # the miss rewrote the entry, so the next run hits it silently
    assert run_main(capsys, *cached) == (0, uncached, "")


@pytest.mark.parametrize("value", ["0", "-1", str(cli.MAX_PARALLEL + 1)])
@pytest.mark.parametrize("command", [
    ["enumerate", "--set", "cyclic:5"],
    ["simulate", "--set", "cyclic:5", "--samples", "4", "--seed", "1"],
    ["tables", "--family", "cyclic", "--max-n", "3"],
])
def test_parallel_out_of_range_is_usage_error(command, value, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = run_main(capsys, *command, f"--parallel={value}")
    assert code == 1
    assert out == ""
    assert "usage error" in err


# Golden stdout: each case runs in-process through cli.main and must print
# exactly the recorded bytes (and write exactly the recorded CSV, where the
# case passes --csv).  The eight README commands come first.
GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_stdout.json"
GOLDEN_CASES = {
    "readme_count": ["count", "--set", "cyclic:12", "--k", "3", "--json"],
    "readme_las": ["las", "--set", "cyclic:7", "--sequence", "0,2,6,1,3,5,4",
                   "--witness", "--json"],
    "readme_enumerate": ["enumerate", "--set", "interval:7", "--json"],
    "readme_predict": ["predict", "--set", "interval:1000", "--json"],
    "readme_simulate_nk": ["simulate", "--set", "cyclic:50", "--samples", "2000",
                           "--seed", "7", "--k", "3", "--json"],
    "readme_simulate_histogram": ["simulate", "--set", "interval:200", "--samples",
                                  "200", "--seed", "1", "--histogram", "--json"],
    "readme_nonabelian": ["nonabelian", "--group", "dihedral:5", "--k", "5", "--json"],
    "readme_tables": ["tables", "--family", "interval", "--max-n", "8"],
    "enumerate_cyclic_symmetry": ["enumerate", "--set", "cyclic:7", "--symmetry",
                                  "--json"],
    "simulate_abelian_histogram": ["simulate", "--set", "abelian:4x8", "--samples",
                                   "300", "--seed", "2", "--histogram", "--json"],
    "tables_empty": ["tables", "--family", "cyclic", "--max-n", "0", "--csv", "{csv}"],
    "enumerate_csv": ["enumerate", "--set", "interval:6", "--csv", "{csv}"],
    "tables_csv": ["tables", "--family", "cyclic", "--max-n", "7", "--csv", "{csv}"],
    "las_interval_witness": ["las", "--set", "interval:7", "--sequence",
                             "2,7,1,6,3,4,5", "--witness", "--json"],
    "las_box_pairdp_witness": ["las", "--set", "interval:3,2", "--coords",
                               "1,1;2,2;3,3;1,2;2,1;1,3;3,1;2,3;3,2",
                               "--algorithm", "pairdp", "--witness", "--json"],
    "las_abelian_pairdp_witness": ["las", "--set", "abelian:2x4", "--sequence",
                                   "0,5,2,7,1,4,3,6", "--algorithm", "pairdp",
                                   "--witness", "--json"],
}


def run_golden_case(argv, tmp_dir):
    """Run one case in-process; return its exit code, stdout and CSV text."""
    csv_path = pathlib.Path(tmp_dir) / "out.csv"
    argv = [str(csv_path) if a == "{csv}" else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    csv_text = None
    if csv_path.exists():
        csv_text = csv_path.read_bytes().decode("utf-8")
    return code, buf.getvalue(), csv_text


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_stdout(name, tmp_path):
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    code, out, csv_text = run_golden_case(GOLDEN_CASES[name], tmp_path)
    assert code == 0
    assert out == want["stdout"]
    assert csv_text == want["csv"]

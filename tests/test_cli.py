"""Command-line interface: commands, file formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tarskilab import (
    LabeledMatrix,
    compose_adversary,
    hilbert_tile,
    hsos_labeling,
    masked_norm,
    os_adversary,
    spectral_norm,
    uniform_from_tile,
)
from tarskilab.cli import main

ROOT = Path(__file__).resolve().parent.parent

def run(argv):
    return main(argv)


def test_gen_full_family(tmp_path):
    out = tmp_path / "fam"
    assert run(["gen", "--n", "2", "--out", str(out)]) == 0
    instances = [p for p in out.glob("*.json") if not p.name.endswith(".meta.json")]
    sidecars = list(out.glob("*.meta.json"))
    assert len(instances) == 24
    assert len(sidecars) == 24
    meta = json.loads(sidecars[0].read_text())
    assert set(meta) == {"n", "C", "i"}


def test_gen_single_and_solve(tmp_path, capsys):
    out = tmp_path / "one"
    assert run(["gen", "--n", "3", "--C", "1,2,1,3", "--i", "2",
                "--out", str(out)]) == 0
    path = out / "tarski_n3_i2_C1-2-1-3.json"
    assert path.exists()
    capsys.readouterr()
    assert run(["solve", "--instance", str(path), "--algo", "nested",
                "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["fixed_point"] == [12, 12]  # second boundary point of chunk 2
    assert run(["solve", "--instance", str(path), "--algo", "brute"]) == 0


def test_gen_rejects_bad_index(tmp_path):
    rc = run(["gen", "--n", "3", "--C", "1,2,1,3", "--i", "5",
              "--out", str(tmp_path / "bad")])
    assert rc == 2


def test_gen_requires_both_c_and_i(tmp_path):
    rc = run(["gen", "--n", "2", "--C", "1,1,1", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("args", [["--C", "1,2"], ["--C", "1,2,9", "--i", "1"],
                                  ["--C", "1,1,1", "--i", "4"]])
def test_gen_usage_error_creates_no_directory(tmp_path, args):
    out = tmp_path / "D"
    assert run(["gen", "--n", "2", *args, "--out", str(out)]) == 2
    assert not out.exists()


def test_solve_json_output(tmp_path, capsys):
    out = tmp_path / "inst"
    run(["gen", "--n", "2", "--C", "1,2,2", "--i", "1", "--out", str(out)])
    path = next(p for p in out.glob("*.json") if not p.name.endswith(".meta.json"))
    assert run(["solve", "--instance", str(path), "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rec["algorithm"] == "nested" and not rec["fell_back"]
    meta = json.loads((out / (path.name[:-5] + ".meta.json")).read_text())
    assert rec["fixed_point"][0] + rec["fixed_point"][1] != 0  # sanity
    assert run(["solve", "--instance", str(path), "--algo", "brute",
                "--format", "json"]) == 0
    brute = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert brute["queries_used"] == 100
    assert brute["fixed_point"] == rec["fixed_point"]


def test_solve_missing_and_corrupt_files(tmp_path, capsys):
    assert run(["solve", "--instance", str(tmp_path / "nope.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--instance", str(bad)]) == 3
    truncated = tmp_path / "short.json"
    truncated.write_text(json.dumps({"n": 2, "k": 2, "values": [[1, 1]] * 3}))
    assert run(["solve", "--instance", str(truncated)]) == 3
    err = capsys.readouterr().err
    assert "(2, 2)" in err  # names the first missing cell


@pytest.mark.parametrize("damage, message", [
    ("[1,,2]", "invalid JSON input: "),
    ("truncated", "invalid JSON input: "),
    ("cut after [[", "invalid JSON input: "),
    ("no cells", "invalid instance file: instance file has 0 cells, expected 100; "
                 "first missing cell is (1, 1)"),
])
def test_solve_damaged_generated_file_keeps_exit_3(tmp_path, capsys, damage, message):
    assert run(["gen", "--n", "2", "--C", "1,1,1", "--i", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "tarski_n2_i1_C1-1-1.json"
    text = path.read_text()
    cells = text.index("[[") + 1
    path.write_text({"[1,,2]": text[:cells] + "[1,,2], " + text[cells:],
                     "truncated": text[:len(text) // 2],
                     "cut after [[": text[:cells + 1],
                     "no cells": text[:cells] + "]}"}[damage])
    capsys.readouterr()
    assert run(["solve", "--instance", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_solve_refuses_non_monotone(tmp_path, capsys):
    vals = [[2, 2], [1, 2], [2, 1], [1, 1]]
    path = tmp_path / "nm.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "values": vals}))
    assert run(["solve", "--instance", str(path)]) == 1
    assert "witness" in capsys.readouterr().out


def test_verify_exit_codes_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["verify", "--suite", "covering", "--n", "2", "--seed", "7"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rec = json.loads(out1.read_text())
    assert rec["suite"] == "covering" and rec["failures"] == []


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_failures_exit_nonzero(monkeypatch, capsys):
    import tarskilab.cli as cli_mod
    from tarskilab.suites import SuiteReport

    def broken(name, **kwargs):
        rep = SuiteReport(suite=name)
        rep.check("solver/n=2/fake", False, '{"witness": [1, 1]}')
        return rep.finish(t0=0.0)

    monkeypatch.setattr(cli_mod, "run_suite", broken)
    assert run(["verify", "--suite", "solver", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL solver/n=2/fake" in out and "witness" in out


def test_bound_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["bound", "--problem", "os", "--sizes", "2,4", "--eps", "1/3"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "problem,size,numerator,denominator,sa,lb"
    first = lines[1].split(",")
    assert first[0] == "os" and first[1] == "2"
    assert float(first[4]) == pytest.approx(1.0, rel=1e-9)
    assert float(first[5]) == pytest.approx(0.05719, abs=1e-4)


def test_bound_nos_and_tarski_values(tmp_path, capsys):
    assert run(["bound", "--problem", "nos", "--sizes", "2x2",
                "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["sa"] == pytest.approx(1.242640687, rel=1e-6)
    assert run(["bound", "--problem", "tarski", "--sizes", "2",
                "--format", "json"]) == 0
    trows = json.loads(capsys.readouterr().out)
    assert trows[0]["sa"] == pytest.approx(rows[0]["sa"] / 7.0, rel=1e-6)


def test_bound_nos_6x6_row_equals_factor_formula(capsys):
    # 279 936 instances: the row comes from the factors, no dense matrix
    assert run(["bound", "--problem", "nos", "--sizes", "6x6",
                "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    outer, tile = os_adversary(6), hilbert_tile(6)
    anorm = spectral_norm(tile.matrix).norm
    fden = max(masked_norm(outer, p) for p in range(1, 7))
    aden = max(masked_norm(tile, q) for q in range(1, 7))
    assert row["numerator"] == pytest.approx(
        spectral_norm(outer.matrix).norm * anorm ** 6, rel=1e-12)
    assert row["denominator"] == pytest.approx(fden * aden * anorm ** 5, rel=1e-12)
    assert row["sa"] == pytest.approx(row["numerator"] / row["denominator"], rel=1e-15)
    assert 1 <= row["worst_position"] <= 36


def test_bound_dump_matrix_rejects_oversized_nos(tmp_path, capsys):
    dump = tmp_path / "dumps"
    assert run(["bound", "--problem", "nos", "--sizes", "6x6",
                "--dump-matrix", str(dump)]) == 2
    captured = capsys.readouterr()
    assert "capped" in captured.err and captured.out == ""
    assert not dump.exists()


@pytest.mark.parametrize("problem,sizes", [("nos", "2x2,3x3,4x3"), ("tarski", "2,3,4")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bound_composed_rows_deterministic(tmp_path, problem, sizes, fmt):
    outs = [tmp_path / f"{k}.{fmt}" for k in (1, 2)]
    for out in outs:
        assert run(["bound", "--problem", problem, "--sizes", sizes,
                    "--format", fmt, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_bound_rejects_malformed_sizes(capsys):
    assert run(["bound", "--problem", "os", "--sizes", "two"]) == 2
    assert run(["bound", "--problem", "nos", "--sizes", "4"]) == 2
    assert "AxB" in capsys.readouterr().err


def test_bound_dump_matrix(tmp_path):
    dump = tmp_path / "dumps"
    assert run(["bound", "--problem", "os", "--sizes", "3",
                "--out", str(tmp_path / "t.csv"), "--dump-matrix", str(dump)]) == 0
    text = (dump / "gamma_os_3.json").read_text()
    assert json.loads(text)["entries"][0] == [0.0, 0.5, 1 / 3]  # JSON numbers
    mat = LabeledMatrix.from_json(text)
    assert mat.dim == 3
    assert mat.entries[0, 2] == 1 / 3
    assert np.array_equal(mat.entries, os_adversary(3).matrix.entries)
    # composed rows build the dense matrix only for the dump
    assert run(["bound", "--problem", "nos", "--sizes", "2x2",
                "--out", str(tmp_path / "n.csv"), "--dump-matrix", str(dump)]) == 0
    nos = LabeledMatrix.from_json((dump / "gamma_nos_2x2.json").read_text())
    dense = compose_adversary(os_adversary(2), [hilbert_tile(2)] * 2).matrix
    assert nos.labels == dense.labels
    assert np.array_equal(nos.entries, dense.entries)


def test_bound_hsos_dump_is_the_uniform_matrix(tmp_path):
    # hsos rows come from the tile; the dump is still the full uniform matrix
    dump = tmp_path / "dumps"
    assert run(["bound", "--problem", "hsos", "--sizes", "3",
                "--out", str(tmp_path / "h.csv"), "--dump-matrix", str(dump)]) == 0
    got = LabeledMatrix.from_json((dump / "gamma_hsos_3.json").read_text())
    want = uniform_from_tile(hsos_labeling(3), hilbert_tile(3)).matrix
    assert got.labels == want.labels
    assert np.array_equal(got.entries, want.entries)


def test_bound_tarski_beyond_float_range_is_a_usage_error(capsys):
    # ||A_310||^311 exceeds the float64 maximum
    assert run(["bound", "--problem", "tarski", "--sizes", "310"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "||A_310||^311 exceeds the float64 range" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf", "1", "0", "-0.5"])
def test_tol_that_cannot_converge_is_a_usage_error(tol, capsys):
    # NaN, inf and tol >= 1 would stop every power iteration at step 0
    assert run(["bound", "--problem", "os", "--sizes", "8", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "tol must lie in (0, 1)" in captured.err
    assert run(["verify", "--suite", "hilbert", "--m", "8", "--tol", tol]) == 2
    assert "checks=" not in capsys.readouterr().out


def test_bound_eps_with_zero_denominator_is_a_usage_error(capsys):
    assert run(["bound", "--problem", "os", "--sizes", "8", "--eps", "1/0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: bad --eps '1/0': zero denominator\n"


@pytest.mark.parametrize("n", ["1", "0"])
def test_bound_rejects_tarski_below_two(n, capsys):
    assert run(["bound", "--problem", "tarski", "--sizes", n]) == 2
    captured = capsys.readouterr()
    assert "n must be >= 2" in captured.err and captured.out == ""


@pytest.mark.parametrize("args,message", [
    (["--suite", "composition", "--a", "1", "--b", "1"], "a=1"),
    (["--suite", "composition", "--a", "1", "--b", "3"], "a=1"),
    (["--suite", "hilbert", "--m", "0"], "--m must be >= 1"),
    (["--suite", "symmetrize", "--m", "-3"], "--m must be >= 1"),
    (["--suite", "covering", "--n", "3", "--sample", "-5"], "--sample must be >= 0"),
    (["--suite", "composition", "--a", "3", "--b", "0"], "b=0"),
    (["--suite", "composition", "--a", "2", "--b", "-2"], "b=-2"),
])
def test_verify_bad_size_is_a_usage_error(tmp_path, capsys, args, message):
    out = tmp_path / "report.json"
    assert run(["verify", *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("problem,sizes,message", [
    ("os", "4,0", "--sizes '0': m must be >= 1"),
    ("os", "-3", "--sizes '-3': m must be >= 1"),
    ("hsos", "0", "--sizes '0': m must be >= 1"),
    ("nos", "3x0", "--sizes '3x0': A and B must be >= 1"),
    ("nos", "0x3", "--sizes '0x3': A and B must be >= 1"),
    ("tarski", "0", "--sizes '0': n must be >= 2"),
    ("os", ",", "--sizes '': expected integers"),
    ("nos", "3x", "--sizes '3x': expected integers"),
    ("nos", "3x4x5", "--sizes '3x4x5': nos sizes look like AxB"),
])
def test_bound_bad_size_is_a_usage_error(tmp_path, capsys, problem, sizes, message):
    out = tmp_path / "table.csv"
    assert run(["bound", "--problem", problem, "--sizes", sizes, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bound", "--problem", "os", "--sizes", "4"],
    ["verify", "--suite", "hilbert", "--m", "3"],
])
def test_tol_below_float64_reach_is_one_line(tmp_path, capsys, argv):
    # a residual of ~1e-16 never meets tol 1e-300: the iteration cap is hit
    out = tmp_path / "out"
    assert run([*argv, "--tol", "1e-300", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "did not reach tol=1e-300" in captured.err
    assert "try a larger --tol" in captured.err
    assert not out.exists()


def test_verify_symmetrize_keeps_suite_default_m(capsys):
    assert run(["verify", "--suite", "symmetrize"]) == 0
    assert "suite=symmetrize checks=60 failures=0" in capsys.readouterr().out


@pytest.mark.parametrize("obj,message", [
    ({"n": 2, "k": 2, "values": [[1, 1], [1, 2], [2, 1.7], [2, 2]]}, "cell (2, 1)"),
    ({"n": 2, "k": 2, "values": [[1, 1], [1, 2], [2, "1"], [2, 2]]}, "cell (2, 1)"),
    ({"n": 2, "k": 2, "values": [[1, 1], [1, 2], [2, True], [2, 2]]}, "cell (2, 1)"),
    ({"n": "2", "k": 2, "values": [[1, 1], [1, 2], [2, 1], [2, 2]]}, "n must be an integer"),
    ({"n": 0, "k": 2, "values": []}, "n must be an integer"),
])
def test_solve_rejects_ill_typed_files(tmp_path, capsys, obj, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(obj))
    assert run(["solve", "--instance", str(path)]) == 3
    assert message in capsys.readouterr().err


def _fresh_process(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "tarskilab.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _no_wall_time(text):
    return re.sub(r"wall_time=\S+", "wall_time=*", text)


def test_parser_reused_across_calls_matches_fresh_processes(tmp_path, capsys):
    from tarskilab.cli import build_parser

    assert build_parser() is build_parser()  # built once per process
    inst = tmp_path / "inst"
    assert run(["gen", "--n", "2", "--C", "1,2,2", "--i", "1", "--out", str(inst)]) == 0
    path = inst / "tarski_n2_i1_C1-2-2.json"
    capsys.readouterr()
    commands = [
        ["verify", "--suite", "symmetrize", "--m", "2", "--seed", "3"],
        ["verify", "--suite", "symmetrize"],  # --m and --seed must not leak
        ["solve", "--instance", str(path), "--format", "json"],
        ["solve", "--instance", str(path)],  # --format must not leak
        ["bound", "--problem", "os", "--sizes", "2,3", "--format", "json"],
        ["bound", "--problem", "hsos", "--sizes", "2"],
        ["verify", "--suite", "covering", "--n", "two"],  # bad command line
        ["solve", "--instance", str(path), "--algo", "brute"],
    ]
    for argv in commands:
        rc, out, err = _in_process(argv, capsys)
        frc, fout, ferr = _fresh_process(argv, tmp_path)
        assert (rc, _no_wall_time(out), err) == (frc, _no_wall_time(fout), ferr), argv
    assert _in_process(commands[1], capsys)[1].startswith("suite=symmetrize checks=60 ")
    assert _in_process(commands[6], capsys)[0] == 2

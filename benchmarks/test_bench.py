"""Self-tests of the benchmark.

    python3 -m pytest benchmarks/test_bench.py -q

They check the benchmark, not the program: that its output checks reject
wrong numbers, that it counts failed commands, and that a run reports
exactly the metrics declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
import run
import workloads

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def test_bound_check_rejects_a_row_perturbed_by_1e_4(cli):
    op = workloads._bound_op("nos", ((3, 3),), Fraction(1, 3), ref.nos_row)
    rc, out, _, _ = run.run_command(cli, op.argv)
    assert rc == 0 and op.check(out) is None
    header, row = out.strip().splitlines()
    fields = row.split(",")
    for k in range(2, 6):  # numerator, denominator, sa, lb
        bad = fields.copy()
        bad[k] = repr(float(bad[k]) * (1 + 1e-4))
        assert op.check(f"{header}\n{','.join(bad)}\n") is not None, header.split(",")[k]


def test_instance_check_rejects_a_moved_fixed_point(cli, tmp_path):
    C, i = (1, 2, 1, 3), 2
    op, path = workloads._gen_op(tmp_path, 3, C, i)
    rc, out, _, _ = run.run_command(cli, op.argv)
    assert rc == 0 and op.check(out) is None
    assert ref.check_instance_file(path.read_text(), 3, (1, 1, 1, 3), i) is not None  # C_i moved


def test_nonzero_exit_counts_as_failed(cli, tmp_path):
    tally = run.Tally()
    ops = [
        workloads.Op("solve", ("solve", "--instance", str(tmp_path / "missing.json")),
                     lambda out: None),
        workloads.Op("bound", ("bound", "--problem", "nope", "--sizes", "2"),
                     lambda out: None),
    ]
    tally.run(cli, ops)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, 0)


def _last_json(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section):
    res = _last_json("--workload", "family", "--seed", "1", "--seconds", "0",
                     "--trace", trace)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in DECLARED[section]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

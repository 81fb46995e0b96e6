"""The three workloads: the commands of one round and how each is checked.

A workload is a fixed list of ``tarskilab`` command lines (a *round*) made
from the seed.  The seed changes the inputs (epsilon, suite seeds, which
family members are written and read) but not the amount of work, so runs
with different seeds time the same operations.  Each command carries a
check of its output against ``reference``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

# bound-composed: NOS sizes from 324 to 1536 instances, then tarski n = 2, 3
# (NOS 3x2 and 4x3).  Larger sizes (NOS 5x3 takes ~4.5 s, 4x5 ~9 s) would
# make three rounds too long for one run.
NOS_LADDER = ((4, 3), (3, 6), (4, 4), (3, 8))
TARSKI_SIZES = (2, 3)

# adversary-sweep: tables and suites that compute thousands of norms of
# matrices with at most 3*128 = 384 rows.
OS_SIZES = (2, 4, 8, 16, 32, 64, 128, 256)
HSOS_SIZES = (2, 4, 8, 16, 32, 64, 128)
HILBERT_M = 64
SYMMETRIZE_M = 24
COMPOSITION_AB = (3, 3)

# family: n = 4 writes and reads (n' = 76), suites over the n = 3 family.
FAMILY_N = 4
FAMILY_MEMBERS = 200  # distinct command lines of each kind, for a 95th percentile
SUITE_N = 3

# Each command line runs ROUNDS times in a run and counts with its slowest
# time (see README).  The family's writes and reads, which give the gen and
# solve latencies of every workload, run ROUNDS times too: inside the
# family's rounds, and after each round of the other workloads.
ROUNDS = 3

WORKLOADS = ("bound-composed", "adversary-sweep", "family")

Check = Callable[[str], "str | None"]
_SUITE_LINE = re.compile(r"^suite=(\S+) checks=(\d+) failures=(\d+) wall_time=")


@dataclass(frozen=True)
class Op:
    """One command line, the latency group it is timed in, and its check."""

    kind: str  # "gen", "solve", "bound" or "verify"
    argv: tuple[str, ...]
    check: Check


def _seeded_eps(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(50, 450), 1000)  # inside (0, 1/2)


def _bound_op(problem: str, sizes: tuple, eps: Fraction,
              row: Callable[..., dict]) -> Op:
    """``row(size, eps)`` gives the reference row; it is computed at the
    first check, so that planning a round stays cheap."""

    def check(out: str) -> str | None:
        rows = ref.parse_bound_csv(out)
        want = [row(*s, eps) if isinstance(s, tuple) else row(s, eps) for s in sizes]
        if len(rows) != len(want):
            return f"{len(rows)} rows, want {len(want)}"
        for got, w in zip(rows, want):
            bad = ref.compare_row(got, w)
            if bad:
                return bad
        return None

    text = ",".join(f"{s[0]}x{s[1]}" if isinstance(s, tuple) else str(s) for s in sizes)
    argv = ("bound", "--problem", problem, "--sizes", text, "--eps", str(eps))
    return Op("bound", argv, check)


def _verify_op(suite: str, flags: dict, want_checks: int) -> Op:
    def check(out: str) -> str | None:
        lines = out.strip().splitlines()
        m = _SUITE_LINE.match(lines[-1]) if lines else None
        if not m or m.group(1) != suite:
            return f"no summary line for {suite}: {lines[-1:]!r}"
        checks, failures = int(m.group(2)), int(m.group(3))
        if failures or checks != want_checks:
            return f"{suite}: checks={checks} (want {want_checks}) failures={failures}"
        return None

    argv = ["verify", "--suite", suite]
    for k, v in flags.items():
        argv += [f"--{k}", str(v)]
    return Op("verify", tuple(argv), check)


def _gen_op(out_dir: Path, n: int, C: tuple, i: int) -> tuple[Op, Path]:
    name = f"tarski_n{n}_i{i}_C{'-'.join(map(str, C))}.json"
    path = out_dir / name
    meta = out_dir / (name[:-5] + ".meta.json")

    passed = set()  # digests of file contents that passed, to skip rechecking

    def check(out: str) -> str | None:
        text, meta_text = path.read_text(), meta.read_text()
        digest = hashlib.sha256((text + meta_text).encode()).digest()
        if digest in passed:
            return None
        bad = ref.check_instance_file(text, n, C, i)
        if bad:
            return f"{name}: {bad}"
        if json.loads(meta_text) != {"n": n, "C": list(C), "i": i}:
            return f"{meta.name}: wrong provenance"
        passed.add(digest)
        return None

    argv = ("gen", "--n", str(n), "--C", ",".join(map(str, C)), "--i", str(i),
            "--out", str(out_dir))
    return Op("gen", argv, check), path


def _solve_op(path: Path, n: int, C: tuple, i: int) -> Op:
    want = list(ref.fixed_point(n, C, i))
    cap = ref.query_cap(n)

    def check(out: str) -> str | None:
        res = json.loads(out)
        if (res.get("fixed_point") != want or res.get("algorithm") != "nested"
                or res.get("fell_back") is not False
                or not 1 <= res.get("queries_used", 0) <= cap):
            return f"{path.name}: {res} (want {want} within {cap} queries)"
        return None

    argv = ("solve", "--instance", str(path), "--format", "json")
    return Op("solve", argv, check)


def family_io_ops(seed: int, out_dir: Path) -> list[Op]:
    """One ``gen`` per seeded (C, i) at n = 4, then one ``solve`` per file.
    The members are distinct, drawn from all (n+1) n^(n+1) of them."""
    rng = random.Random(f"family-{seed}")
    n = FAMILY_N
    gens, solves = [], []
    for k in rng.sample(range((n + 1) * n ** (n + 1)), FAMILY_MEMBERS):
        k, i = divmod(k, n + 1)
        C = tuple(k // n ** d % n + 1 for d in range(n + 1))
        op, path = _gen_op(out_dir, n, C, i + 1)
        gens.append(op)
        solves.append(_solve_op(path, n, C, i + 1))
    return gens + solves


def plan(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """Commands of one round.  Outputs go under ``out_dir``."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "bound-composed":
        eps = _seeded_eps(rng)
        ops = [_bound_op("nos", (ab,), eps, ref.nos_row) for ab in NOS_LADDER]
        ops.append(_bound_op("tarski", TARSKI_SIZES, eps, ref.tarski_row))
        return ops
    if workload == "adversary-sweep":
        eps = _seeded_eps(rng)
        suite_seed = rng.randrange(2 ** 31)
        a, b = COMPOSITION_AB
        return [
            _bound_op("os", OS_SIZES, eps, ref.os_row),
            _bound_op("hsos", HSOS_SIZES, eps, ref.hsos_row),
            _verify_op("hilbert", {"m": HILBERT_M},
                       ref.suite_checks("hilbert", m=HILBERT_M)),
            _verify_op("symmetrize", {"m": SYMMETRIZE_M, "seed": suite_seed},
                       ref.suite_checks("symmetrize", m=SYMMETRIZE_M)),
            _verify_op("composition", {"a": a, "b": b, "seed": suite_seed},
                       ref.suite_checks("composition", a=a, b=b)),
        ]
    if workload == "family":
        n = SUITE_N
        return family_io_ops(seed, out_dir / "family") + [
            _verify_op("covering", {"n": n, "sample": 0},
                       ref.suite_checks("covering", n=n)),
            _verify_op("embedding", {"n": n}, ref.suite_checks("embedding", n=n)),
            _verify_op("solver", {"n": n}, ref.suite_checks("solver", n=n)),
        ]
    raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

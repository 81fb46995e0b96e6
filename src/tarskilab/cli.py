"""Command-line experiment runner.

Subcommands:

  gen     write fixed-point instance files (one or the whole family for n)
  verify  run a named verification suite; nonzero exit on any failure
  bound   evaluate adversary ratios and emit a CSV/JSON lower-bound table
  solve   run a solver on an instance file and report the fixed point

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error.  Every
command is deterministic given its flags and seed; CSV and JSON artifacts
are byte-identical across repeated runs.

``--tol`` has no fixed floor; a power iteration that hits its cap (a tol
below what float64 reaches on that matrix) exits 2 with one line naming it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .adversary import (
    AdversaryError,
    compose_adversary,
    composed_sa_ratio,
    hilbert_tile,
    os_adversary,
    sa_ratio,
    uniform_from_tile,
)
from .geometry import GeometryError, build_geometry, build_instance, family_parameters
from .lattice import LatticeError, LatticeFn, Oracle, check_monotone, nested_solve, solve_brute
from .matrices import SpectralConvergenceError
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3

NOS_INSTANCE_CAP = 20000


class UsageError(ValueError):
    pass


def _parse_eps(text: str) -> float:
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except ZeroDivisionError:
        raise UsageError(f"bad --eps {text!r}: zero denominator") from None


def _parse_c_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad C vector {text!r}: {exc}") from None


def _instance_filename(n: int, C, i: int) -> str:
    return f"tarski_n{n}_i{i}_C{'-'.join(str(c) for c in C)}.json"


def cmd_gen(args) -> int:
    geo = build_geometry(args.n)
    if (args.C is None) != (args.i is None):
        raise UsageError("--C and --i must be given together")
    if args.C is not None:
        params = [(_parse_c_vector(args.C), args.i)]
    else:
        params = list(family_parameters(geo))
    out = Path(args.out)
    written = 0
    for C, i in params:
        fn = build_instance(geo, C, i)  # validates C and i ranges
        if not written:  # only once the arguments are known to be valid
            out.mkdir(parents=True, exist_ok=True)
        name = _instance_filename(args.n, C, i)
        (out / name).write_text(fn.to_json())
        sidecar = {"n": args.n, "C": list(C), "i": i}
        (out / (name[:-5] + ".meta.json")).write_text(json.dumps(sidecar, sort_keys=True))
        written += 1
    print(f"wrote {written} instance file(s) to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.m is not None and args.m < 1:
        raise UsageError(f"--m must be >= 1, got {args.m}")
    if args.sample < 0:
        raise UsageError(f"--sample must be >= 0, got {args.sample}")
    kwargs = {
        "n": args.n,
        "a": args.a,
        "b": args.b,
        "seed": args.seed,
        "sample": args.sample,
        "tol": args.tol,
    }
    if args.m is not None:  # else each suite keeps its own default m_max
        kwargs["m_max"] = args.m
    report = run_suite(args.suite, **kwargs)
    for check_id, counterexample in report.failures:
        print(f"FAIL {check_id}  {counterexample}")
    print(
        f"suite={report.suite} checks={report.checks_run} "
        f"failures={len(report.failures)} wall_time={report.wall_time:.2f}s"
    )
    if args.out:
        Path(args.out).write_text(report.to_json())
    return EXIT_OK if report.ok else EXIT_CHECK_FAILURE


def _parse_sizes(problem: str, text: str) -> list:
    least, what = {"nos": (1, "A and B"), "tarski": (2, "n")}.get(problem, (1, "m"))
    sizes = []
    for tok in text.split(","):
        tok = tok.strip()
        parts = tok.split("x") if problem == "nos" else [tok]
        if problem == "nos" and len(parts) != 2:
            raise UsageError(f"bad --sizes {tok!r}: nos sizes look like AxB")
        try:
            size = tuple(int(p) for p in parts)
        except ValueError:
            raise UsageError(f"bad --sizes {tok!r}: expected integers") from None
        if min(size) < least:
            raise UsageError(f"bad --sizes {tok!r}: {what} must be >= {least}")
        sizes.append(size if problem == "nos" else size[0])
    return sizes


def _bound_row(problem: str, size, eps: float, tol: float,
               dump_dir: Path | None) -> dict:
    if problem == "os":
        adv = os_adversary(size)
        label = str(size)
        report = sa_ratio(adv, eps=eps, tol=tol)
    elif problem == "hsos":
        # Rows come from the tile; the uniform matrix is built only to dump it.
        tile = hilbert_tile(size)
        label = str(size)
        report = sa_ratio(tile, eps=eps, tol=tol)
        adv = uniform_from_tile(tile.labeling, tile) if dump_dir is not None else None
    elif problem in ("nos", "tarski"):
        if problem == "nos":
            a, b = size
            label = f"{a}x{b}"
        else:
            a, b = size + 1, size
            label = str(size)
        if dump_dir is not None and a * b ** a > NOS_INSTANCE_CAP:
            raise UsageError(
                f"{problem} {label} has {a * b ** a} instances; --dump-matrix "
                f"is capped at {NOS_INSTANCE_CAP}"
            )
        outer, tile = os_adversary(a), hilbert_tile(b)
        # Rows come from the factors; the dense matrix is built only to dump it.
        report = composed_sa_ratio(outer, tile, eps=eps, tol=tol)
        adv = compose_adversary(outer, [tile] * a) if dump_dir is not None else None
        if problem == "tarski":
            # The family certifies: every grid query is covered by at most
            # seven boundary queries, so the true denominator is at most 7x
            # the nested ordered search one.
            report = dataclasses.replace(
                report,
                denominator=7.0 * report.denominator,
                sa_value=report.sa_value / 7.0,
                query_lower_bound=report.query_lower_bound / 7.0,
            )
    else:
        raise UsageError(f"unknown problem {problem!r}")
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        path = dump_dir / f"gamma_{problem}_{label}.json"
        path.write_text(adv.matrix.to_json())
    return {
        "problem": problem,
        "size": label,
        "numerator": report.numerator,
        "denominator": report.denominator,
        "sa": report.sa_value,
        "lb": report.query_lower_bound,
        "worst_position": report.worst_position,
        "epsilon": report.epsilon,
    }


def cmd_bound(args) -> int:
    eps = _parse_eps(args.eps)
    sizes = _parse_sizes(args.problem, args.sizes)
    dump_dir = Path(args.dump_matrix) if args.dump_matrix else None
    rows = [_bound_row(args.problem, s, eps, args.tol, dump_dir) for s in sizes]
    if args.format == "json":
        text = json.dumps(rows, sort_keys=True)
    else:
        lines = ["problem,size,numerator,denominator,sa,lb"]
        for r in rows:
            lines.append(
                f"{r['problem']},{r['size']},{r['numerator']!r},"
                f"{r['denominator']!r},{r['sa']!r},{r['lb']!r}"
            )
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_OK


def cmd_solve(args) -> int:
    try:
        text = Path(args.instance).read_text()
    except OSError as exc:
        print(f"cannot read {args.instance}: {exc}", file=sys.stderr)
        return EXIT_IO
    fn = LatticeFn.from_json(text)  # LatticeError -> exit 3 in main()
    ok, witness = check_monotone(fn)
    if not ok:
        print(f"refusing non-monotone instance; witness pair {witness[0]} <= "
              f"{witness[1]} with f{witness[0]}={fn.value(*witness[0])}, "
              f"f{witness[1]}={fn.value(*witness[1])}")
        return EXIT_CHECK_FAILURE
    oracle = Oracle(fn)
    result = nested_solve(oracle) if args.algo == "nested" else solve_brute(oracle)
    if args.format == "json":
        print(json.dumps(
            {"fixed_point": list(result.fixed_point),
             "queries_used": result.queries_used,
             "algorithm": result.algorithm,
             "fell_back": result.fell_back},
            sort_keys=True,
        ))
    else:
        print(f"fixed_point={result.fixed_point} queries={result.queries_used} "
              f"algorithm={result.algorithm}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tarskilab",
        description="Spectral-adversary lower-bound workbench for lattice "
                    "fixed-point search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write instance files")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--C", type=str, default=None, help="comma-separated crossing vector")
    g.add_argument("--i", type=int, default=None, help="fixed-point chunk index")
    g.add_argument("--out", type=str, required=True)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--m", type=int, default=None,
                   help="largest tile size for hilbert/symmetrize (suite default if unset)")
    v.add_argument("--a", type=int, default=3)
    v.add_argument("--b", type=int, default=3)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--sample", type=int, default=200,
                   help="interior sample size for covering at n >= 3; 0 = exhaustive")
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--out", type=str, default=None, help="write the report as JSON")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bound", help="emit a lower-bound table")
    b.add_argument("--problem", required=True, choices=["os", "hsos", "nos", "tarski"])
    b.add_argument("--sizes", required=True,
                   help="comma-separated; m for os/hsos, AxB for nos, n for tarski")
    b.add_argument("--eps", type=str, default="1/3")
    b.add_argument("--tol", type=float, default=1e-9)
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.add_argument("--out", type=str, default=None)
    b.add_argument("--dump-matrix", type=str, default=None,
                   help="directory for adversary matrix JSON dumps")
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("--instance", required=True)
    s.add_argument("--algo", choices=["nested", "brute"], default="nested")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.set_defaults(func=cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GeometryError, AdversaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpectralConvergenceError as exc:
        print(f"usage error: {exc}; try a larger --tol", file=sys.stderr)
        return EXIT_USAGE
    except LatticeError as exc:
        print(f"invalid instance file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"invalid JSON input: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # remaining ValueErrors are malformed flag values
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

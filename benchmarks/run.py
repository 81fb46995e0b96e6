"""Benchmark of ``tarskilab``: end-to-end and per-module timings.

    python3 benchmarks/run.py --workload family --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in this process, in a closed loop
with one client: each command is ``tarskilab.cli.main`` called with the
argument list a user would type, and the next starts when it has returned.
Whole rounds of the workload's commands repeat until ``--seconds`` have
passed.  Every output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics of the traced
ones, plus the tracing overhead; the spans go to
``benchmarks/out/trace-<workload>-seed<seed>.jsonl``.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import os

# One BLAS thread: two threads cut dense matvec time by about a third on two
# cores, but runs then stall now and then and vary more (see README).  Set
# before numpy is imported; the set-up probes inherit it.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def import_program():
    """Import ``tarskilab`` from this checkout's ``src/``, never from
    anywhere else on the path."""
    if not (SRC / "tarskilab" / "cli.py").is_file():
        raise SystemExit(f"benchmark: program source {SRC / 'tarskilab'} not found")
    sys.path.insert(0, str(SRC))
    import tarskilab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "tarskilab":
        raise SystemExit(f"benchmark: imported tarskilab from {cli.__file__}, not {SRC}")
    return cli


def run_command(cli, argv) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one command."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            rc = -1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


class Tally:
    """Attempted and failed operations, and the wall times of each
    command line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exited 0 but failed its output check
        self.times: dict[tuple, list[float]] = {}  # (kind, argv) -> times

    def slowest(self, kind: str) -> list[float]:
        """Slowest time of each distinct command line of this kind."""
        return [max(ts) for (k, _), ts in self.times.items() if k == kind]

    def run(self, cli, ops) -> list[float]:
        """Run ``ops`` in order; return their wall times."""
        times = []
        for op in ops:
            rc, out, err, dt = run_command(cli, op.argv)
            times.append(dt)
            self.attempted += 1
            self.times.setdefault((op.kind, op.argv), []).append(dt)
            problem = None
            if rc != 0:
                problem = f"exit {rc}: {err.strip()[-300:]}"
            else:
                try:
                    problem = op.check(out)
                except Exception as exc:  # noqa: BLE001 - unreadable output
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    self.wrong += 1
            if problem:
                self.failed += 1
                print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
        return times


def percentile_ms(samples: list[float], q: int) -> float:
    """The q-th percentile in ms (``statistics.quantiles``, exclusive method;
    q = 50 is the median)."""
    return 1e3 * statistics.quantiles(samples, n=100)[q - 1]


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the program and plans
    the workload's inputs, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms.
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_rounds(cli, tally, ops, seconds, min_rounds, after_round, tracer=None):
    """Whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` have run; ``after_round(r)`` runs after round r.  With a
    tracer, rounds alternate traced and untraced, starting traced.  Returns
    the per-command times of the untraced and of the traced rounds."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) <= len(plain):
            tracer.round = len(traced)
            with tracer:
                traced.append(tally.run(cli, ops))
        else:
            plain.append(tally.run(cli, ops))
        after_round(len(plain) + len(traced) - 1)
        if (len(plain) + len(traced) >= min_rounds
                and time.perf_counter() - start >= seconds):
            return plain, traced


def round_seconds(rounds: list[list[float]]) -> float:
    """Time of one round: the sum over its commands of each command's
    slowest time over the rounds.  The machine switches between a fast and
    a slow state (see README); nearly every run meets the slow state, so the
    slowest of three repeats reads it steadily, where a median reads the
    share of slow time, which varies from run to run."""
    return sum(max(ts) for ts in zip(*rounds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    ops = workloads.plan(args.workload, args.seed, work)
    if args.setup_probe:
        return 0

    work.mkdir(parents=True, exist_ok=True)
    try:
        tally = Tally()
        if args.trace:
            from tracing import Tracer, per_layer, unit_of

            tracer = Tracer()
            plain, traced = run_rounds(cli, tally, ops, args.seconds,
                                       workloads.ROUNDS,
                                       lambda r: None, tracer)
            rounds = [[s for s in tracer.spans if s["round"] == r]
                      for r in range(len(traced))]
            metrics = {k: (v, unit_of(k)) for k, v in per_layer(rounds).items()}
            overhead = 100.0 * (statistics.median(map(sum, traced))
                                / statistics.median(map(sum, plain)) - 1.0)
            metrics["trace.overhead_pct"] = (overhead, "%")
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            with trace_file.open("w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span, sort_keys=True) + "\n")
        else:
            # Set-up probes, and for the other workloads the family's writes
            # and reads that give the gen/solve latencies, run between the
            # rounds, so that their repeats are spread over the run.
            setup = [setup_probe(args.workload, args.seed)]
            io = []
            if args.workload != "family":
                io = workloads.family_io_ops(args.seed, work / "family")

            def after_round(r: int) -> None:
                if r < workloads.ROUNDS:
                    tally.run(cli, io)
                if len(setup) < SETUP_PROBES:
                    setup.append(setup_probe(args.workload, args.seed))

            plain, _ = run_rounds(cli, tally, ops, args.seconds,
                                  workloads.ROUNDS, after_round)
            while len(setup) < SETUP_PROBES:
                setup.append(setup_probe(args.workload, args.seed))
            gen, solve = tally.slowest("gen"), tally.slowest("solve")
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "run_s": (round_seconds(plain), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "gen_p50_ms": (percentile_ms(gen, 50), "ms"),
                "gen_p95_ms": (percentile_ms(gen, 95), "ms"),
                "solve_p50_ms": (percentile_ms(solve, 50), "ms"),
                "solve_p95_ms": (percentile_ms(solve, 95), "ms"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the public functions of each ``tarskilab`` module.

The program is not changed: while a :class:`Tracer` is installed, every
module attribute that is one of the functions in ``TRACED`` is replaced by a
wrapper that records a span (name, start, end, parent, and a few counts
taken from the arguments or the result).  Spans stay in memory; ``run.py``
writes them as JSON lines when the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable


def _norm_attrs(res, args, kwargs):
    return {"dim": int(args[0].shape[0]), "iterations": res.iterations}


def _size_attrs(res, args, kwargs):
    return {"instances": res.size}


def _dim_attrs(res, args, kwargs):
    return {"dim": res.dim}


def _checks_attrs(res, args, kwargs):
    return {"checks_run": res.checks_run}


def _queries_attrs(res, args, kwargs):
    return {"queries": res.queries_used}


# (module, attribute, span name, counts recorded on the span)
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("matrices", "power_norm", "matrices.power_norm", _norm_attrs),
    ("matrices", "spectral_norm", "matrices.spectral_norm", None),
    ("problems", "compose", "problems.compose", _size_attrs),
    ("adversary", "os_adversary", "adversary.build", None),
    ("adversary", "hilbert_tile", "adversary.build", None),
    ("adversary", "hsos_labeling", "adversary.build", None),
    ("adversary", "uniform_from_tile", "adversary.build", None),
    ("adversary", "compose_adversary", "adversary.compose_adversary", _dim_attrs),
    ("adversary", "sa_ratio", "adversary.sa_ratio", None),
    ("adversary", "symmetrize", "adversary.symmetrize", None),
    ("adversary", "tile_of_uniform", "adversary.tile_of_uniform", None),
    ("adversary", "denominator_identity_mismatches", "adversary.identity_check", None),
    ("geometry", "herringbone", "geometry.herringbone", None),
    ("geometry", "build_instance", "geometry.build_instance", None),
    ("geometry", "covering_set", "geometry.covering_set", None),
    ("suites", "value_tables", "suites.value_tables", None),
    ("suites", "run_suite", "suites.run_suite", _checks_attrs),
    ("lattice", "LatticeFn.from_json", "lattice.from_json", None),
    ("lattice", "LatticeFn.to_json", "lattice.to_json", None),
    ("lattice", "check_monotone", "lattice.check_monotone", None),
    ("lattice", "nested_solve", "lattice.nested_solve", _queries_attrs),
    ("lattice", "solve_brute", "lattice.solve_brute", None),
)


class Tracer:
    """Records spans while installed; ``with tracer:`` installs it."""

    package = "tarskilab"

    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str, attrs: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            span = {"id": sid, "name": name, "round": self.round,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(res, args, kwargs))
            return res

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in sys.modules.items()
                   if k == self.package or k.startswith(self.package + ".")]
        for mod_name, attr, name, attrs in TRACED:
            home = sys.modules[f"{self.package}.{mod_name}"]
            if "." in attr:  # a method or classmethod of a class in that module
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = self._wrap(fn, name, attrs)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
                continue
            fn = getattr(home, attr)
            wrapped = self._wrap(fn, name, attrs)
            for mod in modules:  # every module that imported the function by name
                if getattr(mod, attr, None) is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _self_time(spans: list[dict], name: str) -> float:
    """Time inside ``name`` spans not covered by their direct children."""
    total = {s["id"]: _dur(s) for s in spans if s["name"] == name}
    for s in spans:
        if s["parent"] in total:
            total[s["parent"]] -= _dur(s)
    return sum(total.values(), 0.0)


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the spans of one round."""
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    names = {s["id"]: s["name"] for s in spans}

    def secs(name: str) -> float:
        """Inclusive time of ``name`` spans, each counted once when one
        such span calls another (``hilbert_tile`` calls ``hsos_labeling``)."""
        return sum((_dur(s) for s in by.get(name, ()) if names.get(s["parent"]) != name), 0.0)

    norms = by.get("matrices.power_norm", [])
    matvecs = sum(s.get("iterations", 0) + 1 for s in norms)
    norm_s = secs("matrices.power_norm")
    return {
        "matrices.norm_calls": len(norms),
        "matrices.norm_s": norm_s,
        "matrices.norm_iters": sum(s.get("iterations", 0) for s in norms),
        "matrices.norm_gb_computed": sum(
            s.get("dim", 0) ** 2 * 8 * (s.get("iterations", 0) + 1) for s in norms) / 1e9,
        "matrices.norm_us_per_iter": 1e6 * norm_s / matvecs if matvecs else 0.0,
        "problems.compose_s": secs("problems.compose"),
        "problems.composed_instances": sum(s.get("instances", 0) for s in by.get("problems.compose", [])),
        "adversary.build_s": secs("adversary.build"),
        "adversary.compose_adversary_s": secs("adversary.compose_adversary"),
        "adversary.dense_mb_computed": sum(
            s.get("dim", 0) ** 2 * 8 for s in by.get("adversary.compose_adversary", [])) / 1e6,
        "adversary.sa_ratio_s": secs("adversary.sa_ratio"),
        "adversary.masked_norms": sum(
            1 for s in norms if names.get(s["parent"]) == "adversary.sa_ratio"),
        "adversary.symmetrize_s": secs("adversary.symmetrize"),
        "adversary.tile_of_uniform_s": secs("adversary.tile_of_uniform"),
        "adversary.identity_check_s": secs("adversary.identity_check"),
        "geometry.herringbone_s": secs("geometry.herringbone"),
        "geometry.build_instance_s": secs("geometry.build_instance"),
        "geometry.instances_built": len(by.get("geometry.build_instance", [])),
        "geometry.covering_set_s": secs("geometry.covering_set"),
        "geometry.covering_set_calls": len(by.get("geometry.covering_set", [])),
        "suites.value_tables_s": secs("suites.value_tables"),
        "suites.self_s": _self_time(spans, "suites.run_suite"),
        "suites.checks_run": sum(s.get("checks_run", 0) for s in by.get("suites.run_suite", [])),
        "lattice.from_json_s": secs("lattice.from_json"),
        "lattice.to_json_s": secs("lattice.to_json"),
        "lattice.check_monotone_s": secs("lattice.check_monotone"),
        "lattice.nested_solve_s": secs("lattice.nested_solve"),
        "lattice.oracle_queries": sum(s.get("queries", 0) for s in by.get("lattice.nested_solve", [])),
        "cli.self_s": _self_time(spans, "cli.main"),
        "trace.spans": len(spans),
    }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_pct", "%"), ("_gb_computed", "GB"),
                         ("_mb_computed", "MB"), ("_us_per_iter", "us")):
        if metric.endswith(suffix):
            return unit
    return "count"


def per_layer(rounds: list[list[dict]]) -> dict[str, float]:
    """Median over traced rounds of each round's metrics.  Rounds run the
    same commands, so the counts agree and their median is the count."""
    per_round = [round_metrics(spans) for spans in rounds]
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}

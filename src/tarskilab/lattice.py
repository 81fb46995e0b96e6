"""Monotone functions on the two-dimensional grid lattice and their solvers.

A :class:`LatticeFn` is an explicit table of a function [n]^2 -> [n]^2 under
the componentwise order.  Solvers only ever see an *oracle view* that counts
lookups, matching the query-model convention that repeated lookups of the
same vertex each count.

``nested_solve`` is the classical nested binary search: an outer binary
search over columns, where each probed column is resolved by an inner binary
search for a row fixed point of the column's second coordinate map.  The
search state is a box [a, b] that the function maps into itself, so a fixed
point always remains inside; every returned point is re-verified with one
extra query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np


class LatticeError(ValueError):
    """Invalid lattice function table or instance file."""


@dataclass(frozen=True)
class LatticeFn:
    """Dense table of a function on [n]^2, stored as an (n, n, 2) array.

    ``values[x-1, y-1]`` holds (fx, fy), all 1-based.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.n, self.n, 2):
            raise LatticeError(
                f"values shape {self.values.shape} != ({self.n}, {self.n}, 2)"
            )
        if self.values.min() < 1 or self.values.max() > self.n:
            bad = np.argwhere((self.values < 1) | (self.values > self.n))[0]
            raise LatticeError(
                f"output out of range at cell ({bad[0] + 1}, {bad[1] + 1})"
            )
        self.values.setflags(write=False)

    def value(self, x: int, y: int) -> tuple[int, int]:
        return int(self.values[x - 1, y - 1, 0]), int(self.values[x - 1, y - 1, 1])

    @classmethod
    def from_map(cls, n: int, mapping) -> "LatticeFn":
        vals = np.zeros((n, n, 2), dtype=np.int32)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                vals[x - 1, y - 1] = mapping(x, y) if callable(mapping) else mapping[(x, y)]
        return cls(n=n, values=vals)

    def to_json(self) -> str:
        """Row-major dump (x outer, y inner, 1-based)."""
        flat = self.values.reshape(-1, 2).tolist()
        return json.dumps({"n": self.n, "k": 2, "values": flat}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LatticeFn":
        """Inverse of :meth:`to_json`.  ``n``, ``k`` and every coordinate must
        be JSON integers: floats, strings and booleans are rejected."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise LatticeError("instance file is not a JSON object")
        for key in ("n", "k", "values"):
            if key not in obj:
                raise LatticeError(f"instance file missing key {key!r}")
        n, k, flat = obj["n"], obj["k"], obj["values"]
        if type(k) is not int or k != 2:
            raise LatticeError(f"only k=2 instance files supported, got k={k!r}")
        if type(n) is not int or n < 1:
            raise LatticeError(f"n must be an integer >= 1, got n={n!r}")
        if not isinstance(flat, list):
            raise LatticeError("values is not a list")
        if len(flat) > n * n:
            raise LatticeError(
                f"instance file has {len(flat)} cells, expected {n * n}"
            )
        if len(flat) < n * n:
            missing = len(flat)
            raise LatticeError(
                f"instance file has {missing} cells, expected {n * n}; first "
                f"missing cell is ({missing // n + 1}, {missing % n + 1})"
            )
        bad = next((r for r, pair in enumerate(flat) if not _is_int_pair(pair)), None)
        if bad is not None:
            raise LatticeError(
                f"cell ({bad // n + 1}, {bad % n + 1}) is not a pair of "
                f"integers: {flat[bad]!r}"
            )
        try:
            vals = np.array(flat, dtype=np.int32).reshape(n, n, 2)
        except OverflowError:
            bad = next(r for r, pair in enumerate(flat) if not all(1 <= v <= n for v in pair))
            raise LatticeError(
                f"output out of range at cell ({bad // n + 1}, {bad % n + 1})"
            ) from None
        return cls(n=n, values=vals)


def _is_int_pair(pair) -> bool:
    return (type(pair) is list and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int)


class Oracle:
    """Counting view of a lattice function.  One view per solver run; the
    counter is the only mutable state and is owned by this view alone."""

    def __init__(self, fn: Callable[[int, int], tuple[int, int]], n: int):
        self._fn = fn
        self.n = n
        self.query_count = 0

    def query(self, x: int, y: int) -> tuple[int, int]:
        if not (1 <= x <= self.n and 1 <= y <= self.n):
            raise LatticeError(f"query ({x}, {y}) outside [1, {self.n}]^2")
        self.query_count += 1
        return self._fn(x, y)

    @classmethod
    def over(cls, fn: LatticeFn) -> "Oracle":
        return cls(fn.value, fn.n)


@dataclass(frozen=True)
class SolveResult:
    fixed_point: tuple[int, int]
    queries_used: int
    algorithm: str  # "brute" or "nested"
    fell_back: bool = False


def check_monotone(f: LatticeFn) -> tuple[bool, tuple | None]:
    """Monotonicity via covering pairs: comparing each cell with its right
    and upper neighbor suffices, since any a <= b decomposes into covers."""
    v = f.values
    for axis in (0, 1):
        lo = v.take(range(0, f.n - 1), axis=axis)
        hi = v.take(range(1, f.n), axis=axis)
        bad = np.argwhere((hi < lo).any(axis=2))
        if len(bad):
            x, y = map(int, bad[0])
            a = (x + 1, y + 1)
            b = (x + 2, y + 1) if axis == 0 else (x + 1, y + 2)
            return False, (a, b)
    return True, None


def brute_fixed_points(f: LatticeFn) -> list[tuple[int, int]]:
    """All fixed points, in row-major order (x outer, y inner)."""
    xs, ys = np.meshgrid(
        np.arange(1, f.n + 1), np.arange(1, f.n + 1), indexing="ij"
    )
    hits = np.argwhere((f.values[:, :, 0] == xs) & (f.values[:, :, 1] == ys))
    return [(int(x) + 1, int(y) + 1) for x, y in hits]


def solve_brute(oracle: Oracle) -> SolveResult:
    """Full scan through the oracle; always n^2 queries."""
    found = None
    for x in range(1, oracle.n + 1):
        for y in range(1, oracle.n + 1):
            if oracle.query(x, y) == (x, y) and found is None:
                found = (x, y)
    if found is None:
        raise LatticeError("no fixed point found; input is not monotone")
    return SolveResult(fixed_point=found, queries_used=oracle.query_count,
                       algorithm="brute")


def _inner_row_fix(oracle: Oracle, x: int, lo: int, hi: int) -> tuple[int, tuple[int, int]]:
    """Binary search for z with f(x, z)_2 = z in [lo, hi].

    Invariant: z -> f(x, z)_2 maps [lo, hi] into itself, so g(lo) >= lo and
    g(hi) <= hi bracket a fixed point throughout.
    """
    while lo < hi:
        z = (lo + hi) // 2
        fz = oracle.query(x, z)
        if fz[1] > z:
            lo = z + 1
        elif fz[1] < z:
            hi = z - 1
        else:
            return z, fz
    return lo, oracle.query(x, lo)


def nested_solve(oracle: Oracle) -> SolveResult:
    """Nested binary search for a fixed point of a monotone oracle.

    Maintains a box [a, b] with f([a, b]) inside [a, b].  At the middle
    column the inner search finds (x, z) with f(x, z)_2 = z; the sign of
    f(x, z)_1 - x then shrinks the box to [(x+1, z), b] or [a, (x-1, z)],
    which the function still maps into itself by monotonicity.  The answer
    is re-verified with one extra query; if verification fails (input not
    monotone), falls back to a brute scan on the same oracle and flags it.
    """
    n = oracle.n
    a = [1, 1]
    b = [n, n]
    result = None
    while result is None:
        x = (a[0] + b[0]) // 2
        z, fz = _inner_row_fix(oracle, x, a[1], b[1])
        if fz[1] != z or not (a[0] <= fz[0] <= b[0]):
            break  # box invariant violated: not monotone
        if fz[0] == x:
            result = (x, z)
        elif fz[0] > x:
            a = [x + 1, z]
        else:
            b = [x - 1, z]
        if a[0] > b[0] or a[1] > b[1]:
            break
    if result is not None and oracle.query(*result) == result:
        return SolveResult(fixed_point=result, queries_used=oracle.query_count,
                           algorithm="nested")
    brute = solve_brute(oracle)
    return SolveResult(fixed_point=brute.fixed_point,
                       queries_used=oracle.query_count,
                       algorithm="brute", fell_back=True)


def clamp_embed(f, n: int, k: int = 2) -> Oracle:
    """Oracle view of ``f`` embedded into the larger lattice [n]^k.

    Each coordinate kept by the smaller instance is clamped with
    ``min(x_i, n')``; trailing coordinates of the big lattice are dropped on
    the way in and returned as 1 (the bottom element) on the way out, so the
    composition is a monotone self-map of [n]^k whose fixed points are
    exactly the fixed points of ``f``.

    ``f`` is a :class:`LatticeFn` (two-dimensional) or a 1-based sequence of
    ints (one-dimensional).  Only k = 2 views are produced here; the
    one-dimensional case is the k' = 1 < k = 2 embedding.
    """
    if k != 2:
        raise LatticeError("only k = 2 embeddings are produced")
    if isinstance(f, LatticeFn):
        if f.n > n:
            raise LatticeError(f"cannot embed side {f.n} into smaller side {n}")
        np_ = f.n

        def view(x: int, y: int) -> tuple[int, int]:
            return f.value(min(x, np_), min(y, np_))

    else:
        table = list(f)
        np_ = len(table)
        if np_ > n:
            raise LatticeError(f"cannot embed side {np_} into smaller side {n}")
        for v in table:
            if not 1 <= v <= np_:
                raise LatticeError("1-d table output out of range")

        def view(x: int, y: int) -> tuple[int, int]:
            return table[min(x, np_) - 1], 1

    return Oracle(view, n)

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
import re
from dataclasses import dataclass

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
        if self.values.dtype.kind not in "iu":
            raise LatticeError(f"values must be integers, got dtype {self.values.dtype}")
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
        """Row-major dump (x outer, y inner, 1-based): the text of
        ``json.dumps({"n": n, "k": 2, "values": pairs}, sort_keys=True)``."""
        return _canonical_text(self.n, self.values)

    @classmethod
    def from_json(cls, text: str) -> "LatticeFn":
        """Inverse of :meth:`to_json`.  ``n``, ``k`` and every coordinate must
        be JSON integers: floats, strings and booleans are rejected.  Only a
        spelling other than :meth:`to_json`'s goes through ``json.loads``."""
        fn = _from_canonical(cls, text)
        if fn is not None:
            return fn
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


_HEADER = re.compile(r'\{"k": 2, "n": ([1-9][0-9]{0,8}), "values": \[')
_BODY_CHARS = b"0123456789[], }"
_TO_SPACE = bytes.maketrans(b"[],}", b"    ")


def _canonical_text(n: int, values: np.ndarray) -> str:
    """``to_json`` text from two tables of NUL-padded cell halves, "[x, " and
    "y], " for x, y in 0..n, indexed by the table: no object per cell."""
    w = len(str(n)) + 3
    halves = [np.array([f"[{v}, " for v in range(n + 1)], dtype=f"S{w}"),
              np.array([f"{v}], " for v in range(n + 1)], dtype=f"S{w}")]
    cells = values.reshape(-1, 2)
    chars = np.concatenate([h.view(np.uint8).reshape(-1, w)[cells[:, c]]
                            for c, h in enumerate(halves)], axis=1).ravel()
    body = chars[chars != 0].tobytes().decode("ascii")[:-2]
    return f'{{"k": 2, "n": {json.dumps(n)}, "values": [{body}]}}'


def _from_canonical(cls, text) -> "LatticeFn | None":
    """The table whose ``to_json`` is exactly ``text``, else None; never
    raises.  ``np.fromstring`` only ever sees digits and spaces that start
    with a digit: an all-space string does not read as empty (numpy 2.4 gives
    [0]), and an integer above int64 reads as its bound, so fails the range."""
    m = _HEADER.match(text) if isinstance(text, str) and text.isascii() else None
    if m is None:
        return None
    n = int(m.group(1))
    body = text[m.end():].encode("ascii")
    if body.translate(None, _BODY_CHARS):
        return None
    digits = body.translate(_TO_SPACE).strip()
    if not digits:
        return None
    flat = np.fromstring(digits, dtype=np.int64, sep=" ")
    if len(flat) != 2 * n * n or flat.min() < 1 or flat.max() > n:
        return None
    vals = flat.astype(np.int32).reshape(n, n, 2)
    return cls(n=n, values=vals) if _canonical_text(n, vals) == text else None


def _is_int_pair(pair) -> bool:
    return (type(pair) is list and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int)


class Oracle:
    """Counting view of a lattice function table.  One view per solver run;
    the counter is the only mutable state and is owned by this view alone."""

    def __init__(self, fn: LatticeFn):
        self._fn = fn
        self.n = fn.n
        self.query_count = 0

    def query(self, x: int, y: int) -> tuple[int, int]:
        if not (1 <= x <= self.n and 1 <= y <= self.n):
            raise LatticeError(f"query ({x}, {y}) outside [1, {self.n}]^2")
        self.query_count += 1
        return self._fn.value(x, y)

    def scan(self) -> LatticeFn:
        """Counted full scan: one query per cell, n^2 in all."""
        self.query_count += self.n * self.n
        return self._fn


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
    r = np.arange(1, f.n + 1)
    hits = np.argwhere((f.values[:, :, 0] == r[:, None]) & (f.values[:, :, 1] == r))
    return [(int(x) + 1, int(y) + 1) for x, y in hits]


def solve_brute(oracle: Oracle) -> SolveResult:
    """Full scan through the oracle (always n^2 queries); returns the first
    fixed point in row-major order."""
    found = brute_fixed_points(oracle.scan())
    if not found:
        raise LatticeError("no fixed point found; input is not monotone")
    return SolveResult(fixed_point=found[0], queries_used=oracle.query_count,
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


def clamp_embed(f: LatticeFn, n: int) -> LatticeFn:
    """``f`` on [n']^2 padded to the larger lattice [n]^2 by clamping each
    coordinate with ``min(x_i, n')``.

    This is the paper's padding step from the family's side n' to every
    n >= n'.  Clamping is monotone, so the padded table is monotone when
    ``f`` is; its outputs stay in [n']^2, so its fixed points are exactly
    the fixed points of ``f``.
    """
    if f.n > n:
        raise LatticeError(f"cannot embed side {f.n} into smaller side {n}")
    idx = np.minimum(np.arange(n), f.n - 1)
    return LatticeFn(n=n, values=f.values[np.ix_(idx, idx)])

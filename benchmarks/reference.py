"""Independent reference values for the benchmark's output checks.

Everything here is built from the closed-form definitions with numpy and
``eigvalsh``; nothing is imported from ``tarskilab``.  The program computes
its norms by power iteration on the dense matrices, so an agreement to
``RTOL`` is a check of the program against a different method, not against
a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cache

import numpy as np

RTOL = 1e-7  # power iteration stops at a 1e-9 residual; eigvalsh is exact to ~1e-15


def _top(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(M)[-1])


def hilbert_tile(m: int) -> np.ndarray:
    """Inverse-distance tile 1/(|i-j|+1), diagonal included."""
    idx = np.arange(1, m + 1)
    return 1.0 / (np.abs(idx[:, None] - idx[None, :]) + 1)


def os_matrix(m: int) -> np.ndarray:
    """Ordered-search adversary: 1/(|x-y|+1) off the diagonal, 0 on it."""
    G = hilbert_tile(m)
    np.fill_diagonal(G, 0.0)
    return G


def between(m: int, p: int) -> np.ndarray:
    """0/1 mask: 1 where p lies weakly between the row and column index.

    For ordered search this is the position-p distinguisher off the
    diagonal; for the hidden-symbol tile it is the position-p distinguisher
    including the (p, p) entry, where the hidden symbols differ.
    """
    idx = np.arange(1, m + 1)
    b = (idx[:, None] <= p) & (p <= idx[None, :])
    return (b | b.T).astype(np.float64)


def error_factor(eps: Fraction) -> float:
    e = float(eps)
    return 1.0 - 2.0 * math.sqrt(e * (1.0 - e))


def _row(problem: str, size: str, num: float, den: float, eps: Fraction) -> dict:
    sa = num / den
    return {"problem": problem, "size": size, "numerator": num,
            "denominator": den, "sa": sa, "lb": error_factor(eps) * sa}


@cache
def os_row(m: int, eps: Fraction) -> dict:
    G = os_matrix(m)
    den = max(_top(G * between(m, p)) for p in range(1, m + 1))
    return _row("os", str(m), _top(G), den, eps)


@cache
def hsos_row(m: int, eps: Fraction) -> dict:
    """The uniform matrix is (J_3 - I_3) (x) A_m, whose top eigenvalue is
    2 ||A_m||; masking by a position keeps that form with A_m o D_q."""
    A = hilbert_tile(m)
    den = max(_top(A * between(m, q)) for q in range(1, m + 1))
    return _row("hsos", str(m), 2.0 * _top(A), 2.0 * den, eps)


@cache
def nos_row(a: int, b: int, eps: Fraction) -> dict:
    """Composed adversary for OS_a over a copies of HSOS_b, from its factors:
    numerator ||G||*||A||^a; denominator max over (p, q) of
    ||G o D_p|| * ||A o D_q|| * ||A||^(a-1)."""
    G, A = os_matrix(a), hilbert_tile(b)
    gn, an = _top(G), _top(A)
    gden = max(_top(G * between(a, p)) for p in range(1, a + 1))
    aden = max(_top(A * between(b, q)) for q in range(1, b + 1))
    return _row("nos", f"{a}x{b}", gn * an ** a, gden * aden * an ** (a - 1), eps)


@cache
def tarski_row(n: int, eps: Fraction) -> dict:
    """The NOS (n+1) x n row with its denominator multiplied by seven."""
    r = nos_row(n + 1, n, eps)
    return _row("tarski", str(n), r["numerator"], 7.0 * r["denominator"], eps)


def compare_row(got: dict, want: dict) -> str | None:
    """None when ``got`` matches ``want``; otherwise what differs."""
    for key in ("problem", "size"):
        if got.get(key) != want[key]:
            return f"{key}: got {got.get(key)!r}, want {want[key]!r}"
    for key in ("numerator", "denominator", "sa", "lb"):
        g, w = got.get(key), want[key]
        if not isinstance(g, float) or not math.isclose(g, w, rel_tol=RTOL):
            return f"{want['problem']} {want['size']} {key}: got {g!r}, want {w!r}"
    return None


def parse_bound_csv(text: str) -> list[dict]:
    """Rows of a ``bound`` CSV table; numbers as floats."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "problem,size,numerator,denominator,sa,lb":
        raise ValueError(f"unexpected CSV header: {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        problem, size, *nums = line.split(",")
        if len(nums) != 4:
            raise ValueError(f"unexpected CSV row: {line!r}")
        rows.append({"problem": problem, "size": size,
                     **dict(zip(("numerator", "denominator", "sa", "lb"),
                                map(float, nums)))})
    return rows


# ---------------------------------------------------------------------------
# tube instance family
# ---------------------------------------------------------------------------


def side(n: int) -> int:
    """Grid side n' = n(n^2+n-1) of the level-n family."""
    return n * (n * n + n - 1)


def fixed_point(n: int, C, i: int) -> tuple[int, int]:
    """The C_i-th point of chunk boundary i: chunk boundary i sits at region
    boundary t = (n+2)(i-1), whose j-th point is
    ((n-1)t + j, (n-1)t + n + 1 - j)."""
    t = (n + 2) * (i - 1)
    j = C[i - 1]
    return ((n - 1) * t + j, (n - 1) * t + n + 1 - j)


def query_cap(n: int) -> int:
    """Nested binary search budget 4(ceil(log2 n') + 1)^2."""
    return 4 * (math.ceil(math.log2(side(n))) + 1) ** 2


def check_instance_file(text: str, n: int, C, i: int) -> str | None:
    """None when the file is a well-formed, monotone instance on the level-n
    grid whose only fixed point is the closed-form one for (C, i)."""
    obj = json.loads(text)
    N = side(n)
    if sorted(obj) != ["k", "n", "values"] or obj["n"] != N or obj["k"] != 2:
        return f"bad header: n={obj.get('n')!r} k={obj.get('k')!r} keys={sorted(obj)}"
    vals = obj["values"]
    if len(vals) != N * N or any(
            len(p) != 2 or not all(type(v) is int for v in p) for p in vals):
        return "values are not N*N integer pairs"
    f = np.array(vals, dtype=np.int64).reshape(N, N, 2)
    if f.min() < 1 or f.max() > N:
        return "value out of range"
    if (f[1:, :] < f[:-1, :]).any() or (f[:, 1:] < f[:, :-1]).any():
        return "not monotone"
    xs, ys = np.meshgrid(np.arange(1, N + 1), np.arange(1, N + 1), indexing="ij")
    fps = [(int(x) + 1, int(y) + 1)
           for x, y in np.argwhere((f[:, :, 0] == xs) & (f[:, :, 1] == ys))]
    want = fixed_point(n, C, i)
    if fps != [want]:
        return f"fixed points {fps[:4]}, want exactly [{want}]"
    return None


def suite_checks(suite: str, **p) -> int:
    """The number of checks a suite runs at these parameters."""
    if suite == "hilbert":
        m = p["m"]
        return m + m * (m + 1) // 2
    if suite == "symmetrize":
        return 15 * p["m"]
    if suite == "composition":
        a, b = p["a"], p["b"]
        exact = a * b if a * b ** a <= 256 else 0
        return 2 + a * b + exact + 1 + 5
    if suite == "covering":  # exhaustive: every grid point
        return side(p["n"]) ** 2
    if suite == "embedding":
        n = p["n"]
        return (n + 1) * n + 1
    if suite == "solver":
        n = p["n"]
        return 5 * (n + 1) * n ** (n + 1)
    raise KeyError(suite)

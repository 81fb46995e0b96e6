"""Diagonal-tube geometry for the hard fixed-point instance family.

The side length n' = n(n^2+n-1) is carved into n *chunks* of n+2 *regions*
each along the main diagonal.  Region boundaries are the width-n point sets
B^c at coordinate sums c = 2(n-1)t + n + 1; the j-th point of such a set is
((n-1)t + j, (n-1)t + n + 1 - j), indexed by increasing x.

A *grid line* is the discrete analogue of a Euclidean segment between
comparable points: per coordinate sum, the x-coordinate interpolated linearly
between the endpoints and rounded half-up.  A *chunked spine* following a
vector C in [n]^(n+1) splices grid lines so that the spine crosses the i-th
chunk boundary exactly at its C_i-th point; inside chunk i it climbs a
diagonal at index C_i, switches to index C_(i+1) inside region C_i + 1, and
climbs out.

Herringbone functions built on such spines flow along the spine toward a
unique fixed point and diagonally toward the spine everywhere else.  The
instance family pairs every C with a fixed-point chunk index i; queries on
chunk boundaries then give ordered-search feedback on C and i, which is the
bridge to nested ordered search.

All arithmetic is exact integer arithmetic, and one closed form,
:func:`_line_xs`, does every rounding: on numpy arrays for a whole spine at
once, and on plain integers for one point in :func:`line_point`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .lattice import LatticeFn
from .problems import Sym

Point = tuple[int, int]


class GeometryError(ValueError):
    """Geometric precondition violated, or a claimed invariant falsified."""


def line_point(u: Point, v: Point, c: int) -> Point:
    """Point of the grid line from u to v at coordinate sum c.

    The x-coordinate interpolates u_1..v_1 linearly in c and is rounded
    half-up; the y-coordinate makes the sum exact.
    """
    b, d = u[0] + u[1], v[0] + v[1]
    if not (u[0] <= v[0] and u[1] <= v[1]):
        raise GeometryError(f"endpoints not comparable: {u} !<= {v}")
    if b == d:
        if c != b:
            raise GeometryError(f"sum {c} outside degenerate line at {u}")
        return u
    if not b <= c <= d:
        raise GeometryError(f"sum {c} outside [{b}, {d}]")
    x = int(_line_xs(u[0], v[0], b, d, c))
    return (x, c - x)


def _line_xs(u1, v1, b, d, c):
    """x-coordinates of grid-line points at sums ``c`` (arrays broadcast):
    N/D = (u1(d-c) + v1(c-b))/(d-b) rounded half up, as (2N + D) // 2D."""
    D = d - b
    return (2 * (u1 * (d - c) + v1 * (c - b)) + D) // (2 * D)


def _unit_step_path(points, what: str) -> np.ndarray:
    """``points`` as a read-only (len, 2) int array; raises unless each step
    is (1, 0) or (0, 1)."""
    xy = np.array(points, dtype=np.int64)
    xy.setflags(write=False)
    steps = np.diff(xy, axis=0)
    bad = np.flatnonzero((steps.sum(axis=1) != 1) | (steps.min(axis=1) != 0))
    if len(bad):
        a, b = (tuple(xy[k].tolist()) for k in (bad[0], bad[0] + 1))
        raise GeometryError(f"{what} not connected/monotone at {a} -> {b}")
    return xy


@dataclass(frozen=True)
class SpineGeometry:
    """Chunk/region coordinate system for a given n."""

    n: int
    n_prime: int
    low: dict  # (chunk i, region j) -> coordinate sum of the region's low boundary
    high: dict  # (chunk i, region j) -> coordinate sum of the region's high boundary
    bound: dict  # chunk index 1..n+1 -> chunk-boundary coordinate sum
    boundary_points: dict  # region-boundary sum c -> tuple of n points, by increasing x

    def boundary_point(self, c: int, j: int) -> Point:
        pts = self.boundary_points[c]
        if not 1 <= j <= len(pts):
            raise GeometryError(f"boundary index {j} out of range 1..{len(pts)}")
        return pts[j - 1]

    def chunk_boundary_sums(self) -> list[int]:
        return [self.bound[i] for i in range(1, self.n + 2)]

    def region_of_sum(self, alpha: int, c: int) -> int:
        """Region beta of chunk alpha with low <= c < high."""
        for beta in range(1, self.n + 3):
            if self.low[(alpha, beta)] <= c < self.high[(alpha, beta)]:
                return beta
        raise GeometryError(f"sum {c} not in any region of chunk {alpha}")


def build_geometry(n: int) -> SpineGeometry:
    if n < 2:
        raise GeometryError("n must be >= 2")
    n_prime = n * (n * n + n - 1)
    low = {}
    high = {}
    for i in range(1, n + 1):
        for j in range(1, n + 3):
            low[(i, j)] = 2 * (n - 1) * ((n + 2) * (i - 1) + j - 1) + n + 1
            high[(i, j)] = 2 * (n - 1) * ((n + 2) * (i - 1) + j) + n + 1
    bound = {i: low[(i, 1)] for i in range(1, n + 1)}
    bound[n + 1] = high[(n, n + 2)]
    boundary_points = {}
    for t in range(0, n * (n + 2) + 1):
        c = 2 * (n - 1) * t + n + 1
        boundary_points[c] = tuple(
            ((n - 1) * t + j, (n - 1) * t + n + 1 - j) for j in range(1, n + 1)
        )
    return SpineGeometry(n=n, n_prime=n_prime, low=low, high=high, bound=bound,
                         boundary_points=boundary_points)


@dataclass(frozen=True)
class Spine:
    """Connected monotone path from (1, 1) to (n, n)."""

    vertices: tuple[Point, ...]
    xy: np.ndarray = field(init=False, repr=False, compare=False)  # vertices, (len, 2)

    def __post_init__(self):
        if self.vertices[0] != (1, 1) or self.vertices[-1][0] != self.vertices[-1][1]:
            raise GeometryError("spine must run from (1, 1) to the top corner")
        object.__setattr__(self, "xy", _unit_step_path(self.vertices, "spine"))

    @property
    def n(self) -> int:
        return self.vertices[-1][0]


def chunked_spine(geo: SpineGeometry, C: Sequence[int]) -> Spine:
    """Spine from (1,1) to (n',n') crossing chunk boundary i at index C_i.

    Splices, per chunk i: a diagonal climb at index C_i up to region C_i + 1,
    a transition to index C_(i+1) inside that region, and a diagonal climb
    out; plus the two corner segments.  Segment k owns the sums (b_k, d_k]
    (and segment 0 also b_0 = 2), so all vertices come from one _line_xs.
    """
    n = geo.n
    C = tuple(C)
    if len(C) != n + 1 or any(not 1 <= c <= n for c in C):
        raise GeometryError(f"C must lie in [1, {n}]^{n + 1}, got {C}")
    bp = geo.boundary_point
    segments: list[tuple[Point, Point]] = [((1, 1), bp(geo.low[(1, 1)], C[0]))]
    for i in range(1, n + 1):
        ci, cnext = C[i - 1], C[i]
        segments += [
            (bp(geo.low[(i, 1)], ci), bp(geo.low[(i, ci + 1)], ci)),
            (bp(geo.low[(i, ci + 1)], ci), bp(geo.high[(i, ci + 1)], cnext)),
            (bp(geo.high[(i, ci + 1)], cnext), bp(geo.high[(i, n + 2)], cnext)),
        ]
    segments.append((bp(geo.high[(n, n + 2)], C[n]), (geo.n_prime, geo.n_prime)))
    U, V = np.array(segments).transpose(1, 0, 2)  # (segments, 2) each
    bad = (U > V).any(axis=1)
    if bad.any():
        raise GeometryError("endpoints not comparable: %s !<= %s" % segments[bad.argmax()])
    b, d = U.sum(axis=1), V.sum(axis=1)
    c = np.arange(2, 2 * geo.n_prime + 1)
    k = np.searchsorted(d, c)
    xs = _line_xs(U[k, 0], V[k, 0], b[k], d[k], c)
    if (xs[d - 2] != V[:, 0]).any():
        raise GeometryError("grid line does not join its endpoints")
    vertices = tuple(zip(xs.tolist(), (c - xs).tolist()))
    spine = Spine(vertices=vertices)
    for i in range(1, n + 2):
        want = bp(geo.bound[i], C[i - 1])
        if vertices[want[0] + want[1] - 2] != want:
            raise GeometryError(f"spine misses boundary point {want} of chunk {i}")
    return spine


def herringbone(spine: Spine, fp_sum: int) -> LatticeFn:
    """Herringbone function with the given spine and the fixed point at the
    spine vertex of coordinate sum ``fp_sum``.

    On-spine vertices step along the spine toward the fixed point; off-spine
    vertices step diagonally toward the spine ((x+1, y-1) above it,
    (x-1, y+1) below).  "Above" means dominating some spine vertex in the
    same column: the spine takes unit steps, so column x holds it exactly at
    the y in [ylo[x], yhi[x]].  Every cell first gets its diagonal step, by
    broadcasting y against ``yhi``; one scatter along the spine then
    overwrites the spine's own cells.
    """
    n = spine.n
    if not 2 <= fp_sum <= 2 * n:
        raise GeometryError(f"fixed-point sum {fp_sum} outside [2, {2 * n}]")
    path = spine.xy
    cols = np.arange(1, n + 1)
    yhi = path[np.searchsorted(path[:, 0], cols, side="right") - 1, 1]
    d = np.where(cols[None, :] > yhi[:, None], 1, -1)  # above: +1, below: -1
    vals = np.stack([cols[:, None] + d, cols[None, :] - d], axis=-1, dtype=np.int32)
    t = np.arange(len(path))  # vertex index; the fixed point sits at fp_sum - 2
    toward_fix = np.clip(t + np.sign(fp_sum - 2 - t), 0, len(path) - 1)
    vals[path[:, 0] - 1, path[:, 1] - 1] = path[toward_fix]
    return LatticeFn(n=n, values=vals)


def build_instance(geo: SpineGeometry, C: Sequence[int], i: int) -> LatticeFn:
    """Family member for parameters (C, i): the herringbone on the chunked
    spine following C, with the fixed point on chunk boundary i (at index
    C_i, by the spine construction)."""
    if not 1 <= i <= geo.n + 1:
        raise GeometryError(f"chunk index i={i} out of range 1..{geo.n + 1}")
    return herringbone(chunked_spine(geo, C), geo.bound[i])


def family_parameters(geo: SpineGeometry) -> Iterator[tuple[tuple[int, ...], int]]:
    """All (C, i) parameters, ordered to match the nested-ordered-search
    instance order (outer answer first, then C row-major)."""
    for i in range(1, geo.n + 2):
        for C in itertools.product(range(1, geo.n + 1), repeat=geo.n + 1):
            yield C, i


def tarski_family(geo: SpineGeometry) -> Iterator[tuple[tuple[int, ...], int, LatticeFn]]:
    for C, i in family_parameters(geo):
        yield C, i, build_instance(geo, C, i)


def nos_correspondence(geo: SpineGeometry, C: Sequence[int], i: int) -> bytes:
    """The nested-ordered-search instance paired with family member (C, i):
    block j hides its symbol at position C_j; the symbol is UP before block
    i, the star at block i, and DN after it."""
    n = geo.n
    C = tuple(C)
    if len(C) != n + 1 or any(not 1 <= c <= n for c in C):
        raise GeometryError(f"C must lie in [1, {n}]^{n + 1}, got {C}")
    if not 1 <= i <= n + 1:
        raise GeometryError(f"chunk index i={i} out of range 1..{n + 1}")
    out = bytearray()
    for blk in range(1, n + 2):
        sym = Sym.UP if blk < i else (Sym.ST if blk == i else Sym.DN)
        out += bytes([Sym.RT] * (C[blk - 1] - 1) + [sym] + [Sym.LT] * (n - C[blk - 1]))
    return bytes(out)


@dataclass(frozen=True)
class ThresholdQuad:
    """Thresholds on the x-coordinate of the varying endpoint.

    With the other endpoint fixed, candidates with x-coordinate at most d1
    produce grid lines passing strictly left of the probe point, those in
    (d1, d4] pass through it, and those beyond d4 pass strictly right.
    Within the (d1, d4] band, d2 splits the direction of the next step up
    ((0,1) before, (1,0) after) and d3 the step down ((-1,0) before, (0,-1)
    after).  0 is the sentinel for an empty prefix.
    """

    d1: int
    d2: int
    d3: int
    d4: int

    def __post_init__(self):
        if not (self.d1 <= self.d2 <= self.d4 and self.d1 <= self.d3 <= self.d4):
            raise GeometryError(f"threshold order violated: {self}")


def thresholds(geo: SpineGeometry, fixed: tuple[str, Point],
               candidates: Sequence[Point], point: Point) -> ThresholdQuad:
    """Compute the threshold quadruple by brute force over the candidates.

    ``fixed`` is ('u', point) when the low endpoint is fixed and candidates
    are the high endpoints, or ('v', point) for the mirror case.  Candidates
    must share one coordinate sum and be comparable with the fixed endpoint.
    The classification must be contiguous in the candidate x-coordinate;
    a violation (which would falsify the sliding behavior of grid lines)
    raises with a counterexample.
    """
    kind, e = fixed
    if kind not in ("u", "v"):
        raise GeometryError("fixed endpoint spec must be ('u', pt) or ('v', pt)")
    if not candidates:
        raise GeometryError("empty candidate set")
    cands = sorted(candidates)
    sums = {w[0] + w[1] for w in cands}
    if len(sums) != 1:
        raise GeometryError(f"candidates span several coordinate sums: {sorted(sums)}")
    c = point[0] + point[1]
    b = e[0] + e[1] if kind == "u" else sums.pop()
    d = (cands[0][0] + cands[0][1]) if kind == "u" else e[0] + e[1]
    if not b <= c <= d:
        raise GeometryError(f"probe sum {c} outside [{b}, {d}]")

    def ell(w: Point, cc: int) -> Point:
        u, v = (e, w) if kind == "u" else (w, e)
        return line_point(u, v, cc)

    cls = []
    for w in cands:
        lp = ell(w, c)
        cls.append(-1 if lp[0] < point[0] else (0 if lp == point else 1))
    if cls != sorted(cls):
        k = next(i for i in range(len(cls) - 1) if cls[i] > cls[i + 1])
        raise GeometryError(
            f"location classes not contiguous at probe {point}: candidate "
            f"{cands[k]} class {cls[k]} precedes {cands[k + 1]} class {cls[k + 1]}"
        )
    d1 = max([w[0] for w, k in zip(cands, cls) if k < 0], default=0)
    eq = [w for w, k in zip(cands, cls) if k == 0]
    d4 = max([w[0] for w in eq], default=d1)
    d2 = d3 = d1
    if eq and c + 1 <= d:
        steps = [ell(w, c + 1)[0] - point[0] for w in eq]  # 0 => (0,1), 1 => (1,0)
        if steps != sorted(steps):
            raise GeometryError(f"up-step classes not contiguous at probe {point}")
        d2 = max([w[0] for w, s in zip(eq, steps) if s == 0], default=d1)
    if eq and c - 1 >= b:
        steps = [point[0] - ell(w, c - 1)[0] for w in eq]  # 1 => (-1,0), 0 => (0,-1)
        if steps != sorted(steps, reverse=True):
            raise GeometryError(f"down-step classes not contiguous at probe {point}")
        d3 = max([w[0] for w, s in zip(eq, steps) if s == 1], default=d1)
    return ThresholdQuad(d1=d1, d2=d2, d3=d3, d4=d4)


def region_anchor(geo: SpineGeometry, w: Point) -> tuple[int, int, int]:
    """(chunk, region, line index) of a point inside the diagonal tube.

    The line index ell = w_1 - (w_1 + w_2 - n) // 2 (w_1 minus
    (w_1 + w_2 - n - 1) / 2 rounded half up) names the unique same-index
    boundary-to-boundary grid line through w; by translation invariance the
    choice of boundary pair does not matter.  Verified on the chunk-boundary
    pair before returning.
    """
    n = geo.n
    c = w[0] + w[1]
    if not (1 <= w[0] <= geo.n_prime and 1 <= w[1] <= geo.n_prime):
        raise GeometryError(f"{w} outside the lattice")
    if not geo.bound[1] <= c <= geo.bound[n + 1]:
        raise GeometryError(f"{w} outside the chunk coordinate-sum range")
    ell = w[0] - (c - n) // 2
    if not 1 <= ell <= n:
        raise GeometryError(f"{w} outside the tube (line index {ell})")
    if c == geo.bound[n + 1]:
        alpha, beta = n, n + 2
    else:
        alpha = max(i for i in range(1, n + 1) if geo.bound[i] <= c)
        beta = geo.region_of_sum(alpha, c)
    lo = geo.boundary_point(geo.bound[alpha], ell)
    hi = geo.boundary_point(geo.bound[alpha + 1], ell)
    if line_point(lo, hi, c) != w:
        raise GeometryError(f"{w} not on the index-{ell} grid line")  # unreachable
    return alpha, beta, ell


def covering_set(geo: SpineGeometry, point: Point) -> list[Point]:
    """At most seven chunk-boundary points whose values determine the value
    at ``point`` across the whole instance family.

    Any two family members that disagree at ``point`` disagree on this set.
    Cases: points the spines cannot reach get the empty set; chunk-boundary
    points distinguish themselves; points before the first or after the last
    chunk use three threshold points on that boundary; in-chunk points use
    the two same-index anchors, the region's entry anchor, and up to four
    threshold points on the next boundary.  At a region-boundary sum the
    previous region's entry anchor is added (the arriving spine segment can
    still depend on it) — the threshold band degenerates there, so the total
    stays at seven.
    """
    n = geo.n
    x, y = point
    if not (1 <= x <= geo.n_prime and 1 <= y <= geo.n_prime):
        raise GeometryError(f"{point} outside the lattice")
    c = x + y
    # Spines reach offsets x - y in [-(n-1), n] only (half-up rounding can
    # overshoot the width-n band down-right but never up-left).
    if y - x >= n or x - y >= n + 1:
        return []
    bounds = geo.bound
    if c in {bounds[i] for i in range(1, n + 2)} and abs(x - y) <= n - 1:
        return [point]
    if c < bounds[1]:
        quad = thresholds(geo, ("u", (1, 1)), geo.boundary_points[bounds[1]], point)
        keep = {quad.d1, quad.d2, quad.d4}
        return [v for v in geo.boundary_points[bounds[1]] if v[0] in keep]
    if c > bounds[n + 1]:
        corner = (geo.n_prime, geo.n_prime)
        quad = thresholds(geo, ("v", corner), geo.boundary_points[bounds[n + 1]], point)
        keep = {quad.d1, quad.d3, quad.d4}
        return [v for v in geo.boundary_points[bounds[n + 1]] if v[0] in keep]
    alpha, beta, gamma = region_anchor(geo, point)
    V = {geo.boundary_point(bounds[alpha], gamma),
         geo.boundary_point(bounds[alpha + 1], gamma)}
    if 1 <= beta - 1 <= n:
        V.add(geo.boundary_point(bounds[alpha], beta - 1))
        quad = thresholds(
            geo,
            ("u", geo.boundary_point(geo.low[(alpha, beta)], beta - 1)),
            geo.boundary_points[geo.high[(alpha, beta)]],
            point,
        )
        hits = {quad.d1, quad.d2, quad.d3, quad.d4}
        for j in range(1, n + 1):
            if geo.boundary_point(geo.high[(alpha, beta)], j)[0] in hits:
                V.add(geo.boundary_point(bounds[alpha + 1], j))
    if c == geo.low[(alpha, beta)] and 1 <= beta - 2 <= n:
        V.add(geo.boundary_point(bounds[alpha], beta - 2))
    if len(V) > 7:
        raise GeometryError(f"covering set exceeds seven points at {point}")  # unreachable
    return sorted(V)

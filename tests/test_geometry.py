"""Grid lines, chunk geometry, spines, herringbones, thresholds, covering."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tarskilab import (
    GeometryError,
    Spine,
    brute_fixed_points,
    build_geometry,
    build_instance,
    check_monotone,
    chunked_spine,
    covering_set,
    family_parameters,
    herringbone,
    line_point,
    make_nos,
    nos_correspondence,
    region_anchor,
    render_string,
    tarski_family,
    thresholds,
)


def fraction_line_point(u, v, c):
    """Reference for ``line_point``: exact ``Fraction`` interpolation of the
    x-coordinate, rounded half up as floor(x + 1/2), same checks and
    messages."""
    b, d = u[0] + u[1], v[0] + v[1]
    if not (u[0] <= v[0] and u[1] <= v[1]):
        raise GeometryError(f"endpoints not comparable: {u} !<= {v}")
    if b == d:
        if c != b:
            raise GeometryError(f"sum {c} outside degenerate line at {u}")
        return u
    if not b <= c <= d:
        raise GeometryError(f"sum {c} outside [{b}, {d}]")
    x = math.floor(Fraction(u[0] * (d - c) + v[0] * (c - b), d - b) + Fraction(1, 2))
    return (x, c - x)


def test_round_half_up_examples():
    for u, v, c, want in [
        ((1, 1), (2, 2), 3, (2, 1)),  # x = 3/2: the tie rounds up to 2
        ((-1, 0), (0, 1), 0, (0, 0)),  # x = -1/2: ties go toward the larger result
        ((2, 1), (3, 2), 4, (3, 1)),  # x = 5/2 -> 3
        ((2, 1), (3, 100), 52, (2, 50)),  # x = 249/100 is no tie and rounds down
    ]:
        assert line_point(u, v, c) == fraction_line_point(u, v, c) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-3, 25), st.integers(-3, 25),
       st.integers(-5, 5))
@example(1, 1, 1, 1, 0)  # sum 3 is the tie x = 3/2, which rounds up to 2
def test_round_half_up_is_nearest(x, y, dx, dy, slack):
    # line_point and the Fraction reference agree at every sum in range and
    # a few beyond it, and on non-comparable endpoints: same point or same
    # error message
    u, v = (x, y), (x + dx, y + dy)
    for c in range(x + y - slack, x + y + dx + dy + slack + 1):
        try:
            want = fraction_line_point(u, v, c)
        except GeometryError as exc:
            with pytest.raises(GeometryError) as got:
                line_point(u, v, c)
            assert str(got.value) == str(exc)
            continue
        got = line_point(u, v, c)
        assert got == want and type(got[0]) is int


def grid_line(u, v):
    """The grid line from u to v, one ``line_point`` per coordinate sum."""
    return [line_point(u, v, c) for c in range(sum(u), sum(v) + 1)]


def test_grid_line_examples():
    assert grid_line((1, 1), (1, 4)) == [(1, 1), (1, 2), (1, 3), (1, 4)]
    assert grid_line((1, 1), (3, 3)) == [
        (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)
    ]
    assert grid_line((2, 5), (2, 5)) == [(2, 5)]
    with pytest.raises(GeometryError, match="comparable"):
        grid_line((2, 1), (1, 2))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 25), st.integers(0, 25))
def test_grid_line_connected_monotone(x, y, dx, dy):
    pts = grid_line((x, y), (x + dx, y + dy))
    assert pts[0] == (x, y)
    assert pts[-1] == (x + dx, y + dy)
    assert len(pts) == dx + dy + 1
    steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:])}
    assert steps <= {(1, 0), (0, 1)}
    assert pts == [fraction_line_point((x, y), (x + dx, y + dy), c)
                   for c in range(x + y, x + y + dx + dy + 1)]


def test_endpoint_monotonicity_of_lines():
    # sliding the high endpoint right can never move interior points left
    u = (3, 5)
    for v1, v2 in itertools.combinations([(7, 9), (8, 8), (9, 7), (10, 6)], 2):
        lo = min(v1, v2)
        hi = max(v1, v2)
        for c in range(sum(u), sum(lo) + 1):
            assert line_point(u, lo, c)[0] <= line_point(u, hi, c)[0]


def test_build_geometry_values():
    geo3 = build_geometry(3)
    assert geo3.n_prime == 33
    assert [geo3.bound[i] for i in (1, 2, 4)] == [4, 24, 64]
    assert geo3.boundary_points[4] == ((1, 3), (2, 2), (3, 1))
    assert build_geometry(2).n_prime == 10
    with pytest.raises(GeometryError):
        build_geometry(1)
    for geo in (build_geometry(2), geo3):
        for c, pts in geo.boundary_points.items():
            assert len(pts) == geo.n
            for j, p in enumerate(pts, start=1):
                assert p[0] + p[1] == c and abs(p[0] - p[1]) <= geo.n - 1
        for i in range(1, geo.n + 1):
            for j in range(1, geo.n + 2):
                assert geo.high[(i, j)] == geo.low[(i, j + 1)]


@pytest.mark.parametrize("n", [2, 3])
def test_chunked_spines(n):
    geo = build_geometry(n)
    for C in itertools.product(range(1, n + 1), repeat=n + 1):
        spine = chunked_spine(geo, C)
        assert spine.vertices[0] == (1, 1)
        assert spine.vertices[-1] == (geo.n_prime, geo.n_prime)
        assert len(spine.vertices) == 2 * geo.n_prime - 1
        for i in range(1, n + 2):
            assert geo.boundary_point(geo.bound[i], C[i - 1]) in set(spine.vertices)


def test_chunked_spine_rejects_bad_vector():
    geo = build_geometry(2)
    with pytest.raises(GeometryError):
        chunked_spine(geo, (1, 2))
    with pytest.raises(GeometryError):
        chunked_spine(geo, (1, 2, 3))


def test_herringbone_small_cases():
    spine = Spine(vertices=((1, 1), (2, 1), (2, 2), (3, 2), (3, 3)))
    f = herringbone(spine, 4)  # fixed point (2, 2)
    assert f.value(2, 2) == (2, 2)
    assert f.value(1, 1) == (2, 1)  # on-spine below the fixed point
    assert f.value(3, 3) == (3, 2)  # on-spine above it
    assert f.value(1, 3) == (2, 2)  # above the spine
    assert f.value(3, 1) == (2, 2)  # below the spine
    assert brute_fixed_points(f) == [(2, 2)]
    assert check_monotone(f)[0]


def test_herringbone_fixed_point_index_out_of_range():
    spine = Spine(vertices=((1, 1), (1, 2), (2, 2)))
    with pytest.raises(GeometryError):
        herringbone(spine, 5)


@pytest.mark.parametrize("n", [2, 3])
def test_instance_family_sound(n):
    geo = build_geometry(n)
    seen = set()
    count = 0
    for C, i, fn in tarski_family(geo):
        count += 1
        seen.add(fn.values.tobytes())
        assert check_monotone(fn)[0]
        assert brute_fixed_points(fn) == [geo.boundary_point(geo.bound[i], C[i - 1])]
    assert count == n ** (n + 1) * (n + 1)
    assert len(seen) == count  # instances pairwise distinct


def test_build_instance_rejects_bad_parameters():
    geo = build_geometry(3)
    with pytest.raises(GeometryError):
        build_instance(geo, (1, 2, 1, 3), 5)
    with pytest.raises(GeometryError):
        build_instance(geo, (1, 2, 4, 3), 2)


def test_nos_correspondence_example_and_bijection():
    geo = build_geometry(3)
    s = nos_correspondence(geo, (1, 2, 1, 3), 2)
    assert render_string(s) == "↑←←→*←↓←←→→↓"
    for n in (2, 3):
        geo = build_geometry(n)
        nos = make_nos(n + 1, n)
        images = [nos_correspondence(geo, C, i) for C, i in family_parameters(geo)]
        assert images == list(nos.instances)  # bijection, in matching order
        for (C, i), s in zip(family_parameters(geo), images):
            assert nos.answer[s] == i


def test_thresholds_example():
    geo = build_geometry(3)
    quad = thresholds(geo, ("u", (1, 1)), geo.boundary_points[4], (2, 2))
    assert (quad.d1, quad.d4) == (1, 2)
    # probe equal to the fixed endpoint: every line passes through it
    quad0 = thresholds(geo, ("u", (1, 1)), geo.boundary_points[4], (1, 1))
    assert quad0.d1 == 0
    assert quad0.d4 == max(p[0] for p in geo.boundary_points[4])


def test_thresholds_contiguous_over_first_chunk():
    geo = build_geometry(3)
    for x in range(1, geo.n_prime + 1):
        for y in range(1, geo.n_prime + 1):
            c = x + y
            if not geo.bound[1] < c < geo.bound[2]:
                continue
            if not -(geo.n - 1) <= x - y <= geo.n:
                continue
            alpha, beta, _ = region_anchor(geo, (x, y))
            if not 1 <= beta - 1 <= geo.n:
                continue
            thresholds(  # raises on any contiguity violation
                geo,
                ("u", geo.boundary_point(geo.low[(alpha, beta)], beta - 1)),
                geo.boundary_points[geo.high[(alpha, beta)]],
                (x, y),
            )


def test_region_anchor_examples():
    geo = build_geometry(3)
    alpha, beta, ell = region_anchor(geo, (3, 3))
    assert ell == 2
    assert line_point((2, 2), (4, 4), 6) == (3, 3)
    # boundary points anchor at their own index
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3):
            w = geo.boundary_point(geo.bound[i], j)
            assert region_anchor(geo, w)[2] == j
    with pytest.raises(GeometryError, match="tube"):
        region_anchor(geo, (1, 10))
    with pytest.raises(GeometryError, match="range"):
        region_anchor(geo, (1, 2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_region_anchor_everywhere_in_tube(n):
    geo = build_geometry(n)
    for x in range(1, geo.n_prime + 1):
        for y in range(1, geo.n_prime + 1):
            c = x + y
            if geo.bound[1] <= c <= geo.bound[n + 1] and -(n - 1) <= x - y <= n:
                ell = region_anchor(geo, (x, y))[2]
                assert 1 <= ell <= n
                # x minus (c - (n + 1)) / 2 rounded half up, in Fraction
                assert ell == x - math.floor(Fraction(c - (n + 1), 2) + Fraction(1, 2))


def test_covering_set_shapes():
    geo = build_geometry(3)
    assert covering_set(geo, (1, geo.n_prime)) == []
    p = geo.boundary_point(geo.bound[2], 2)
    assert covering_set(geo, p) == [p]
    for x in range(1, geo.n_prime + 1):
        for y in range(1, geo.n_prime + 1):
            assert len(covering_set(geo, (x, y))) <= 7


def test_covering_property_exhaustive_n2():
    geo = build_geometry(2)
    tables = []
    for _, _, fn in tarski_family(geo):
        tables.append(fn.values)
    enc = np.stack(tables)
    enc = enc[:, :, :, 0].astype(np.int64) * 16 + enc[:, :, :, 1]
    for x in range(1, 11):
        for y in range(1, 11):
            V = covering_set(geo, (x, y))
            col = enc[:, x - 1, y - 1]
            differ = col[:, None] != col[None, :]
            if not differ.any():
                continue
            covered = np.zeros_like(differ)
            for (vx, vy) in V:
                cv = enc[:, vx - 1, vy - 1]
                covered |= cv[:, None] != cv[None, :]
            assert not (differ & ~covered).any(), (x, y, V)



def _reference_spine(geo, C):
    """Chunked spine spliced from ``fraction_line_point`` vertices, one grid
    line at a time."""
    n, bp = geo.n, geo.boundary_point
    segments = [((1, 1), bp(geo.low[(1, 1)], C[0]))]
    for k in range(1, n + 1):
        ck, cnext = C[k - 1], C[k]
        segments += [
            (bp(geo.low[(k, 1)], ck), bp(geo.low[(k, ck + 1)], ck)),
            (bp(geo.low[(k, ck + 1)], ck), bp(geo.high[(k, ck + 1)], cnext)),
            (bp(geo.high[(k, ck + 1)], cnext), bp(geo.high[(k, n + 2)], cnext)),
        ]
    segments.append((bp(geo.high[(n, n + 2)], C[n]), (geo.n_prime, geo.n_prime)))
    path = []
    for u, v in segments:
        pts = [fraction_line_point(u, v, c) for c in range(sum(u), sum(v) + 1)]
        path.extend(pts if not path else pts[1:])
    return path


def _reference_values(geo, path, i):
    """Herringbone on ``path`` with the fixed point on chunk boundary i,
    built cell by cell."""
    jfix = geo.bound[i] - 2
    pos = {v: t for t, v in enumerate(path)}
    yhi = {}
    for x, y in path:
        yhi[x] = max(yhi.get(x, y), y)
    m = geo.n_prime
    vals = np.zeros((m, m, 2), dtype=np.int32)
    for x in range(1, m + 1):
        for y in range(1, m + 1):
            t = pos.get((x, y))
            if t is not None:
                out = (x, y) if t == jfix else (path[t + 1] if t < jfix else path[t - 1])
            elif y > yhi[x]:
                out = (x + 1, y - 1)
            else:
                out = (x - 1, y + 1)
            vals[x - 1, y - 1] = out
    return vals


@pytest.mark.parametrize("n,sample", [(2, None), (3, None), (4, 150)])
def test_family_matches_per_cell_reference(n, sample):
    geo = build_geometry(n)
    params = list(family_parameters(geo))
    if sample is not None:
        rng = np.random.default_rng(n)
        params = [params[k] for k in rng.choice(len(params), size=sample, replace=False)]
    spines = {}
    for C, i in params:
        if C not in spines:
            spines[C] = _reference_spine(geo, C)
            assert chunked_spine(geo, C).vertices == tuple(spines[C]), C
        fn = build_instance(geo, C, i)
        assert fn.values.dtype == np.int32
        assert np.array_equal(fn.values, _reference_values(geo, spines[C], i)), (C, i)

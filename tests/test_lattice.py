"""Lattice functions, monotonicity, solvers, clamp embedding, file format."""

import json

import numpy as np
import pytest

from tarskilab import (
    LatticeError,
    LatticeFn,
    Oracle,
    SolveResult,
    brute_fixed_points,
    build_geometry,
    check_monotone,
    clamp_embed,
    nested_solve,
    solve_brute,
    tarski_family,
)


def identity_fn(n):
    return LatticeFn.from_map(n, lambda x, y: (x, y))


def random_monotone(rng, n):
    """Running maxima along both axes of an i.i.d. table are monotone."""
    raw = rng.integers(1, n + 1, size=(n, n, 2))
    acc = np.maximum.accumulate(np.maximum.accumulate(raw, axis=0), axis=1)
    return LatticeFn(n=n, values=acc.astype(np.int32))


def loop_solve_brute(oracle):
    """Reference for ``solve_brute``: query every cell in row-major order
    and keep the first fixed point."""
    found = None
    for x in range(1, oracle.n + 1):
        for y in range(1, oracle.n + 1):
            if oracle.query(x, y) == (x, y) and found is None:
                found = (x, y)
    if found is None:
        raise LatticeError("no fixed point found; input is not monotone")
    return SolveResult(fixed_point=found, queries_used=oracle.query_count,
                       algorithm="brute")


def test_check_monotone_identity():
    ok, witness = check_monotone(identity_fn(4))
    assert ok and witness is None


def test_check_monotone_violation_witness():
    vals = np.zeros((2, 2, 2), dtype=np.int32)
    vals[0, 0] = (2, 2)
    vals[1, 1] = (1, 1)
    vals[1, 0] = (2, 1)
    vals[0, 1] = (1, 2)
    f = LatticeFn(n=2, values=vals)
    ok, witness = check_monotone(f)
    assert not ok
    a, b = witness
    assert a[0] <= b[0] and a[1] <= b[1]
    fa, fb = f.value(*a), f.value(*b)
    assert not (fa[0] <= fb[0] and fa[1] <= fb[1])


def test_brute_fixed_points():
    assert brute_fixed_points(identity_fn(3)) == [
        (x, y) for x in range(1, 4) for y in range(1, 4)
    ]
    const = LatticeFn.from_map(4, lambda x, y: (2, 3))
    assert brute_fixed_points(const) == [(2, 3)]


def test_random_monotone_have_fixed_points_and_nested_finds_one():
    rng = np.random.default_rng(123)
    for _ in range(40):
        n = int(rng.integers(1, 17))
        f = random_monotone(rng, n)
        assert check_monotone(f)[0]
        result = nested_solve(Oracle(f))
        assert f.value(*result.fixed_point) == result.fixed_point
        assert not result.fell_back
        assert result.fixed_point in brute_fixed_points(f)


def test_nested_solve_trivial_lattice():
    res = nested_solve(Oracle(identity_fn(1)))
    assert res.fixed_point == (1, 1)
    assert res.queries_used <= 4


def test_brute_query_count_is_exactly_n_squared():
    f = identity_fn(10)
    res = solve_brute(Oracle(f))
    assert res.queries_used == 100
    assert res.fixed_point == (1, 1)


def test_oracle_counts_repeats_and_rejects_out_of_range():
    oracle = Oracle(identity_fn(3))
    oracle.query(2, 2)
    oracle.query(2, 2)
    assert oracle.query_count == 2
    with pytest.raises(LatticeError):
        oracle.query(0, 1)
    with pytest.raises(LatticeError):
        oracle.query(1, 4)


def test_solve_brute_matches_loop_reference_on_random_monotone():
    rng = np.random.default_rng(2011)
    for n in range(1, 17):
        for _ in range(3):
            f = random_monotone(rng, n)
            assert solve_brute(Oracle(f)) == loop_solve_brute(Oracle(f))


def test_solve_brute_returns_first_fixed_point_in_row_major_order():
    several = LatticeFn.from_map(4, lambda x, y: (x, y) if (x, y) in {(3, 1), (2, 4)}
                                 else (4, 4))
    assert brute_fixed_points(several) == [(2, 4), (3, 1), (4, 4)]
    for f, first in ((identity_fn(5), (1, 1)), (several, (2, 4))):
        res = solve_brute(Oracle(f))
        assert res == loop_solve_brute(Oracle(f))
        assert res.fixed_point == first


def test_solve_brute_without_fixed_point_raises_like_the_loop():
    shift = LatticeFn.from_map(3, lambda x, y: (x % 3 + 1, y))
    with pytest.raises(LatticeError) as want:
        loop_solve_brute(Oracle(shift))
    with pytest.raises(LatticeError) as got:
        solve_brute(Oracle(shift))
    assert str(got.value) == str(want.value) == "no fixed point found; input is not monotone"


def test_oracle_scan_adds_n_squared_after_earlier_queries():
    f = identity_fn(4)
    oracle = Oracle(f)
    oracle.query(1, 2)
    oracle.query(1, 2)
    assert oracle.scan() is f
    assert oracle.query_count == 2 + 16
    assert solve_brute(oracle).queries_used == 2 + 32


def test_nested_falls_back_on_non_monotone():
    # column 2 cycles (no row fixed point there), so the inner search fails;
    # the only real fixed point is (3, 3)
    def table(x, y):
        if (x, y) == (3, 3):
            return (3, 3)
        if x == 2:
            return (1, {1: 2, 2: 3, 3: 1}[y])
        return (2, 3)

    f = LatticeFn.from_map(3, table)
    assert not check_monotone(f)[0]
    res = nested_solve(Oracle(f))
    assert res.fixed_point == (3, 3)
    assert res.fell_back and res.algorithm == "brute"
    # the two queries of the failed inner search, then the n^2 scan
    assert res.queries_used == 2 + 9


def test_clamp_direct_values():
    f = identity_fn(3)
    big = clamp_embed(f, 5)
    assert big.n == 5
    assert big.value(4, 2) == (3, 2)  # clamped to (3, 2), identity there
    assert big.value(5, 5) == (3, 3)
    rng = np.random.default_rng(9)
    for n_small, n in [(1, 1), (1, 4), (3, 3), (4, 7), (6, 9)]:
        f = random_monotone(rng, n_small)
        big = clamp_embed(f, n)
        assert all(big.value(x, y) == f.value(min(x, n_small), min(y, n_small))
                   for x in range(1, n + 1) for y in range(1, n + 1))


def test_clamp_fixed_points_preserved_exhaustively():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = random_monotone(rng, 3)
        assert brute_fixed_points(clamp_embed(f, 5)) == brute_fixed_points(f)


def test_clamp_preserves_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        f = random_monotone(rng, 4)
        assert check_monotone(clamp_embed(f, 6))[0]


def test_clamp_rejects_bad_sizes():
    with pytest.raises(LatticeError, match="cannot embed side 5 into smaller side 3"):
        clamp_embed(identity_fn(5), 3)


def test_clamped_family_keeps_its_one_fixed_point():
    geo = build_geometry(2)
    members = 0
    for C, i, fn in tarski_family(geo):
        expected = geo.boundary_point(geo.bound[i], C[i - 1])
        big = clamp_embed(fn, geo.n_prime + 3)
        assert check_monotone(big)[0]
        assert brute_fixed_points(big) == [expected]
        assert solve_brute(Oracle(big)).fixed_point == expected
        assert nested_solve(Oracle(big)).fixed_point == expected
        members += 1
    assert members == 24


def test_json_roundtrip_and_errors():
    f = identity_fn(3)
    again = LatticeFn.from_json(f.to_json())
    assert np.array_equal(again.values, f.values)

    obj = json.loads(f.to_json())
    obj["values"] = obj["values"][:-1]
    with pytest.raises(LatticeError, match=r"\(3, 3\)"):
        LatticeFn.from_json(json.dumps(obj))

    obj2 = json.loads(f.to_json())
    obj2["k"] = 3
    with pytest.raises(LatticeError, match="k=3"):
        LatticeFn.from_json(json.dumps(obj2))

    obj3 = json.loads(f.to_json())
    obj3["values"][4] = [0, 2]
    with pytest.raises(LatticeError, match="out of range"):
        LatticeFn.from_json(json.dumps(obj3))

    with pytest.raises(LatticeError, match="missing key"):
        LatticeFn.from_json(json.dumps({"n": 2}))


def test_to_json_layout():
    f = LatticeFn(n=2, values=np.array([[[1, 1], [1, 2]], [[2, 1], [2, 2]]]))
    assert f.to_json() == '{"k": 2, "n": 2, "values": [[1, 1], [1, 2], [2, 1], [2, 2]]}'


@pytest.mark.parametrize("bad", [1.7, 1.0, "1", True, None])
def test_from_json_rejects_non_integer_cell(bad):
    obj = json.loads(identity_fn(2).to_json())
    obj["values"][2] = [bad, 2]
    with pytest.raises(LatticeError, match=r"cell \(2, 1\) is not a pair of integers"):
        LatticeFn.from_json(json.dumps(obj))


@pytest.mark.parametrize("cell", [[1], [1, 2, 2], "12", 1])
def test_from_json_rejects_non_pair_cell(cell):
    obj = json.loads(identity_fn(2).to_json())
    obj["values"][1] = cell
    with pytest.raises(LatticeError, match=r"cell \(1, 2\)"):
        LatticeFn.from_json(json.dumps(obj))


@pytest.mark.parametrize("n", ["2", 2.0, True, 0, -1])
def test_from_json_rejects_bad_n(n):
    text = json.dumps({"n": n, "k": 2, "values": []})
    with pytest.raises(LatticeError, match=f"n must be an integer >= 1, got n={n!r}"):
        LatticeFn.from_json(text)


def test_from_json_rejects_non_integer_k():
    obj = json.loads(identity_fn(2).to_json())
    obj["k"] = 2.0
    with pytest.raises(LatticeError, match="k=2.0"):
        LatticeFn.from_json(json.dumps(obj))


def test_from_json_rejects_int32_overflow():
    obj = json.loads(identity_fn(2).to_json())
    obj["values"][3] = [2, 2 ** 40]
    with pytest.raises(LatticeError, match=r"out of range at cell \(2, 2\)"):
        LatticeFn.from_json(json.dumps(obj))

"""Acceptance battery: one test per headline criterion.

Each test enforces its criterion at the stated tolerance and prints a
``PASS criterion k`` line on success (visible with ``pytest -s`` or in the
captured output).  Run the whole battery with::

    pytest tests/test_acceptance.py -v
"""

import itertools
import math
import time

import numpy as np
import pytest

from tarskilab import (
    build_geometry,
    brute_fixed_points,
    check_monotone,
    compose_adversary,
    denominator_identity_mismatches,
    hilbert_tile,
    hsos_labeling,
    masked_norm,
    nested_solve,
    os_adversary,
    power_norm,
    sa_ratio,
    spectral_norm,
    solve_brute,
    symmetrize,
    tarski_family,
    tile_of_uniform,
    Oracle,
)
from tarskilab.cli import main as cli_main
from tarskilab.suites import (
    random_adversary,
    suite_covering,
    suite_embedding,
    suite_hilbert,
)


def report(k: int, detail: str) -> None:
    print(f"PASS criterion {k}: {detail}")


def test_criterion_01_hilbert_bounds():
    t0 = time.time()
    rep = suite_hilbert(m_max=256, tol=1e-9)
    elapsed = time.time() - t0
    assert rep.failures == [], rep.failures[:3]
    assert rep.checks_run == 256 + 256 * 257 // 2  # one norm + all products
    # independent dense-eigenvalue spot check of the same quantities
    rng = np.random.default_rng(0)
    for m in rng.integers(2, 64, size=5):
        idx = np.arange(1, m + 1)
        A = 1.0 / (np.abs(idx[:, None] - idx[None, :]) + 1)
        i = int(rng.integers(1, m + 1))
        between = (idx[:, None] <= i) & (i <= idx[None, :])  # the HSOS distinguisher
        masked = A * (between | between.T)
        assert power_norm(masked).norm == pytest.approx(
            np.linalg.eigvalsh(masked)[-1], rel=1e-8
        )
    assert elapsed < 60.0, f"hilbert sweep took {elapsed:.1f}s"
    report(1, f"all products <= 2*pi and harmonic lower bounds, {elapsed:.1f}s")


def test_criterion_02_composition_numerator_identity():
    t0 = time.time()
    for a, b in itertools.product((2, 3, 4), repeat=2):
        outer = os_adversary(a)
        tiles = [hilbert_tile(b)] * a
        gam = compose_adversary(outer, tiles)
        lhs = spectral_norm(gam.matrix).norm
        rhs = spectral_norm(outer.matrix).norm * spectral_norm(tiles[0].matrix).norm ** a
        assert abs(lhs - rhs) <= 1e-6 * lhs, (a, b, lhs, rhs)
    rng = np.random.default_rng(2024)
    combos = list(itertools.product((2, 3, 4), repeat=2))
    for trial in range(20):
        a, b = combos[trial % len(combos)]
        outer = random_adversary(os_adversary(a).problem, rng)
        tiles = [hilbert_tile(b)] * a
        gam = compose_adversary(outer, tiles)
        lhs = spectral_norm(gam.matrix).norm
        rhs = spectral_norm(outer.matrix).norm * spectral_norm(tiles[0].matrix).norm ** a
        assert abs(lhs - rhs) <= 1e-6 * lhs, (trial, a, b, lhs, rhs)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"numerator identity battery took {elapsed:.1f}s"
    report(2, f"9 ordered-search + 20 random outers, {elapsed:.1f}s")


def test_criterion_03_composition_denominator_identity():
    # exact elementwise identity, every position, sizes up to 3
    for a, b in itertools.product((1, 2, 3), repeat=2):
        outer = os_adversary(a)
        tiles = [hilbert_tile(b)] * a
        for i in range(1, a * b + 1):
            bad = denominator_identity_mismatches(outer, tiles, i, limit=1)
            assert bad == [], (a, b, i, bad)
    # norm form within 1e-6 relative, sizes up to 4
    for a, b in itertools.product((2, 3, 4), repeat=2):
        outer = os_adversary(a)
        tiles = [hilbert_tile(b)] * a
        gam = compose_adversary(outer, tiles)
        anorm = spectral_norm(tiles[0].matrix).norm
        fden = {p: masked_norm(outer, p) for p in range(1, a + 1)}
        aden = {q: masked_norm(tiles[0], q) for q in range(1, b + 1)}
        for i in range(1, a * b + 1):
            p, q = gam.problem.block_of_position(i)
            lhs = masked_norm(gam, i)
            rhs = fden[p] * aden[q] * anorm ** (a - 1)
            assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1e-30), (a, b, i, lhs, rhs)
    report(3, "exact elementwise (a,b<=3) and norm form (a,b<=4), every position")


def test_criterion_04_composed_ratio_product_bound():
    for a, b in itertools.product((2, 3, 4), repeat=2):
        outer = os_adversary(a)
        tiles = [hilbert_tile(b)] * a
        gam = compose_adversary(outer, tiles)
        sa_h = sa_ratio(gam).sa_value
        sa_f = sa_ratio(outer).sa_value
        anorm = spectral_norm(tiles[0].matrix).norm
        tile_ratio = min(anorm / masked_norm(tiles[0], q) for q in range(1, b + 1))
        assert sa_h >= sa_f * tile_ratio - 1e-6, (a, b, sa_h, sa_f, tile_ratio)
    report(4, "composed ratio >= outer ratio * min tile ratio for a,b in {2,3,4}")


def test_criterion_05_symmetrization():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 4):
        lab = hsos_labeling(m)
        for trial in range(5):
            g = random_adversary(lab.problem, rng)
            base = sa_ratio(g)
            sym = symmetrize(g, lab)
            tile_of_uniform(sym, lab)  # raises unless exactly uniform
            assert spectral_norm(sym.matrix).norm >= base.numerator - 1e-6
            scaled_den = sa_ratio(sym).denominator / base.denominator
            assert scaled_den <= 1.0 + 1e-6, (m, trial, scaled_den)
    report(5, "20 seeded matrices: uniform output, ratio never degraded")


def test_criterion_06_embedding_exactness():
    for n in (2, 3):
        rep = suite_embedding(n=n)
        assert rep.failures == [], rep.failures[:3]
        assert rep.checks_run == (n + 1) * n + 1
    report(6, "boundary distinguishers equal nested-ordered-search ones, n=2,3")


def test_criterion_07_covering():
    rep2 = suite_covering(n=2)
    assert rep2.failures == [], rep2.failures[:3]
    assert rep2.checks_run == 100
    rep3 = suite_covering(n=3, sample=0)
    assert rep3.failures == [], rep3.failures[:3]
    assert rep3.checks_run == 33 * 33
    report(7, "covering holds exhaustively at n=2 and n=3")


def test_criterion_08_instance_family_soundness():
    t0 = time.time()
    total = 0
    for n in (2, 3):
        geo = build_geometry(n)
        for C, i, fn in tarski_family(geo):
            total += 1
            assert check_monotone(fn)[0], (n, C, i)
            assert brute_fixed_points(fn) == [
                geo.boundary_point(geo.bound[i], C[i - 1])
            ], (n, C, i)
    elapsed = time.time() - t0
    assert total == 348
    assert elapsed < 60.0, f"family soundness took {elapsed:.1f}s"
    report(8, f"348 instances monotone with the advertised unique fixed point")


def test_criterion_09_solver():
    for n in (2, 3):
        geo = build_geometry(n)
        cap = 4 * (math.ceil(math.log2(geo.n_prime)) + 1) ** 2
        for C, i, fn in tarski_family(geo):
            expected = geo.boundary_point(geo.bound[i], C[i - 1])
            res = nested_solve(Oracle.over(fn))
            assert res.fixed_point == expected and not res.fell_back, (n, C, i)
            assert res.queries_used <= cap, (n, C, i, res.queries_used, cap)
            brute = solve_brute(Oracle.over(fn))
            assert brute.fixed_point == expected
            assert brute.queries_used == geo.n_prime ** 2
    report(9, "nested matches brute on T(10) and T(33) within the query budget")


TARSKI_NS = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def linear_fit(x, y):
    """Slope and R^2 of the least-squares line through (x, y)."""
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    return slope, 1 - np.sum((y - fitted) ** 2) / np.sum((y - np.mean(y)) ** 2)


def test_criterion_10_end_to_end_bound_table(tmp_path):
    tarski_csv = tmp_path / "tarski.csv"
    rc = cli_main(["bound", "--problem", "tarski",
                   "--sizes", ",".join(map(str, TARSKI_NS)),
                   "--eps", "1/3", "--out", str(tarski_csv)])
    assert rc == 0
    rows = [line.split(",") for line in
            tarski_csv.read_text().strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == list(TARSKI_NS)
    lbs = [float(r[5]) for r in rows]
    sas = [float(r[4]) for r in rows]
    factor = 1 - 2 * math.sqrt(2.0) / 3.0
    for sa, lb in zip(sas, lbs):
        assert lb > 0
        assert lb == pytest.approx(sa * factor, rel=1e-9)
    assert all(a <= b + 1e-12 for a, b in zip(lbs, lbs[1:])), lbs
    # closed form at n=2: the middle position of a three-answer ordered
    # search distinguishes every pair, so the outer ratio is exactly 1 and
    # the row reduces to the m=2 tile ratio 3(sqrt(2)-1), divided by 7
    assert sas[0] == pytest.approx(3 * (math.sqrt(2) - 1) / 7, rel=1e-8)
    # the rows come from the factors; the dense composed matrix agrees
    for n, sa in zip((2, 3), sas):
        gam = compose_adversary(os_adversary(n + 1), [hilbert_tile(n)] * (n + 1))
        dense = sa_ratio(gam)
        assert sa == pytest.approx(dense.sa_value / 7.0, rel=1e-12), n
    # the headline rate: sa grows like (log n)^2
    tslope, tr2 = linear_fit(np.log(TARSKI_NS) ** 2, np.array(sas))
    assert tslope > 0
    assert tr2 > 0.999, tr2

    os_csv = tmp_path / "os.csv"
    sizes = ",".join(str(2 ** k) for k in range(1, 9))
    rc = cli_main(["bound", "--problem", "os", "--sizes", sizes,
                   "--eps", "1/3", "--out", str(os_csv)])
    assert rc == 0
    orows = [line.split(",") for line in os_csv.read_text().strip().splitlines()[1:]]
    ms = [int(r[1]) for r in orows]
    osas = [float(r[4]) for r in orows]
    assert all(a <= b + 1e-12 for a, b in zip(osas, osas[1:])), osas
    slope, r2 = linear_fit(np.log(ms), np.array(osas))
    assert slope > 0
    assert r2 > 0.95, r2
    report(10, f"tarski bounds nondecreasing, (log n)^2 fit R^2={tr2:.5f}; "
              f"ordered-search fit R^2={r2:.4f}")

"""Named verification suites driven by the command-line runner.

Each suite runs a battery of checks over a parameter range and returns a
:class:`SuiteReport`.  A check that fails contributes a (check id,
counterexample) pair; the counterexample is serialized well enough to replay
that single check by hand.  A suite is deterministic given its parameters
and seed, and failures are sorted by check id before reporting.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .adversary import (
    AdversaryError,
    AdversaryMatrix,
    compose_adversary,
    composed_principal_vector,
    denominator_identity_mismatches,
    hilbert_tile,
    hsos_labeling,
    masked_norms,
    os_adversary,
    sa_ratio,
    symmetrize,
    tile_of_uniform,
)
from .geometry import (
    SpineGeometry,
    _line_xs,
    build_geometry,
    build_instance,
    chunked_spine,
    covering_set,
    family_parameters,
    line_point,
    nos_correspondence,
    region_anchor,
    tarski_family,
)
from .lattice import Oracle, brute_fixed_points, check_monotone, nested_solve, solve_brute
from .matrices import LabeledMatrix, power_norm, spectral_norm
from .problems import QueryProblem, make_nos


@dataclass
class SuiteReport:
    suite: str
    checks_run: int = 0
    failures: list = field(default_factory=list)  # (check id, counterexample)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, check_id: str, ok: bool, counterexample: str = "") -> None:
        self.checks_run += 1
        if not ok:
            self.failures.append((check_id, counterexample))

    def finish(self, t0: float) -> "SuiteReport":
        self.failures.sort(key=lambda f: f[0])
        self.wall_time = time.time() - t0
        return self

    def to_json(self) -> str:
        # wall_time deliberately excluded: file artifacts must be byte-identical
        # across runs with the same flags and seed.
        return json.dumps(
            {"suite": self.suite, "checks_run": self.checks_run,
             "failures": self.failures},
            sort_keys=True,
        )


def random_adversary(problem: QueryProblem, rng: np.random.Generator) -> AdversaryMatrix:
    """Seeded dense adversary matrix: strictly positive off same-answer pairs."""
    n = problem.size
    raw = rng.random((n, n)) + 0.1
    sym = (raw + raw.T) / 2.0
    ans = problem.answers_in_order()
    ids: dict = {}
    ans_idx = np.array([ids.setdefault(a, len(ids)) for a in ans])
    sym[ans_idx[:, None] == ans_idx[None, :]] = 0.0
    mat = LabeledMatrix(problem.instances, sym, name="random adversary")
    return AdversaryMatrix(matrix=mat, problem=problem)


def value_tables(geo: SpineGeometry) -> tuple[list, np.ndarray]:
    """All family parameters plus one int32 table (instance, x, y) of the
    values (fx, fy), encoded as fx * (n' + 2) + fy."""
    params = list(family_parameters(geo))
    enc = np.empty((len(params), geo.n_prime, geo.n_prime), dtype=np.int32)
    for row, (C, i) in zip(enc, params):
        vals = build_instance(geo, C, i).values
        row[...] = vals[:, :, 0] * (geo.n_prime + 2) + vals[:, :, 1]
    return params, enc


def _first_split_pair(col: np.ndarray, keys: np.ndarray) -> tuple[int, int] | None:
    """First pair (r, s), in row-major order, of instances that agree on every
    column of ``keys`` but differ in ``col``; None if there is none.  Groups
    instances by their ``keys`` row: O(N log N), not N x N."""
    _, first, group = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    group = group.reshape(-1)
    split = col != col[first][group]
    if not split.any():
        return None
    r = int(first[group[split]].min())  # the first member of any split group
    return r, int(np.argmax(split & (group == group[r])))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_hilbert(m_max: int = 64, tol: float = 1e-9, **_) -> SuiteReport:
    """Tile norms: every distinguisher product stays at or below 2*pi while
    the tile norm itself grows at least like the half harmonic series."""
    t0 = time.time()
    rep = SuiteReport(suite="hilbert")
    two_pi = 2.0 * math.pi
    harmonic = 0.0
    avec = warm = None  # eigenvectors at m - 1 plus their last entry; position m starts cold
    for m in range(1, m_max + 1):
        tile = hilbert_tile(m)
        res = power_norm(tile.matrix.entries, tol=tol, v0=avec, name=f"A_{m}")
        avec = np.append(res.eigenvector, res.eigenvector[-1])
        if m % 2 == 1:
            harmonic += 1.0 / ((m + 1) // 2)
        rep.check(
            f"hilbert/m={m}/harmonic-lower-bound",
            res.norm >= harmonic - 1e-8,
            json.dumps({"m": m, "norm": res.norm, "harmonic": harmonic}),
        )
        products = masked_norms(tile, tol, v0=warm)
        for i, ires in enumerate(products, start=1):
            rep.check(
                f"hilbert/m={m}/i={i}/product-below-2pi",
                ires.norm <= two_pi + 1e-8,
                json.dumps({"m": m, "i": i, "norm": ires.norm}),
            )
        vecs = np.array([r.eigenvector for r in products])
        warm = np.vstack([np.hstack([vecs, vecs[:, -1:]]), np.zeros(m + 1)])
    return rep.finish(t0)


def suite_symmetrize(m_max: int = 4, seed: int = 0, tol: float = 1e-9, **_) -> SuiteReport:
    """Symmetrization: uniform output, no worse numerator, no worse denominator."""
    t0 = time.time()
    rep = SuiteReport(suite="symmetrize")
    rng = np.random.default_rng(seed)
    for m in range(1, m_max + 1):
        lab = hsos_labeling(m)
        for trial in range(5):
            g = random_adversary(lab.problem, rng)
            base = sa_ratio(g, tol=tol)
            sym = symmetrize(g, lab, tol=tol)
            tag = f"symmetrize/m={m}/trial={trial}"
            try:  # the ratio of an exactly uniform matrix comes from its tile
                cand, uniform_ok, why = tile_of_uniform(sym, lab), True, ""
            except Exception as exc:  # noqa: BLE001 - the message is the counterexample
                cand, uniform_ok, why = sym, False, str(exc)
            rep.check(f"{tag}/exactly-uniform", uniform_ok, why)
            new = sa_ratio(cand, tol=tol)
            rep.check(
                f"{tag}/numerator-not-smaller",
                new.numerator >= base.numerator - 1e-6,
                json.dumps({"before": base.numerator, "after": new.numerator}),
            )
            rep.check(
                f"{tag}/denominator-not-larger",
                new.denominator <= base.denominator * (1.0 + 1e-6),
                json.dumps({"before": base.denominator, "after": new.denominator}),
            )
    return rep.finish(t0)


def suite_composition(a: int = 3, b: int = 3, seed: int = 0, tol: float = 1e-9,
                      **_) -> SuiteReport:
    """Composition identities for nested ordered search at one size (a, b)."""
    if a < 2:
        # OS_1 has a single instance, so the composed adversary vanishes
        raise AdversaryError(f"composition needs a >= 2 outer positions, got a={a}")
    t0 = time.time()
    rep = SuiteReport(suite="composition")
    outer = os_adversary(a)
    tiles = [hilbert_tile(b)] * a
    gam = compose_adversary(outer, tiles)
    h = gam.problem

    num = spectral_norm(gam.matrix, tol).norm
    fnorm = spectral_norm(outer.matrix, tol).norm
    anorm = spectral_norm(tiles[0].matrix, tol).norm
    predicted = fnorm * anorm ** a
    rep.check(
        f"composition/a={a}/b={b}/numerator-identity",
        abs(num - predicted) <= 1e-6 * max(num, 1e-30),
        json.dumps({"norm": num, "predicted": predicted}),
    )

    vec = composed_principal_vector(outer, tiles, h, tol)
    resid = float(np.linalg.norm(gam.matrix.entries @ vec - num * vec))
    rep.check(
        f"composition/a={a}/b={b}/eigenvector-construction",
        resid <= 1e-6,
        json.dumps({"residual": resid}),
    )

    fden, aden, hden = ({i: r.norm for i, r in enumerate(masked_norms(g, tol), start=1)}
                        for g in (outer, tiles[0], gam))
    worst = 0.0
    for i, lhs in hden.items():
        p, q = h.block_of_position(i)
        rhs = fden[p] * aden[q] * anorm ** (a - 1)
        rep.check(
            f"composition/a={a}/b={b}/pos={i}/denominator-norm-identity",
            abs(lhs - rhs) <= 1e-6 * max(lhs, 1e-30),
            json.dumps({"i": i, "lhs": lhs, "rhs": rhs}),
        )
        worst = max(worst, lhs)
        if h.size <= 256:
            bad = denominator_identity_mismatches(outer, tiles, i, limit=1)
            rep.check(
                f"composition/a={a}/b={b}/pos={i}/denominator-exact-identity",
                not bad,
                bad[0] if bad else "",
            )

    sa_h = num / worst
    sa_f = sa_ratio(outer, tol=tol).sa_value
    tile_ratio = min(anorm / aden[q] for q in range(1, b + 1))
    rep.check(
        f"composition/a={a}/b={b}/ratio-product-bound",
        sa_h >= sa_f * tile_ratio - 1e-6,
        json.dumps({"sa_h": sa_h, "sa_f": sa_f, "tile_ratio": tile_ratio}),
    )

    rng = np.random.default_rng(seed)
    for trial in range(5):
        router = random_adversary(outer.problem, rng)
        rgam = compose_adversary(router, tiles)
        rnum = spectral_norm(rgam.matrix, tol).norm
        rpred = spectral_norm(router.matrix, tol).norm * anorm ** a
        rep.check(
            f"composition/a={a}/b={b}/random-outer={trial}/numerator-identity",
            abs(rnum - rpred) <= 1e-6 * max(rnum, 1e-30),
            json.dumps({"norm": rnum, "predicted": rpred}),
        )
    return rep.finish(t0)


def suite_geometry(n: int = 2, **_) -> SuiteReport:
    """Grid-line and chunk/region structure checks for one n."""
    t0 = time.time()
    rep = SuiteReport(suite="geometry")
    geo = build_geometry(n)

    for i in range(1, n + 1):
        for j in range(1, n + 2):
            rep.check(
                f"geometry/n={n}/high-low-adjacency/i={i}/j={j}",
                geo.high[(i, j)] == geo.low[(i, j + 1)],
                json.dumps({"high": geo.high[(i, j)], "low": geo.low[(i, j + 1)]}),
            )
    for c, pts in geo.boundary_points.items():
        ok = len(pts) == n and all(
            p[0] + p[1] == c and abs(p[0] - p[1]) <= n - 1 and
            1 <= p[0] <= geo.n_prime and 1 <= p[1] <= geo.n_prime
            for p in pts
        )
        rep.check(f"geometry/n={n}/boundary-set/c={c}", ok, json.dumps(pts))

    # Endpoint monotonicity of grid lines over consecutive boundary sets and
    # over chunk-boundary pairs.
    sums = sorted(geo.boundary_points)
    pairs = list(zip(sums, sums[1:]))
    bsums = geo.chunk_boundary_sums()
    pairs += [(bsums[i], bsums[j]) for i in range(len(bsums)) for j in range(i + 1, len(bsums))]
    for blo, bhi in pairs:
        los, his = geo.boundary_points[blo], geo.boundary_points[bhi]
        # xs[a, b, k]: the line from los[a] to his[b] at sum blo + k
        xs = _line_xs(np.array(los)[:, None, None, 0], np.array(his)[None, :, None, 0],
                      blo, bhi, np.arange(blo, bhi + 1))
        in_u = (np.diff(xs, axis=0) >= 0).all(axis=2)
        in_v = (np.diff(xs, axis=1) >= 0).all(axis=2)
        for b, v in enumerate(his):
            for a, (u1, u2) in enumerate(zip(los, los[1:])):
                rep.check(f"geometry/n={n}/line-monotone-in-u/{blo}->{bhi}/v={v}/u={u1}",
                          bool(in_u[a, b]), json.dumps({"u1": u1, "u2": u2, "v": v}))
        for a, u in enumerate(los):
            for b, (v1, v2) in enumerate(zip(his, his[1:])):
                rep.check(f"geometry/n={n}/line-monotone-in-v/{blo}->{bhi}/u={u}/v={v1}",
                          bool(in_v[a, b]), json.dumps({"u": u, "v1": v1, "v2": v2}))

    # Chunked spines: construction re-validates boundary crossings; check the
    # endpoints, the vertex count, and that every vertex stays in the
    # reachable offset band.
    for C in itertools.product(range(1, n + 1), repeat=n + 1):
        spine = chunked_spine(geo, C)
        off = spine.xy[:, 0] - spine.xy[:, 1]
        ok = (spine.vertices[0] == (1, 1) and spine.vertices[-1] == (geo.n_prime, geo.n_prime)
              and len(off) == 2 * geo.n_prime - 1 and -(n - 1) <= off.min() and off.max() <= n)
        rep.check(f"geometry/n={n}/spine/C={list(C)}", ok, json.dumps(list(C)))

    # Region anchors: every tube point in the chunk range has one, and the
    # anchor line is consistent across all enclosing boundary pairs.
    anchor_points = [(x, y) for x in range(1, geo.n_prime + 1) for y in range(1, geo.n_prime + 1)
                     if geo.bound[1] <= x + y <= geo.bound[n + 1] and -(n - 1) <= x - y <= n]
    for w in anchor_points:
        try:
            alpha, beta, ell = region_anchor(geo, w)
            ok = 1 <= ell <= n
            why = json.dumps({"w": w, "ell": ell})
        except Exception as exc:  # noqa: BLE001
            ok, why = False, f"{w}: {exc}"
        rep.check(f"geometry/n={n}/anchor/w={w}", ok, why)
    if n == 2:
        for w in anchor_points:
            alpha, beta, ell = region_anchor(geo, w)
            c = w[0] + w[1]
            ok = True
            for blo in (s for s in sums if s <= geo.low[(alpha, beta)]):
                for bhi in (s for s in sums if s >= geo.high[(alpha, beta)]):
                    u = geo.boundary_point(blo, ell)
                    v = geo.boundary_point(bhi, ell)
                    if line_point(u, v, c) != w:
                        ok = False
            rep.check(f"geometry/n={n}/anchor-consistency/w={w}", ok, json.dumps(w))
    return rep.finish(t0)


def suite_embedding(n: int = 2, **_) -> SuiteReport:
    """Distinguisher equality between chunk-boundary queries and the
    corresponding nested-ordered-search positions (exact, entrywise)."""
    t0 = time.time()
    rep = SuiteReport(suite="embedding")
    geo = build_geometry(n)
    params, enc = value_tables(geo)
    nos = make_nos(n + 1, n)
    order = {s: r for r, s in enumerate(nos.instances)}
    perm = [order[nos_correspondence(geo, C, i)] for C, i in params]
    rep.check(
        f"embedding/n={n}/correspondence-bijection",
        sorted(perm) == list(range(nos.size)) and perm == list(range(nos.size)),
        json.dumps({"first": perm[:8]}),
    )
    chars = nos.char_table()
    for i in range(1, n + 2):
        for j in range(1, n + 1):
            bx, by = geo.boundary_point(geo.bound[i], j)
            colt = enc[:, bx - 1, by - 1]
            coln = chars[:, (i - 1) * n + (j - 1)]
            # Equal partitions: neither side splits a class of the other.
            pair = min(filter(None, (_first_split_pair(colt, coln[:, None]),
                                     _first_split_pair(coln, colt[:, None]))), default=None)
            ok = pair is None
            why = "" if ok else json.dumps({"i": i, "j": j, "pair": [params[k] for k in pair]})
            rep.check(f"embedding/n={n}/boundary/i={i}/j={j}", ok, why)
    return rep.finish(t0)


def suite_covering(n: int = 2, seed: int = 0, sample: int = 200, **_) -> SuiteReport:
    """Covering property of the seven-point sets.

    n = 2 (or ``sample = 0``) checks every lattice point; otherwise all
    chunk- and region-boundary tube points are checked exhaustively plus a
    seeded sample of the remaining points.  V covers p when the value at p
    is constant within each group of instances that agree on all of V.
    """
    t0 = time.time()
    rep = SuiteReport(suite="covering")
    geo = build_geometry(n)
    params, enc = value_tables(geo)

    all_points = [(x, y) for x in range(1, geo.n_prime + 1)
                  for y in range(1, geo.n_prime + 1)]
    if n == 2 or sample == 0:
        points = all_points
    else:
        forced = [p for p in all_points
                  if abs(p[0] - p[1]) <= n and (p[0] + p[1]) in geo.boundary_points]
        forced_set = set(forced)
        rest = [p for p in all_points if p not in forced_set]
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(rest), size=min(sample, len(rest)), replace=False)
        points = forced + [rest[k] for k in sorted(picks)]

    for p in points:
        rep.checks_run += 1
        V = covering_set(geo, p)
        if len(V) > 7:
            rep.failures.append((f"covering/n={n}/point={p}/size", json.dumps({"V": V})))
            continue
        col = enc[:, p[0] - 1, p[1] - 1]
        if (col == col[0]).all():
            continue
        pair = _first_split_pair(col, enc[:, [v[0] - 1 for v in V], [v[1] - 1 for v in V]])
        if pair is not None:
            rep.failures.append((f"covering/n={n}/point={p}/covered",
                                 json.dumps({"V": V, "pair": [params[k] for k in pair]})))
    return rep.finish(t0)


def suite_solver(n: int = 2, **_) -> SuiteReport:
    """Nested binary search agrees with the brute oracle on the whole family
    and stays within the polylog query budget."""
    t0 = time.time()
    rep = SuiteReport(suite="solver")
    geo = build_geometry(n)
    cap = 4 * (math.ceil(math.log2(geo.n_prime)) + 1) ** 2
    for C, i, fn in tarski_family(geo):
        mono, witness = check_monotone(fn)
        rep.check(f"solver/n={n}/C={list(C)}/i={i}/monotone", mono, json.dumps(witness))
        fps = brute_fixed_points(fn)
        expected = geo.boundary_point(geo.bound[i], C[i - 1])
        rep.check(
            f"solver/n={n}/C={list(C)}/i={i}/unique-fixed-point",
            fps == [expected],
            json.dumps({"found": fps, "expected": expected}),
        )
        result = nested_solve(Oracle(fn))
        rep.check(
            f"solver/n={n}/C={list(C)}/i={i}/nested-matches-brute",
            result.fixed_point == expected and not result.fell_back,
            json.dumps({"got": result.fixed_point, "expected": expected,
                        "fell_back": result.fell_back}),
        )
        rep.check(
            f"solver/n={n}/C={list(C)}/i={i}/query-budget",
            result.queries_used <= cap,
            json.dumps({"queries": result.queries_used, "cap": cap}),
        )
        brute = solve_brute(Oracle(fn))
        rep.check(
            f"solver/n={n}/C={list(C)}/i={i}/brute-query-count",
            brute.queries_used == geo.n_prime ** 2,
            json.dumps({"queries": brute.queries_used}),
        )
    return rep.finish(t0)


SUITES = {
    "geometry": suite_geometry,
    "composition": suite_composition,
    "hilbert": suite_hilbert,
    "symmetrize": suite_symmetrize,
    "embedding": suite_embedding,
    "covering": suite_covering,
    "solver": suite_solver,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)

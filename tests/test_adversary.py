"""Adversary matrices: tiles, uniform expansion, composition, symmetrization."""

import itertools
import math
import types

import numpy as np
import pytest

import tarskilab.adversary as adv
from tarskilab import (
    AdversaryError,
    AdversaryMatrix,
    LabeledMatrix,
    QueryProblem,
    SearchLabeling,
    SpectralConvergenceError,
    Sym,
    Tile,
    compose_adversary,
    composed_principal_vector,
    composed_sa_ratio,
    denominator_identity_mismatches,
    distinguisher,
    error_factor,
    hilbert_tile,
    hsos_labeling,
    int_labels,
    make_os,
    masked_norm,
    masked_norms,
    os_adversary,
    power_norm,
    sa_ratio,
    spectral_norm,
    symmetrize,
    tile_distinguisher,
    tile_of_uniform,
    uniform_from_tile,
)
from tarskilab.suites import random_adversary


def interval_rule(m, i):
    """Closed form of the HSOS tile distinguisher: 1 iff i lies weakly
    between the two hidden-symbol positions."""
    idx = np.arange(1, m + 1)
    between = (idx[:, None] <= i) & (i <= idx[None, :])
    return (between | between.T).astype(np.float64)


def test_hilbert_tile_entries():
    assert hilbert_tile(1).matrix.entries[0, 0] == 1
    t2 = hilbert_tile(2).matrix
    assert t2.entries[0, 1] == 1 / 2 and t2.entries[0, 0] == 1
    t3 = hilbert_tile(3).matrix
    assert all(t3.entries[i, i] == 1 for i in range(3))
    assert t3.entries[0, 2] == 1 / 3


def test_tile_distinguisher_examples():
    lab3 = hsos_labeling(3)
    d2 = tile_distinguisher(lab3, 2)
    assert np.array_equal(
        d2.entries, np.array([[0.0, 1, 1], [1, 1, 1], [1, 1, 0]])
    )
    dm = tile_distinguisher(hsos_labeling(4), 1)
    assert np.all(dm.entries[0, :] == 1) and np.all(dm.entries[:, 0] == 1)
    assert dm.entries[0, 0] == 1
    assert np.array_equal(
        tile_distinguisher(hsos_labeling(1), 1).entries, np.array([[1.0]])
    )


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12])
def test_tile_distinguisher_matches_interval_rule(m):
    lab = hsos_labeling(m)
    for i in range(1, m + 1):
        assert np.array_equal(
            tile_distinguisher(lab, i).entries, interval_rule(m, i)
        )


def test_uniform_from_tile():
    lab1 = hsos_labeling(1)
    ones = Tile(
        matrix=LabeledMatrix.from_rows(int_labels(1), [[1]]),
        labeling=lab1,
    )
    g = uniform_from_tile(lab1, ones)
    expect = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(g.matrix.to_float(), expect)

    lab2 = hsos_labeling(2)
    g2 = uniform_from_tile(lab2, hilbert_tile(2))
    assert spectral_norm(g2.matrix).norm == pytest.approx(3.0, rel=1e-9)
    up1 = lab2.instance_of[(list(lab2.answers)[0], 1)]
    up2 = lab2.instance_of[(list(lab2.answers)[0], 2)]
    idx = {s: r for r, s in enumerate(g2.problem.instances)}
    assert g2.matrix.entries[idx[up1], idx[up2]] == 0


def test_tile_of_uniform_roundtrip_and_ratio_identity():
    lab = hsos_labeling(3)
    t = hilbert_tile(3)
    g = uniform_from_tile(lab, t)
    back = tile_of_uniform(g, lab)
    assert np.array_equal(back.matrix.entries, t.matrix.entries)
    # J - I over three answers, one variant
    lab1 = hsos_labeling(1)
    jmi = uniform_from_tile(
        lab1,
        Tile(matrix=LabeledMatrix.from_rows(int_labels(1), [[1]]),
             labeling=lab1),
    )
    assert tile_of_uniform(jmi, lab1).matrix.entries[0, 0] == 1
    # ratio identity between the full matrix and its tile
    m = 3
    full = [
        spectral_norm(g.matrix).norm / masked_norm(g, i)
        for i in range(1, g.problem.length + 1)
    ]
    tnorm = spectral_norm(t.matrix).norm
    tile_ratios = [
        tnorm / spectral_norm(
            LabeledMatrix(int_labels(m),
                          t.matrix.to_float() * interval_rule(m, i))
        ).norm
        for i in range(1, m + 1)
    ]
    assert min(full) == pytest.approx(min(tile_ratios), rel=1e-8)


def test_tile_of_uniform_rejects_nonuniform():
    lab = hsos_labeling(2)
    g = uniform_from_tile(lab, hilbert_tile(2))
    arr = g.matrix.to_float()
    arr[0, 5] = arr[5, 0] = 0.77  # (UP,1) vs (ST,2): break uniformity
    broken = AdversaryMatrix(
        matrix=LabeledMatrix(g.problem.instances, arr), problem=g.problem
    )
    with pytest.raises(AdversaryError, match="not uniform"):
        tile_of_uniform(broken, lab)


def test_os_adversary_entries_and_norms():
    a2 = os_adversary(2)
    assert a2.matrix.entries[0, 1] == 1 / 2
    assert a2.matrix.entries[0, 0] == 0
    assert spectral_norm(a2.matrix).norm == pytest.approx(0.5, rel=1e-9)
    assert os_adversary(1).matrix.entries[0, 0] == 0
    assert os_adversary(3).matrix.entries[0, 2] == 1 / 3


def test_adversary_validation():
    p = make_os(2)
    with pytest.raises(AdversaryError, match="same-answer"):
        AdversaryMatrix(
            matrix=LabeledMatrix(p.instances, np.eye(2)), problem=p
        )


def test_sa_ratio_os2_and_error_factor():
    rep = sa_ratio(os_adversary(2), eps=1.0 / 3.0)
    assert rep.sa_value == pytest.approx(1.0, rel=1e-9)
    factor = 1 - 2 * math.sqrt(2.0 / 9.0)
    assert factor == pytest.approx(0.05719, abs=1e-5)
    assert rep.query_lower_bound == pytest.approx(factor, rel=1e-8)
    assert rep.numerator == pytest.approx(rep.denominator, rel=1e-9)
    with pytest.raises(AdversaryError):
        error_factor(0.5)
    with pytest.raises(AdversaryError):
        error_factor(0.0)


def test_sa_ratio_zero_denominator_errors():
    p = make_os(2)
    zero = AdversaryMatrix(
        matrix=LabeledMatrix(p.instances, np.zeros((2, 2))), problem=p
    )
    with pytest.raises(AdversaryError, match="indistinguishable"):
        sa_ratio(zero)


def test_hilbert_tile_ratio_closed_form():
    t = hilbert_tile(2)
    tnorm = spectral_norm(t.matrix).norm
    d1 = t.matrix.to_float() * interval_rule(2, 1)
    dnorm = np.linalg.eigvalsh(d1)[-1]
    assert dnorm == pytest.approx((1 + math.sqrt(2)) / 2, rel=1e-12)
    assert tnorm / dnorm == pytest.approx(1.2426, abs=1e-4)


def test_compose_adversary_single_block():
    # a length-1 outer problem with two answers and the 2x2 swap matrix
    from tarskilab.problems import QueryProblem, Sym

    up, dn = bytes([Sym.UP]), bytes([Sym.DN])
    outer_problem = QueryProblem(
        input_alphabet=(Sym.UP, Sym.DN, Sym.ST),
        output_alphabet=(1, 2),
        length=1,
        instances=(up, dn),
        answer={up: 1, dn: 2},
    )
    swap = AdversaryMatrix(
        matrix=LabeledMatrix.from_rows((up, dn), [[0, 1], [1, 0]]),
        problem=outer_problem,
    )
    gam = compose_adversary(swap, [hilbert_tile(2)])
    assert gam.dim == 4  # two preimages of two variants each
    assert spectral_norm(gam.matrix).norm == pytest.approx(1.5, rel=1e-8)
    oracle = np.linalg.eigvalsh(gam.matrix.to_float())[-1]
    assert oracle == pytest.approx(1.5, rel=1e-10)


def test_compose_adversary_same_answer_zero_blocks():
    gam = compose_adversary(os_adversary(2), [hilbert_tile(2)] * 2)
    ans = gam.problem.answers_in_order()
    ent = gam.matrix.entries
    for i in range(gam.dim):
        for j in range(gam.dim):
            if ans[i] == ans[j]:
                assert ent[i, j] == 0.0
    assert spectral_norm(gam.matrix).norm == pytest.approx(1.125, rel=1e-8)
    oracle = np.linalg.eigvalsh(gam.matrix.to_float())[-1]
    assert oracle == pytest.approx(1.125, rel=1e-10)


def test_composed_eigenvector_construction():
    outer = os_adversary(3)
    tiles = [hilbert_tile(2)] * 3
    gam = compose_adversary(outer, tiles)
    vec = composed_principal_vector(outer, tiles, gam.problem)
    norm = spectral_norm(gam.matrix).norm
    resid = np.linalg.norm(gam.matrix.entries @ vec - norm * vec)
    assert resid <= 1e-6


def test_denominator_identity_exact_small():
    outer = os_adversary(2)
    tiles = [hilbert_tile(2)] * 2
    for i in range(1, 5):
        assert denominator_identity_mismatches(outer, tiles, i) == []


def test_denominator_identity_reports_a_wrong_distinguisher(monkeypatch):
    import tarskilab.adversary as adv

    outer = os_adversary(2)
    tiles = [hilbert_tile(3)] * 2
    shifted = adv.tile_distinguisher
    monkeypatch.setattr(adv, "tile_distinguisher",
                        lambda lab, q: shifted(lab, q % lab.variants + 1))
    for i in range(1, 7):
        bad = denominator_identity_mismatches(outer, tiles, i, limit=2)
        assert len(bad) == 2 and f"position {i}" in bad[0]


@pytest.mark.parametrize("a,b", list(itertools.product((1, 2, 3), repeat=2)))
def test_masked_composition_equals_composition_of_masked_factors(a, b):
    # Gamma_h o D_i is the composition generated by Gamma_f o D_p and the
    # tiles with tile p replaced by A_p o D_q.  Both sides multiply the same
    # floats by 0/1 only, so they agree bit for bit.
    outer = os_adversary(a)
    tiles = [hilbert_tile(b)] * a
    gam = compose_adversary(outer, tiles)
    for i in range(1, a * b + 1):
        p, q = gam.problem.block_of_position(i)
        lhs = gam.matrix.entries * distinguisher(gam.problem, i).entries
        fmask = LabeledMatrix(outer.matrix.labels,
                              outer.matrix.entries * distinguisher(outer.problem, p).entries)
        lab, tile = tiles[p - 1].labeling, tiles[p - 1].matrix
        masked_tile = Tile(matrix=LabeledMatrix(
            tile.labels, tile.entries * tile_distinguisher(lab, q).entries), labeling=lab)
        rhs = compose_adversary(
            AdversaryMatrix(matrix=fmask, problem=outer.problem),
            tiles[:p - 1] + [masked_tile] + tiles[p:],
        )
        assert np.array_equal(lhs, rhs.matrix.entries), (a, b, i)


@pytest.mark.parametrize("a,b", list(itertools.product((2, 3, 4), repeat=2)) + [(5, 3)])
def test_composed_sa_ratio_matches_dense(a, b):
    outer, tile = os_adversary(a), hilbert_tile(b)
    gam = compose_adversary(outer, [tile] * a)
    dense = sa_ratio(gam)
    fact = composed_sa_ratio(outer, tile)
    assert fact.numerator == pytest.approx(dense.numerator, rel=1e-12)
    assert fact.denominator == pytest.approx(dense.denominator, rel=1e-12)
    assert fact.query_lower_bound == pytest.approx(dense.query_lower_bound, rel=1e-12)
    # mirror-image positions tie, so the two paths may name different ones,
    # but the factored one reaches the dense maximum
    assert 1 <= fact.worst_position <= a * b
    assert masked_norm(gam, fact.worst_position) == pytest.approx(
        dense.denominator, rel=1e-12)


def test_composed_sa_ratio_single_block_raises_like_dense():
    outer, tile = os_adversary(1), hilbert_tile(3)
    with pytest.raises(AdversaryError) as dense:
        sa_ratio(compose_adversary(outer, [tile]))
    with pytest.raises(AdversaryError) as fact:
        composed_sa_ratio(outer, tile)
    assert str(fact.value) == str(dense.value)


def test_composed_sa_ratio_rejects_invalid_labeling():
    # swap the variants of one answer: the equality pattern at a position
    # then depends on which answers are compared
    lab = hsos_labeling(2)
    swapped = dict(lab.instance_of)
    up1, up2 = (lab.answers[0], 1), (lab.answers[0], 2)
    swapped[up1], swapped[up2] = lab.instance_of[up2], lab.instance_of[up1]
    bad = Tile(matrix=hilbert_tile(2).matrix,
               labeling=lab.__class__(problem=lab.problem, variants=2,
                                      answers=lab.answers, instance_of=swapped))
    with pytest.raises(AdversaryError, match="not well-defined"):
        composed_sa_ratio(os_adversary(2), bad)


def test_masked_norm_rejects_out_of_range_position():
    for i in (0, 3):
        with pytest.raises(AdversaryError, match="out of range"):
            masked_norm(os_adversary(2), i)
        with pytest.raises(AdversaryError, match="out of range"):
            masked_norm(hilbert_tile(2), i)


def test_symmetrize_fixes_uniform_input():
    lab = hsos_labeling(2)
    g = uniform_from_tile(lab, hilbert_tile(2))
    sym = symmetrize(g, lab)
    assert np.allclose(sym.matrix.to_float(), g.matrix.to_float(), atol=1e-8)


def test_symmetrize_output_is_permutation_invariant():
    rng = np.random.default_rng(42)
    lab = hsos_labeling(3)
    g = random_adversary(lab.problem, rng)
    sym = symmetrize(g, lab)
    idx = {s: r for r, s in enumerate(sym.problem.instances)}
    ent = sym.matrix.entries
    for rho in itertools.permutations(lab.answers):
        perm = dict(zip(lab.answers, rho))
        for (s1, a) in lab.instance_of:
            for (s2, b) in lab.instance_of:
                orig = ent[idx[lab.instance_of[(s1, a)]],
                           idx[lab.instance_of[(s2, b)]]]
                moved = ent[idx[lab.instance_of[(perm[s1], a)]],
                            idx[lab.instance_of[(perm[s2], b)]]]
                assert orig == moved  # exact, not approximate


def test_symmetrize_never_hurts_the_ratio():
    rng = np.random.default_rng(0)
    for m in (1, 2, 3):
        lab = hsos_labeling(m)
        g = random_adversary(lab.problem, rng)
        base = sa_ratio(g)
        sym = symmetrize(g, lab)
        new_num = spectral_norm(sym.matrix).norm
        assert new_num >= base.numerator - 1e-6
        new_den = sa_ratio(sym).denominator
        assert new_den <= base.denominator * (1 + 1e-6)


def test_symmetrize_drops_dead_variants(caplog):
    lab = hsos_labeling(2)
    # support only variant 1: variant 2 rows are zero everywhere
    idx = {s: r for r, s in enumerate(lab.problem.instances)}
    arr = np.zeros((6, 6))
    for s1 in lab.answers:
        for s2 in lab.answers:
            if s1 != s2:
                arr[idx[lab.instance_of[(s1, 1)]], idx[lab.instance_of[(s2, 1)]]] = 1.0
    g = AdversaryMatrix(
        matrix=LabeledMatrix(lab.problem.instances, arr), problem=lab.problem
    )
    with caplog.at_level("WARNING"):
        sym = symmetrize(g, lab)
    assert sym.problem.size == 3  # one variant left per answer
    assert "dropping" in caplog.text
    assert spectral_norm(sym.matrix).norm >= spectral_norm(g.matrix).norm - 1e-6


def test_symmetrize_alphabet_cap():
    # six answers is the documented cap; a fake labeling with seven must fail
    lab = hsos_labeling(1)
    g = uniform_from_tile(
        lab,
        Tile(matrix=LabeledMatrix.from_rows(int_labels(1), [[1]]),
             labeling=lab),
    )
    big = lab.__class__(
        problem=lab.problem,
        variants=1,
        answers=tuple(range(7)),
        instance_of={(a, 1): bytes([a]) for a in range(7)},
    )
    with pytest.raises(AdversaryError, match="6"):
        symmetrize(g, big)


# ---------------------------------------------------------------------------
# stacked masks and witnesses against per-position loop references
# ---------------------------------------------------------------------------


def loop_tile_of_uniform(ent, instances, lab):
    """The per-entry scan ``tile_of_uniform`` replaced: the same witnesses,
    found in the same order."""
    idx = {s: r for r, s in enumerate(instances)}
    m = lab.variants
    tile = np.zeros((m, m))
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            val = witness = None
            for s1 in lab.answers:
                for s2 in lab.answers:
                    e = ent[idx[lab.instance_of[(s1, a)]], idx[lab.instance_of[(s2, b)]]]
                    if s1 == s2:
                        if e != 0.0:
                            raise AdversaryError(
                                f"nonzero same-answer entry at (({s1},{a}),({s2},{b}))")
                        continue
                    if val is None:
                        val, witness = e, (s1, a, s2, b)
                    elif e != val:
                        raise AdversaryError(
                            f"not uniform: entry (({s1},{a}),({s2},{b}))={e} "
                            f"differs from (({witness[0]},{witness[1]}),"
                            f"({witness[2]},{witness[3]}))={val}")
            if val is not None:
                tile[a - 1, b - 1] = val
    return tile


def unchecked(problem, ent):
    """An adversary-matrix stand-in that skips validation, so that single
    entries can be broken (asymmetric or on a same-answer pair)."""
    return types.SimpleNamespace(problem=problem, matrix=types.SimpleNamespace(entries=ent))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_tile_of_uniform_witnesses_match_loop_reference(m):
    lab = hsos_labeling(m)
    g = uniform_from_tile(lab, hilbert_tile(m))
    assert np.array_equal(tile_of_uniform(g, lab).matrix.entries,
                          loop_tile_of_uniform(g.matrix.entries, g.problem.instances, lab))
    d = g.dim
    for r, c in itertools.product(range(d), repeat=2):
        ent = g.matrix.to_float()
        ent[r, c] += 0.25  # one entry off: a same-answer pair or a broken tile
        with pytest.raises(AdversaryError) as want:
            loop_tile_of_uniform(ent, g.problem.instances, lab)
        with pytest.raises(AdversaryError) as got:
            tile_of_uniform(unchecked(g.problem, ent), lab)
        assert str(got.value) == str(want.value), (r, c)


def test_tile_of_uniform_first_witness_in_scan_order():
    lab = hsos_labeling(3)
    g = uniform_from_tile(lab, hilbert_tile(3))
    idx = {s: r for r, s in enumerate(g.problem.instances)}
    up, dn, st = lab.answers
    ent = g.matrix.to_float()
    # a late same-answer nonzero and an earlier off-diagonal change
    ent[idx[lab.instance_of[(st, 3)]], idx[lab.instance_of[(st, 3)]]] = 1.0
    ent[idx[lab.instance_of[(dn, 2)]], idx[lab.instance_of[(st, 1)]]] = 0.125
    with pytest.raises(AdversaryError) as want:
        loop_tile_of_uniform(ent, g.problem.instances, lab)
    with pytest.raises(AdversaryError, match="not uniform") as got:
        tile_of_uniform(unchecked(g.problem, ent), lab)
    assert str(got.value) == str(want.value)


def test_stacked_masks_equal_per_position_masks():
    rng = np.random.default_rng(7)
    adversaries = [os_adversary(m) for m in range(2, 41)]
    adversaries += [uniform_from_tile(hsos_labeling(m), hilbert_tile(m)) for m in range(1, 9)]
    adversaries += [random_adversary(p, rng) for p in (make_os(5), hsos_labeling(3).problem)]
    adversaries.append(compose_adversary(os_adversary(2), [hilbert_tile(2)] * 2))
    for g in adversaries:
        p = g.problem
        stacked = adv._position_masks(p.char_table()[None], range(1, p.length + 1))
        for i in range(1, p.length + 1):
            assert np.array_equal(stacked[i - 1], distinguisher(p, i).entries != 0), (p.size, i)
    for m in range(1, 9):
        lab = hilbert_tile(m).labeling
        stacked = adv._position_masks(adv._labeling_chars(lab), range(1, m + 1))
        for i in range(1, m + 1):
            assert np.array_equal(stacked[i - 1], interval_rule(m, i) != 0), (m, i)


def loop_tile_distinguisher(lab, i):
    """The per-position pair loop ``tile_distinguisher`` replaced."""
    m = lab.variants
    chars = np.array([[list(lab.instance_of[(s, j)]) for j in range(1, m + 1)]
                      for s in lab.answers], dtype=np.uint8)
    col = chars[:, :, i - 1]
    out = None
    for s1, s2 in itertools.permutations(range(len(lab.answers)), 2):
        diff = col[s1][:, None] != col[s2][None, :]
        if out is None:
            out = diff
        elif not np.array_equal(out, diff):
            a, b = map(int, np.argwhere(out != diff)[0])
            raise AdversaryError(f"equality pattern at position {i} not well-defined for "
                                 f"variants ({a + 1}, {b + 1})")
    return out


def test_invalid_labeling_reports_the_loop_witness():
    lab = hsos_labeling(4)
    for j1, j2 in ((1, 2), (2, 4), (3, 4)):
        swapped = dict(lab.instance_of)
        k1, k2 = (lab.answers[1], j1), (lab.answers[1], j2)
        swapped[k1], swapped[k2] = lab.instance_of[k2], lab.instance_of[k1]
        bad = Tile(matrix=hilbert_tile(4).matrix,
                   labeling=lab.__class__(problem=lab.problem, variants=4,
                                          answers=lab.answers, instance_of=swapped))
        first = None
        for i in range(1, 5):
            try:
                loop_tile_distinguisher(bad.labeling, i)
            except AdversaryError as exc:
                first = first or str(exc)
                with pytest.raises(AdversaryError) as got:
                    tile_distinguisher(bad.labeling, i)
                assert str(got.value) == str(exc)
        assert first is not None
        with pytest.raises(AdversaryError) as got:
            masked_norms(bad)
        assert str(got.value) == first


def test_masked_norms_match_single_positions():
    rng = np.random.default_rng(11)
    for g in (os_adversary(9), hilbert_tile(7), random_adversary(hsos_labeling(3).problem, rng),
              os_adversary(40), hilbert_tile(36)):  # the last two above EIGH_MAX_DIM
        stacked = masked_norms(g)
        assert len(stacked) == (g.labeling if isinstance(g, Tile) else g).problem.length
        for i, res in enumerate(stacked, start=1):
            assert res.norm == masked_norm(g, i)


def test_masked_norms_cap_error_names_the_position():
    with pytest.raises(SpectralConvergenceError, match="Gamma_OS_4∘D_1 did not reach"):
        masked_norms(os_adversary(4), tol=1e-300)
    with pytest.raises(SpectralConvergenceError, match="A_3∘D_2 did not reach"):
        masked_norms(hilbert_tile(3), tol=1e-300, positions=[2])


def test_worst_position_is_the_smaller_mirror_index():
    # position i and m+1-i give the same norm up to rounding; the tie rule
    # names the first one
    for m in range(2, 65):
        w = sa_ratio(os_adversary(m)).worst_position
        assert 1 <= w <= m + 1 - w, (m, w)
    for m in range(1, 33):
        w = sa_ratio(uniform_from_tile(hsos_labeling(m), hilbert_tile(m))).worst_position
        assert 1 <= w <= m + 1 - w, (m, w)


# ---------------------------------------------------------------------------
# tile-level uniform ratios and mirror pairs
# ---------------------------------------------------------------------------


def assert_same_report(fast, dense):
    for key in ("numerator", "denominator", "sa_value", "query_lower_bound"):
        assert getattr(fast, key) == pytest.approx(getattr(dense, key), rel=1e-12), key
    assert fast.worst_position == dense.worst_position


def test_tile_ratio_equals_ratio_of_uniform_expansion():
    tiles = [hilbert_tile(m) for m in range(1, 33)]
    lab = hsos_labeling(4)
    ent = np.random.default_rng(5).random((4, 4))
    tiles.append(Tile(matrix=LabeledMatrix(int_labels(4), ent + ent.T), labeling=lab))
    rng = np.random.default_rng(0)
    for m in range(1, 7):  # the trials of suite_symmetrize
        lab = hsos_labeling(m)
        for _ in range(3):
            sym = symmetrize(random_adversary(lab.problem, rng), lab)
            tiles.append(tile_of_uniform(sym, lab))
    for t in tiles:
        assert_same_report(sa_ratio(t, eps=0.2), sa_ratio(uniform_from_tile(t.labeling, t), eps=0.2))


def test_tile_ratio_with_one_answer_raises_like_dense():
    m = 3
    up = {(Sym.UP, j): bytes([Sym.RT] * (j - 1) + [Sym.UP] + [Sym.LT] * (m - j))
          for j in range(1, m + 1)}
    p = QueryProblem(input_alphabet=(Sym.UP, Sym.LT, Sym.RT), output_alphabet=(Sym.UP,),
                     length=m, instances=tuple(up.values()),
                     answer={s: Sym.UP for s in up.values()})
    lab = SearchLabeling(problem=p, variants=m, answers=(Sym.UP,), instance_of=up)
    t = Tile(matrix=hilbert_tile(m).matrix, labeling=lab)
    with pytest.raises(AdversaryError) as dense:
        sa_ratio(uniform_from_tile(lab, t))
    with pytest.raises(AdversaryError) as tile:
        sa_ratio(t)
    assert str(tile.value) == str(dense.value)


def explicit_masked_norms(g):
    """Every position's norm from its explicitly masked matrix, one at a time."""
    if isinstance(g, Tile):
        m = g.labeling.variants
        masks = [interval_rule(m, i) for i in range(1, g.labeling.problem.length + 1)]
    else:
        masks = [distinguisher(g.problem, i).entries for i in range(1, g.problem.length + 1)]
    return [power_norm(g.matrix.entries * d).norm for d in masks]


def test_mirror_pairs_match_explicit_masked_norms():
    adversaries = [os_adversary(m) for m in range(2, 65)]
    adversaries += [hilbert_tile(m) for m in range(1, 65)]
    adversaries += [uniform_from_tile(hsos_labeling(m), hilbert_tile(m)) for m in range(1, 17)]
    for g in adversaries:
        got = masked_norms(g)
        for i, (res, want) in enumerate(zip(got, explicit_masked_norms(g)), start=1):
            assert res.norm == pytest.approx(want, rel=1e-13), (g.matrix.name, i)
        if not isinstance(g, AdversaryMatrix) or g.problem.size == g.problem.length:
            # os and the tiles are reversal-symmetric: each pair is one iteration
            for i, res in enumerate(got[:len(got) // 2], start=1):
                partner = got[len(got) - i]
                assert res.norm == partner.norm and res.iterations == partner.iterations
                assert np.array_equal(res.eigenvector, partner.eigenvector[::-1])


def test_mirror_is_not_used_where_a_mask_breaks_it():
    g = os_adversary(9)
    table = g.problem.char_table().copy()
    table[8, 6] = table[0, 6]  # instance 9 now agrees with instance 1 at position 7
    stand_in = types.SimpleNamespace(
        problem=types.SimpleNamespace(char_table=lambda: table), matrix=g.matrix)
    got = masked_norms(stand_in)
    want = [power_norm(g.matrix.entries * (table[:, i, None] != table[None, :, i])).norm
            for i in range(9)]
    for i in range(9):
        assert got[i].norm == pytest.approx(want[i], rel=1e-13), i + 1
    # reusing position 3 for position 7 would have been wrong
    assert abs(want[6] - want[2]) > 1e-3 * want[2]
    assert got[3].norm == got[5].norm  # the intact pairs still share

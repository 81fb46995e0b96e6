"""Adversary matrices and spectral lower-bound evaluation.

An adversary matrix for a problem is a nonnegative symmetric matrix over its
instances that vanishes on same-answer pairs.  The ratio

    ||Gamma|| / max_i ||Gamma o D_i||

(with D_i the position-i distinguisher) times ``1 - 2*sqrt(eps*(1-eps))``
lower-bounds the eps-error quantum query complexity.  This module builds the
explicit candidates used throughout the package:

  * ``hilbert_tile(m)``      -- the m x m tile with entries 1/(|i-j|+1);
  * ``os_adversary(m)``      -- the same weights off-diagonal, over ordered
                                search instances;
  * ``uniform_from_tile``    -- expands an m x m tile to a full uniform
                                adversary matrix for a search labeling;
  * ``compose_adversary``    -- the tensor-structured adversary matrix of a
                                block composition, whose norm factorizes as
                                ||Gamma_f|| * prod_i ||A_i||;
  * ``composed_sa_ratio``    -- the ratio of that composition with one tile
                                repeated, computed from the factors alone;
  * ``symmetrize``           -- averages a matrix over all permutations of
                                the answer alphabet, yielding a uniform
                                matrix that is never a worse candidate.

Ratios are *evaluated* for these explicit candidates; no optimization over
all adversary matrices is attempted (a lower bound needs no optimality).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .matrices import LabeledMatrix, SpectralResult, int_labels, power_norms, spectral_norm
from .problems import (
    ComposedProblem,
    QueryProblem,
    SearchLabeling,
    Sym,
    compose,
    make_hsos,
    restrict_labeling,
)

logger = logging.getLogger(__name__)

# Bytes of masked matrices per power-iteration stack: from d = 257 on each
# position runs alone, which keeps it hot in L2 and peak memory flat.
STACK_BYTES = 1 << 20
# Mirror positions that masked_norms does not pair (in a composed matrix, say)
# tie up to rounding: the worst position is the first one this close to the max.
TIE_RTOL = 1e-12


class AdversaryError(ValueError):
    """Invalid adversary matrix or unusable candidate."""


@dataclass(frozen=True)
class AdversaryMatrix:
    """A labeled matrix paired with the problem whose instances index it."""

    matrix: LabeledMatrix
    problem: QueryProblem

    def __post_init__(self):
        if self.matrix.labels != self.problem.instances:
            raise AdversaryError("matrix labels do not match problem instances")
        ans = self.problem.answers_in_order()
        ids = {}
        ans_idx = np.array([ids.setdefault(a, len(ids)) for a in ans])
        same = ans_idx[:, None] == ans_idx[None, :]
        bad = np.argwhere(same & (self.matrix.entries != 0.0))
        if len(bad):
            i, j = map(int, bad[0])
            raise AdversaryError(
                f"nonzero entry at same-answer pair "
                f"({self.problem.instances[i]!r}, {self.problem.instances[j]!r})"
            )

    @property
    def dim(self) -> int:
        return self.matrix.dim


@dataclass(frozen=True)
class Tile:
    """m x m core of a uniform adversary matrix, indexed by variant."""

    matrix: LabeledMatrix
    labeling: SearchLabeling

    def __post_init__(self):
        if self.matrix.dim != self.labeling.variants:
            raise AdversaryError(
                f"tile dim {self.matrix.dim} != {self.labeling.variants} variants"
            )


@dataclass(frozen=True)
class BoundReport:
    """One evaluated spectral-adversary ratio and the implied query bound."""

    numerator: float
    denominator: float
    sa_value: float
    worst_position: int
    epsilon: float
    query_lower_bound: float


def error_factor(eps: float) -> float:
    """The eps-error prefactor ``1 - 2*sqrt(eps*(1-eps))``."""
    if not 0.0 < eps < 0.5:
        raise AdversaryError(f"epsilon must be in (0, 1/2), got {eps}")
    return 1.0 - 2.0 * math.sqrt(eps * (1.0 - eps))


def hsos_labeling(m: int) -> SearchLabeling:
    """Canonical search labeling of hidden-symbol ordered search.

    (sigma, j) names the instance RT^(j-1) sigma LT^(m-j).  Built in closed
    form; ``detect_search_labeling(make_hsos(m))`` recovers the same
    labeling and is exercised in the tests.
    """
    p = make_hsos(m)
    answers = (Sym.UP, Sym.DN, Sym.ST)
    instance_of = {
        (sigma, j): bytes([Sym.RT]) * (j - 1) + bytes([sigma]) + bytes([Sym.LT]) * (m - j)
        for sigma in answers
        for j in range(1, m + 1)
    }
    return SearchLabeling(problem=p, variants=m, answers=answers,
                          instance_of=instance_of)


def inverse_distance(m: int) -> np.ndarray:
    """m x m float array with entries 1/(|i-j|+1), each correctly rounded."""
    idx = np.arange(m)
    return 1.0 / (np.abs(idx[:, None] - idx[None, :]) + 1)


def hilbert_tile(m: int) -> Tile:
    """Tile with entries 1/(|i-j|+1), over the HSOS_m labeling."""
    mat = LabeledMatrix(int_labels(m), inverse_distance(m), name=f"A_{m}")
    return Tile(matrix=mat, labeling=hsos_labeling(m))


def _labeling_chars(lab: SearchLabeling) -> np.ndarray:
    """(|Sigma|, m, length) characters of the instances (sigma, j)."""
    raw = b"".join(lab.instance_of[(s, j)] for s in lab.answers for j in range(1, lab.variants + 1))
    return np.frombuffer(raw, dtype=np.uint8).reshape(
        len(lab.answers), lab.variants, lab.problem.length)


def _position_masks(chars: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """(k, d, d) boolean distinguishers at ``positions``, in one broadcast.

    ``chars`` is a problem's char table as one group, or a tile labeling's
    characters grouped by answer, where every ordered pair of groups must
    give the same mask (:func:`tile_distinguisher`)."""
    length = chars.shape[-1]
    for i in positions:
        if not 1 <= i <= length:
            raise AdversaryError(f"position {i} out of range 1..{length}")
    cols = chars[:, :, np.asarray(positions, dtype=np.intp) - 1].transpose(0, 2, 1)

    def diff(s1, s2):
        return cols[s1][:, :, None] != cols[s2][:, None, :]

    if len(cols) == 1:
        return diff(0, 0)
    # pair (s2, s1) gives the transpose of pair (s1, s2), so a symmetric
    # first mask that every unordered pair matches is matched by all pairs
    out = diff(0, 1)
    if not (np.array_equal(out, out.transpose(0, 2, 1)) and all(
            np.array_equal(out, diff(s1, s2))
            for s1, s2 in list(itertools.combinations(range(len(cols)), 2))[1:])):
        # the first witness in order of position, answer pair, variant pair
        t, _, a, b = min((w[0][0], n, w[0][1], w[0][2]) for n, w in enumerate(
            np.argwhere(out != diff(s1, s2))
            for s1, s2 in itertools.permutations(range(len(cols)), 2)) if len(w))
        raise AdversaryError(
            f"equality pattern at position {positions[t]} not well-defined for "
            f"variants ({a + 1}, {b + 1})"
        )
    return out


def tile_distinguisher(lab: SearchLabeling, i: int) -> LabeledMatrix:
    """m x m 0/1 matrix: entry (a, b) is 1 iff instances (sigma1, a) and
    (sigma2, b) differ at position i for every pair sigma1 != sigma2.

    Raises if the answer pairs disagree, which would mean ``lab`` is not a
    valid search labeling.
    """
    mask = _position_masks(_labeling_chars(lab), [i])[0]
    return LabeledMatrix(int_labels(lab.variants), mask.astype(np.float64), name=f"D^A_{i}")


def uniform_from_tile(lab: SearchLabeling, t: Tile) -> AdversaryMatrix:
    """Expand a tile to the full uniform adversary matrix: entry
    ((sigma1, a), (sigma2, b)) is A[a, b] when sigma1 != sigma2, else 0."""
    if t.matrix.dim != lab.variants:
        raise AdversaryError("tile dimension does not match labeling variants")
    p = lab.problem
    pair_of = lab.pair_of
    pairs = [pair_of[s] for s in p.instances]
    var = np.array([j - 1 for _, j in pairs])
    ids: dict = {}
    ans = np.array([ids.setdefault(a, len(ids)) for a, _ in pairs])
    ent = t.matrix.entries[np.ix_(var, var)].copy()
    ent[ans[:, None] == ans[None, :]] = 0.0
    mat = LabeledMatrix(p.instances, ent, name=f"uniform({t.matrix.name})")
    return AdversaryMatrix(matrix=mat, problem=p)


def tile_of_uniform(g: AdversaryMatrix, lab: SearchLabeling) -> Tile:
    """Inverse of ``uniform_from_tile``; errors with a witness entry pair if
    ``g`` is not uniform with respect to ``lab``."""
    m, ans = lab.variants, lab.answers
    idx = {s: r for r, s in enumerate(g.problem.instances)}
    order = [idx[lab.instance_of[(s, j)]] for s in ans for j in range(1, m + 1)]
    # blk[a, b, s1, s2] is the entry at ((s1, a), (s2, b)); row-major order
    # over it is the order in which witnesses are looked for
    blk = g.matrix.entries[np.ix_(order, order)].reshape(
        len(ans), m, len(ans), m).transpose(1, 3, 0, 2)
    tile = blk[:, :, 0, 1].copy() if len(ans) > 1 else np.zeros((m, m))
    bad = np.argwhere(np.where(np.eye(len(ans), dtype=bool), blk != 0.0,
                               blk != tile[:, :, None, None]))
    if len(bad):
        a, b, s1, s2 = bad[0]
        where = f"(({ans[s1]},{a + 1}),({ans[s2]},{b + 1}))"
        if s1 == s2:
            raise AdversaryError(f"nonzero same-answer entry at {where}")
        raise AdversaryError(
            f"not uniform: entry {where}={blk[a, b, s1, s2]} differs from "
            f"(({ans[0]},{a + 1}),({ans[1]},{b + 1}))={tile[a, b]}"
        )
    return Tile(matrix=LabeledMatrix(int_labels(m), tile, name="tile"), labeling=lab)


def os_adversary(m: int) -> AdversaryMatrix:
    """Adversary matrix for ordered search: 1/(|x-y|+1) off the diagonal."""
    from .problems import make_os

    p = make_os(m)
    ent = inverse_distance(m)
    np.fill_diagonal(ent, 0.0)
    mat = LabeledMatrix(p.instances, ent, name=f"Gamma_OS_{m}")
    return AdversaryMatrix(matrix=mat, problem=p)


def _tile_block(t: Tile, tile_float: np.ndarray, cx: int, cy: int,
                tile_norm: float) -> np.ndarray:
    """Block of the composition for inner answer chars (cx, cy), rows/cols in
    the order the composition enumerates the preimages."""
    m = t.labeling.variants
    if cx == cy:
        return tile_norm * np.eye(m)
    g = t.labeling.problem
    pair_of = t.labeling.pair_of
    rows = [pair_of[s][1] - 1 for s in g.instances if g.answer[s] == Sym(cx)]
    cols = [pair_of[s][1] - 1 for s in g.instances if g.answer[s] == Sym(cy)]
    return tile_float[np.ix_(rows, cols)]


def compose_adversary(outer: AdversaryMatrix, tiles: Sequence[Tile]) -> AdversaryMatrix:
    """Tensor-structured adversary matrix for the block composition.

    Entry (x, y) is Gamma_f[xt, yt] times the product over blocks d of
    either A_d[j_d(x), j_d(y)] (when the outer characters differ at d) or
    ||A_d|| * [j_d(x) == j_d(y)] (when they agree).  Same-outer-answer rows
    are zero because Gamma_f vanishes there, so the result is a valid
    adversary matrix for the composition.
    """
    f = outer.problem
    if len(tiles) != f.length:
        raise AdversaryError(f"need {f.length} tiles, got {len(tiles)}")
    h = compose(f, [t.labeling.problem for t in tiles])
    gf = outer.matrix.to_float()
    tile_floats = [t.matrix.to_float() for t in tiles]
    tile_norms = [spectral_norm(t.matrix).norm for t in tiles]
    block_cache: list[dict] = [{} for _ in tiles]

    def block(d: int, cx: int, cy: int) -> np.ndarray:
        key = (cx, cy)
        if key not in block_cache[d]:
            block_cache[d][key] = _tile_block(
                tiles[d], tile_floats[d], cx, cy, tile_norms[d]
            )
        return block_cache[d][key]

    sizes = [t.labeling.variants for t in tiles]
    bs = math.prod(sizes)
    n_outer = f.size
    ent = np.zeros((n_outer * bs, n_outer * bs))
    for a, x in enumerate(f.instances):
        for b, y in enumerate(f.instances):
            if gf[a, b] == 0.0:
                continue
            k = block(0, x[0], y[0])
            for d in range(1, len(tiles)):
                k = np.kron(k, block(d, x[d], y[d]))
            ent[a * bs:(a + 1) * bs, b * bs:(b + 1) * bs] = gf[a, b] * k
    mat = LabeledMatrix(h.instances, ent, name="Gamma_h")
    return AdversaryMatrix(matrix=mat, problem=h)


def composed_principal_vector(outer: AdversaryMatrix, tiles: Sequence[Tile],
                              composed: ComposedProblem,
                              tol: float = 1e-9) -> np.ndarray:
    """Eigenvector of the composed matrix built from the factors' principal
    eigenvectors: component at x is delta_f[xt] * prod_d delta_d[j_d(x)]."""
    df = spectral_norm(outer.matrix, tol).eigenvector
    dts = [spectral_norm(t.matrix, tol).eigenvector for t in tiles]
    f_index = {s: r for r, s in enumerate(outer.problem.instances)}
    labs = [t.labeling for t in tiles]
    pair_maps = [lab.pair_of for lab in labs]
    out = np.empty(composed.size)
    for r, s in enumerate(composed.instances):
        v = df[f_index[composed.tilde[s]]]
        for d, blk in enumerate(composed.blocks(s)):
            v *= dts[d][pair_maps[d][blk][1] - 1]
        out[r] = v
    return out


def masked_norms(g: AdversaryMatrix | Tile, tol: float = 1e-9,
                 positions: Sequence[int] | None = None,
                 v0: np.ndarray | None = None) -> list[SpectralResult]:
    """Power iteration of ``g o D_i`` at each position i (default: all), in
    stacks of at most ``STACK_BYTES``.  Masks come from the char table of an
    :class:`AdversaryMatrix`, or by :func:`tile_distinguisher`'s rule for a
    :class:`Tile` (an invalid labeling raises).  ``v0``: one warm start per
    position, read only at the positions iterated.  Mirror pairs: where index
    reversal maps the entries to themselves and D_{L+1-i} to D_i exactly, a
    position i > L+1-i takes its partner's result, eigenvector reversed."""
    return _masked_norms(g, tol, positions, v0)


def _masked_norms(g: AdversaryMatrix | Tile, tol: float, positions: Sequence[int] | None,
                  v0: np.ndarray | None, unmasked: bool = False) -> list[SpectralResult]:
    """:func:`masked_norms`, preceded, if ``unmasked`` (with ``v0`` None), by
    :func:`spectral_norm` of ``g``'s matrix as one more slice of the first stack."""
    chars = _labeling_chars(g.labeling) if isinstance(g, Tile) else g.problem.char_table()[None]
    length = chars.shape[-1]
    positions = list(range(1, length + 1) if positions is None else positions)
    ent = g.matrix.entries
    # flipped chars give, at i, the position-(L+1-i) mask reversed
    flip = chars[:, ::-1, ::-1] if np.array_equal(ent, ent[::-1, ::-1]) else None
    step = max(1, STACK_BYTES // (8 * max(len(ent), 1) ** 2))
    keys: list[int] = [0] if unmasked else []  # per result, the position iterated for it
    # (position, mask, warm start) queued for the next stack; position 0 is no mask
    todo: list = [(0, np.ones(ent.shape, dtype=bool), None)] if unmasked else []
    done: dict[int, SpectralResult] = {}
    for c in range(0, max(len(positions), 1), step):  # one pass flushes the unmasked slice
        chunk = positions[c:c + step]
        masks = _position_masks(chars, chunk)  # validates in position order
        if flip is not None:
            fc = flip[:, :, np.asarray(chunk, dtype=np.intp) - 1].transpose(0, 2, 1)
            mirror = (masks == (fc[0][:, :, None] != fc[-1][:, None, :])).all(axis=(1, 2))
        for t, i in enumerate(chunk):
            flipped = flip is not None and 2 * i > length + 1 and bool(mirror[t])
            key, s = (length + 1 - i, -1) if flipped else (i, 1)
            if key not in keys:
                todo.append((key, masks[t, ::s, ::s], None if v0 is None else v0[c + t][::s]))
            keys.append(key)
        while len(todo) >= step or (todo and c + step >= len(positions)):
            run, todo = todo[:step], todo[step:]
            done.update(zip([k for k, _, _ in run], power_norms(
                ent * np.stack([m for _, m, _ in run]), tol=tol,
                v0=None if v0 is None else np.stack([w for _, _, w in run]),
                names=[f"{g.matrix.name or 'Gamma'}∘D_{k}" if k else g.matrix.name
                       for k, _, _ in run])))
    return [done[k] if k == i else replace(done[k], eigenvector=done[k].eigenvector[::-1])
            for i, k in zip([0] * unmasked + positions, keys)]


def masked_norm(g: AdversaryMatrix | Tile, i: int, tol: float = 1e-9) -> float:
    """||Gamma o D_i||: the norm of ``g`` masked by its position-i distinguisher."""
    return masked_norms(g, tol, [i])[0].norm


def _max_masked_norm(g: AdversaryMatrix | Tile, tol: float) -> tuple[float, float, int]:
    """||g||, the largest ||g o D_i|| over all positions, and the first
    position within ``TIE_RTOL`` of it (0 when every product vanishes)."""
    whole, *masked = _masked_norms(g, tol, None, None, unmasked=True)
    norms = np.array([r.norm for r in masked])
    best = float(norms.max(initial=0.0))
    return (whole.norm, best,
            int(np.argmax(norms >= best * (1.0 - TIE_RTOL))) + 1 if best > 0.0 else 0)


def _bound_report(numerator: float, denominator: float, worst: int,
                  eps: float, factor: float) -> BoundReport:
    if denominator == 0.0:
        raise AdversaryError(
            "all distinguisher products vanish: instances with different "
            "answers are indistinguishable"
        )
    sa = numerator / denominator
    return BoundReport(
        numerator=numerator,
        denominator=denominator,
        sa_value=sa,
        worst_position=worst,
        epsilon=eps,
        query_lower_bound=factor * sa,
    )


def sa_ratio(g: AdversaryMatrix | Tile, eps: float = 1.0 / 3.0,
             tol: float = 1e-9) -> BoundReport:
    """Evaluate ||Gamma|| / max_i ||Gamma o D_i|| for this candidate and the
    implied eps-error quantum query lower bound.  ``worst_position`` is the
    first position within ``TIE_RTOL`` of the maximum.  A :class:`Tile` A gives
    the ratio of its uniform expansion P((J-I) (x) A)P^T, masked by
    P((J-I) (x) (A o D^A_i))P^T: rho((J-I) (x) B) = (|Sigma|-1) rho(B) for
    nonnegative symmetric B, so both norms are (|Sigma|-1) times the tile's."""
    factor = error_factor(eps)
    k = len(g.labeling.answers) - 1 if isinstance(g, Tile) else 1
    numerator, denominator, worst = _max_masked_norm(g, tol)
    return _bound_report(k * numerator, k * denominator, worst, eps, factor)


def composed_sa_ratio(outer: AdversaryMatrix, tile: Tile, eps: float = 1.0 / 3.0,
                      tol: float = 1e-9) -> BoundReport:
    """``sa_ratio(compose_adversary(outer, [tile] * a))`` from the factors,
    without building the composed matrix (a = length of the outer problem).

    The composition identities give ||Gamma_h|| = ||Gamma_f|| * ||A||^a and,
    for position i at offset q of block p,
    ||Gamma_h o D_i|| = ||Gamma_f o D_p|| * ||A o D_q|| * ||A||^(a-1).
    Every factor is nonnegative, so the maximum over (p, q) is the outer
    maximum times the tile maximum.  The reported position is
    (p* - 1) * b + q*, with p* and q* the worst outer and tile positions and
    b the tile's problem length.  A numerator beyond the float64 range raises
    :class:`AdversaryError`.
    """
    factor = error_factor(eps)
    a = outer.problem.length
    b = tile.labeling.problem.length
    fnorm, fden, p_worst = _max_masked_norm(outer, tol)
    anorm, aden, q_worst = _max_masked_norm(tile, tol)
    try:
        numerator = fnorm * anorm ** a
    except OverflowError:
        numerator = math.inf
    if not math.isfinite(numerator):
        raise AdversaryError(f"numerator ||{outer.matrix.name}|| * ||{tile.matrix.name}||^{a} "
                             "exceeds the float64 range")
    return _bound_report(numerator, fden * aden * anorm ** (a - 1),
                         (p_worst - 1) * b + q_worst, eps, factor)


def symmetrize(g: AdversaryMatrix, lab: SearchLabeling,
               tol: float = 1e-9, zero_threshold: float = 1e-12) -> AdversaryMatrix:
    """Average ``g`` over all permutations of the answer alphabet.

    Implements the elementwise average of row/column-permuted copies of
    Gamma, weighted by the correspondingly permuted principal eigenvector
    and normalized by the per-instance weight beta.  Because the group is
    all |Sigma|! permutations, the sum collapses to a sum over ordered
    answer pairs with a common factorial factor, which we use directly: the
    output is then uniform *exactly*, not merely up to rounding.

    Variants where the eigenvector is below ``zero_threshold`` for every
    answer are dropped first (they contribute nothing to the ratio); a
    warning is logged when that happens.  The answer alphabet is capped at 6
    symbols.
    """
    sig = lab.answers
    k = len(sig)
    if k > 6:
        raise AdversaryError(f"answer alphabet of size {k} > 6 not supported")
    p = g.problem
    m = lab.variants
    garr = g.matrix.to_float()
    res = spectral_norm(g.matrix, tol)
    delta = np.maximum(res.eigenvector, 0.0)
    if res.norm > 0:
        # A zero row forces a zero eigenvector entry exactly (lam*d[x] = 0),
        # so snap those before thresholding.
        delta[~(garr != 0.0).any(axis=1)] = 0.0
    idx = {s: r for r, s in enumerate(p.instances)}
    dmat = np.array(
        [[delta[idx[lab.instance_of[(sigma, j)]]] for j in range(1, m + 1)]
         for sigma in sig]
    )  # (k, m)
    keep = [j for j in range(1, m + 1) if (dmat[:, j - 1] >= zero_threshold).any()]
    if len(keep) < m:
        logger.warning(
            "symmetrize: dropping %d variant(s) with vanishing eigenvector: %s",
            m - len(keep), [j for j in range(1, m + 1) if j not in keep],
        )
        lab = restrict_labeling(lab, keep)
        dmat = dmat[:, [j - 1 for j in keep]]
        p = lab.problem
        m = lab.variants
    if k == 1:
        tile = LabeledMatrix(int_labels(m), np.zeros((m, m)), name="tile")
        return uniform_from_tile(lab, Tile(matrix=tile, labeling=lab))
    order = [idx[lab.instance_of[(sigma, j)]] for sigma in sig for j in range(1, m + 1)]
    P = garr[np.ix_(order, order)].reshape(k, m, k, m)
    full = np.einsum("iajb,ia,jb->ab", P, dmat, dmat)
    same = np.einsum("iaib,ia,ib->ab", P, dmat, dmat)  # exactly zero for a valid g
    wsq = (dmat ** 2).sum(axis=0)
    # (k-2)!/( (k-1)! sqrt(wsq_a wsq_b) ) = 1/((k-1) sqrt(wsq_a wsq_b))
    denom = (k - 1) * np.sqrt(wsq[:, None] * wsq[None, :])
    tile_entries = (full - same) / denom
    tile_entries = 0.5 * (tile_entries + tile_entries.T)
    tile = LabeledMatrix(int_labels(m), tile_entries, name="symmetrized tile")
    return uniform_from_tile(lab, Tile(matrix=tile, labeling=lab))


def denominator_identity_mismatches(outer: AdversaryMatrix, tiles: Sequence[Tile],
                                    position: int, limit: int = 3) -> list[str]:
    """Entries where the elementwise denominator identity fails (empty if none).

    The identity says that masking the composed matrix by the position-i
    distinguisher, with i at offset q of block p, gives entry by entry the
    composition generated by Gamma_f o D_p, the unchanged tiles, and
    A_p o D_q in block p.  Take a pair (x, y) of composed instances.  Both
    sides share Gamma_f[xt, yt] and every block factor d != p, and they
    agree in block p up to the mask:

      * if the outer characters agree at p, the right side carries
        D_p[xt, yt] = 0; on the support of Gamma_h the block-p inner
        instances of x and y are then equal, so x_i = y_i and the left side
        is 0 too;
      * if they differ, the left side is Gamma_h[x, y] * [x_i != y_i] and
        the right side Gamma_h[x, y] * D_q[j_p(x), j_p(y)].

    Off the support of Gamma_h both sides vanish.  So the identity holds
    exactly when, wherever Gamma_h[x, y] != 0,

      [x_i != y_i] == [xt_p != yt_p] and D_q[j_p(x), j_p(y)],

    a statement about 0/1 masks that is checked in booleans, with no
    rounding.  ``D_q`` comes from :func:`tile_distinguisher`, so an invalid
    search labeling still raises.
    """
    gam = compose_adversary(outer, tiles)
    h = gam.problem
    p_blk, q = h.block_of_position(position)
    lab = tiles[p_blk - 1].labeling
    dq = tile_distinguisher(lab, q).entries != 0.0
    lo, hi = h.spans[p_blk - 1]
    jp = np.array([lab.pair_of[s[lo:hi]][1] - 1 for s in h.instances])
    outer_char = np.array([h.tilde[s][p_blk - 1] for s in h.instances])
    col = h.char_table()[:, position - 1]
    lhs = col[:, None] != col[None, :]
    rhs = (outer_char[:, None] != outer_char[None, :]) & dq[np.ix_(jp, jp)]
    bad = np.argwhere((gam.matrix.entries != 0.0) & (lhs != rhs))
    return [
        f"position {position}, pair ({x},{y}): [x_i != y_i] = {bool(lhs[x, y])} "
        f"but [xt_p != yt_p] and D_{q}[j_p(x), j_p(y)] = {bool(rhs[x, y])}"
        for x, y in bad[:limit].tolist()
    ]

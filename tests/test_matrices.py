"""Spectral core: norms, masked and Kronecker products, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarskilab import (
    LabeledMatrix,
    MatrixError,
    SpectralConvergenceError,
    int_labels,
    power_norm,
    spectral_norm,
)
from tarskilab.matrices import EIGH_MAX_DIM, power_norms

H2 = LabeledMatrix.from_rows(int_labels(2), [[1, 1 / 2], [1 / 2, 1]], name="A_2")


def random_symmetric(rng, d):
    raw = rng.random((d, d))
    return LabeledMatrix(int_labels(d), (raw + raw.T) / 2)


def test_zero_matrix_norm():
    z = LabeledMatrix.from_rows([b"0"], [[0.0]])
    assert spectral_norm(z).norm == 0.0


def test_two_by_two_closed_form():
    res = spectral_norm(H2)
    assert res.norm == pytest.approx(1.5, abs=1e-12)
    assert np.all(res.eigenvector >= -1e-9)


def test_three_by_three_against_dense_oracle():
    rows = [
        [1, 1 / 2, 1 / 3],
        [1 / 2, 1, 1 / 2],
        [1 / 3, 1 / 2, 1],
    ]
    m = LabeledMatrix.from_rows(int_labels(3), rows)
    res = spectral_norm(m, tol=1e-12)
    oracle = np.linalg.eigvalsh(m.to_float())[-1]
    assert res.norm == pytest.approx(oracle, rel=1e-9)
    # closed form: largest root of 6*lam^2 - 14*lam + 5
    assert res.norm == pytest.approx((7 + math.sqrt(19)) / 6, rel=1e-9)
    assert res.norm == pytest.approx(1.89315, abs=1e-5)


def test_residual_invariant():
    rng = np.random.default_rng(7)
    for d in (2, 5, 9):
        m = random_symmetric(rng, d)
        res = spectral_norm(m, tol=1e-10)
        arr = m.to_float()
        direct = np.linalg.norm(arr @ res.eigenvector - res.norm * res.eigenvector)
        assert direct <= res.residual + 1e-12
        assert res.residual <= 1e-10 * max(res.norm, 1e-30)


def test_rayleigh_lower_bound_all_ones():
    rng = np.random.default_rng(3)
    for d in (3, 6, 11):
        m = random_symmetric(rng, d)
        x = np.ones(d)
        assert spectral_norm(m).norm >= x @ m.entries @ x / (x @ x) - 1e-9


# The 2x2 swap converges exactly at iteration 0 from its eigh start; this
# 34x34 one lies above EIGH_MAX_DIM, so the iterative loop runs.
BIG_SWAP = np.kron([[0.0, 1.0], [1.0, 0.0]], np.ones((17, 17)))


def test_convergence_failure_reports_residual():
    m = LabeledMatrix(int_labels(34), BIG_SWAP, name="swap")
    with pytest.raises(SpectralConvergenceError, match="swap"):
        spectral_norm(m, tol=1e-12, max_iterations=0)


def test_hadamard_monotone_in_mask():
    rng = np.random.default_rng(5)
    a = random_symmetric(rng, 6)
    b = random_symmetric(rng, 6)
    bigger_raw = b.to_float() + random_symmetric(rng, 6).to_float()
    bigger = LabeledMatrix(b.labels, bigger_raw)
    assert (
        power_norm(a.entries * b.entries).norm
        <= power_norm(a.entries * bigger.entries).norm + 1e-9
    )


def test_tensor_norm_multiplicative_example():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    prod = np.kron(swap, H2.entries)
    assert power_norm(prod).norm == pytest.approx(1.5, rel=1e-9)
    oracle = np.linalg.eigvalsh(prod)[-1]
    assert power_norm(prod).norm == pytest.approx(oracle, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
def test_tensor_norm_multiplicative_random(da, db, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, da)
    b = random_symmetric(rng, db)
    na = spectral_norm(a).norm
    nb = spectral_norm(b).norm
    nab = power_norm(np.kron(a.entries, b.entries)).norm
    assert nab == pytest.approx(na * nb, rel=1e-8, abs=1e-12)


def test_validation_rejects_asymmetric_and_negative():
    with pytest.raises(MatrixError, match="symmetric"):
        LabeledMatrix.from_rows(int_labels(2), [[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(MatrixError, match="negative"):
        LabeledMatrix.from_rows(int_labels(2), [[1.0, -0.5], [-0.5, 1.0]])
    with pytest.raises(MatrixError, match="distinct"):
        LabeledMatrix.from_rows((b"a", b"a"), [[1.0, 0.0], [0.0, 1.0]])


def test_json_roundtrip():
    again = LabeledMatrix.from_json(H2.to_json())
    assert again.entries[0, 1] == 1 / 2
    assert again.labels == H2.labels
    f = LabeledMatrix.from_rows(int_labels(2), [[0.25, 0.125], [0.125, 1.0]])
    back = LabeledMatrix.from_json(f.to_json())
    assert back.entries.dtype == np.float64
    assert np.array_equal(back.entries, f.entries)
    third = LabeledMatrix.from_rows(int_labels(1), [[1 / 3]])
    assert LabeledMatrix.from_json(third.to_json()).entries[0, 0] == 1 / 3


def test_entries_are_float64():
    m = LabeledMatrix(int_labels(2), np.array([[0, 1], [1, 0]]))
    assert m.entries.dtype == np.float64
    assert not m.entries.flags.writeable


@pytest.mark.parametrize("entry", ["1/3", True, None, [1]])
def test_json_rejects_non_numbers(entry):
    text = json.dumps({"dim": 1, "labels": ["1"], "entries": [[entry]]})
    with pytest.raises(MatrixError, match=r"entry \(0, 0\)"):
        LabeledMatrix.from_json(text)


def scalar_power_norm(A, tol=1e-9):
    """One slice by the scalar loop the stacked kernel replaced: norm and
    iteration count."""
    d = A.shape[0]
    v = np.ones(d)
    v[0] += 1e-6
    v /= math.sqrt(v.dot(v))
    it = 0
    while True:
        Mv = A @ v
        lam = float(v @ Mv)
        r = Mv - lam * v
        if not math.sqrt(r.dot(r)) > tol * max(lam, 1e-30):
            return max(lam, 0.0), it
        it += 1
        w = Mv + max(lam, 1e-30) * v
        v = w / math.sqrt(w.dot(w))


def random_stack(rng, k, d):
    """Nonnegative symmetric slices: dense, sparse and reducible ones with
    zero rows, and an all-zero slice."""
    raw = rng.random((k, d, d)) * (rng.random((k, d, d)) < rng.random((k, 1, 1)))
    S = raw + raw.transpose(0, 2, 1)
    for j in range(0, k, 3):
        dead = rng.random(d) < 0.3  # zero rows and columns
        S[j, dead, :] = S[j, :, dead] = 0.0
    S[k // 2] = 0.0
    return S


@pytest.mark.parametrize("d", [1, 2, 5, 17, 40])
def test_stacked_power_norms_match_single_slices(d):
    rng = np.random.default_rng(d)
    S = random_stack(rng, 9, d)
    stacked = power_norms(S, tol=1e-10)
    for A, res in zip(S, stacked):
        single = power_norm(A, tol=1e-10)
        top = np.linalg.eigvalsh(A)[-1]
        if d <= EIGH_MAX_DIM:  # the eigh start passes the stop rule
            assert res.iterations == single.iterations == 0
            others = (single.norm, top)
        else:  # the scalar loop's steps
            ref_norm, ref_iters = scalar_power_norm(A, tol=1e-10)
            assert res.iterations == single.iterations == ref_iters
            others = (single.norm, ref_norm)
            assert res.norm == pytest.approx(top, rel=1e-8, abs=1e-12)
        for other in others:
            assert abs(res.norm - other) <= 1e-13 * max(other, 1e-300)
    assert stacked[4].norm == 0.0 and stacked[4].iterations == 0


def structured_slices(rng, d):
    """For d >= 2: block-diagonal slices with equal top eigenvalues (with a
    zero row when d is odd) and bipartite slices with lambda_min = -lambda_max."""
    h = d // 2
    out = []
    for _ in range(2):
        raw = rng.random((h, h))
        B = raw + raw.T
        twin = np.zeros((d, d))
        twin[:h, :h] = twin[h:2 * h, h:2 * h] = B
        C = rng.random((h, d - h))
        bip = np.zeros((d, d))
        bip[:h, h:] = C
        bip[h:, :h] = C.T
        out += [twin, bip]
    return np.array(out)


@pytest.mark.parametrize("d", [1, 2, 31, 32, 33, 40])
def test_power_norms_are_certified_on_both_sides_of_the_eigh_bound(d):
    rng = np.random.default_rng(100 + d)
    S = random_stack(rng, 7, d)
    if d >= 2:
        S = np.concatenate([S, structured_slices(rng, d)])
    tol = 1e-9
    stacked = power_norms(S, tol=tol)
    for A, res in zip(S, stacked):
        top = np.linalg.eigvalsh(A)[-1]
        assert abs(res.norm - top) <= 1e-13 * max(top, 1e-300)
        v = res.eigenvector
        assert np.all(v >= 0.0)
        direct = np.linalg.norm(A @ v - res.norm * v)
        assert direct <= res.residual + 1e-12
        assert res.residual <= tol * max(res.norm, 1e-30)
        alone = power_norm(A, tol=tol)
        assert alone.iterations == res.iterations
        assert abs(alone.norm - res.norm) <= 1e-13 * max(res.norm, 1e-300)
        if d <= EIGH_MAX_DIM:
            assert res.iterations == 0
    assert stacked[3].norm == 0.0  # the all-zero slice


def test_stacked_power_norms_warm_starts_and_cold_rows():
    d = EIGH_MAX_DIM + 8  # v0 is read only above the eigh bound
    rng = np.random.default_rng(5)
    S = random_stack(rng, 4, d)
    cold = power_norms(S)
    warm = power_norms(S, v0=np.array([r.eigenvector for r in cold]))
    for w, c in zip(warm, cold):
        assert w.iterations <= c.iterations and w.norm == pytest.approx(c.norm, rel=1e-8)
    assert sum(w.iterations for w in warm) < sum(c.iterations for c in cold)
    zero_row = power_norms(S, v0=np.zeros((4, d)))  # a zero row starts cold
    assert [r.iterations for r in zero_row] == [r.iterations for r in cold]


@pytest.mark.parametrize("tol", [math.nan, math.inf, 1.0, 0.0, -1.0])
def test_tol_outside_open_unit_interval_raises(tol):
    # such a tol would stop the iteration at step 0 with an unconverged norm
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        power_norms(H2.entries[None], tol=tol)
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        spectral_norm(H2, tol=tol)


def test_stacked_cap_error_names_the_unconverged_slice():
    with pytest.raises(SpectralConvergenceError, match="on second did not reach"):
        power_norms(np.stack([np.zeros((34, 34)), BIG_SWAP]), tol=1e-12, max_iterations=0,
                    names=["first", "second"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad):
    A = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match=r"slice 1 \(second\) has a non-finite entry"):
        power_norms(np.stack([H2.entries, A]), names=["first", "second"])
    with pytest.raises(ValueError, match=r"slice 0 \(2x2 matrix\) has a non-finite entry"):
        power_norm(A)
    with pytest.raises(MatrixError, match=r"Q: entry \(0, 1\) is .*, not finite"):
        LabeledMatrix(int_labels(2), A, name="Q")
    text = json.dumps({"dim": 2, "labels": ["1", "2"], "entries": [[1.0, 0.0], [0.0, bad]]})
    with pytest.raises(MatrixError, match=r"entry \(1, 1\) is .*, not finite"):
        LabeledMatrix.from_json(text)

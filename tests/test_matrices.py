"""Spectral core: norms, Hadamard and tensor products, serialization."""

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
    hadamard,
    int_labels,
    rayleigh_quotient,
    spectral_norm,
    tensor,
)

H2 = LabeledMatrix.from_rows(int_labels(2), [[1, 1 / 2], [1 / 2, 1]], name="A_2")


def random_symmetric(rng, d):
    raw = rng.random((d, d))
    # dot-terminated labels stay distinct under tensor concatenation
    labels = tuple(f"{i}.".encode() for i in range(1, d + 1))
    return LabeledMatrix(labels, (raw + raw.T) / 2)


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
        assert spectral_norm(m).norm >= rayleigh_quotient(m, np.ones(d)) - 1e-9


def test_convergence_failure_reports_residual():
    m = LabeledMatrix.from_rows(int_labels(2), [[0.0, 1.0], [1.0, 0.0]], name="swap")
    with pytest.raises(SpectralConvergenceError, match="swap"):
        spectral_norm(m, tol=1e-12, max_iterations=0)


def test_hadamard_identities():
    ones = LabeledMatrix.from_rows(int_labels(2), [[1.0, 1.0], [1.0, 1.0]])
    zeros = LabeledMatrix.from_rows(int_labels(2), [[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(hadamard(H2, ones).to_float(), H2.to_float())
    assert np.array_equal(hadamard(H2, zeros).to_float(), zeros.to_float())
    mask = LabeledMatrix.from_rows(int_labels(2), [[1, 1], [1, 0]])
    prod = hadamard(H2, mask)
    assert prod.entries[0, 1] == 1 / 2
    assert prod.entries[1, 1] == 0


def test_hadamard_label_mismatch_names_label():
    other = LabeledMatrix.from_rows((b"1", b"x"), [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MatrixError, match="index 1"):
        hadamard(H2, other)


def test_hadamard_commutative_associative():
    rng = np.random.default_rng(11)
    a, b, c = (random_symmetric(rng, 4) for _ in range(3))
    ab = hadamard(a, b).to_float()
    ba = hadamard(b, a).to_float()
    assert np.array_equal(ab, ba)
    left = hadamard(hadamard(a, b), c).to_float()
    right = hadamard(a, hadamard(b, c)).to_float()
    assert np.allclose(left, right, rtol=0, atol=1e-15)


def test_hadamard_monotone_in_mask():
    rng = np.random.default_rng(5)
    a = random_symmetric(rng, 6)
    b = random_symmetric(rng, 6)
    bigger_raw = b.to_float() + random_symmetric(rng, 6).to_float()
    bigger = LabeledMatrix(b.labels, bigger_raw)
    assert (
        spectral_norm(hadamard(a, b)).norm
        <= spectral_norm(hadamard(a, bigger)).norm + 1e-9
    )


def test_tensor_scalar_cases():
    one = LabeledMatrix.from_rows((b"s",), [[1]])
    out = tensor(H2, one)
    assert np.array_equal(out.to_float(), H2.to_float())
    assert out.labels == (b"1s", b"2s")
    swap = LabeledMatrix.from_rows(int_labels(2), [[0, 1], [1, 0]])
    two = LabeledMatrix.from_rows((b"t",), [[2]])
    scaled = tensor(swap, two)
    assert scaled.entries[0, 1] == 2 and scaled.entries[0, 0] == 0


def test_tensor_norm_multiplicative_example():
    swap = LabeledMatrix.from_rows(int_labels(2), [[0, 1], [1, 0]])
    prod = tensor(swap, H2)
    assert spectral_norm(prod).norm == pytest.approx(1.5, rel=1e-9)
    oracle = np.linalg.eigvalsh(prod.to_float())[-1]
    assert spectral_norm(prod).norm == pytest.approx(oracle, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000))
def test_tensor_norm_multiplicative_random(da, db, seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, da)
    b = random_symmetric(rng, db)
    na = spectral_norm(a).norm
    nb = spectral_norm(b).norm
    nab = spectral_norm(tensor(a, b)).norm
    assert nab == pytest.approx(na * nb, rel=1e-8, abs=1e-12)


def test_tensor_label_concatenation_order():
    a = LabeledMatrix.from_rows((b"x", b"y"), [[1.0, 0.0], [0.0, 1.0]])
    b = LabeledMatrix.from_rows((b"1", b"2"), [[1.0, 0.0], [0.0, 1.0]])
    assert tensor(a, b).labels == (b"x1", b"x2", b"y1", b"y2")


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

"""Dense labeled nonnegative symmetric matrices and their spectral norms.

Every matrix in this package is square, symmetric, nonnegative, and carries
one opaque byte-string label per row/column identifying the problem instance
that row represents.  Entries are always a read-only ``float64`` array.
The package's constructions (inverse-distance weights ``1/k`` and 0/1
distinguisher masks) are correctly rounded in float64, and identities that
must hold exactly are checked on boolean supports, which need no rational
arithmetic.

Spectral norms are computed by shifted symmetric power iteration.  For a
nonnegative symmetric matrix the spectral radius equals the largest
eigenvalue (Perron-Frobenius), so any positive shift makes the top
eigenvalue of ``M + s*I`` strictly dominant in magnitude and the iteration
converges to a nonnegative principal eigenvector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

FLOAT_SYMMETRY_TOL = 1e-12


class MatrixError(ValueError):
    """Invalid matrix construction or mismatched operands."""


class SpectralConvergenceError(RuntimeError):
    """Power iteration hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class LabeledMatrix:
    """Square symmetric nonnegative matrix with per-row instance labels."""

    labels: tuple[bytes, ...]
    entries: np.ndarray
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.float64))
        d = len(self.labels)
        if self.entries.shape != (d, d):
            raise MatrixError(
                f"{self.name or 'matrix'}: entries shape {self.entries.shape} "
                f"does not match {d} labels"
            )
        if len(set(self.labels)) != d:
            raise MatrixError(f"{self.name or 'matrix'}: labels are not pairwise distinct")
        if d and not np.allclose(self.entries, self.entries.T,
                                 rtol=0.0, atol=FLOAT_SYMMETRY_TOL):
            raise MatrixError(f"{self.name or 'matrix'}: not symmetric")
        if d and float(self.entries.min()) < -FLOAT_SYMMETRY_TOL:
            raise MatrixError(f"{self.name or 'matrix'}: negative entry")
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def to_float(self) -> np.ndarray:
        """Entries as a writable float64 array (a copy)."""
        return np.array(self.entries, dtype=np.float64)

    @classmethod
    def from_rows(cls, labels: Iterable[bytes], rows, name: str = "") -> "LabeledMatrix":
        return cls(tuple(labels), np.asarray(rows, dtype=np.float64), name)

    def to_json(self) -> str:
        """Dump as ``{"dim", "labels", "entries"}``, entries as JSON numbers
        (``repr`` of each float64, so they round-trip without loss)."""
        return json.dumps(
            {
                "dim": self.dim,
                "labels": [lb.decode("latin-1") for lb in self.labels],
                "entries": self.entries.tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "LabeledMatrix":
        """Inverse of :meth:`to_json`; every entry must be a JSON number."""
        obj = json.loads(text)
        labels = tuple(s.encode("latin-1") for s in obj["labels"])
        rows = obj["entries"]
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise MatrixError(f"entries row {i} is not a list")
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise MatrixError(f"entry ({i}, {j}) is {v!r}, not a JSON number")
        return cls.from_rows(labels, rows)


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue of a nonnegative symmetric matrix, with witness."""

    norm: float
    eigenvector: np.ndarray
    iterations: int
    residual: float

    def __post_init__(self):
        self.eigenvector.setflags(write=False)


def int_labels(n: int) -> tuple[bytes, ...]:
    """Labels ``b"1" .. b"n"`` for matrices indexed by plain integers."""
    return tuple(str(i).encode() for i in range(1, n + 1))


def power_norm(A: np.ndarray, tol: float = 1e-9, v0: np.ndarray | None = None,
               max_iterations: int | None = None, name: str = "") -> SpectralResult:
    """Power iteration on a raw float array (see :func:`spectral_norm`)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = A.shape[0]
    if d == 0:
        return SpectralResult(0.0, np.zeros(0), 0, 0.0)
    start = np.ones(d)
    start[0] += 1e-6
    if v0 is not None:
        v = np.maximum(np.asarray(v0, dtype=np.float64), 0.0) + 1e-8 * start
    else:
        v = start
    v /= math.sqrt(v.dot(v))
    cap = max_iterations if max_iterations is not None else 100 * d
    it = 0
    while True:
        Mv = A @ v
        lam = float(v @ Mv)
        r = Mv - lam * v
        residual = math.sqrt(r.dot(r))  # the bits of np.linalg.norm, without its overhead
        if not residual > tol * max(lam, 1e-30):
            break
        if it >= cap:
            raise SpectralConvergenceError(
                f"power iteration on {name or f'{d}x{d} matrix'} did not reach "
                f"tol={tol:g} after {cap} iterations (residual {residual:.3e})"
            )
        it += 1
        # Any positive shift keeps the Perron eigenvalue strictly dominant;
        # shifting by the current Rayleigh estimate also speeds up the
        # lam_min = -lam_max corner.
        w = Mv + max(lam, 1e-30) * v
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            break
        v = w / nw
    return SpectralResult(max(lam, 0.0), v, it, residual)


def spectral_norm(M: LabeledMatrix, tol: float = 1e-9, v0: np.ndarray | None = None,
                  max_iterations: int | None = None) -> SpectralResult:
    """Largest eigenvalue and Perron vector of ``M`` by power iteration.

    The start vector is the normalized all-ones vector with a small fixed
    perturbation on the first coordinate (so it overlaps every nonnegative
    Perron vector and breaks exact-orthogonality corner cases).  ``v0``
    optionally warm-starts the iteration; it is blended with the default
    start to keep the Perron overlap nonzero.

    Converges when ``||M v - lam v|| <= tol * max(lam, tiny)`` (relative
    tolerance).  Raises :class:`SpectralConvergenceError` after
    ``100 * dim`` iterations (or ``max_iterations``).
    """
    return power_norm(M.entries, tol=tol, v0=v0, max_iterations=max_iterations,
                      name=M.name or f"{M.dim}x{M.dim} matrix")


def _require_same_labels(A: LabeledMatrix, B: LabeledMatrix) -> None:
    if A.dim != B.dim:
        raise MatrixError(f"dimension mismatch: {A.dim} vs {B.dim}")
    for i, (la, lb) in enumerate(zip(A.labels, B.labels)):
        if la != lb:
            raise MatrixError(f"label mismatch at index {i}: {la!r} vs {lb!r}")


def hadamard(A: LabeledMatrix, B: LabeledMatrix) -> LabeledMatrix:
    """Elementwise product; operands must agree in dim and label order."""
    _require_same_labels(A, B)
    return LabeledMatrix(A.labels, A.entries * B.entries,
                         name=f"({A.name or 'A'}∘{B.name or 'B'})")


def tensor(A: LabeledMatrix, B: LabeledMatrix) -> LabeledMatrix:
    """Kronecker product; output label (i, j) is concat(label_A[i], label_B[j])."""
    labels = tuple(la + lb for la in A.labels for lb in B.labels)
    return LabeledMatrix(labels, np.kron(A.entries, B.entries),
                         name=f"({A.name or 'A'}⊗{B.name or 'B'})")


def rayleigh_quotient(M: LabeledMatrix, v: Sequence[float]) -> float:
    """(v·Mv)/(v·v) — a lower bound on the spectral norm for any probe v."""
    x = np.asarray(v, dtype=np.float64)
    return float(x @ (M.entries @ x)) / float(x @ x)

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
converges to a nonnegative principal eigenvector.  Matrices with at most
``EIGH_MAX_DIM`` rows start the iteration from the absolute value of a
LAPACK top eigenvector, which already passes the stop rule: they converge at
iteration 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

FLOAT_SYMMETRY_TOL = 1e-12
EIGH_MAX_DIM = 32  # break-even of one batched eigh against ~30 power steps


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
        if not np.isfinite(self.entries).all():
            i, j = np.argwhere(~np.isfinite(self.entries))[0]
            raise MatrixError(f"{self.name or 'matrix'}: entry ({i}, {j}) is "
                              f"{float(self.entries[i, j])!r}, not finite")
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
    return power_norms(A[None], tol, v0, max_iterations, [name] if name else ())[0]


def power_norms(S: np.ndarray, tol: float = 1e-9, v0: np.ndarray | None = None,
                max_iterations: int | None = None,
                names: Sequence[str] = ()) -> list[SpectralResult]:
    """Power iteration on every slice of a ``(k, d, d)`` stack at once.

    Each slice takes the steps :func:`spectral_norm` takes on it alone (same
    stop rule, iteration count and cap) and drops out when it converges.
    ``v0`` has one warm start per slice; ``names[j]`` names slice j in errors.
    A non-finite entry raises ``ValueError`` naming its slice.

    The start rule depends on ``d`` alone, so a slice's result does not
    depend on its stack-mates.  Above ``EIGH_MAX_DIM`` a slice starts from
    the default vector of :func:`spectral_norm`, or from ``v0``.  At or below
    it ``v0`` is not read: each slice starts from |v|, for v its top
    eigenvector from one ``np.linalg.eigh`` of the whole stack, and
    converges at iteration 0.  |v| is sound: a symmetric nonnegative M is,
    after a permutation, block-diagonal over irreducible blocks, and its top
    eigenspace is spanned by the Perron vectors of the blocks with spectral
    radius lambda_max, which are nonnegative with disjoint supports.  So |v|
    is again a top eigenvector, and the stop rule still checks it.

    ``EIGH_MAX_DIM`` is a measured break-even.  Stacks of k masked d x d
    inverse-distance tiles, ms, best of 5, one BLAS thread, 2-vCPU Xeon VM,
    numpy 2.4 (power loop: 28 to 37 steps):

    ====  ====  ==========  ==========
    d     k     power loop  eigh start
    ====  ====  ==========  ==========
    4     1     0.34        0.051
    8     8     0.47        0.11
    16    8     0.56        0.27
    32    1     0.35        0.051
    32    8     0.68        0.62
    32    32    1.41        2.68
    48    8     0.95        1.50
    64    8     1.05        1.98
    128   1     0.40        0.82
    ====  ====  ==========  ==========

    Over the benchmark's ``adversary-sweep`` commands (best of 5, ms) a bound
    of 0 took 1471, 16 to 32 took 943 to 971, 48 took 1130 and 64 took 1398;
    64 slows ``verify --suite hilbert --m 64`` from 184 to 355.
    """
    if not 0 < tol < 1:  # also rejects NaN, which would stop at iteration 0
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    k, d = S.shape[0], S.shape[-1]
    if not np.isfinite(S).all():  # a NaN residual would pass the stop rule
        j = int(np.argmin(np.isfinite(S).reshape(k, -1).all(axis=1)))
        raise ValueError(f"slice {j} ({_slice_name(names, j, d)}) has a non-finite entry")
    if 0 < d <= EIGH_MAX_DIM:
        V = np.abs(np.linalg.eigh(S)[1][:, :, -1])
    else:
        start = np.ones(d)
        start[:1] += 1e-6
        V = np.tile(start, (k, 1)) if v0 is None else (
            np.maximum(np.asarray(v0, dtype=np.float64).reshape(k, d), 0.0) + 1e-8 * start)
    V = V / np.sqrt(np.vecdot(V, V))[:, None]
    cap = max_iterations if max_iterations is not None else 100 * d
    out: list = [None] * k
    act = np.arange(k)  # stack index of each active slice
    it = 0
    while len(act):
        MV = (S[0] @ V[0])[None] if len(S) == 1 else np.matmul(S, V[:, :, None])[:, :, 0]
        lam = np.vecdot(V, MV)
        R = MV - _per_row(lam) * V
        res = np.sqrt(np.vecdot(R, R))
        shift = np.maximum(lam, 1e-30)
        going = res > tol * shift
        if np.count_nonzero(going) < len(going):
            for j in np.flatnonzero(~going):
                out[act[j]] = SpectralResult(max(float(lam[j]), 0.0), V[j], it, float(res[j]))
            S, V, MV, shift, res, act = (x[going] for x in (S, V, MV, shift, res, act))
        if it >= cap and len(act):
            raise SpectralConvergenceError(
                f"power iteration on {_slice_name(names, act[0], d)} did not reach "
                f"tol={tol:g} after {cap} iterations (residual {res[0]:.3e})"
            )
        it += 1
        # Any positive shift keeps the Perron eigenvalue strictly dominant;
        # shifting by the current Rayleigh estimate also speeds up the
        # lam_min = -lam_max corner.
        W = MV + _per_row(shift) * V
        V = W / _per_row(np.sqrt(np.vecdot(W, W)))
    return out


def _slice_name(names: Sequence[str], j: int, d: int) -> str:
    return names[j] if j < len(names) else f"{d}x{d} matrix"


def _per_row(x: np.ndarray):
    """Per-slice factors as a column, or a plain scalar (much faster) for one."""
    return x[0] if len(x) == 1 else x[:, None]


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

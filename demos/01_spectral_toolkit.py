"""Tour of the labeled-matrix layer: float64 entries, norms, products.

Run:  python demos/01_spectral_toolkit.py
"""

import numpy as np

from tarskilab import LabeledMatrix, int_labels, power_norm, spectral_norm
from tarskilab.matrices import EIGH_MAX_DIM

# Matrices carry labels naming the problem instance behind each row.  Entries
# are float64; the inverse-distance weights 1/k are correctly rounded.
A = LabeledMatrix.from_rows(
    int_labels(3),
    [
        [1, 1 / 2, 1 / 3],
        [1 / 2, 1, 1 / 2],
        [1 / 3, 1 / 2, 1],
    ],
    name="inverse-distance weights",
)
print("entries:", A.entries[0].tolist())

# A matrix this small starts from the absolute value of a LAPACK top
# eigenvector, which already passes the power iteration's stop rule: it
# converges after 0 iterations.  Above EIGH_MAX_DIM rows the iteration
# steps from the all-ones vector.
res = spectral_norm(A)
print(f"norm {res.norm:.12f} after {res.iterations} iterations "
      f"(residual {res.residual:.2e})")
print("dense eigendecomposition agrees:",
      np.isclose(res.norm, np.linalg.eigvalsh(A.to_float())[-1]))
m = EIGH_MAX_DIM + 8
big = 1.0 / (np.abs(np.subtract.outer(np.arange(m), np.arange(m))) + 1.0)
big_res = power_norm(big)
print(f"{m}x{m} inverse-distance weights: norm {big_res.norm:.12f} after "
      f"{big_res.iterations} iterations (residual {big_res.residual:.2e})")

# Any probe vector's Rayleigh quotient x.Ax / x.x is a lower bound on the
# norm; the all-ones vector is the cheapest one.
x = np.ones(3)
print("all-ones Rayleigh lower bound:", x @ A.entries @ x / (x @ x))

# Masking by a distinguisher is the elementwise product of the entries; block
# composition is built on the Kronecker product, and norms multiply across
# Kronecker factors.  Both are plain numpy on the read-only entries.
mask = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
print("masked norm:", power_norm(A.entries * mask).norm)

swap = np.array([[0.0, 1.0], [1.0, 0.0]])
print("norm multiplies:",
      power_norm(np.kron(swap, A.entries)).norm, "=", power_norm(swap).norm * res.norm)

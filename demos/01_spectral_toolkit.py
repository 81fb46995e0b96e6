"""Tour of the labeled-matrix layer: float64 entries, norms, products.

Run:  python demos/01_spectral_toolkit.py
"""

import numpy as np

from tarskilab import (
    LabeledMatrix,
    hadamard,
    int_labels,
    rayleigh_quotient,
    spectral_norm,
    tensor,
)

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

res = spectral_norm(A)
print(f"norm {res.norm:.12f} after {res.iterations} iterations "
      f"(residual {res.residual:.2e})")
print("dense eigendecomposition agrees:",
      np.isclose(res.norm, np.linalg.eigvalsh(A.to_float())[-1]))

# The all-ones Rayleigh quotient is the cheap lower bound used all over the
# bound computations.
print("all-ones Rayleigh lower bound:", rayleigh_quotient(A, np.ones(3)))

# Hadamard products implement "mask by a distinguisher"; tensor products
# implement block composition.  Norms multiply across tensor factors.
mask = LabeledMatrix.from_rows(int_labels(3), [[1, 1, 0], [1, 1, 1], [0, 1, 1]],
                               name="band mask")
masked = hadamard(A, mask)
print("masked norm:", spectral_norm(masked).norm)

B = LabeledMatrix.from_rows((b"x", b"y"), [[0, 1], [1, 0]], name="swap")
prod = tensor(B, A)
print("tensor labels:", [lb.decode("latin-1") for lb in prod.labels])
print("norm multiplies:",
      spectral_norm(prod).norm, "=", spectral_norm(B).norm * res.norm)

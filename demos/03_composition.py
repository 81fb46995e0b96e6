"""Composition of adversary matrices: both norm identities, live.

Run:  python demos/03_composition.py
"""

import numpy as np

from tarskilab import (
    compose_adversary,
    composed_principal_vector,
    denominator_identity_mismatches,
    hilbert_tile,
    make_nos,
    os_adversary,
    render_string,
    sa_ratio,
    spectral_norm,
)

a, b = 3, 3
outer = os_adversary(a)
tiles = [hilbert_tile(b)] * a
gam = compose_adversary(outer, tiles)
h = gam.problem
print(f"nested ordered search {a}x{b}: {h.size} instances of length {h.length}")
print("sample instance:", render_string(h.instances[17]), "->", h.answer[h.instances[17]])

# Numerator: the norm of the composed matrix factors exactly.
lhs = spectral_norm(gam.matrix).norm
rhs = spectral_norm(outer.matrix).norm * spectral_norm(tiles[0].matrix).norm ** a
print(f"||composed|| = {lhs:.10f}   outer*tiles = {rhs:.10f}")

# The product eigenvector really is an eigenvector.
vec = composed_principal_vector(outer, tiles, h)
print("eigenvector residual:",
      float(np.linalg.norm(gam.matrix.entries @ vec - lhs * vec)))

# Denominator: masking by a position distinguisher factors the same way --
# and not only in norm: the identity holds entry by entry, which comes down
# to an exact comparison of 0/1 masks on the support of the composed matrix.
mismatches = [denominator_identity_mismatches(outer, tiles, i)
              for i in range(1, h.length + 1)]
print("exact elementwise identity mismatches over all positions:",
      sum(len(m) for m in mismatches))

# Put together: the spectral ratio of the composition is at least the
# product of the factor ratios.
rep_h = sa_ratio(gam)
rep_f = sa_ratio(outer)
print(f"composed ratio {rep_h.sa_value:.4f} >= "
      f"outer ratio {rep_f.sa_value:.4f} times the worst tile ratio")
print(f"quantum query lower bound for {a}x{b} nested search:",
      round(rep_h.query_lower_bound, 5))

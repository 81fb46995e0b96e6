"""Ordered-search problems, their adversary matrices, and the 2*pi ceiling.

Run:  python demos/02_ordered_search.py
"""

import math

from tarskilab import (
    detect_search_labeling,
    hilbert_tile,
    make_hsos,
    make_os,
    masked_norms,
    os_adversary,
    render_string,
    sa_ratio,
    spectral_norm,
    uniform_from_tile,
)

# Ordered search: find the star.  Hidden-symbol ordered search: report the
# symbol hiding between the arrows.
os5 = make_os(5)
print("ordered search, m=5:")
for s in os5.instances:
    print("   ", render_string(s), "->", os5.answer[s])

hs = make_hsos(3)
print("hidden-symbol instances:", ", ".join(render_string(s) for s in hs.instances))

# HSOS is a generalized search function: any one query either says nothing
# about the answer or reveals it outright.  The detector recovers the
# (answer, variant) labeling.
lab = detect_search_labeling(hs)
print("labeling variants:", lab.variants)

# The inverse-distance tile drives both families.  Its distinguisher
# products stay below 2*pi no matter how large m gets, while the tile norm
# keeps growing like log m -- that gap is the whole lower bound.
print("\n   m    ||A_m||   max_i ||A_m o D_i||   ratio")
for m in (4, 16, 64, 256):
    t = hilbert_tile(m)
    tnorm = spectral_norm(t.matrix).norm
    worst = max(r.norm for r in masked_norms(t))
    print(f"  {m:4d}   {tnorm:7.4f}       {worst:7.4f}          {tnorm / worst:6.4f}")
print("  (2*pi =", round(2 * math.pi, 4), "-- the products never get there)")

# Full adversary evaluations, with the bounded-error prefactor at eps = 1/3.
for m in (2, 8, 32):
    rep = sa_ratio(os_adversary(m))
    print(f"ordered search m={m}: ratio {rep.sa_value:.4f}, "
          f"quantum query lower bound {rep.query_lower_bound:.4f}")

g = uniform_from_tile(lab, hilbert_tile(3))
print("hidden-symbol m=3 uniform matrix ratio:", round(sa_ratio(g).sa_value, 4))

"""End to end: from the instance family to a computed quantum lower bound,
plus the matching classical upper bound in action.

Run:  python demos/05_lower_bound_pipeline.py
"""

import math

from tarskilab import (
    Oracle,
    build_geometry,
    composed_sa_ratio,
    hilbert_tile,
    nested_solve,
    os_adversary,
    solve_brute,
    tarski_family,
)

# Lower bound: the family embeds nested ordered search on its chunk
# boundaries, and no grid query beats seven boundary queries, so the
# fixed-point problem inherits a seventh of the nested-search bound.  The
# nested-search ratio comes from its factors (outer ordered search and the
# inverse-distance tile), so no composed matrix is built.  It grows like
# (log n)^2 (acceptance criterion 10 fits n up to 64); the last column is
# still falling at n = 16 because lower-order terms have not yet faded.
print("  n    n'    SA(nested search)   fixed-point lower bound (eps=1/3)   "
      "SA/(ln n')^2")
for n in (2, 3, 4, 6, 8, 12, 16):
    rep = composed_sa_ratio(os_adversary(n + 1), hilbert_tile(n))
    n_prime = n * (n * n + n - 1)
    print(f"  {n:2d}  {n_prime:5d}     {rep.sa_value:8.4f}            "
          f"{rep.query_lower_bound / 7.0:8.5f}                      "
          f"{rep.sa_value / math.log(n_prime) ** 2:.4f}")

# Upper bound: nested binary search solves every family instance in
# O((log n')^2) queries, a vanishing fraction of the brute-force n'^2.
print("\n  n'   instances   worst nested queries   budget 4(ceil(lg n')+1)^2   brute")
for n in (2, 3):
    geo = build_geometry(n)
    worst = 0
    count = 0
    for C, i, fn in tarski_family(geo):
        res = nested_solve(Oracle(fn))
        assert not res.fell_back
        worst = max(worst, res.queries_used)
        count += 1
    brute = solve_brute(Oracle(fn)).queries_used
    cap = 4 * (math.ceil(math.log2(geo.n_prime)) + 1) ** 2
    print(f"  {geo.n_prime:3d}   {count:6d}        {worst:4d}                  "
          f"{cap:4d}                    {brute}")

print("\nThe gap between those two columns is the point: quadratic-in-log")
print("queries suffice, and the spectral bound says you cannot do better "
      "than log-squared.")

"""Spectral-adversary lower-bound workbench for lattice fixed-point search.

The package verifies, at desk scale, every construction behind the
quantum query lower bound for finding fixed points of monotone functions on
the two-dimensional grid: ordered-search adversary matrices and their
composition, the diagonal-tube instance family whose boundary queries embed
nested ordered search, and the classical nested binary search that matches
the bound from above.
"""

from .matrices import (
    LabeledMatrix,
    MatrixError,
    SpectralConvergenceError,
    SpectralResult,
    int_labels,
    power_norm,
    spectral_norm,
)
from .problems import (
    ComposedProblem,
    ProblemError,
    QueryProblem,
    SearchLabeling,
    Sym,
    compose,
    detect_search_labeling,
    distinguisher,
    make_hsos,
    make_nos,
    make_os,
    render_string,
    restrict_labeling,
)
from .adversary import (
    AdversaryError,
    AdversaryMatrix,
    BoundReport,
    Tile,
    compose_adversary,
    composed_principal_vector,
    composed_sa_ratio,
    denominator_identity_mismatches,
    error_factor,
    hilbert_tile,
    hsos_labeling,
    masked_norm,
    masked_norms,
    os_adversary,
    sa_ratio,
    symmetrize,
    tile_distinguisher,
    tile_of_uniform,
    uniform_from_tile,
)
from .lattice import (
    LatticeError,
    LatticeFn,
    Oracle,
    SolveResult,
    brute_fixed_points,
    check_monotone,
    clamp_embed,
    nested_solve,
    solve_brute,
)
from .geometry import (
    GeometryError,
    Spine,
    SpineGeometry,
    ThresholdQuad,
    build_geometry,
    build_instance,
    chunked_spine,
    covering_set,
    family_parameters,
    herringbone,
    line_point,
    nos_correspondence,
    region_anchor,
    tarski_family,
    thresholds,
)
from .suites import SUITES, SuiteReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

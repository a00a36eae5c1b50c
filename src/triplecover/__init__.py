"""Exact triple-cover calculus over the rational plane.

Chart cover data (a, b, c, d), the branch polynomial D = B^2 - 4AC and its
S + 2T decomposition, the eta map from ternary cubics, torus pairs
(G2, G3) with their cubic-surface covers, and a classifier that sorts
covers into flag-bundle, cubic-surface and not-normal cases.
"""

from .classify import (
    CASE_CUBIC_SURFACE,
    CASE_FLAG_BUNDLE,
    CASE_INDETERMINATE,
    CASE_NOT_NORMAL,
    ClassificationReport,
    CoverSpec,
    a2_cusp_check,
    classify,
    cross_validate,
)
from .cover import (
    AffineCoverData,
    BranchDecomposition,
    ConnectivityVerdict,
    DerivedInvariants,
    LineRestriction,
    ResolventCubic,
    TotalBranchVerdict,
    branch_decomposition,
    derived_invariants,
    fiber_equations,
    is_line_cover_connected,
    is_total_branch_point,
    multiplication_table,
    resolvent_cubic,
    restrict_to_line,
    split_branch,
)
from .errors import (
    CommonComponent,
    DegenerateCover,
    DegenerateCubic,
    DegenerateTorus,
    IndeterminateCount,
    LemmaViolation,
    MultiplicityTooHigh,
    NotSmooth,
    TripleCoverError,
    VariableMismatchError,
)
from .etamap import (
    BinaryCubic,
    DiscrimCertificate,
    TernaryCubic,
    TotalBranchLocus,
    binary_cubic_discriminant,
    delta_f,
    eta,
    fiber_binary_cubic,
    hessian_covariant,
    is_perfect_cube,
    is_smooth_cubic,
    total_branch_locus,
    verify_discrim_lemma,
)
from .polyparse import ParseError, parse_poly, print_poly
from .polyring import (
    MPoly,
    SquarefreeDecomposition,
    T_VARS,
    U_VARS,
    UV_VARS,
    UZW_VARS,
    V_VARS,
    X4_VARS,
    X_VARS,
    dehomogenize,
    divides,
    exact_divide,
    gcd,
    homogenize,
    radical_divides,
    repeated_part,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)
from .torus import (
    ConditionReport,
    ConditionVerdict,
    CubicSurfaceForm,
    IntersectionLocus,
    TorusPair,
    build_cover,
    check_conditions,
    cubic_surface_form,
    total_branch_points,
)
from .univar import (
    interpolate,
    rational_roots,
    to_univariate,
)

__version__ = "1.0.0"

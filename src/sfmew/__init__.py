"""Solvability analysis for the scalar-flat Moebius Einstein-Weyl equation.

Given a Moebius structure on a planar domain (a conformally flat metric
``e^{2u} d_ab`` plus a trace-matched Rho tensor), this package decides
pointwise whether the structure can locally admit a compatible scalar-flat
Weyl connection: it computes the conformal invariants of the structure,
assembles the three polynomial constraints on the connection's curvature
scalar, evaluates the resultant obstructions, reconstructs candidate
solutions from shared roots and verifies them against the full equation.

Typical use::

    from sfmew import MoebiusStructure, RegionSpec, classify_point, classify_points, scan_region

    s = MoebiusStructure.from_strings(
        u="0", p11="x*y", p12="(y*y - x*x)/2", p22="-(x*y)")
    verdict = classify_point(s, (1.0, 0.0))
    verdicts = classify_points(s, [(1.0, 0.0), (0.5, 0.0)])
    report = scan_region(s, RegionSpec(-2, 2, -2, 2, 21, 21))

The ``sfmew`` command line exposes the same pipeline on config files.
"""

from .analyzer import (
    MultipleRoot,
    P0Vanishes,
    RegionReport,
    RegionSpec,
    ResidualReport,
    SolutionCandidate,
    Verdict,
    VerdictTag,
    alpha_from_F,
    classify_point,
    classify_points,
    f_from_P0_branch,
    scan_region,
    summarize,
    verify_candidate,
    verify_candidates,
)
from .constraints import (
    DivisionByRho,
    coeffs_P0,
    coeffs_P1,
    coeffs_P2,
    coeffs_P3,
)
from .expr import (
    ExprError,
    ExprSyntaxError,
    UnknownIdentifier,
    differentiate,
    eval_jet,
    eval_value,
    parse,
    to_source,
)
from .geometry import (
    Frame,
    MoebiusStructure,
    TensorAtPoint,
    christoffel,
    covariant_derivative,
    gauss_curvature,
    validate,
)
from .invariants import (
    CONFORMAL_WEIGHTS,
    FlatPoint,
    InvariantField,
    PointInvariants,
    SigmaZero,
    compute_M,
    compute_invariants,
    cotton_york,
)
from .jets import (
    DegenerateDivision,
    DomainError,
    Jet,
    JetError,
    OrderExceeded,
    compose_series,
    jet_space,
)
from .polyalg import (
    NormalizedColumns,
    ResultantColumns,
    ResultantReport,
    RootColumns,
    ZeroPolynomial,
    column_common_roots,
    column_gaps,
    column_resultant_reports,
    normalized_columns,
    trimmed_degrees,
)

__version__ = "0.1.0"

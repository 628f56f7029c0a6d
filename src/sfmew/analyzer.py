"""Pointwise decision procedure for local solvability, plus verification.

``classify_points`` runs the full pipeline at each of a list of points
(``classify_point`` is the same on one point):

1. If the Cotton-York form vanishes, the point is flat and the equation
   reduces to the conformally Einstein case (reported, not solved).
2. If sigma > 0 the degenerate branch is possible; when the branch tensor
   M_ab vanishes the structure admits a solution with the closed-form
   candidate (``MZeroAdmits``).
3. Otherwise the three constraint polynomials are assembled, their
   pairwise resultants reported, and their common roots (excluding roots of
   P0) searched for.  Real common roots are reconstructed into candidate
   1-forms and verified against the full equation; a verified candidate
   yields ``AdmitsRealCandidate``, shared complex factors yield
   ``VanishingObstructionsNoRealSolution``.  Real common roots of which none
   verifies yield ``Inconclusive``: they show neither a solution nor that
   none exists.
4. A node without a witness is decided by whether its resultants vanish,
   which reads the smallest relative singular value of the normalized
   Sylvester matrix (``gap``): an exactly vanishing resultant gives a
   numerically singular matrix (gap ~ 1e-16) while the determinant value
   itself can be legitimately tiny for nonzero resultants.  Its gaps are
   taken smallest matrix first, up to the first above ``_TOL_RES_HIGH``,
   which certifies that resultant nonzero (``Obstructed``); with none above,
   all three gaps below ``_TOL_RES_LOW`` are ``Inconclusive`` and the rest
   ``Obstructed``.  A witness bounds every gap by sqrt(18) ``TOL_ROOT``, far
   below ``_TOL_RES_HIGH`` (``docs/decisions.md`` §8), so no gap could
   overrule it, and none is taken where one decides.

Points are taken in the fewest batches of at most ``_CHUNK`` nodes, whose
widths differ by at most one node (:func:`_batches`), so that a call pays a
batch's fixed work as few times as it can, and the widest batch, which sets
the peak memory, is as narrow as it can be.  Each point gets its own
:class:`~sfmew.geometry.Frame`; their stack evaluates the structure once on
the batch, and the invariant chain, the branch tensor, the constraint
coefficients (each trimmed and normalized once, :func:`constraint_columns`)
and the resultant reports run once on it, at one width, indexed
by the batch's own node numbers: a flat node is a column of NaN, and the
branch is NaN where sigma is numerically zero.  Every step reads the
batch's invariants from the chain that computed them; once the node
arrays are read off, the chain and its frames are freed, and the lift
builds its own chain over the nodes with real roots only.
The nodes with constraints of degree >= 1 go through one common-root
witness search for the batch (:func:`~sfmew.polyalg.column_common_roots`),
which gives their real and complex witnesses from the same eigenvalues;
the nodes without a witness then take their gaps, one pair at a time for
the batch (:func:`~sfmew.polyalg.column_gaps`).  Every rule is a mask over
the batch, taken in order (``_RULES``): flat, not finite, M ~ 0, a
degenerate constraint, a verified real root, a real root, a complex root,
a certified gap, numerical zero; P0(F) ~ 0 is a mask over the real roots.
A batch's verdicts are node columns (:class:`VerdictColumns`), from which
the command line writes its reports (its dumps read :func:`scan_invariants`
and :func:`constraint_columns`); :func:`classify_points` builds a
:class:`Verdict` per node from them.  Every node goes through the float
operations it would go through alone, so its verdict does not depend on
its batch.  A node whose invariants, degenerate-branch tensor or
constraint coefficients are not all finite (beyond the float range) is
``Inconclusive``.
Frames have the lowest jet order their path reads: 4 in a scan
(:data:`~sfmew.invariants.SCAN_ORDER`), 5 for the nodes whose roots are
lifted (:data:`~sfmew.invariants.LIFT_ORDER`), 3 for a closed-form
candidate.

A reconstructed candidate is verified by lifting its root F0 to a jet, on
the invariant jets of the point itself: each Newton step
F <- F - P_k(F) / P_k'(F) in jet arithmetic doubles the number of exact
Taylor orders.  It is lifted with each constraint P_k of which F0 is a
simple root, and the best lift kept; the roots of a batch are lifted
together, on one order-5 invariant chain over new frames of their nodes,
from which their residuals read the invariants too; each (node, root)
column takes those frames' jets truncated to order 1, all the residuals
read.
The candidate alpha then follows as a jet from the reconstruction formula,
so nabla alpha and nabla F are exact.  A root that
is simple in no constraint has no such lift and stays unverified.
Closed-form candidates are differentiated exactly via jets of their
expressions.  ``verify_candidates`` takes their points in the same
batches: per-point frames, whose stack evaluates the structure once, the
candidate's expressions evaluated once on the batch's node columns, and
one invariant chain per batch.  Both ways of verifying
end in one step from the jets of alpha and F: nabla alpha and nabla F
come from the frame's calculus, and each residual is computed on the node
arrays, into :class:`ResidualColumns`; :func:`verify_candidates` builds a
:class:`ResidualReport` per node from them.
Everything after the frames works on node columns; a single point is a
batch of one node.  Everything here is deterministic and side-effect free.
"""

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import jets
from .constraints import NOT_FINITE, coeffs_P0, coeffs_P1, coeffs_P2, coeffs_P3
from .expr import eval_jet
from .geometry import Frame
from .invariants import LIFT_ORDER, SCAN_ORDER, InvariantField, PointInvariants, forced_f
from .polyalg import (
    TOL_ROOT,
    ResultantColumns,
    ResultantReport,
    column_common_roots,
    column_gaps,
    column_resultant_reports,
    normalized_columns,
)

__all__ = [
    "VerdictTag",
    "Verdict",
    "SolutionCandidate",
    "ResidualReport",
    "ResidualColumns",
    "VerdictColumns",
    "TAGS",
    "RESULTANT_PAIRS",
    "RegionSpec",
    "NodeVerdict",
    "RegionReport",
    "P0Vanishes",
    "MultipleRoot",
    "alpha_from_F",
    "f_from_P0_branch",
    "classify_point",
    "classify_points",
    "classify_columns",
    "verify_candidate",
    "verify_candidates",
    "verify_columns",
    "scan_region",
    "tally",
]

_CLOSED_FORM_ORDER = 3  # closed-form jets: residuals read 3 orders of P, nabla F 2 of alpha
_LIFT_STEPS = 3  # Newton steps of the root lift: exact Taylor orders 0 -> 1 -> 3 -> 7
# nodes per batch at most: wide enough to spread a batch's fixed work (hundreds of
# small jet and numpy calls, stacked dets, eigvals, product tables) over many nodes,
# narrow enough to bound the memory of its jets (see docs/decisions.md, section 4)
_CHUNK = 512
_TOL_P0 = 1e-9  # |P0(F)| below this share of |sigma| + 3 rho F^2: the formula has no alpha
_TOL_FORCED_F = 1e-6  # relative mismatch of F^2 and sigma / (3 rho) on the branch
_TOL_M = 1e-8  # |M| below this share of its terms' size: the branch tensor vanishes
_TOL_RES_LOW = 1e-12  # every Sylvester gap below this: the resultants are numerically zero
_TOL_RES_HIGH = 1e-5  # a Sylvester gap above this: that resultant is certified nonzero
TOL_RESIDUAL = 1e-6  # a residual report passes where every residual is below this


class P0Vanishes(Exception):
    """P0(F) is numerically zero; the reconstruction formula divides by it."""


class MultipleRoot(Exception):
    """P_k'(F) is numerically zero at the root; it cannot be lifted to a jet."""


class VerdictTag(str, Enum):
    FLAT = "Flat"
    MZERO_ADMITS = "MZeroAdmits"
    OBSTRUCTED = "Obstructed"
    ADMITS = "AdmitsRealCandidate"
    VANISHING = "VanishingObstructionsNoRealSolution"
    INCONCLUSIVE = "Inconclusive"


#: The tags in the order whose positions :attr:`VerdictColumns.tag` holds.
TAGS = tuple(VerdictTag)
MODES = ("real", "complex")  # of verification: a real candidate, or a complex one


def check_mode(mode):
    """Raise ValueError, naming ``mode``, unless it is one of :data:`MODES`."""
    if mode not in MODES:
        raise ValueError(f"mode must be 'real' or 'complex', not {mode!r}")


@dataclass
class SolutionCandidate:
    """Candidate connection 1-form at a point."""

    F: complex
    alpha: np.ndarray  # covariant components, real or complex
    source: str  # "Alpha1Formula" | "MZeroFormula" | "UserSupplied"
    point: tuple = (0.0, 0.0)
    alpha_exprs: tuple | None = None  # closed-form components (2 real / 4 complex)


@dataclass
class ResidualReport:
    """Residuals of the full equation for one candidate at one point."""

    point: tuple
    mode: str
    method: str  # "jets" (closed form) | "jet-lift" (reconstructed)
    f: complex
    res_alpha_U: float  # |alpha_a U^a + F^2 + phi|
    res_alpha_W: float  # |alpha_a W^a - ell - 5/2 rho F - 3(mu + alpha.Y) F^2|
    res_tensor: float  # max |nabla_a alpha_b + ... - eps_ab F / 2|
    res_trace: float  # |nabla_a alpha^a + K|
    f_gradient_mismatch: float  # |nabla F - (-2 alpha F - Y)| cross-check
    max_residual: float
    passed: bool


class ResidualColumns(NamedTuple):
    """The residual reports of candidates at N nodes, as node arrays.

    ``points`` lists the nodes' points, and every report has ``mode`` and
    ``method``; each other field is that of :class:`ResidualReport` as an
    array of shape (N,), ``f`` real or complex and ``passed`` boolean.
    """

    points: list
    mode: str
    method: str
    f: np.ndarray
    res_alpha_U: np.ndarray
    res_alpha_W: np.ndarray
    res_tensor: np.ndarray
    res_trace: np.ndarray
    f_gradient_mismatch: np.ndarray
    max_residual: np.ndarray
    passed: np.ndarray

    def reports(self):
        """The :class:`ResidualReport` of each node, in order: the one adapter
        from residual columns to reports."""
        return [
            ResidualReport(tuple(map(float, point)), self.mode, self.method, *row)
            for point, *row in zip(self.points, *(column.tolist() for column in self[3:]))
        ]

    def take(self, rows):
        """The columns at some of the nodes, an index array."""
        points = [self.points[i] for i in rows.tolist()]
        return ResidualColumns(points, self.mode, self.method, *(c[rows] for c in self[3:]))

    @classmethod
    def joined(cls, parts):
        """The columns of consecutive batches of nodes as one."""
        first = parts[0]
        return cls(
            [point for part in parts for point in part.points], first.mode, first.method,
            *(np.concatenate(columns) for columns in zip(*(part[3:] for part in parts))),
        )


def _nan_residuals(points, mode, method):
    """Residual columns at ``points`` that are NaN and fail."""
    n = len(points)
    return ResidualColumns(points, mode, method, *(np.full(n, np.nan) for _ in range(7)),
                           np.zeros(n, dtype=bool))


@dataclass
class Verdict:
    """Classification of one point, with the evidence that produced it."""

    tag: VerdictTag
    point: tuple
    resultants: dict = dc_field(default_factory=dict)  # pair name -> ResultantReport
    f_candidates: list = dc_field(default_factory=list)
    candidates: list = dc_field(default_factory=list)  # SolutionCandidate
    residuals: list = dc_field(default_factory=list)  # ResidualReport per candidate
    m_norm: float | None = None
    note: str = ""


# ---------------------------------------------------------------------------
# reconstruction formulas


def _alpha_parts(inv, F):
    """Numerators (a list over components) and denominator P0(F) of the
    reconstruction formula, on floats, node arrays or jets."""
    F4 = np.array([_pow4(f) for f in F.tolist()]) if isinstance(F, np.ndarray) else F**4
    numer = [
        inv.L[a]
        + 2.5 * inv.rho * F * inv.Y[a]
        + 0.5 * F * F * inv.grad_rho[a]
        + 3.0 * F4 * inv.U[a]
        for a in range(2)
    ]
    return numer, inv.sigma - 3.0 * inv.rho * F * F


def _pow4(f):
    """``f ** 4`` of one root as a float rounds it (libm ``pow``, whose last bit
    ``np.power`` may round otherwise), an infinity beyond the float range."""
    try:
        return f**4
    except OverflowError:
        return math.inf


def _p0_vanishes(inv, F, denom):
    """Whether P0(F), ``denom``, is numerically zero: the formula has no alpha there."""
    scale = abs(inv.sigma) + 3.0 * inv.rho * F * F
    return abs(denom) <= _TOL_P0 * np.maximum(scale, 1e-300)


def alpha_from_F(inv, F):
    """Candidate 1-form for a given curvature scalar F (needs P0(F) != 0).

    alpha_a = [L_a + 5/2 rho F Y_a + (F^2/2) grad_a rho + 3 F^4 U_a] / (sigma - 3 rho F^2)

    A scan computes the same formula on the node arrays of its real roots.
    """
    numer, denom = _alpha_parts(inv, F)
    if _p0_vanishes(inv, F, denom):
        raise P0Vanishes(f"P0({F}) = {denom:.3e} numerically zero at {inv.point}")
    return SolutionCandidate(
        F=float(F), alpha=np.array(numer) / denom, source="Alpha1Formula", point=inv.point
    )


def f_from_P0_branch(inv):
    """Forced F of the degenerate branch, with its consistency flag.

    F = -(2/5)(rho ell + mu sigma + tau sigma/(3 rho) + tau phi) / rho^2;
    consistency requires F^2 = sigma / (3 rho), hence sigma > 0.  Takes
    floats or node arrays.
    """
    f = forced_f(inv.rho, inv.mu, inv.phi, inv.sigma, inv.tau, inv.ell)
    target = inv.sigma / (3.0 * inv.rho)
    consistent = (inv.sigma > 0.0) & (
        abs(f * f - target) <= _TOL_FORCED_F * np.maximum(f * f, target)
    )
    return f, consistent


# ---------------------------------------------------------------------------
# verification


_EPS = ((0.0, 1.0), (-1.0, 0.0))  # eps_ab / (orientation e^{2u})


def _residual_columns(frame, inv, flat, mode, method, alpha, dalpha, F, grad_F, on_root=None):
    """Residual columns of candidates at the nodes of ``frame``.

    Node arrays, real or complex, node axis last: ``alpha`` (2, N),
    ``dalpha[a][b]`` = nabla_a alpha_b, ``F`` (N,) and ``grad_F`` (2, N).
    ``inv`` holds the invariants of every node as node arrays; at a node
    where the mask ``flat`` holds the algebraic residuals and the gradient
    cross-check are reported as zero.  Each residual is computed on the node
    arrays at once; a maximum is NaN where one of its terms is.  Nodes fail
    where ``on_root`` is false.
    """
    e2u, e2u_inv, K, P = (
        jets.values(getattr(frame, name)) for name in ("e2u", "e2u_inv", "curvature", "p")
    )
    o = float(frame.orientation)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha_sq = e2u_inv * (alpha[0] * alpha[0] + alpha[1] * alpha[1])
        tensor = []
        for a in range(2):
            for b in range(2):
                eps_ab = o * e2u * _EPS[a][b]
                g_ab = e2u if a == b else 0.0
                tensor.append(abs(
                    dalpha[a][b]
                    + alpha[a] * alpha[b]
                    + P[a, b]
                    - 0.5 * alpha_sq * g_ab
                    - 0.5 * eps_ab * F
                ))
        res_tensor = np.max(tensor, axis=0)
        res_trace = abs(e2u_inv * (dalpha[0][0] + dalpha[1][1]) + K)

        a_dot_u = alpha[0] * inv.U_up[0] + alpha[1] * inv.U_up[1]
        a_dot_w = e2u_inv * (alpha[0] * inv.W[0] + alpha[1] * inv.W[1])
        a_dot_y = alpha[0] * inv.Y_up[0] + alpha[1] * inv.Y_up[1]
        res_u = abs(a_dot_u + F * F + inv.phi)
        res_w = abs(a_dot_w - inv.ell - 2.5 * inv.rho * F - 3.0 * (inv.mu + a_dot_y) * F * F)
        # gradient cross-check: nabla_a F + 2 alpha_a F + Y_a  (jet-exact)
        mismatch = np.max([
            abs(grad_F[axis] - (-2.0 * alpha[axis] * F - inv.Y[axis])) for axis in range(2)
        ], axis=0)
        res_u, res_w, mismatch = (np.where(flat, 0.0, r) for r in (res_u, res_w, mismatch))
        max_res = np.max([res_u, res_w, res_tensor, res_trace], axis=0)
    passed = max_res < TOL_RESIDUAL
    if on_root is not None:
        passed &= on_root
    return ResidualColumns(
        frame.points, mode, method, F, res_u, res_w, res_tensor, res_trace, mismatch, max_res,
        passed,
    )


def _candidate_residuals(frame, inv, flat, mode, method, alpha_parts, F_parts, on_root=None):
    """Residual columns of candidates given as jets over the nodes of ``frame``.

    A candidate has one part (real) or two (real and imaginary):
    ``alpha_parts`` holds each part's two components, ``F_parts`` each
    part's F.  nabla alpha and nabla F are the frame's calculus on the jets
    truncated to order 1, as only their values are read.  The other
    arguments are those of :func:`_residual_columns`, which gets the node
    arrays, complex where there are two parts.
    """
    return _residual_columns(
        frame, inv, flat, mode, method, _node_values(alpha_parts),
        _node_values([frame.cov_deriv(jets.truncate(a, 1), "d") for a in alpha_parts]),
        _node_values(F_parts), _node_values([frame.grad(jets.truncate(f, 1)) for f in F_parts]),
        on_root,
    )


def _node_values(parts):
    """Node values of jets (or nested lists of them) given by their parts: real
    with one part, and with two the complex ``parts[0] + i parts[1]``, exactly."""
    values = [jets.values(part) for part in parts]
    if len(values) == 1:
        return values[0]
    out = values[0].astype(complex)
    out.imag = values[1]
    return out


def verify_candidates(structure, candidate, points, mode="real", orientation=1):
    """Residual reports of a closed-form candidate at every point, in order:
    :func:`verify_columns` as a :class:`ResidualReport` per point.

    The candidate's ``alpha_exprs`` are differentiated exactly via jets: 2
    real components, or 4 (re1, re2, im1, im2) in complex mode.  Points are
    taken in the batches of :func:`_batches`; each point gets its own order-3
    :class:`~sfmew.geometry.Frame`, their stack evaluates the structure
    once, and each expression is evaluated once on the batch's node
    columns.  A domain error is the one a point-by-point pass meets first:
    a point's frame, then its candidate.  The invariant chain and F, the
    curl of alpha, run once on the batch, and the residuals are computed as
    for a lifted root (:func:`_candidate_residuals`); a node's report does
    not depend on its batch.  At flat points the invariant-based algebraic
    residuals are reported as zero (not applicable).  ``mode`` is one of
    :data:`MODES`; any other raises ValueError.  ``orientation`` (+1 or -1)
    flips F.
    """
    return verify_columns(structure, candidate, points, mode, orientation).reports()


def verify_columns(structure, candidate, points, mode="real", orientation=1):
    """The residuals of :func:`verify_candidates` as :class:`ResidualColumns`."""
    check_mode(mode)
    exprs = candidate.alpha_exprs
    if exprs is None:
        raise ValueError("verify_candidates needs closed-form alpha expressions")
    if len(exprs) != (4 if mode == "complex" else 2):
        raise ValueError(
            "complex mode needs 4 components (re1, re2, im1, im2)"
            if mode == "complex" else "real mode needs 2 components"
        )
    points = [tuple(map(float, p)) for p in points]
    parts = [_verify_chunk(structure, exprs, points[part], mode, orientation)
             for part in _batches(len(points))]
    jets.release_tables()
    return ResidualColumns.joined(parts) if parts else _nan_residuals([], mode, "jets")


def _batches(n):
    """The fewest slices of at most ``_CHUNK`` items that cover ``range(n)`` in
    order, their widths differing by at most 1: the widest batch sets the
    peak memory, so 1025 items go as 342 + 342 + 341, not 512 + 512 + 1."""
    count = -(-n // _CHUNK)
    width, wider = divmod(n, count) if count else (0, 0)
    bounds = [k * width + min(k, wider) for k in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


# the invariants the residuals of a closed-form candidate read
_RESIDUAL_INVARIANTS = ("Y", "U_up", "Y_up", "W", "phi", "ell", "rho", "mu")


def _verify_chunk(structure, exprs, points, mode, orientation):
    order = _CLOSED_FORM_ORDER
    # a candidate beyond the float range gets NaN residuals, and fails, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            frame = Frame.stack([Frame(structure, p, order, orientation) for p in points])
            comps = [eval_jet(e, frame.xy, order, frame.space) for e in exprs]
        except (jets.JetError, ArithmeticError):
            # the error a point-by-point pass meets first: a point's frame, then its candidate
            for p in points:
                space = Frame.stack([Frame(structure, p, order, orientation)]).space
                for e in exprs:
                    eval_jet(e, p, order, space)
            raise
        # alpha_b = re[b] + i im[b]; one part in real mode
        parts = [comps[:2]] if mode == "real" else [comps[:2], comps[2:]]
        # F = o e^{-2u} (nabla_1 alpha_2 - nabla_2 alpha_1) of each part: Gamma is
        # symmetric, so its terms cancel and the partials are left
        F_parts = [
            float(orientation) * (frame.e2u_inv * (part[1].d_dx() - part[0].d_dy()))
            for part in parts
        ]
        field = InvariantField(frame)
        inv, flat = _residual_values(field), field.flat
        del field  # the residuals read its node values only
        return _candidate_residuals(frame, inv, flat, mode, "jets", parts, F_parts)


def _residual_values(chain):
    """The node values of the invariants the residuals read, from an invariant
    chain of jets: an :class:`~sfmew.invariants.InvariantField`, or its
    :meth:`~sfmew.invariants.InvariantField.invariant_jets`."""
    return PointInvariants(
        **{name: jets.values(getattr(chain, name)) for name in _RESIDUAL_INVARIANTS}
    )


_COEFFS = (coeffs_P1, coeffs_P2, coeffs_P3)
#: The resultants of a verdict, in order: pair name -> its constraints (P1..P3 as 0..2).
RESULTANT_PAIRS = {"res12": (0, 1), "res13": (0, 2), "res23": (1, 2)}
# the order in which a node's gaps are taken: smallest Sylvester matrix first, as
# P1, P2 and P3 have degrees 8, 10 and 6
_GAP_ORDER = ("res13", "res23", "res12")


def _horner(coeffs, t):
    """P(t) and P'(t) for coefficients lowest degree first (floats or jets)."""
    p, dp = coeffs[-1], 0.0
    for c in coeffs[-2::-1]:
        dp = dp * t + p
        p = p * t + c
    return p, dp


def _value(x):
    return getattr(x, "value", x)


def _lift_root(coeffs, f0, p, dp):
    """Jet of the root branch F of a polynomial with coefficient jets, through
    a simple root f0, from P(f0) and P'(f0) (``p``, ``dp``).

    Newton steps in jet arithmetic; they also polish the value against the
    full coefficients (:func:`~sfmew.polyalg.trimmed_degrees` drops
    negligible leading ones before the root search).  On node columns ``f0``
    holds one root per node.
    """
    F = f0
    for step in range(_LIFT_STEPS):
        if step:
            p, dp = _horner(coeffs, F)
        F = F - p / dp
    return F


def _is_simple(coeffs, f0, dp):
    """Whether P'(f0), ``dp``, is not numerically zero next to the size of its terms."""
    scale = sum(i * abs(_value(c)) * np.abs(f0) ** (i - 1) for i, c in enumerate(coeffs) if i)
    return abs(_value(dp)) > TOL_ROOT * scale


def _lifted_reports(structure, points, orientation, cols, roots):
    """Verify the reconstructed candidates of real roots by lifting them to jets.

    Root ``roots[i]`` belongs to the point ``points[cols[i]]`` of
    ``structure`` (with ``orientation``), which is not flat; all roots are
    lifted together, one node column each, on an invariant chain of order
    ``LIFT_ORDER`` over new frames of their points, and their residuals read
    the invariants of that chain.  Raises
    :class:`~sfmew.invariants.FlatPoint` where the points are flat.  A root
    is lifted with every constraint of which it is a simple root, and the
    lift kept that passes, else the first with the smallest residual: near
    flat points one constraint can have its roots far less accurate than
    another.  A lift fails when it moves F by more than
    :data:`~sfmew.polyalg.TOL_ROOT` (relative): f0 is then no root,
    whatever root it leads to.  Returns the residuals of every root as
    :class:`ResidualColumns`, and the mask of the roots that are simple in
    some constraint; the others have NaN residuals and fail.
    """
    nodes, cols = np.unique(cols, return_inverse=True)
    field = InvariantField([Frame(structure, points[c], LIFT_ORDER, orientation) for c in nodes])
    frame, jinv, roots = field.frame, field.invariant_jets(), np.asarray(roots, dtype=float)
    del field  # the lifts read its invariant jets and its frame only
    parts = [_lift_batch(frame, jinv, cols[part], roots[part]) for part in _batches(len(roots))]
    return (ResidualColumns.joined([lifts for lifts, _ in parts]),
            np.concatenate([lifted for _, lifted in parts]))


def _lift_batch(frame, jinv, cols, f0):
    # the residuals read the frame's values, and Gamma times jets of order 0
    jinv, frame = jinv.take(cols), frame.take(cols, order=1)
    best = _nan_residuals(frame.points, "real", "jet-lift")
    lifted = np.zeros(f0.size, dtype=bool)
    for coeffs_of in _COEFFS:
        coeffs = coeffs_of(jinv)
        p, dp = _horner(coeffs, f0)
        sel = np.flatnonzero(_is_simple(coeffs, f0, dp))
        if not sel.size:
            continue
        if sel.size == f0.size:
            F = _lift_root(coeffs, f0, p, dp)
            lifts = _lift_residuals(frame, jinv, f0, F)
        else:  # columns are independent: P(f0) and P'(f0) at ``sel`` keep their bits
            F = _lift_root(jets.take(coeffs, sel), f0[sel], *jets.take([p, dp], sel))
            lifts = _lift_residuals(frame.take(sel), jinv.take(sel), f0[sel], F)
        # a lift replaces the one kept where it passes and that one fails, or
        # where both pass or fail and its residual is smaller
        passed, kept = lifts.passed, best.passed[sel]
        better = ~lifted[sel] | (passed & ~kept) | (
            (passed == kept) & (lifts.max_residual < best.max_residual[sel])
        )
        for column, new in zip(best[3:], lifts[3:]):
            column[sel[better]] = new[better]
        lifted[sel] = True
    return best, lifted


def _lift_residuals(frame, jinv, f0, F):
    """Residual columns of the candidates of the lifted roots ``F`` (one per node column)."""
    numer, denom = _alpha_parts(jinv, F)
    alpha = [n / denom for n in numer]
    on_root = np.abs(F.value - f0) <= TOL_ROOT * np.maximum(1.0, np.abs(f0))
    return _candidate_residuals(
        frame, _residual_values(jinv), np.zeros(f0.size, dtype=bool), "real", "jet-lift",
        [alpha], [F], on_root,
    )


def verify_candidate(structure, candidate, point, mode="real", orientation=1):
    """Residual report for a candidate at a point.

    A closed-form candidate (``alpha_exprs`` set) goes through
    :func:`verify_candidates` on this one point.  Reconstructed candidates
    are differentiated exactly too, by lifting their F, a root of the
    constraints, to a jet, with each constraint of which it is a simple root
    (the best lift is reported); they raise :class:`MultipleRoot` where it
    is a simple root of none, and :class:`~sfmew.invariants.FlatPoint` at
    a flat point.  ``orientation`` (+1 or -1) flips F.
    """
    check_mode(mode)
    if candidate.alpha_exprs is not None:
        return verify_candidates(structure, candidate, [point], mode, orientation)[0]
    if mode == "complex":
        raise ValueError("complex mode requires closed-form alpha expressions")
    f0 = float(candidate.F.real)
    lifts, lifted = _lifted_reports(structure, [point], orientation, [0], [f0])
    if not lifted[0]:
        raise MultipleRoot(f"F = {f0} is a multiple root of every constraint")
    return lifts.reports()[0]


# ---------------------------------------------------------------------------
# classification


def classify_point(structure, point, orientation=1):
    """Run the full decision procedure at one point (deterministic)."""
    return classify_points(structure, [point], orientation)[0]


def classify_points(structure, points, orientation=1):
    """Run the decision procedure at every point; a list of verdicts in order.

    Points go through the invariant chain, the constraint assembly and the
    resultant reports in the fewest batches of at most ``_CHUNK`` nodes, of
    equal widths but for one node (:func:`_batches`); each node's verdict
    is bit-identical to the one it gets alone.  ``orientation`` (+1 or -1)
    flips F.  The verdicts are :func:`classify_columns`'s, one
    :class:`Verdict` per point.
    """
    return classify_columns(structure, points, orientation).verdicts() if points else []


def classify_columns(structure, points, orientation=1):
    """The verdicts of :func:`classify_points` as :class:`VerdictColumns`, at
    one point or more (ValueError without one)."""
    if not points:
        raise ValueError("classify_columns needs at least one point")
    points = [tuple(map(float, p)) for p in points]
    parts = [_classify_chunk(structure, points[part], orientation)
             for part in _batches(len(points))]
    jets.release_tables()  # the product tables of this scan's widths are not kept past it
    return VerdictColumns.joined(parts)


# notes of nodes beyond the float range, as constraints.NOT_FINITE for the coefficients
_NOT_FINITE_INVARIANTS = "invariants are not all finite"
_NOT_FINITE_BRANCH = "degenerate-branch tensor is not all finite"
# the rules that decide a node, in the order a node meets them, with the tag and the
# note each gives; the notes of real roots without a lift and of complex witnesses
# go on to name them
_RULES = (
    (VerdictTag.FLAT, "Cotton-York form vanishes; reduces to the conformally Einstein equation"),
    (VerdictTag.INCONCLUSIVE, _NOT_FINITE_INVARIANTS),
    (VerdictTag.INCONCLUSIVE, _NOT_FINITE_BRANCH),
    (VerdictTag.MZERO_ADMITS, "degenerate-branch tensor vanishes"),
    (VerdictTag.MZERO_ADMITS, "degenerate-branch tensor vanishes (forced F consistency flag false)"),
    (VerdictTag.INCONCLUSIVE, "degenerate constraint polynomial"),
    (VerdictTag.INCONCLUSIVE, NOT_FINITE),
    (VerdictTag.ADMITS, "verified real common root(s)"),
    (VerdictTag.INCONCLUSIVE, "real common roots exist but none verified"),
    (VerdictTag.VANISHING, "constraints share only complex roots: "),
    (VerdictTag.OBSTRUCTED, "at least one resultant certified nonzero"),
    (VerdictTag.INCONCLUSIVE, "resultants at numerical zero without a common-root witness"),
    (VerdictTag.OBSTRUCTED, "no common root; resultants bounded away from numerical zero"),
)
_RULE_TAGS = np.array([TAGS.index(tag) for tag, _ in _RULES])
_RULE_NOTES = [note for _, note in _RULES]
_VANISHING_RULE = [tag for tag, _ in _RULES].index(VerdictTag.VANISHING)
# the candidates' source on the verdicts that have them
_SOURCES = {VerdictTag.ADMITS: "Alpha1Formula", VerdictTag.MZERO_ADMITS: "MZeroFormula"}


def _classify_chunk(structure, points, orientation):
    field = InvariantField([Frame(structure, p, SCAN_ORDER, orientation) for p in points])
    values = field.invariant_values()  # node arrays over the batch, NaN at flat nodes
    n = len(points)
    # every rule is a mask over the batch's nodes; beyond the float range, and at
    # a flat node, a node's invariants are not finite and decide nothing
    finite = values.finite()
    # degenerate branch: sigma > 0 and not numerically zero, decided by the tensor M
    branch = ~field.sigma_is_zero() & finite & (values.sigma > 0.0)
    mrep = field.m_tensor()  # NaN off the branch
    # the later stages read node arrays only: the field's jets and frame are freed
    flat = field.flat
    del field
    branch_finite = branch & np.isfinite([mrep.norm, mrep.scale, *mrep.alpha]).all(axis=0)
    mzero = branch_finite & (mrep.norm < _TOL_M * mrep.scale)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # finite or Inconclusive
        f_forced, consistent = f_from_P0_branch(values)
    # the mask reads P0 too: at a node with finite invariants it is finite where P1 is
    _, coeff_finite, (p0, *polys) = constraint_columns(values)
    rest = (finite & ~branch) | (branch_finite & ~mzero)  # decided by P1..P3
    proper = rest & coeff_finite & np.all([p.degrees >= 1 for p in polys], axis=0)
    ok = np.flatnonzero(proper)
    ok_polys = [p.take(ok) for p in polys]
    normalized, scale, gap = (np.full((len(RESULTANT_PAIRS), n), np.nan) for _ in range(3))
    for k, (i, j) in enumerate(RESULTANT_PAIRS.values()):
        reports = column_resultant_reports(ok_polys[i], ok_polys[j])
        normalized[k, ok], scale[k, ok] = reports.normalized, reports.scale
    # one common-root witness search for all of them
    roots = column_common_roots(ok_polys, p0.take(ok))
    root_node, complex_node = ok[roots.real_col], ok[roots.complex_col]
    has_real, has_complex = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    has_real[root_node], has_complex[complex_node] = True, True
    # Sylvester gaps where no witness decides, up to the first that certifies a
    # resultant nonzero; a witness bounds every gap far below that (decisions §8)
    todo = np.flatnonzero(proper & ~has_real & ~has_complex)
    for name in _GAP_ORDER:
        if not todo.size:
            break
        i, j = RESULTANT_PAIRS[name]
        gaps = column_gaps(polys[i].take(todo), polys[j].take(todo))
        gap[list(RESULTANT_PAIRS).index(name), todo] = gaps
        todo = todo[~(gaps > _TOL_RES_HIGH)]
    widest = np.fmax.reduce(gap, axis=0)  # the largest gap read, NaN where none is
    alpha, keep, lifts, lifted = _verify_witnesses(structure, values, root_node, roots.real)
    passed = np.zeros(root_node.size, dtype=bool)
    passed[keep] = lifts.passed
    admits = np.zeros(n, dtype=bool)
    admits[root_node[passed]] = True

    # the masks of the rules, in order: a node takes the first that holds, else the last
    rule = np.select([
        flat,
        ~(rest | mzero) & ~branch,
        ~(rest | mzero),
        mzero & consistent,
        mzero,
        ~proper & coeff_finite,
        ~proper,
        admits,
        has_real,
        has_complex,
        widest > _TOL_RES_HIGH,
        widest < _TOL_RES_LOW,
    ], list(range(len(_RULES) - 1)), len(_RULES) - 1)
    note = [_RULE_NOTES[r] for r in rule.tolist()]
    # an Inconclusive node's roots without a lift, and a Vanishing node's complex roots
    multiple = keep[~lifted & ~admits[root_node[keep]]]
    _append_roots(note, root_node[multiple], roots.real[multiple], "; multiple root F = ")
    named = rule[complex_node] == _VANISHING_RULE
    _append_roots(note, complex_node[named], roots.complex[named], "")

    # F candidates: the forced F of an MZeroAdmits node, the verified roots of an
    # AdmitsRealCandidate node, every real root of any other node with real roots
    mz = np.flatnonzero(mzero)
    shown = passed | ~admits[root_node]
    f_node = np.concatenate([mz, root_node[shown]])
    order = np.argsort(f_node, kind="stable")
    # the residual reports on the verdicts: the verified roots' of an
    # AdmitsRealCandidate node, every lifted root's of an Inconclusive one
    on_verdict = np.flatnonzero(lifted & (lifts.passed | ~admits[root_node[keep]]))
    return VerdictColumns(
        points=points,
        tag=_RULE_TAGS[rule],
        note=note,
        m_norm=np.where(branch, mrep.norm, np.nan),
        branch=branch,
        resultant=proper,
        normalized=normalized,
        scale=scale,
        gap=gap,
        f_node=f_node[order],
        f_value=np.concatenate([f_forced[mz], roots.real[shown]])[order],
        f_alpha=np.concatenate([mrep.alpha[:, mz], alpha[:, shown]], axis=1)[:, order],
        report_node=root_node[keep[on_verdict]],
        reports=lifts.take(on_verdict),
    )


def _append_roots(note, nodes, roots, prefix):
    """Append to the note of each node ``prefix`` and its roots, ``roots``
    given node by node (``nodes`` ascending), each as ``:.6g`` formats it."""
    texts = [f"{z:.6g}" for z in roots.tolist()]
    bounds = [0, *(np.flatnonzero(np.diff(nodes)) + 1).tolist(), len(texts)]
    for start, stop in zip(bounds, bounds[1:]) if texts else ():
        note[nodes[start]] += prefix + ", ".join(texts[start:stop])


def _coefficient_columns(coeffs, n):
    """Coefficient list of node arrays (or floats for all nodes) as an array (len, n)."""
    return np.array([np.broadcast_to(c, (n,)) for c in coeffs])


def constraint_columns(values):
    """The coefficients of P0..P3 at the nodes of ``values`` (invariants as node
    arrays), (len, N) each, an inf or a NaN beyond the float range; the mask
    of the nodes where all are finite; and each trimmed and normalized once,
    as :class:`~sfmew.polyalg.NormalizedColumns`.  A scan decides on these
    columns."""
    n = len(values.point)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = [_coefficient_columns(fn(values), n) for fn in (coeffs_P0, *_COEFFS)]
    finite = np.all([np.isfinite(c).all(axis=0) for c in coeffs], axis=0)
    return coeffs, finite, [normalized_columns(c) for c in coeffs]


def scan_invariants(structure, points, orientation=1):
    """Per batch of a scan (:func:`_batches`), the invariants at its ``points`` as
    node arrays (:meth:`~sfmew.invariants.InvariantField.invariant_values`) and
    its flat mask; a domain error is the one a point-by-point pass meets first."""
    fields = (InvariantField([Frame(structure, p, SCAN_ORDER, orientation) for p in points[part]])
              for part in _batches(len(points)))
    batches = [(field.invariant_values(), field.flat) for field in fields]
    jets.release_tables()
    return batches


def _verify_witnesses(structure, values, cols, f0):
    """The reconstructed candidates of the real common roots ``f0`` of the
    nodes ``cols`` of a batch, verified in one batch of lifts.

    ``values`` holds the batch's invariants as node arrays, and its points.
    Returns every root's alpha (2, R), the roots ``keep`` where P0 does not
    vanish (elsewhere the formula has no alpha), and :func:`_lifted_reports`
    of those roots: their residual columns and lifted mask.
    """
    inv = values.take(cols)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        numer, denom = _alpha_parts(inv, f0)
        alpha = np.array(numer) / denom
    keep = np.flatnonzero(~_p0_vanishes(inv, f0, denom))
    if not keep.size:
        return alpha, keep, _nan_residuals([], "real", "jet-lift"), np.zeros(0, dtype=bool)
    lifts, lifted = _lifted_reports(structure, values.point, values.orientation, cols[keep],
                                    f0[keep])
    return alpha, keep, lifts, lifted


@dataclass
class VerdictColumns:
    """The verdicts of N nodes as node columns.

    Node ``c`` has the tag ``TAGS[tag[c]]`` and the note ``note[c]``, and
    ``m_norm[c]`` where ``branch[c]`` holds (elsewhere its verdict's m_norm
    is None, and ``m_norm[c]`` NaN).  Where ``resultant[c]`` holds it has
    three resultant reports, ``normalized``, ``scale`` and ``gap`` of shape
    (3, N) in the order of :data:`RESULTANT_PAIRS`, a gap NaN where no
    verdict read it (None in its report).  Two tables, in node order, hold
    the rest: the F candidates ``f_value`` of the nodes ``f_node``, with
    the candidate 1-forms ``f_alpha`` (2, F) that the nodes tagged
    ``AdmitsRealCandidate`` and ``MZeroAdmits`` read, and the residual
    reports ``reports`` of the nodes ``report_node``.
    """

    points: list
    tag: np.ndarray
    note: list
    m_norm: np.ndarray
    branch: np.ndarray
    resultant: np.ndarray
    normalized: np.ndarray
    scale: np.ndarray
    gap: np.ndarray
    f_node: np.ndarray
    f_value: np.ndarray
    f_alpha: np.ndarray
    report_node: np.ndarray
    reports: ResidualColumns

    @classmethod
    def joined(cls, parts):
        """The columns of consecutive batches of nodes as one."""
        if len(parts) == 1:
            return parts[0]
        offsets = np.cumsum([0] + [len(part.points) for part in parts[:-1]])
        joined = {}
        for name in (f.name for f in fields(cls)):
            columns = [getattr(part, name) for part in parts]
            if name.endswith("_node"):  # node numbers of the batch: of the call
                columns = [c + offset for c, offset in zip(columns, offsets)]
            if isinstance(columns[0], list):
                joined[name] = [item for c in columns for item in c]
            elif isinstance(columns[0], ResidualColumns):
                joined[name] = ResidualColumns.joined(columns)
            else:
                joined[name] = np.concatenate(columns, axis=-1)
        return cls(**joined)

    @property
    def value(self):
        """The resultant values (3, N), ``normalized * scale`` by its rule."""
        return ResultantColumns(self.normalized, self.scale).value

    def residual(self):
        """The smallest max_residual of each node's reports as Python's ``min``
        takes it, in order (a NaN first value stays, a later NaN is passed
        over), and the mask of the nodes that have reports."""
        node, values = self.report_node, self.reports.max_residual
        out = np.full(len(self.points), np.nan)
        has = np.zeros(len(self.points), dtype=bool)
        has[node] = True
        position = np.arange(node.size) - np.searchsorted(node, node)  # among its node's
        for k in range(int(position.max(initial=-1)) + 1):
            at = position == k
            smaller = values[at] < out[node[at]] if k else np.ones(np.count_nonzero(at), bool)
            out[node[at][smaller]] = values[at][smaller]
        return out, has

    def tags(self, nodes=slice(None)):
        """The tags of the nodes ``nodes`` (a slice), in order."""
        return [TAGS[t] for t in self.tag[nodes].tolist()]

    def tally(self, nodes=slice(None)):
        """:func:`tally` of the verdicts of the nodes ``nodes`` (a slice)."""
        part = np.zeros(len(self.points), dtype=bool)
        part[nodes] = True
        admitted = part[self.f_node] & (self.tag[self.f_node] == TAGS.index(VerdictTag.ADMITS))
        return tally(self.tags(nodes), self.f_value[admitted].tolist())

    def verdicts(self):
        """The :class:`Verdict` of each node, in order: the one adapter from
        verdict columns to verdicts."""
        n = len(self.points)
        f_bounds = np.searchsorted(self.f_node, np.arange(n + 1)).tolist()
        r_bounds = np.searchsorted(self.report_node, np.arange(n + 1)).tolist()
        reports = self.reports.reports()
        pairs = zip(*(a.T.tolist() for a in (self.normalized, self.scale, self.gap)))
        verdicts = []
        for c, (point, tag, m_norm, branch, resultant, (normalized, scale, gap)) in enumerate(
            zip(self.points, self.tags(), self.m_norm.tolist(), self.branch.tolist(),
                self.resultant.tolist(), pairs)
        ):
            start, stop = f_bounds[c], f_bounds[c + 1]
            # a verified root's F is a float, and every other one a numpy float
            fs = list(self.f_value[start:stop])
            if tag is VerdictTag.ADMITS:
                fs = [float(f) for f in fs]
            source = _SOURCES.get(tag)
            verdicts.append(Verdict(
                tag=tag,
                point=point,
                resultants={
                    name: ResultantReport(a, b, None if math.isnan(g) else g)
                    for name, a, b, g in zip(RESULTANT_PAIRS, normalized, scale, gap)
                } if resultant else {},
                f_candidates=fs,
                candidates=[
                    SolutionCandidate(F=f, alpha=self.f_alpha[:, i], source=source, point=point)
                    for i, f in enumerate(fs, start)
                ] if source else [],
                residuals=reports[r_bounds[c] : r_bounds[c + 1]],
                m_norm=m_norm if branch else None,
                note=self.note[c],
            ))
        return verdicts


# ---------------------------------------------------------------------------
# region scan


@dataclass
class RegionSpec:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be >= 1")
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.ymin, self.ymax))):
            raise ValueError("region bounds must be finite")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("need xmin < xmax and ymin < ymax")

    def nodes(self):
        xs = np.linspace(self.xmin, self.xmax, self.nx)
        ys = np.linspace(self.ymin, self.ymax, self.ny)
        for x in xs:
            for y in ys:
                yield (float(x), float(y))


@dataclass
class NodeVerdict:
    x: float
    y: float
    verdict: Verdict


@dataclass
class RegionReport:
    region: RegionSpec
    nodes: list
    histogram: dict
    summary: str
    flags: list


def _format_f_set(values, ndigits=6):
    vals = sorted(set(round(float(v), ndigits) for v in values))
    if len(vals) == 2 and vals[0] == -vals[1] and vals[1] > 0:
        return f"F = ±{vals[1]:g}"
    return "F = " + ", ".join(f"{v:g}" for v in vals)


def tally(tags, admitted):
    """The histogram, the one-line structure-level summary and the flags of
    verdicts with the tags ``tags``, in order, whose ``AdmitsRealCandidate``
    verdicts have the F candidates ``admitted``.  The histogram counts each
    tag, by value, in order of first appearance."""
    histogram = {tag.value: count for tag, count in Counter(tags).items()}
    nonflat = len(tags) - histogram.get(VerdictTag.FLAT.value, 0)
    flags = [
        f"{tag.value} on {100.0 * (histogram[tag.value] / nonflat):.1f}% of non-flat nodes"
        for tag in (VerdictTag.OBSTRUCTED, VerdictTag.ADMITS, VerdictTag.VANISHING)
        if histogram.get(tag.value)
    ]
    return histogram, _summary(histogram, admitted), flags


def summarize(verdicts):
    """One-line structure-level conclusion from pointwise verdicts."""
    admitted = [f for v in verdicts if v.tag is VerdictTag.ADMITS for f in v.f_candidates]
    return tally([v.tag for v in verdicts], admitted)[1]


def _summary(counts, admitted):
    """The summary of verdicts whose histogram is ``counts`` (see :func:`tally`)."""
    effective = counts.keys() - {VerdictTag.FLAT.value, VerdictTag.INCONCLUSIVE.value}
    if not effective:
        return "FLAT" if counts.keys() == {VerdictTag.FLAT.value} else "INCONCLUSIVE"
    if effective == {VerdictTag.OBSTRUCTED.value}:
        return "OBSTRUCTED"
    if effective == {VerdictTag.ADMITS.value}:
        return f"ADMITS ({_format_f_set(admitted)})"
    if effective == {VerdictTag.MZERO_ADMITS.value}:
        return "ADMITS (M_ab = 0)"
    if effective == {VerdictTag.VANISHING.value}:
        return "VANISHING OBSTRUCTIONS (NO REAL SOLUTION)"
    return "MIXED (" + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) + ")"


def scan_region(structure, region, orientation=1):
    """Classify every grid node, in node order, with the histogram, summary and
    flags of their verdicts; nodes are independent (read-only state)."""
    if region.nx < 2 or region.ny < 2:
        raise ValueError("region scan needs at least a 2x2 grid")
    nodes = list(region.nodes())
    columns = classify_columns(structure, nodes, orientation)
    verdicts = [NodeVerdict(x, y, v) for (x, y), v in zip(nodes, columns.verdicts())]
    return RegionReport(region, verdicts, *columns.tally())

"""Pointwise decision procedure for local solvability, plus verification.

``classify_points`` runs the full pipeline at each of a list of points
(``classify_point`` is the same on one point):

1. If the Cotton-York form vanishes, the point is flat and the equation
   reduces to the conformally Einstein case (reported, not solved).
2. If sigma > 0 the degenerate branch is possible; when the branch tensor
   M_ab vanishes the structure admits a solution with the closed-form
   candidate (``MZeroAdmits``).
3. Otherwise the three constraint polynomials are assembled and their
   pairwise resultants examined.  The "does the resultant vanish" decision
   uses the smallest relative singular value of the normalized Sylvester
   matrix (``gap``): an exactly vanishing resultant gives a numerically
   singular matrix (gap ~ 1e-16) while the determinant value itself can be
   legitimately tiny for nonzero resultants.  A common-root witness search
   disambiguates the middle band.
4. Real common roots (excluding roots of P0) are reconstructed into
   candidate 1-forms and verified against the full equation; a verified
   candidate yields ``AdmitsRealCandidate``, shared complex factors yield
   ``VanishingObstructionsNoRealSolution``.  Real common roots of which none
   verifies yield ``Inconclusive``: they show neither a solution nor that
   none exists.

Points are taken in batches of ``_CHUNK`` nodes.  Each point gets its own
:class:`~sfmew.geometry.Frame`; their stack evaluates the structure once on
the batch, and the invariant chain, the constraint coefficients and the
resultant reports run once on it, with the flat and degenerate-branch nodes
as column selections.  A batch keeps alive only what a later step reads:
the stacked columns of flat nodes go once the chain has taken the others,
a node's own invariants are split off only where its verdict reads them,
and the lift takes the invariant jets of the nodes with real roots only.
The nodes no gap certifies go through one common-root witness search for
the batch (:func:`~sfmew.polyalg.column_common_roots`), which gives their
real and complex witnesses from the same eigenvalues.  Each node is then
decided in a plain loop over its floats.  Every node goes through the float
operations it would go through alone, so its verdict does not depend on its
batch.  A node whose constraint coefficients are not all finite (its
invariants beyond the float range) is ``Inconclusive``.

A reconstructed candidate is verified by lifting its root F0 to a jet, on
the invariant jets of the point itself: each Newton step
F <- F - P_k(F) / P_k'(F) in jet arithmetic doubles the number of exact
Taylor orders.  It is lifted with each constraint P_k of which F0 is a
simple root, and the best lift kept; the roots of a batch are lifted
together.  The candidate alpha then follows as a jet from the
reconstruction formula, so nabla alpha and nabla F are exact.  A root that
is simple in no constraint has no such lift and stays unverified.
Closed-form candidates are differentiated exactly via jets of their
expressions.  ``verify_candidates`` takes their points in batches of
``_CHUNK`` nodes too: per-point frames, whose stack evaluates the
structure once, the candidate's expressions evaluated once on the batch's
node columns, and one invariant chain per batch.  Both ways of verifying
give node arrays of alpha, nabla alpha, F and nabla F to one residual
assembler, which builds each node's report from its own floats.
Everything after the frames works on node columns; a single point is a
batch of one node.  Everything here is deterministic and side-effect free.
"""

import math
from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from . import jets
from .constraints import NOT_FINITE, coeffs_P1, coeffs_P2, coeffs_P3
from .expr import eval_jet
from .geometry import Frame
from .invariants import InvariantField, PointInvariants, forced_f
from .jets import ipow
from .polyalg import column_common_roots, column_resultant_reports, trimmed_degrees

__all__ = [
    "VerdictTag",
    "Verdict",
    "SolutionCandidate",
    "ResidualReport",
    "Settings",
    "RegionSpec",
    "NodeVerdict",
    "RegionReport",
    "P0Vanishes",
    "MultipleRoot",
    "alpha_from_F",
    "f_from_P0_branch",
    "classify_point",
    "classify_points",
    "verify_candidate",
    "verify_candidates",
    "scan_region",
    "region_report",
]

_CLOSED_FORM_ORDER = 4  # jets of closed-form candidates: residuals need nabla alpha, nabla F
_LIFT_STEPS = 3  # Newton steps of the root lift: exact Taylor orders 0 -> 1 -> 3 -> 7
# nodes per batch: wide enough to spread a batch's fixed work (stacked SVDs, eigvals,
# product tables) over many nodes, narrow enough to bound the memory of its jets
# (see docs/decisions.md, section 4)
_CHUNK = 96


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


@dataclass
class Settings:
    """Tolerances and conventions of the decision procedure."""

    jet_order: int = 6
    orientation: int = 1
    mode: str = "real"
    tol_flat: float = 1e-10
    tol_root: float = 1e-7
    tol_res_low: float = 1e-12  # Sylvester gap below: resultant numerically zero
    tol_res_high: float = 1e-5  # Sylvester gap above: certified nonzero
    tol_residual: float = 1e-6
    tol_sigma: float = 1e-9
    tol_m: float = 1e-8

    def __post_init__(self):
        if self.jet_order < 5:
            raise ValueError(
                "jet_order must be >= 5: the constraint coefficients keep jet_order - 4 "
                "orders, and verifying a reconstructed candidate differentiates them once"
            )
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.mode not in ("real", "complex"):
            raise ValueError("mode must be 'real' or 'complex'")
        for name in ("tol_flat", "tol_root", "tol_res_low", "tol_res_high",
                     "tol_residual", "tol_sigma", "tol_m"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_SETTINGS = Settings()


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


@dataclass
class ResultantTriple:
    pair: str
    normalized: float
    value: float
    gap: float


@dataclass
class Verdict:
    """Classification of one point, with the evidence that produced it."""

    tag: VerdictTag
    point: tuple
    resultants: list = dc_field(default_factory=list)  # ResultantTriple per pair
    f_candidates: list = dc_field(default_factory=list)
    candidates: list = dc_field(default_factory=list)  # SolutionCandidate
    residuals: list = dc_field(default_factory=list)  # ResidualReport per candidate
    m_norm: float | None = None
    note: str = ""


# ---------------------------------------------------------------------------
# reconstruction formulas


def _alpha_parts(inv, F):
    """Numerators (a list over components) and denominator P0(F) of the
    reconstruction formula, on floats or jets."""
    numer = [
        inv.L[a]
        + 2.5 * inv.rho * F * inv.Y[a]
        + 0.5 * F * F * inv.grad_rho[a]
        + 3.0 * F**4 * inv.U[a]
        for a in range(2)
    ]
    return numer, inv.sigma - 3.0 * inv.rho * F * F


def alpha_from_F(inv, F, tol_p0=1e-9):
    """Candidate 1-form for a given curvature scalar F (needs P0(F) != 0).

    alpha_a = [L_a + 5/2 rho F Y_a + (F^2/2) grad_a rho + 3 F^4 U_a] / (sigma - 3 rho F^2)
    """
    numer, denom = _alpha_parts(inv, F)
    scale = abs(inv.sigma) + 3.0 * inv.rho * F * F
    if abs(denom) <= tol_p0 * max(scale, 1e-300):
        raise P0Vanishes(f"P0({F}) = {denom:.3e} numerically zero at {inv.point}")
    return SolutionCandidate(
        F=float(F), alpha=np.array(numer) / denom, source="Alpha1Formula", point=inv.point
    )


def f_from_P0_branch(inv, rel_tol=1e-6):
    """Forced F of the degenerate branch, with its consistency flag.

    F = -(2/5)(rho ell + mu sigma + tau sigma/(3 rho) + tau phi) / rho^2;
    consistency requires F^2 = sigma / (3 rho), hence sigma > 0.
    """
    f = forced_f(inv.rho, inv.mu, inv.phi, inv.sigma, inv.tau, inv.ell)
    if inv.sigma <= 0.0:
        return f, False
    target = inv.sigma / (3.0 * inv.rho)
    consistent = abs(f * f - target) <= rel_tol * max(f * f, target)
    return f, consistent


# ---------------------------------------------------------------------------
# verification


def _complex_dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


_EPS = ((0.0, 1.0), (-1.0, 0.0))  # eps_ab / (orientation e^{2u})


def _residual_reports(frame, invs, mode, method, alpha, dalpha, F, grad_F, tol_residual,
                      on_root=None):
    """Residual reports of candidates at the nodes of ``frame``, from each node's floats.

    Node arrays, node axis last: ``alpha`` (2, N), ``dalpha[a, b]`` =
    nabla_a alpha_b, ``F`` (N,) and ``grad_F`` (2, N).  ``invs`` holds each
    node's invariants, None at a flat node, whose algebraic residuals and
    gradient cross-check are reported as zero.  Nodes fail where ``on_root``
    is false.
    """
    e2u, e2u_inv, K, P = (
        jets.values(getattr(frame, name)) for name in ("e2u", "e2u_inv", "curvature", "p")
    )
    o = float(frame.orientation)
    reports = []
    for i, (point, inv) in enumerate(zip(frame.points, invs)):
        alpha_i, dalpha_i, f = alpha[:, i], dalpha[:, :, i], F[i]
        alpha_sq = e2u_inv[i] * (alpha_i[0] * alpha_i[0] + alpha_i[1] * alpha_i[1])
        res_tensor = 0.0
        for a in range(2):
            for b in range(2):
                eps_ab = o * e2u[i] * _EPS[a][b]
                g_ab = e2u[i] if a == b else 0.0
                r = (
                    dalpha_i[a, b]
                    + alpha_i[a] * alpha_i[b]
                    + P[a, b, i]
                    - 0.5 * alpha_sq * g_ab
                    - 0.5 * eps_ab * f
                )
                res_tensor = max(res_tensor, abs(r))
        res_trace = abs(e2u_inv[i] * (dalpha_i[0, 0] + dalpha_i[1, 1]) + K[i])

        res_u = res_w = mismatch = 0.0
        if inv is not None:
            a_dot_u = _complex_dot(alpha_i, inv.U_up)
            a_dot_w = e2u_inv[i] * _complex_dot(alpha_i, inv.W)
            a_dot_y = _complex_dot(alpha_i, inv.Y_up)
            res_u = abs(a_dot_u + f * f + inv.phi)
            res_w = abs(
                a_dot_w - inv.ell - 2.5 * inv.rho * f - 3.0 * (inv.mu + a_dot_y) * f * f
            )
            # gradient cross-check: nabla_a F + 2 alpha_a F + Y_a  (jet-exact)
            for axis in range(2):
                target = -2.0 * alpha_i[axis] * f - inv.Y[axis]
                mismatch = max(mismatch, abs(grad_F[axis, i] - target))

        max_res = max(res_u, res_w, res_tensor, res_trace)
        reports.append(ResidualReport(
            point=tuple(map(float, point)),
            mode=mode,
            method=method,
            f=f if mode == "complex" else f.real,
            res_alpha_U=res_u,
            res_alpha_W=res_w,
            res_tensor=res_tensor,
            res_trace=res_trace,
            f_gradient_mismatch=mismatch,
            passed=bool(max_res < tol_residual and (on_root is None or on_root[i])),
            max_residual=max_res,
        ))
    return reports


def _complex(parts):
    """The complex array ``parts[0] + i parts[1]`` (i 0 without ``parts[1]``), exactly."""
    out = parts[0].astype(complex)
    if len(parts) > 1:
        out.imag = parts[1]
    return out


def verify_candidates(structure, candidate, points, mode="real", settings=None):
    """Residual reports of a closed-form candidate at every point, in order.

    The candidate's ``alpha_exprs`` are differentiated exactly via jets: 2
    real components, or 4 (re1, re2, im1, im2) in complex mode.  Points are
    taken in batches of ``_CHUNK`` nodes; each point gets its own order-4
    :class:`~sfmew.geometry.Frame`, their stack evaluates the structure
    once, and each expression is evaluated once on the batch's node
    columns.  A domain error is the one a point-by-point pass meets first:
    a point's frame, then its candidate.  The invariant chain, the
    derivatives of alpha and the curl of alpha run once on the batch; each
    node's residuals are assembled from its own floats, so its report does
    not depend on its batch.  At flat points the invariant-based algebraic residuals are
    reported as zero (not applicable).
    """
    settings = settings or DEFAULT_SETTINGS
    exprs = candidate.alpha_exprs
    if exprs is None:
        raise ValueError("verify_candidates needs closed-form alpha expressions")
    if len(exprs) != (4 if mode == "complex" else 2):
        raise ValueError(
            "complex mode needs 4 components (re1, re2, im1, im2)"
            if mode == "complex" else "real mode needs 2 components"
        )
    points = [tuple(map(float, p)) for p in points]
    reports = []
    for start in range(0, len(points), _CHUNK):
        reports += _verify_chunk(structure, exprs, points[start : start + _CHUNK], mode, settings)
    jets.release_tables()
    return reports


# the invariants the residuals of a closed-form candidate read
_RESIDUAL_INVARIANTS = ("Y", "U_up", "Y_up", "W", "phi", "ell", "rho", "mu")


def _verify_chunk(structure, exprs, points, mode, settings):
    order, o = _CLOSED_FORM_ORDER, float(settings.orientation)
    try:
        frame = Frame.stack([Frame(structure, p, order, settings.orientation) for p in points])
        comps = [eval_jet(e, points, order, frame.space) for e in exprs]
    except (jets.JetError, ArithmeticError):
        # the error a point-by-point pass meets first: a point's frame, then its candidate
        for p in points:
            space = Frame.stack([Frame(structure, p, order, settings.orientation)]).space
            for e in exprs:
                eval_jet(e, p, order, space)
        raise
    # alpha_b = re[b] + i im[b]; one part in real mode
    parts = [comps[:2]] if mode == "real" else [comps[:2], comps[2:]]

    # node values, node axis last: alpha, its partials [a][b] = d_a alpha_b, and
    # the partials [a] of F = o e^{-2u} (d_x alpha_2 - d_y alpha_1)
    ix, iy = frame.space.index[(1, 0)], frame.space.index[(0, 1)]
    alpha = _complex([jets.values(part) for part in parts])
    partials = _complex([np.array([[j.vec[k] for j in part] for k in (ix, iy)]) for part in parts])
    curls = [frame.e2u_inv * (part[1].d_dx() - part[0].d_dy()) for part in parts]
    grad_F = _complex([np.array([o * c.vec[ix], o * c.vec[iy]]) for c in curls])
    gamma, e2u_inv = jets.values(frame.gamma), jets.values(frame.e2u_inv)

    # nabla_a alpha_b = d_a alpha_b - (Gamma^1_ab alpha_1 + Gamma^2_ab alpha_2), on
    # each node's floats: Frame.cov_deriv subtracts the two terms one at a
    # time, which rounds differently
    dalpha, F = np.empty_like(partials), np.empty_like(alpha[0])
    for i in range(len(points)):
        for a in range(2):
            for b in range(2):
                dalpha[a, b, i] = partials[a, b, i] - sum(
                    gamma[c, a, b, i] * alpha[c, i] for c in range(2)
                )
        F[i] = o * e2u_inv[i] * (dalpha[0, 1, i] - dalpha[1, 0, i])

    field = InvariantField(frame, settings.tol_flat)
    invs = [None] * len(points)
    if field.nodes.size:
        vals = [(name, jets.values(getattr(field, name))) for name in _RESIDUAL_INVARIANTS]
        for c, node in enumerate(field.nodes):
            invs[node] = PointInvariants(
                point=points[node], **{name: v[:, c] if v.ndim == 2 else v[c] for name, v in vals}
            )
    return _residual_reports(
        frame, invs, mode, "jets", alpha, dalpha, F, grad_F, settings.tol_residual
    )


_COEFFS = (coeffs_P1, coeffs_P2, coeffs_P3)
_PAIRS = (("res12", 0, 1), ("res13", 0, 2), ("res23", 1, 2))


def _horner(coeffs, t):
    """P(t) and P'(t) for coefficients lowest degree first (floats or jets)."""
    p, dp = coeffs[-1], 0.0
    for c in coeffs[-2::-1]:
        dp = dp * t + p
        p = p * t + c
    return p, dp


def _value(x):
    return getattr(x, "value", x)


def _lift_root(coeffs, f0, tol_root):
    """Jet of the root branch F of a polynomial with coefficient jets, through f0.

    Newton steps in jet arithmetic; they also polish the value against the
    full coefficients (``Poly`` trims negligible leading ones before root
    finding).  Raises :class:`MultipleRoot` where P'(f0) is numerically zero
    relative to the size of its terms.  On node columns ``f0`` holds one
    root per node.
    """
    p, dp = _horner(coeffs, f0)
    if not np.all(_is_simple(coeffs, f0, dp, tol_root)):
        raise MultipleRoot(f"P'({f0}) = {_value(dp)} numerically zero")
    F = f0
    for step in range(_LIFT_STEPS):
        if step:
            p, dp = _horner(coeffs, F)
        F = F - p / dp
    return F


def _is_simple(coeffs, f0, dp, tol_root):
    """Whether P'(f0), ``dp``, is not numerically zero next to the size of its terms."""
    scale = sum(i * abs(_value(c)) * ipow(abs(f0), i - 1) for i, c in enumerate(coeffs) if i)
    return abs(_value(dp)) > tol_root * scale


def _lifted_reports(field, cols, roots, invs, settings):
    """Verify the reconstructed candidates of real roots by lifting them to jets.

    Root ``roots[i]`` belongs to the node ``cols[i]`` of ``field`` (an index
    into ``field.nodes``), whose invariants are ``invs[i]``; all roots are
    lifted together, one node column each.  A root is lifted with every
    constraint of which it is a simple root, and the lift kept that passes,
    else the one with the smallest residual: near flat points one constraint
    can have its roots far less accurate than another.  A lift fails when it
    moves F by more than ``tol_root`` (relative): f0 is then no root,
    whatever root it leads to.  Returns a :class:`ResidualReport` per root,
    or None where the root is simple in no constraint.
    """
    nodes, cols = np.unique(cols, return_inverse=True)
    if nodes.size < field.nodes.size:  # the invariant jets of the roots' nodes only
        field = field.take(nodes)
    jinv = field.invariant_jets()
    reports = []
    for start in range(0, len(roots), _CHUNK):
        part = slice(start, start + _CHUNK)
        reports += _lift_batch(field.frame, jinv, cols[part], roots[part], invs[part], settings)
    return reports


def _lift_batch(frame, jinv, cols, roots, invs, settings):
    f0 = np.array(roots, dtype=float)
    jinv, frame = jinv.take(cols), frame.take(cols)
    best = [None] * f0.size
    for coeffs_of in _COEFFS:
        coeffs = coeffs_of(jinv)
        sel = np.flatnonzero(_is_simple(coeffs, f0, _horner(coeffs, f0)[1], settings.tol_root))
        if not sel.size:
            continue
        if sel.size == f0.size:
            F = _lift_root(coeffs, f0, settings.tol_root)
            reports = _lift_residuals(frame, jinv, invs, f0, F, settings)
        else:
            F = _lift_root(jets.take(coeffs, sel), f0[sel], settings.tol_root)
            reports = _lift_residuals(
                frame.take(sel), jinv.take(sel), [invs[i] for i in sel], f0[sel], F, settings
            )
        for i, rep in zip(sel, reports):
            old = best[i]
            if old is None or (not rep.passed, rep.max_residual) < (
                not old.passed, old.max_residual
            ):
                best[i] = rep
    return best


def _lift_residuals(frame, jinv, invs, f0, F, settings):
    """Residual reports of the candidates of the lifted roots ``F`` (one per node column)."""
    numer, denom = _alpha_parts(jinv, F)
    alpha = [n / denom for n in numer]
    on_root = np.abs(F.value - f0) <= settings.tol_root * np.maximum(1.0, np.abs(f0))
    return _residual_reports(
        frame, invs, "real", "jet-lift", jets.values(alpha),
        jets.values(frame.cov_deriv(alpha, "d")), F.value, jets.values(frame.grad(F)),
        settings.tol_residual, on_root,
    )


def verify_candidate(structure, candidate, point, mode="real", settings=None):
    """Residual report for a candidate at a point.

    A closed-form candidate (``alpha_exprs`` set) goes through
    :func:`verify_candidates` on this one point.  Reconstructed candidates
    are differentiated exactly too, by lifting their F, a root of the
    constraints, to a jet, with each constraint of which it is a simple root
    (the best lift is reported); they raise :class:`MultipleRoot` where it
    is a simple root of none.
    """
    settings = settings or DEFAULT_SETTINGS
    if candidate.alpha_exprs is not None:
        return verify_candidates(structure, candidate, [point], mode, settings)[0]
    if mode == "complex":
        raise ValueError("complex mode requires closed-form alpha expressions")
    field = InvariantField(
        Frame(structure, point, settings.jet_order, settings.orientation),
        settings.tol_flat,
    )
    field.require_not_flat()
    f0 = float(candidate.F.real)
    rep = _lifted_reports(field, [0], [f0], field.point_invariants(), settings)[0]
    if rep is None:
        raise MultipleRoot(f"F = {f0} is a multiple root of every constraint")
    return rep


# ---------------------------------------------------------------------------
# classification


def classify_point(structure, point, settings=None):
    """Run the full decision procedure at one point (deterministic)."""
    return classify_points(structure, [point], settings)[0]


def classify_points(structure, points, settings=None):
    """Run the decision procedure at every point; a list of verdicts in order.

    Points go through the invariant chain, the constraint assembly and the
    resultant reports in batches of ``_CHUNK`` nodes; each node's verdict is
    bit-identical to the one it gets alone.
    """
    settings = settings or DEFAULT_SETTINGS
    points = [tuple(map(float, p)) for p in points]
    verdicts = []
    for start in range(0, len(points), _CHUNK):
        verdicts += _classify_chunk(structure, points[start : start + _CHUNK], settings)
    jets.release_tables()  # the product tables of this scan's widths are not kept past it
    return verdicts


def _classify_chunk(structure, points, settings):
    field = InvariantField(  # stacked by the field, which drops the flat nodes' columns
        [Frame(structure, p, settings.jet_order, settings.orientation) for p in points],
        settings.tol_flat,
    )
    verdicts = [
        Verdict(
            tag=VerdictTag.FLAT,
            point=pt,
            note="Cotton-York form vanishes; reduces to the conformally Einstein equation",
        )
        if flat else None
        for pt, flat in zip(points, field.flat)
    ]
    if not field.nodes.size:
        return verdicts

    values = field.invariant_values()  # node arrays; a node's own only where a verdict reads them
    # degenerate branch: sigma > 0, decided by the tensor M where it vanishes
    branch = (values.sigma > 0.0) & ~field.sigma_is_zero(settings.tol_sigma)
    mreps = field.m_tensor() if branch.any() else [None] * field.nodes.size
    m_norms, rest = [None] * field.nodes.size, []
    for c, node in enumerate(field.nodes):
        mrep = mreps[c] if branch[c] else None
        if mrep is not None:
            m_norms[c] = mrep.norm
            if mrep.norm < settings.tol_m * mrep.scale:
                verdicts[node] = _mzero_verdict(values.node(c), mrep, points[node])
                continue
        rest.append(c)
    if not rest:
        return verdicts

    vals = values.take(rest)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below: finite or Inconclusive
        coeffs = [_coefficient_columns(fn(vals), len(rest)) for fn in _COEFFS]
    finite = np.all([np.isfinite(c).all(axis=0) for c in coeffs], axis=0)
    degrees = [trimmed_degrees(c)[0] for c in coeffs]
    ok = np.flatnonzero(finite & (degrees[0] >= 1) & (degrees[1] >= 1) & (degrees[2] >= 1))
    reports = [column_resultant_reports(coeffs[i][:, ok], coeffs[j][:, ok]) for _, i, j in _PAIRS]
    resultants = {  # row in rest -> ResultantTriple per pair, for the rows with proper constraints
        r: [
            ResultantTriple(pair=name, normalized=rep.normalized, value=rep.value, gap=rep.gap)
            for (name, _, _), rep in zip(_PAIRS, reps)
        ]
        for r, *reps in zip(ok.tolist(), *reports)
    }
    # one common-root witness search for the rows no gap certifies
    search = [
        r for r, res in resultants.items() if not max(t.gap for t in res) > settings.tol_res_high
    ]
    p0 = np.array([vals.sigma, np.zeros(len(rest)), -3.0 * vals.rho])  # P0 = sigma - 3 rho t^2
    found = {}
    if search:
        cols = [c[:, search] for c in coeffs]
        found = dict(zip(search, column_common_roots(cols, p0[:, search], settings.tol_root)))

    pending = []  # nodes with real common roots: (column, resultants, witnesses)
    for r, c in enumerate(rest):
        node, pt, m_norm = field.nodes[c], points[field.nodes[c]], m_norms[c]
        if r not in resultants:
            verdicts[node] = Verdict(
                tag=VerdictTag.INCONCLUSIVE,
                point=pt,
                m_norm=m_norm,
                note="degenerate constraint polynomial" if finite[r] else NOT_FINITE,
            )
            continue
        verdict = _resultant_verdict(resultants[r], found.get(r), pt, m_norm, settings)
        if isinstance(verdict, Verdict):
            verdicts[node] = verdict
        else:
            pending.append((c, resultants[r], verdict))
    for c, verdict in _verify_witnesses(field, values, pending, m_norms, points, settings):
        verdicts[field.nodes[c]] = verdict
    return verdicts


def _coefficient_columns(coeffs, n):
    """Coefficient list of node arrays (or floats for all nodes) as an array (len, n)."""
    return np.array([np.broadcast_to(c, (n,)) for c in coeffs])


def _mzero_verdict(inv, mrep, pt):
    f0, consistent = f_from_P0_branch(inv)
    cand = SolutionCandidate(F=f0, alpha=mrep.alpha, source="MZeroFormula", point=pt)
    return Verdict(
        tag=VerdictTag.MZERO_ADMITS,
        point=pt,
        candidates=[cand],
        f_candidates=[f0],
        m_norm=mrep.norm,
        note="degenerate-branch tensor vanishes"
        + ("" if consistent else " (forced F consistency flag false)"),
    )


def _resultant_verdict(resultants, roots, pt, m_norm, settings):
    """The verdict the resultants and the witness search give, or the real
    common roots (a :class:`~sfmew.polyalg.RootSet`) that need verifying.

    ``roots`` holds the node's common roots, a
    :class:`~sfmew.polyalg.CommonRoots`; None where a gap certifies a
    resultant nonzero.
    """
    gaps = [r.gap for r in resultants]
    if roots is None:
        return Verdict(
            tag=VerdictTag.OBSTRUCTED,
            point=pt,
            resultants=resultants,
            m_norm=m_norm,
            note="at least one resultant certified nonzero",
        )

    if len(roots.real):
        return roots.real
    if roots.complex:
        return Verdict(
            tag=VerdictTag.VANISHING,
            point=pt,
            resultants=resultants,
            m_norm=m_norm,
            note="constraints share only complex roots: "
            + ", ".join(f"{z:.6g}" for z in roots.complex),
        )

    if max(gaps) < settings.tol_res_low:
        return Verdict(
            tag=VerdictTag.INCONCLUSIVE,
            point=pt,
            resultants=resultants,
            m_norm=m_norm,
            note="resultants at numerical zero without a common-root witness",
        )
    return Verdict(
        tag=VerdictTag.OBSTRUCTED,
        point=pt,
        resultants=resultants,
        m_norm=m_norm,
        note="no common root; resultants bounded away from numerical zero",
    )


def _verify_witnesses(field, values, pending, m_norms, points, settings):
    """Verdicts of the nodes with real common roots: every root's candidate,
    at every such node, verified in one batch of lifts.  Yields (column, verdict)."""
    invs = {c: values.node(c) for c, _, _ in pending}
    roots = []  # (pending index, root, candidate)
    for k, (c, _, witnesses) in enumerate(pending):
        for f0 in witnesses.roots:
            try:
                roots.append((k, float(f0), alpha_from_F(invs[c], float(f0))))
            except P0Vanishes:
                continue
    reports = _lifted_reports(
        field, [pending[k][0] for k, _, _ in roots], [f for _, f, _ in roots],
        [invs[pending[k][0]] for k, _, _ in roots], settings,
    ) if roots else []
    for k, (c, resultants, witnesses) in enumerate(pending):
        pt, m_norm = points[field.nodes[c]], m_norms[c]
        mine = [(cand, rep, f0) for (j, f0, cand), rep in zip(roots, reports) if j == k]
        verified = [(cand, rep) for cand, rep, _ in mine if rep is not None and rep.passed]
        if verified:
            yield c, Verdict(
                tag=VerdictTag.ADMITS,
                point=pt,
                resultants=resultants,
                f_candidates=[cand.F for cand, _ in verified],
                candidates=[cand for cand, _ in verified],
                residuals=[rep for _, rep in verified],
                m_norm=m_norm,
                note="verified real common root(s)",
            )
            continue
        note = "real common roots exist but none verified"
        multiple = [f"{f0:.6g}" for _, rep, f0 in mine if rep is None]
        if multiple:
            note += "; multiple root F = " + ", ".join(multiple) + " has no jet lift"
        yield c, Verdict(
            tag=VerdictTag.INCONCLUSIVE,
            point=pt,
            resultants=resultants,
            f_candidates=list(witnesses.roots),
            residuals=[rep for _, rep, _ in mine if rep is not None],
            m_norm=m_norm,
            note=note,
        )


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


def summarize(verdicts):
    """One-line structure-level conclusion from pointwise verdicts."""
    counts = {}
    for v in verdicts:
        counts[v.tag.value] = counts.get(v.tag.value, 0) + 1
    effective = [
        v for v in verdicts if v.tag not in (VerdictTag.FLAT, VerdictTag.INCONCLUSIVE)
    ]
    if not effective:
        if counts.get(VerdictTag.FLAT.value):
            return "FLAT"
        return "INCONCLUSIVE"
    tags = {v.tag for v in effective}
    if tags == {VerdictTag.OBSTRUCTED}:
        return "OBSTRUCTED"
    if tags == {VerdictTag.ADMITS}:
        fs = [f for v in effective for f in v.f_candidates]
        return f"ADMITS ({_format_f_set(fs)})"
    if tags == {VerdictTag.MZERO_ADMITS}:
        return "ADMITS (M_ab = 0)"
    if tags == {VerdictTag.VANISHING}:
        return "VANISHING OBSTRUCTIONS (NO REAL SOLUTION)"
    return "MIXED (" + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())) + ")"


def scan_region(structure, region, settings=None):
    """Classify every grid node; nodes are independent (read-only state)."""
    return region_report(region, classify_points(structure, list(region.nodes()), settings))


def region_report(region, verdicts):
    """Histogram, summary and flags of the verdicts of a region's nodes, in node order."""
    if region.nx < 2 or region.ny < 2:
        raise ValueError("region scan needs at least a 2x2 grid")
    nodes = [NodeVerdict(x, y, v) for (x, y), v in zip(region.nodes(), verdicts)]
    histogram = {}
    for n in nodes:
        histogram[n.verdict.tag.value] = histogram.get(n.verdict.tag.value, 0) + 1
    summary = summarize([n.verdict for n in nodes])
    flags = []
    nonflat = [n for n in nodes if n.verdict.tag != VerdictTag.FLAT]
    if nonflat:
        for tag in (VerdictTag.OBSTRUCTED, VerdictTag.ADMITS, VerdictTag.VANISHING):
            share = sum(1 for n in nonflat if n.verdict.tag == tag) / len(nonflat)
            if share > 0:
                flags.append(f"{tag.value} on {100.0 * share:.1f}% of non-flat nodes")
    return RegionReport(region, nodes, histogram, summary, flags)

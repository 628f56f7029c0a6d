"""Pointwise decision procedure for local solvability, plus verification.

``classify_point`` runs the full pipeline at one point:

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

A reconstructed candidate is verified by lifting its root F0 of the
lowest-degree constraint P_k to a jet, on the invariant jets of the point
itself: each Newton step F <- F - P_k(F) / P_k'(F) in jet arithmetic
doubles the number of exact Taylor orders.  The candidate alpha then
follows as a jet from the reconstruction formula, so nabla alpha and
nabla F are exact.  A multiple root (P_k'(F0) numerically zero) has no such
lift and stays unverified.  Closed-form candidates are differentiated
exactly via jets of their expressions.  Everything here is deterministic
and side-effect free; grid nodes are independent.
"""

from dataclasses import dataclass, field as dc_field
from enum import Enum

import numpy as np

from .constraints import (
    assemble_P0,
    assemble_P1,
    assemble_P2,
    assemble_P3,
    coeffs_P1,
    coeffs_P2,
    coeffs_P3,
)
from .expr import eval_jet
from .geometry import Frame
from .invariants import InvariantField, SigmaZero, forced_f
from .polyalg import common_complex_roots, common_real_roots, resultant_report

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
    "verify_candidate",
    "scan_region",
]

_CLOSED_FORM_ORDER = 4  # jets of closed-form candidates: residuals need nabla alpha, nabla F
_LIFT_STEPS = 3  # Newton steps of the root lift: exact Taylor orders 0 -> 1 -> 3 -> 7


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
    """Numerator (per component) and denominator P0(F) of the reconstruction
    formula, on floats or jets."""
    numer = (
        inv.L
        + 2.5 * inv.rho * F * inv.Y
        + 0.5 * F * F * inv.grad_rho
        + 3.0 * F**4 * inv.U
    )
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
        F=float(F), alpha=numer / denom, source="Alpha1Formula", point=inv.point
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


def _residuals_at(frame_values, alpha, dalpha, F, inv=None):
    """Assemble all residuals from point values.

    ``frame_values``: dict with e2u, e2u_inv, K, P (2x2), orientation.
    ``dalpha[a][b]`` = nabla_a alpha_b (already Christoffel-corrected).
    """
    e2u = frame_values["e2u"]
    e2u_inv = frame_values["e2u_inv"]
    o = frame_values["orientation"]
    p = frame_values["P"]
    alpha_sq = e2u_inv * (alpha[0] * alpha[0] + alpha[1] * alpha[1])

    res_tensor = 0.0
    for a in range(2):
        for b in range(2):
            eps_ab = o * e2u * (1.0 if (a, b) == (0, 1) else -1.0 if (a, b) == (1, 0) else 0.0)
            g_ab = e2u if a == b else 0.0
            r = (
                dalpha[a][b]
                + alpha[a] * alpha[b]
                + p[a][b]
                - 0.5 * alpha_sq * g_ab
                - 0.5 * eps_ab * F
            )
            res_tensor = max(res_tensor, abs(r))
    res_trace = abs(e2u_inv * (dalpha[0][0] + dalpha[1][1]) + frame_values["K"])

    if inv is None:
        res_u = res_w = 0.0
    else:
        a_dot_u = _complex_dot(alpha, inv.U_up)
        a_dot_w = e2u_inv * _complex_dot(alpha, inv.W)
        a_dot_y = _complex_dot(alpha, inv.Y_up)
        res_u = abs(a_dot_u + F * F + inv.phi)
        res_w = abs(
            a_dot_w - inv.ell - 2.5 * inv.rho * F - 3.0 * (inv.mu + a_dot_y) * F * F
        )
    return res_u, res_w, res_tensor, res_trace


def _frame_values(frame):
    return {
        "e2u": frame.e2u.value,
        "e2u_inv": frame.e2u_inv.value,
        "K": frame.curvature.value,
        "P": [[frame.p[a][b].value for b in range(2)] for a in range(2)],
        "orientation": float(frame.orientation),
    }


def _residual_report(point, mode, method, f, residuals, mismatch, tol_residual, on_root=True):
    res_u, res_w, res_tensor, res_trace = residuals
    max_res = max(residuals)
    return ResidualReport(
        point=tuple(map(float, point)),
        mode=mode,
        method=method,
        f=f,
        res_alpha_U=res_u,
        res_alpha_W=res_w,
        res_tensor=res_tensor,
        res_trace=res_trace,
        f_gradient_mismatch=mismatch,
        passed=bool(max_res < tol_residual and on_root),
        max_residual=max_res,
    )


def _verify_closed_form(structure, candidate, point, mode, settings):
    """Verify expression-form alpha via exact jet differentiation."""
    order = _CLOSED_FORM_ORDER
    frame = Frame(structure, point, order, settings.orientation)
    exprs = candidate.alpha_exprs
    comp_jets = [eval_jet(e, point, order, frame.space) for e in exprs]
    if mode == "complex":
        if len(exprs) != 4:
            raise ValueError("complex mode needs 4 components (re1, re2, im1, im2)")
        alpha_jets = [(comp_jets[0], comp_jets[2]), (comp_jets[1], comp_jets[3])]
    else:
        if len(exprs) != 2:
            raise ValueError("real mode needs 2 components")
        zero = None
        alpha_jets = [(comp_jets[0], zero), (comp_jets[1], zero)]

    def cval(pair):
        re, im = pair
        return complex(re.value, 0.0 if im is None else im.value)

    def cpartial(pair, i, j):
        re, im = pair
        return complex(re.partial(i, j), 0.0 if im is None else im.partial(i, j))

    alpha = np.array([cval(alpha_jets[0]), cval(alpha_jets[1])])
    gamma = [
        [[frame.gamma[c][a][b].value for b in range(2)] for a in range(2)] for c in range(2)
    ]
    dalpha = [[0j, 0j], [0j, 0j]]
    for a in range(2):
        for b in range(2):
            partial = cpartial(alpha_jets[b], 1, 0) if a == 0 else cpartial(alpha_jets[b], 0, 1)
            dalpha[a][b] = partial - sum(gamma[c][a][b] * alpha[c] for c in range(2))

    o = float(settings.orientation)
    f_value = o * frame.e2u_inv.value * (dalpha[0][1] - dalpha[1][0])

    # gradient cross-check: nabla_a F + 2 alpha_a F + Y_a  (jet-exact)
    field = InvariantField(frame, settings.tol_flat)
    inv = None if field.flat else field.point_invariants()
    mismatch = 0.0
    if not field.flat:
        # nabla F from jets: F is eps^{ab} times the coordinate curl of alpha
        curl_re = frame.e2u_inv * (
            alpha_jets[1][0].d_dx() - alpha_jets[0][0].d_dy()
        )
        curl_im = (
            None
            if alpha_jets[0][1] is None
            else frame.e2u_inv * (alpha_jets[1][1].d_dx() - alpha_jets[0][1].d_dy())
        )
        for axis in range(2):
            dfre = o * (curl_re.d_dx() if axis == 0 else curl_re.d_dy()).value
            dfim = 0.0 if curl_im is None else o * (curl_im.d_dx() if axis == 0 else curl_im.d_dy()).value
            grad_f = complex(dfre, dfim)
            target = -2.0 * alpha[axis] * f_value - inv.Y[axis]
            mismatch = max(mismatch, abs(grad_f - target))

    residuals = _residuals_at(_frame_values(frame), alpha, dalpha, f_value, inv)
    f = f_value if mode == "complex" else f_value.real
    return _residual_report(point, mode, "jets", f, residuals, mismatch, settings.tol_residual)


_COEFFS = (coeffs_P1, coeffs_P2, coeffs_P3)


def _constraint_polys(inv):
    return assemble_P1(inv), assemble_P2(inv), assemble_P3(inv)


def _base_index(polys):
    """The lowest-degree constraint, whose real roots are the witnesses."""
    return min(range(3), key=lambda i: polys[i].degree)


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
    relative to the size of its terms.
    """
    p, dp = _horner(coeffs, f0)
    scale = sum(i * abs(_value(c)) * abs(f0) ** (i - 1) for i, c in enumerate(coeffs) if i)
    if not abs(_value(dp)) > tol_root * scale:
        raise MultipleRoot(f"P'({f0}) = {_value(dp):.3e} numerically zero")
    F = f0
    for step in range(_LIFT_STEPS):
        if step:
            p, dp = _horner(coeffs, F)
        F = F - p / dp
    return F


def _verify_lifted(frame, inv, jinv, coeffs, f0, settings):
    """Verify the reconstructed candidate of f0, a simple root of the constraint
    with coefficient jets ``coeffs``; ``jinv`` holds the invariant jets.

    The candidate fails when the lift moves F by more than ``tol_root``
    (relative): f0 is then no root, whatever root it leads to.
    """
    F = _lift_root(coeffs, f0, settings.tol_root)
    numer, denom = _alpha_parts(jinv, F)
    alpha_jets = numer / denom
    alpha = np.array([a.value for a in alpha_jets])
    dalpha = [[d.value for d in row] for row in frame.cov_deriv(alpha_jets, "d")]
    grad_f = np.array([F.d_dx().value, F.d_dy().value])
    mismatch = float(np.max(np.abs(grad_f - (-2.0 * alpha * F.value - inv.Y))))
    residuals = _residuals_at(
        _frame_values(frame), alpha.astype(complex), dalpha, F.value, inv
    )
    on_root = abs(F.value - f0) <= settings.tol_root * max(1.0, abs(f0))
    return _residual_report(
        frame.point, "real", "jet-lift", float(F.value), residuals, mismatch,
        settings.tol_residual, on_root,
    )


def verify_candidate(structure, candidate, point, mode="real", settings=None):
    """Residual report for a candidate at a point.

    Closed-form candidates (``alpha_exprs`` set) are differentiated exactly
    via jets.  Reconstructed candidates are differentiated exactly too, by
    lifting their F, a root of the lowest-degree constraint, to a jet; they
    raise :class:`MultipleRoot` where that root is not simple.  At flat
    points the invariant-based algebraic residuals of closed-form candidates
    are reported as zero (not applicable).
    """
    settings = settings or DEFAULT_SETTINGS
    if candidate.alpha_exprs is not None:
        return _verify_closed_form(structure, candidate, point, mode, settings)
    if mode == "complex":
        raise ValueError("complex mode requires closed-form alpha expressions")
    field = InvariantField(
        Frame(structure, point, settings.jet_order, settings.orientation),
        settings.tol_flat,
    )
    inv = field.point_invariants()
    jinv = field.invariant_jets()
    coeffs = _COEFFS[_base_index(_constraint_polys(inv))](jinv)
    return _verify_lifted(field.frame, inv, jinv, coeffs, float(candidate.F.real), settings)


# ---------------------------------------------------------------------------
# classification


def classify_point(structure, point, settings=None):
    """Run the full decision procedure at one point (deterministic)."""
    settings = settings or DEFAULT_SETTINGS
    field = InvariantField(
        Frame(structure, point, settings.jet_order, settings.orientation),
        settings.tol_flat,
    )
    pt = tuple(map(float, point))
    if field.flat:
        return Verdict(
            tag=VerdictTag.FLAT,
            point=pt,
            note="Cotton-York form vanishes; reduces to the conformally Einstein equation",
        )

    inv = field.point_invariants()

    m_norm = None
    if not field.sigma_is_zero(settings.tol_sigma) and inv.sigma > 0.0:
        try:
            mrep = field.m_tensor()
        except SigmaZero:
            mrep = None
        if mrep is not None:
            m_norm = mrep.norm
            if mrep.norm < settings.tol_m * mrep.scale:
                f0, consistent = f_from_P0_branch(inv)
                cand = SolutionCandidate(
                    F=f0, alpha=mrep.alpha, source="MZeroFormula", point=pt
                )
                return Verdict(
                    tag=VerdictTag.MZERO_ADMITS,
                    point=pt,
                    candidates=[cand],
                    f_candidates=[f0],
                    m_norm=mrep.norm,
                    note="degenerate-branch tensor vanishes"
                    + ("" if consistent else " (forced F consistency flag false)"),
                )

    p0 = assemble_P0(inv)
    polys = _constraint_polys(inv)
    if any(p.degree < 1 for p in polys):
        return Verdict(
            tag=VerdictTag.INCONCLUSIVE,
            point=pt,
            m_norm=m_norm,
            note="degenerate constraint polynomial",
        )

    pairs = (("res12", 0, 1), ("res13", 0, 2), ("res23", 1, 2))
    resultants = []
    for name, i, j in pairs:
        rep = resultant_report(polys[i], polys[j])
        resultants.append(
            ResultantTriple(pair=name, normalized=rep.normalized, value=rep.value, gap=rep.gap)
        )
    gaps = [r.gap for r in resultants]

    if max(gaps) > settings.tol_res_high:
        return Verdict(
            tag=VerdictTag.OBSTRUCTED,
            point=pt,
            resultants=resultants,
            m_norm=m_norm,
            note="at least one resultant certified nonzero",
        )

    witnesses = common_real_roots(*polys, exclude=p0, tol_root=settings.tol_root)
    if len(witnesses):
        jinv = field.invariant_jets()
        coeffs = _COEFFS[_base_index(polys)](jinv)
        verified, reports, multiple = [], [], []
        for f0 in witnesses.roots:
            try:
                cand = alpha_from_F(inv, float(f0))
                rep = _verify_lifted(field.frame, inv, jinv, coeffs, float(f0), settings)
            except P0Vanishes:
                continue
            except MultipleRoot:
                multiple.append(f"{f0:.6g}")
                continue
            reports.append(rep)
            if rep.passed:
                verified.append((cand, rep))
        if verified:
            return Verdict(
                tag=VerdictTag.ADMITS,
                point=pt,
                resultants=resultants,
                f_candidates=[c.F for c, _ in verified],
                candidates=[c for c, _ in verified],
                residuals=[r for _, r in verified],
                m_norm=m_norm,
                note="verified real common root(s)",
            )
        note = "real common roots exist but none verified"
        if multiple:
            note += "; multiple root F = " + ", ".join(multiple) + " has no jet lift"
        return Verdict(
            tag=VerdictTag.INCONCLUSIVE,
            point=pt,
            resultants=resultants,
            f_candidates=list(witnesses.roots),
            residuals=reports,
            m_norm=m_norm,
            note=note,
        )

    complex_witnesses = common_complex_roots(*polys, exclude=p0, tol_root=settings.tol_root)
    if complex_witnesses:
        return Verdict(
            tag=VerdictTag.VANISHING,
            point=pt,
            resultants=resultants,
            m_norm=m_norm,
            note="constraints share only complex roots: "
            + ", ".join(f"{z:.6g}" for z in complex_witnesses),
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
    settings = settings or DEFAULT_SETTINGS
    if region.nx < 2 or region.ny < 2:
        raise ValueError("region scan needs at least a 2x2 grid")
    nodes = [
        NodeVerdict(x, y, classify_point(structure, (x, y), settings))
        for (x, y) in region.nodes()
    ]
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

"""Real univariate polynomials: resultants, root isolation, common roots.

Polynomials are coefficient vectors indexed by degree with trailing
(near-)zero coefficients trimmed relative to the largest coefficient.
Resultants are Sylvester determinants computed after per-polynomial
max-coefficient normalization; roots come from companion-matrix eigenvalues
polished by Newton steps.  Resultant reports of many polynomial pairs, one
pair per node of a scan, are computed together: one stacked determinant and
one stacked SVD for all pairs of the same degrees
(:func:`column_resultant_reports`).

Thresholds (configurable per call): a resultant counts as vanishing when its
normalized magnitude is below 1e-7, and a root is accepted when the
normalized polynomial evaluates below 1e-7 there.  Double precision with
degrees up to 10 and 18x18 determinants loses at most ~6 digits in bad
cases, which these thresholds absorb.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "Poly",
    "RootSet",
    "ResultantValue",
    "ResultantReport",
    "ZeroPolynomial",
    "sylvester_resultant",
    "sylvester_matrix",
    "resultant_report",
    "resultant_reports",
    "column_resultant_reports",
    "trimmed_degrees",
    "real_roots",
    "common_real_roots",
    "common_complex_roots",
    "DEFAULT_TOL_ROOT",
]

DEFAULT_TOL_ROOT = 1e-7
_TRIM_REL = 1e-12


class ZeroPolynomial(Exception):
    """Operation undefined for the zero polynomial (or degree 0 resultants)."""


class Poly:
    """Real polynomial as a coefficient vector, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, trim_rel=_TRIM_REL):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        scale = np.max(np.abs(c)) if c.size else 0.0
        if scale == 0.0:
            c = np.zeros(0)
        else:
            keep = np.nonzero(np.abs(c) > trim_rel * scale)[0]
            c = c[: keep[-1] + 1] if keep.size else np.zeros(0)
        self.coeffs = c

    @property
    def is_zero(self):
        return self.coeffs.size == 0

    @property
    def degree(self):
        return self.coeffs.size - 1  # -1 for the zero polynomial

    @property
    def norm(self):
        """Largest coefficient magnitude (0 for the zero polynomial)."""
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __call__(self, t):
        if self.is_zero:
            return 0.0 * t
        return npoly.polyval(t, self.coeffs)

    def normalized(self):
        """Coefficients divided by the max magnitude."""
        if self.is_zero:
            return self
        return Poly(self.coeffs / self.norm, trim_rel=0.0)

    def derivative(self):
        if self.degree < 1:
            return Poly([])
        return Poly(npoly.polyder(self.coeffs))

    def deflate(self, divisor):
        """Quotient and remainder of division by another polynomial."""
        if divisor.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        if self.is_zero:
            return Poly([]), Poly([])
        quo, rem = npoly.polydiv(self.coeffs, divisor.coeffs)
        return Poly(quo), Poly(rem)

    def __eq__(self, other):
        return isinstance(other, Poly) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs.tolist()!r})"


def trimmed_degrees(coeffs):
    """Degrees and norms of the polynomials in the columns of ``coeffs``.

    ``coeffs`` has shape (n + 1, K), lowest degree first.  Each column is
    trimmed by :class:`Poly`'s rule: it keeps the coefficients up to the
    last one whose magnitude exceeds 1e-12 times its largest; its degree is
    -1 when it is zero.  Returns the degrees and the largest magnitudes,
    each of shape (K,).
    """
    mag = np.abs(coeffs)
    norms = np.max(mag, axis=0)
    keep = mag > _TRIM_REL * norms
    degrees = np.where(keep.any(axis=0), len(coeffs) - 1 - np.argmax(keep[::-1], axis=0), -1)
    return degrees, norms


@dataclass
class RootSet:
    """Real roots sorted ascending, with multiplicities and residuals."""

    roots: np.ndarray
    multiplicities: np.ndarray
    residuals: np.ndarray

    def __len__(self):
        return self.roots.size

    def __iter__(self):
        return iter(self.roots)


class ResultantValue(NamedTuple):
    """Sylvester determinant of the normalized pair plus the scale factor.

    ``value`` recovers the resultant of the raw polynomials:
    ``value = normalized * scale`` with ``scale = |P|_max^deg(Q) |Q|_max^deg(P)``;
    where the scale exceeds the float range it is inf, and so is ``value``.
    """

    normalized: float
    scale: float

    @property
    def value(self):
        return self.normalized * self.scale


def sylvester_matrix(p, q):
    """Sylvester matrix with P's coefficients filling the first deg(Q) rows."""
    return _sylvester_stack(p.coeffs[None], q.coeffs[None])[0]


def _sylvester_stack(pc, qc):
    """Sylvester matrices of K pairs: ``pc`` (K, m+1), ``qc`` (K, n+1), lowest degree first."""
    m, n = pc.shape[1] - 1, qc.shape[1] - 1
    mat = np.zeros((len(pc), m + n, m + n))
    for row in range(n):
        mat[:, row, row : row + m + 1] = pc[:, ::-1]  # highest degree first
    for row in range(m):
        mat[:, n + row, row : row + n + 1] = qc[:, ::-1]
    return mat


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _resultant_scale(p_norm, p_degree, q_norm, q_degree):
    """``|P|_max^deg(Q) |Q|_max^deg(P)``, inf beyond the float range; Python's
    ``**`` on each value, and logarithms only where a power overflows."""
    try:
        return p_norm ** q_degree * q_norm ** p_degree
    except OverflowError:
        log_scale = q_degree * math.log(p_norm) + p_degree * math.log(q_norm)
        return math.exp(log_scale) if log_scale < _LOG_FLOAT_MAX else math.inf


def _normalized_pair(p, q):
    """Both polynomials normalized, and the factor that undoes it in the resultant."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("resultant of the zero polynomial")
    if p.degree < 1 or q.degree < 1:
        raise ZeroPolynomial("resultant needs degree >= 1 on both sides")
    return p.normalized(), q.normalized(), _resultant_scale(p.norm, p.degree, q.norm, q.degree)


def sylvester_resultant(p, q):
    """Resultant of two nonzero polynomials of degree >= 1.

    Sign convention fixed by the canonical row layout of
    :func:`sylvester_matrix`; comparisons against external closed forms
    should use absolute values.
    """
    pn, qn, scale = _normalized_pair(p, q)
    return ResultantValue(float(np.linalg.det(sylvester_matrix(pn, qn))), scale)


class ResultantReport(NamedTuple):
    """Resultant value plus its numerical-vanishing indicator.

    ``gap`` is the smallest singular value of the normalized Sylvester
    matrix relative to the largest one: an exactly vanishing resultant makes
    the matrix singular (gap at roundoff, ~1e-16) whereas the determinant
    value alone can be legitimately tiny for nonzero resultants whose
    coefficients span many orders of magnitude.
    """

    normalized: float
    scale: float
    gap: float

    @property
    def value(self):
        return self.normalized * self.scale


def resultant_report(p, q):
    """Resultant with the singular-value gap used for vanishing decisions."""
    pn, qn, scale = _normalized_pair(p, q)
    return resultant_reports(pn.coeffs[None], qn.coeffs[None], [scale])[0]


def resultant_reports(pn, qn, scales):
    """Reports of K polynomial pairs of the same degrees, from one Sylvester build each.

    ``pn`` (K, m+1) and ``qn`` (K, n+1) hold the normalized coefficients,
    lowest degree first, and ``scales`` the factors that undo the
    normalization.  The determinants come from one stacked ``det`` and the
    gaps from one stacked SVD, both of the same matrices.
    """
    mats = _sylvester_stack(pn, qn)
    dets = np.linalg.det(mats)
    sv = np.linalg.svd(mats, compute_uv=False)
    gaps = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)), where=sv[:, 0] > 0)
    return [ResultantReport(float(d), s, float(g)) for d, s, g in zip(dets, scales, gaps)]


def column_resultant_reports(cp, cq):
    """Resultant reports of the pairs of polynomials in the columns of ``cp``, ``cq``.

    Columns hold coefficients lowest degree first, trimmed as :class:`Poly`
    trims them; every trimmed pair needs degrees >= 1.  Pairs of the same
    degrees share one :func:`resultant_reports` call.
    """
    (dp, np_), (dq, nq) = trimmed_degrees(cp), trimmed_degrees(cq)
    if np.any(dp < 1) or np.any(dq < 1):
        raise ZeroPolynomial("resultant needs degree >= 1 on both sides")
    reports = [None] * cp.shape[1]
    for m, n in sorted(set(zip(dp.tolist(), dq.tolist()))):
        cols = np.flatnonzero((dp == m) & (dq == n))
        pn_, qn_ = (cp[: m + 1, cols] / np_[cols]).T, (cq[: n + 1, cols] / nq[cols]).T
        norms = zip(np_[cols].tolist(), nq[cols].tolist())
        scales = [_resultant_scale(a, m, b, n) for a, b in norms]
        for c, rep in zip(cols, resultant_reports(pn_, qn_, scales)):
            reports[c] = rep
    return reports


def real_roots(p, tol_root=DEFAULT_TOL_ROOT):
    """All real roots of a nonzero polynomial within working precision.

    Companion-matrix eigenvalues, a few Newton polish steps, then clustering
    into multiplicities.  Roots whose normalized residual exceeds
    ``tol_root`` are dropped (RootSet invariant).

    An m-fold root scatters the eigenvalues by ~eps^(1/m) (about 1e-4 for
    m = 4), so candidates with imaginary parts up to that size are projected
    onto the real axis and clustered at the same scale; the residual test
    then keeps only genuine roots.  Distinct real roots closer than ~3e-4
    are consequently reported as one root with multiplicity.
    """
    if p.is_zero:
        raise ZeroPolynomial("roots of the zero polynomial")
    if p.degree < 1:
        return RootSet(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    pn = p.normalized()
    roots = npoly.polyroots(pn.coeffs)
    real = roots.real[np.abs(roots.imag) <= 3e-4 * (1.0 + np.abs(roots.real))]
    if real.size == 0:
        return RootSet(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))

    dp = pn.derivative()
    polished = []
    for t0 in np.sort(real):
        t = t0
        for _ in range(3):
            slope = dp(t)
            if abs(slope) < 1e-12:
                break
            step = pn(t) / slope
            if not math.isfinite(step):
                break
            t -= step
        if abs(t - t0) > 0.1 * max(1.0, abs(t0)):
            t = t0  # runaway Newton step (projection of a complex pair)
        polished.append(t)
    polished.sort()

    clusters = [[polished[0]]]
    for t in polished[1:]:
        if abs(t - clusters[-1][-1]) <= 3e-4 * max(1.0, abs(t)):
            clusters[-1].append(t)
        else:
            clusters.append([t])

    roots_out, mults, residuals = [], [], []
    for group in clusters:
        t = float(np.mean(group))
        res = abs(pn(t))
        if res <= tol_root:
            roots_out.append(t)
            mults.append(len(group))
            residuals.append(res * p.norm)
    return RootSet(np.asarray(roots_out), np.asarray(mults, dtype=int), np.asarray(residuals))


def common_real_roots(p1, p2, p3, exclude=None, tol_root=DEFAULT_TOL_ROOT):
    """Real roots shared by three polynomials, minus roots of ``exclude``.

    Scans the real roots of the lowest-degree input and keeps those where
    all three normalized polynomials evaluate below ``tol_root``.  Shared
    complex factors are invisible here (resultants detect those).
    """
    polys = [p1, p2, p3]
    if any(p.is_zero for p in polys):
        raise ZeroPolynomial("common roots of the zero polynomial")
    base = min(polys, key=lambda p: p.degree)
    candidates = real_roots(base, tol_root)
    normalized = [p.normalized() for p in polys]
    excl = exclude.normalized() if exclude is not None and not exclude.is_zero else None

    roots, mults, residuals = [], [], []
    for t, mult in zip(candidates.roots, candidates.multiplicities):
        values = [abs(pn(t)) for pn in normalized]
        if max(values) > tol_root:
            continue
        if excl is not None and abs(excl(t)) < tol_root:
            continue
        roots.append(float(t))
        mults.append(int(mult))
        residuals.append(max(values))
    return RootSet(np.asarray(roots), np.asarray(mults, dtype=int), np.asarray(residuals))


def common_complex_roots(p1, p2, p3, exclude=None, tol_root=DEFAULT_TOL_ROOT):
    """Strictly complex roots shared by three polynomials, minus ``exclude``.

    Scans the non-real roots of the lowest-degree input; one representative
    per conjugate pair (positive imaginary part).  Complements
    :func:`common_real_roots` when the shared factor has no real root.
    """
    polys = [p1, p2, p3]
    if any(p.is_zero for p in polys):
        raise ZeroPolynomial("common roots of the zero polynomial")
    base = min(polys, key=lambda p: p.degree)
    if base.degree < 1:
        return []
    roots = npoly.polyroots(base.normalized().coeffs)
    normalized = [p.normalized() for p in polys]
    excl = exclude.normalized() if exclude is not None and not exclude.is_zero else None
    shared = []
    for z in roots:
        if z.imag <= 1e-7 * (1.0 + abs(z.real)):
            continue  # real roots and the lower conjugate half-plane
        if max(abs(pn(z)) for pn in normalized) > tol_root:
            continue
        if excl is not None and abs(excl(z)) < tol_root:
            continue
        if any(abs(z - w) <= 1e-6 * max(1.0, abs(z)) for w in shared):
            continue
        shared.append(complex(z))
    return shared

"""Real univariate polynomials as coefficient columns: resultants and common roots.

A polynomial is a column of coefficients, lowest degree first: an array of
shape (n + 1, K) holds K polynomials, one per node of a scan, and a single
polynomial is a column of one.  One rule trims a column
(:func:`trimmed_degrees`): it keeps the coefficients up to the last one
whose magnitude exceeds 1e-12 times its largest.  One division normalizes
it, by that largest magnitude.  Both happen once per polynomial, in
:func:`normalized_columns`, whose :class:`NormalizedColumns` (degrees, norms
and normalized rows, or their :meth:`~NormalizedColumns.take` of some
columns) every function below takes; none of them trims again.  Each
returns columns:

* Resultant reports of pairs of columns (:func:`column_resultant_reports`)
  come from the Sylvester matrices of the normalized pairs: one stacked
  determinant for all pairs of the same degrees, and the scale that undoes
  the normalization, as :class:`ResultantColumns`.
* The gaps of pairs of columns (:func:`column_gaps`), the smallest singular
  value of the normalized Sylvester matrix over the largest, come from one
  stacked SVD for all pairs of the same degrees.  It is the only SVD here.
* The common roots of triples of columns (:func:`column_common_roots`) come
  from one stacked eigenvalue solve for all triples whose lowest degree is
  the same, which gives the real and the complex witnesses as
  :class:`RootColumns`.  A root is kept where every normalized polynomial
  evaluates to at most :data:`TOL_ROOT` there.  Every pair of a triple then
  has a gap of at most sqrt(m + n) * TOL_ROOT, m and n the pair's degrees
  (``docs/decisions.md`` §8).

A one-column call's columns are that column's answer: ``value[0]`` of its
resultant, or the ``real``, ``multiplicities`` and ``complex`` roots of its
triple.  This module decides nothing: the analyzer reads the witnesses, and
compares the gaps of the columns without one with its own thresholds
(:mod:`sfmew.analyzer`).
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ResultantReport",
    "ResultantColumns",
    "ZeroPolynomial",
    "column_resultant_reports",
    "column_gaps",
    "trimmed_degrees",
    "NormalizedColumns",
    "normalized_columns",
    "RootColumns",
    "column_common_roots",
    "TOL_ROOT",
]

#: A common root's normalized polynomials evaluate to at most this; the analyzer's root
#: lift takes it as the relative size of a numerically zero slope and of a moved root.
TOL_ROOT = 1e-7
_TRIM_REL = 1e-12
# the width of normalized rows: the most coefficients any constraint P_k has (P2's)
_WIDTH = 11


class ZeroPolynomial(Exception):
    """Operation undefined for the zero polynomial (or degree 0 resultants)."""


def trimmed_degrees(coeffs):
    """Degrees and norms of the polynomials in the columns of ``coeffs``.

    ``coeffs`` has shape (n + 1, K), lowest degree first.  Each column keeps
    the coefficients up to the last one whose magnitude exceeds 1e-12 times
    its largest; its degree is -1 when it is zero or not all finite.  Returns
    the degrees and the largest magnitudes, each of shape (K,).
    """
    mag = np.abs(coeffs)
    norms = np.max(mag, axis=0)
    keep = mag > _TRIM_REL * norms
    degrees = np.where(keep.any(axis=0), len(coeffs) - 1 - np.argmax(keep[::-1], axis=0), -1)
    return degrees, norms


class NormalizedColumns(NamedTuple):
    """K polynomials trimmed and normalized: their degrees (K,) by
    :func:`trimmed_degrees`, their norms (K,), the largest magnitudes, and
    their coefficients divided by their norms as rows (K, width), lowest
    degree first, with zeros past each degree."""

    degrees: np.ndarray
    norms: np.ndarray
    rows: np.ndarray

    def take(self, cols):
        """The polynomials of the columns ``cols``."""
        return NormalizedColumns(self.degrees[cols], self.norms[cols], self.rows[cols])


def normalized_columns(coeffs):
    """The polynomials in the columns of ``coeffs``, (n + 1, K) lowest degree
    first, as :class:`NormalizedColumns`: rows 11 wide, or n + 1 where that is
    more.  A column's rows read only its own coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    degrees, norms = trimmed_degrees(coeffs)
    rows = np.zeros((coeffs.shape[1], max(len(coeffs), _WIDTH)))
    kept = np.arange(len(coeffs))[:, None] <= degrees
    np.divide(coeffs, norms, out=rows.T[: len(coeffs)], where=kept)
    return NormalizedColumns(degrees, norms, rows)


def _scaled(normalized, scale):
    """``normalized * scale``, and the normalized zero where that is 0 * inf; on
    floats or arrays."""
    with np.errstate(invalid="ignore", over="ignore"):
        product = normalized * scale
    return np.where((normalized == 0.0) & np.isinf(scale), normalized, product)


def _sylvester_stack(pc, qc):
    """Sylvester matrices of K pairs: ``pc`` (K, m+1), ``qc`` (K, n+1), lowest
    degree first; P's coefficients fill the first n rows, highest degree first."""
    m, n = pc.shape[1] - 1, qc.shape[1] - 1
    mat = np.zeros((len(pc), m + n, m + n))
    for row in range(n):
        mat[:, row, row : row + m + 1] = pc[:, ::-1]  # highest degree first
    for row in range(m):
        mat[:, n + row, row : row + n + 1] = qc[:, ::-1]
    return mat


def _sylvester_groups(p, q):
    """The Sylvester matrices of the pairs of :class:`NormalizedColumns` ``p``,
    ``q``, one stack per pair of degrees; every pair needs degrees >= 1.

    Returns a list of ``(m, n, cols, matrices)``: the degrees, the columns
    that have them and the stack of their matrices.
    """
    if np.any(p.degrees < 1) or np.any(q.degrees < 1):
        raise ZeroPolynomial("resultant needs degree >= 1 on both sides")
    groups = []
    for m, n in sorted(set(zip(p.degrees.tolist(), q.degrees.tolist()))):
        cols = np.flatnonzero((p.degrees == m) & (q.degrees == n))
        groups.append((m, n, cols, _sylvester_stack(p.rows[cols, : m + 1], q.rows[cols, : n + 1])))
    return groups


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _resultant_scale(p_norm, p_degree, q_norm, q_degree):
    """``|P|_max^deg(Q) |Q|_max^deg(P)``, inf beyond the float range; Python's
    ``**`` on each value, and logarithms only where a power overflows."""
    try:
        return p_norm ** q_degree * q_norm ** p_degree
    except OverflowError:
        log_scale = q_degree * math.log(p_norm) + p_degree * math.log(q_norm)
        return math.exp(log_scale) if log_scale < _LOG_FLOAT_MAX else math.inf


class ResultantReport(NamedTuple):
    """Resultant value, and the Sylvester gap where a verdict read it.

    ``normalized`` is the Sylvester determinant of the normalized pair, and
    ``scale = |P|_max^deg(Q) |Q|_max^deg(P)`` the factor that undoes the
    normalization: ``value = normalized * scale`` is the resultant of the
    raw pair.  Where the scale exceeds the float range it is inf, and so is
    ``value``, unless the normalized determinant is exactly 0: then it is
    that zero.  The sign follows the row layout of the Sylvester matrix (P's
    rows first); comparisons against closed forms should use magnitudes.

    ``gap`` is the smallest singular value of the normalized Sylvester
    matrix relative to the largest one (:func:`column_gaps`), or None where
    it was not computed: :func:`column_resultant_reports` leaves it None,
    and the analyzer sets it where its verdict reads it.  An exactly
    vanishing resultant makes the matrix singular (gap at roundoff, ~1e-16)
    whereas the determinant value alone can be legitimately tiny for
    nonzero resultants whose coefficients span many orders of magnitude.
    """

    normalized: float
    scale: float
    gap: float | None = None

    @property
    def value(self):
        return float(_scaled(self.normalized, self.scale))


@dataclass(frozen=True)
class ResultantColumns:
    """The resultant reports of K pairs as columns: ``normalized`` and
    ``scale``, each of shape (K,), as in :class:`ResultantReport`, and
    ``value`` their product by its rule."""

    normalized: np.ndarray
    scale: np.ndarray

    @property
    def value(self):
        return _scaled(self.normalized, self.scale)


def column_resultant_reports(p, q):
    """Resultant reports of the pairs of polynomials ``p``, ``q``, each
    :class:`NormalizedColumns` of degrees >= 1.

    The pairs of the same degrees share one stacked ``det`` of their
    Sylvester matrices.  Returns the reports as :class:`ResultantColumns`.
    """
    normalized, scale = np.zeros(len(p.norms)), np.zeros(len(p.norms))
    for m, n, cols, mats in _sylvester_groups(p, q):
        normalized[cols] = np.linalg.det(mats)
        scale[cols] = [
            _resultant_scale(a, m, b, n)
            for a, b in zip(p.norms[cols].tolist(), q.norms[cols].tolist())
        ]
    return ResultantColumns(normalized, scale)


def column_gaps(p, q):
    """Sylvester gaps of the pairs of polynomials ``p``, ``q``, as for
    :func:`column_resultant_reports`.

    The gap of a pair is the smallest singular value of the Sylvester matrix
    of the normalized pair over the largest, 0 where the largest is 0.  The
    pairs of the same degrees share one stacked SVD, which gives each matrix
    the bits it gets alone.  Returns the gaps, of shape (K,); a gap is
    finite, as the normalized coefficients are.
    """
    gaps = np.zeros(len(p.norms))
    for _, _, cols, mats in _sylvester_groups(p, q):
        sv = np.linalg.svd(mats, compute_uv=False)
        gaps[cols] = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)), where=sv[:, 0] > 0)
    return gaps


@dataclass(frozen=True)
class RootColumns:
    """The common roots of K columns, in flat arrays sorted by column.

    The real roots of column ``real_col[i]`` are ``real[i]``, ascending in
    each column, with ``multiplicities[i]`` and as ``residuals[i]`` the
    largest normalized value of the polynomials there; its strictly complex
    ones are ``complex[j]`` where ``complex_col[j]`` is that column, one per
    conjugate pair (positive imaginary part).
    """

    real_col: np.ndarray
    real: np.ndarray
    multiplicities: np.ndarray
    residuals: np.ndarray
    complex_col: np.ndarray
    complex: np.ndarray


def column_common_roots(polys, exclude=None):
    """Real and complex roots shared by the polynomials ``polys``.

    ``polys`` holds :class:`NormalizedColumns` of K columns per polynomial,
    column j of each for node j; ``exclude`` (the same, or None) holds a
    polynomial whose roots are dropped where its column is not zero.  The
    candidates of a column are the roots of its first lowest-degree
    polynomial, companion-matrix eigenvalues from one stacked ``eigvals`` per
    degree.  The same eigenvalues give:

    * the real witnesses: the eigenvalues near the real axis, projected onto
      it, polished by Newton steps, clustered into roots with
      multiplicities, and kept where that polynomial and every other one
      evaluates to at most :data:`TOL_ROOT`;
    * the complex witnesses: the eigenvalues in the upper half-plane, kept
      on the same test, one per cluster.

    An m-fold root scatters the eigenvalues by ~eps^(1/m) (about 1e-4 for
    m = 4), so candidates with imaginary parts up to 3e-4 (relative) are
    projected onto the real axis and clustered at the same scale; the
    residual test then keeps only genuine roots.  Distinct real roots closer
    than ~3e-4 are consequently reported as one root with multiplicity.

    Each column goes through the float operations it goes through alone, so
    its roots do not depend on the other columns.  Returns the roots of
    every column as :class:`RootColumns`.
    """
    degrees = np.array([p.degrees for p in polys])  # (k, K)
    if np.any(degrees < 0):
        raise ZeroPolynomial("common roots of the zero polynomial")
    rows = np.zeros(degrees.shape + (max(p.rows.shape[1] for p in polys),))  # (k, K, width)
    for r, p in zip(rows, polys):
        r[:, : p.rows.shape[1]] = p.rows
    cols = np.arange(degrees.shape[1])
    base = np.argmin(degrees, axis=0)  # the first polynomial of lowest degree
    roots, valid = _companion_roots(rows[base, cols], degrees[base, cols])
    excl = None if exclude is None else (exclude.degrees >= 0, exclude.rows)
    return RootColumns(
        *_real_witnesses(rows, base, roots, valid, excl),
        *_complex_witnesses(rows, roots, valid, excl),
    )


def _companion_roots(rows, degrees):
    """Roots of each row's normalized polynomial, ``npoly.polyroots``'s to the bit.

    The companion matrices are numpy 2's ``polycompanion`` (unrotated), one
    ``eigvals`` call on the stack of each degree; each row is then sorted as
    ``polyroots`` sorts it: as real numbers where its eigenvalues are all
    real, else as complex numbers.  Returns the roots (K, D), D the largest
    degree, and the mask of the entries a row has (its first ``degree``).
    """
    width = int(degrees.max(initial=0))
    roots = np.zeros((len(rows), width), dtype=complex)
    for d in sorted(set(degrees[degrees >= 1].tolist())):
        sel = np.flatnonzero(degrees == d)
        c = rows[sel, : d + 1]
        if d == 1:
            roots[sel, 0] = -c[:, 0] / c[:, 1]
            continue
        mat = np.zeros((sel.size, d, d))
        mat[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        mat[:, :, -1] -= c[:, :-1] / c[:, -1:]
        w = np.linalg.eigvals(mat)
        real = np.all(w.imag == 0, axis=1)
        roots[sel[real], :d] = np.sort(w[real].real, axis=1)
        roots[sel[~real], :d] = np.sort(w[~real], axis=1)
    return roots, np.arange(width) < degrees[:, None]


def _horner(rows, x):
    """Each row's polynomial (lowest degree first) at its ``x``, with the float
    operations of ``npoly.polyval``.  Zeros above a row's degree leave its
    values unchanged: c + (+-0) = c for c != 0, and 0 + (+-0) = 0."""
    c0 = rows[:, -1] + x * 0
    for i in range(2, rows.shape[1] + 1):
        c0 = rows[:, -i] + c0 * x
    return c0


def _witness_test(rows, col, x, excl):
    """Which points ``x`` (of the columns ``col``) every polynomial vanishes at,
    away from the roots of ``excl``; and the largest normalized value there."""
    values = np.max([np.abs(_horner(r[col], x)) for r in rows], axis=0)
    keep = values <= TOL_ROOT  # a NaN value keeps no root
    if excl is not None:
        has, excl_rows = excl
        keep &= ~(has[col] & (np.abs(_horner(excl_rows[col], x)) < TOL_ROOT))
    return keep, values


def _real_witnesses(rows, base, roots, valid, excl):
    """The real common roots of each column: the columns, roots, multiplicities
    and residuals of :class:`RootColumns`."""
    near = valid & (np.abs(roots.imag) <= 3e-4 * (1.0 + np.abs(roots.real)))
    col, pos = np.nonzero(near)  # ascending columns
    t = roots.real[col, pos]
    t = _newton(rows[base[col], col], t[np.lexsort((t, col))])  # ascending in each column
    # the polished candidates sorted within each column, stably as list.sort does
    t = t[np.lexsort((t, col))]

    # clusters: runs of candidates each within 3e-4 (relative) of the one before
    new = np.ones(t.size, dtype=bool)
    new[1:] = (col[1:] != col[:-1]) | (
        np.abs(t[1:] - t[:-1]) > 3e-4 * np.maximum(1.0, np.abs(t[1:]))
    )
    first = np.flatnonzero(new)
    mult = np.diff(np.append(first, t.size))
    mean = _cluster_means(t, first, mult)
    col = col[first]
    res = np.abs(_horner(rows[base[col], col], mean))
    keep, values = _witness_test(rows, col, mean, excl)
    keep &= res <= TOL_ROOT

    return col[keep], mean[keep], mult[keep], values[keep]


def _cluster_means(t, first, mult):
    """The mean of each run ``t[first[g] : first[g] + mult[g]]``, np.mean's to
    the bit below 8 members: one pass per member position sums the members
    one after another from the first, as np.mean does there.  A run of one
    is ``0.0 + t``, which turns -0.0 into 0.0."""
    total = 0.0 + t[first]
    for k in range(1, int(mult.max(initial=1))):
        more = mult > k
        total[more] += t[first[more] + k]
    return total / mult


def _newton(rows, t0):
    """Three Newton steps from each ``t0`` on its row's polynomial, each root
    stopping at a slope below 1e-12 or a non-finite step; a root that runs
    more than 0.1 (relative) away falls back to ``t0``."""
    if not t0.size:
        return t0
    drows = rows[:, 1:] * np.arange(1, rows.shape[1])  # npoly.polyder
    t, live = t0.copy(), np.arange(t0.size)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite steps stop a root
        for _ in range(3):
            slope = _horner(drows[live], t[live])
            steep = ~(np.abs(slope) < 1e-12)
            live, slope = live[steep], slope[steep]
            step = _horner(rows[live], t[live]) / slope
            finite = np.isfinite(step)
            live = live[finite]
            t[live] -= step[finite]
    runaway = np.abs(t - t0) > 0.1 * np.maximum(1.0, np.abs(t0))
    return np.where(runaway, t0, t)


def _complex_witnesses(rows, roots, valid, excl):
    """The strictly complex common roots of each column, one root per conjugate
    pair, and one per cluster of roots within 1e-6 (relative): the columns
    and roots of :class:`RootColumns`."""
    col, pos = np.nonzero(valid & (roots.imag > 1e-7 * (1.0 + np.abs(roots.real))))
    z = roots[col, pos]
    keep, _ = _witness_test(rows, col, z, excl)
    col, z = col[keep], z[keep]
    # a column's first root is kept, and each later one unless it lies within
    # 1e-6 of a root kept before it
    first = np.searchsorted(col, col)
    shared = first == np.arange(col.size)
    for i in np.flatnonzero(~shared).tolist():
        earlier = z[first[i] : i][shared[first[i] : i]]
        shared[i] = not any(abs(z[i] - w) <= 1e-6 * max(1.0, abs(z[i])) for w in earlier)
    return col[shared], z[shared]

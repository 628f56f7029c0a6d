"""Real univariate polynomials as coefficient columns: resultants and common roots.

A polynomial is a column of coefficients, lowest degree first: an array of
shape (n + 1, K) holds K polynomials, one per node of a scan, and a single
polynomial is a column of one.  One rule trims a column
(:func:`trimmed_degrees`): it keeps the coefficients up to the last one
whose magnitude exceeds 1e-12 times its largest.  One division normalizes
it, by that largest magnitude (:func:`_normalized_rows`).

* Resultant reports of pairs of columns (:func:`column_resultant_reports`)
  come from the Sylvester matrices of the normalized pairs: one stacked
  determinant for all pairs of the same degrees, and the scale that undoes
  the normalization.  They are columns (:class:`ResultantColumns`), as are
  the common roots (:class:`RootColumns`); the per-column
  :class:`ResultantReport` and :class:`CommonRoots` are built only where a
  caller indexes them.
* The gaps of pairs of columns (:func:`column_gaps`), the smallest singular
  value of the normalized Sylvester matrix over the largest, come from one
  stacked SVD for all pairs of the same degrees.  It is the only SVD here.
* The common roots of triples of columns (:func:`column_common_roots`) come
  from one stacked eigenvalue solve for all triples whose lowest degree is
  the same, which gives the real and the complex witnesses.  A root is kept
  where every normalized polynomial evaluates to at most :data:`TOL_ROOT`
  there.  Every pair of a triple then has a gap of at most
  sqrt(m + n) * TOL_ROOT, m and n the pair's degrees (``docs/decisions.md``
  §8).

This module decides nothing: the analyzer reads the witnesses, and compares
the gaps of the columns without one with its own thresholds
(:mod:`sfmew.analyzer`).
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "RootSet",
    "ResultantReport",
    "ResultantColumns",
    "ZeroPolynomial",
    "column_resultant_reports",
    "column_gaps",
    "trimmed_degrees",
    "CommonRoots",
    "RootColumns",
    "column_common_roots",
    "TOL_ROOT",
]

#: A common root's normalized polynomials evaluate to at most this; the analyzer's root
#: lift takes it as the relative size of a numerically zero slope and of a moved root.
TOL_ROOT = 1e-7
_TRIM_REL = 1e-12


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


def _normalized_rows(coeffs, width):
    """Degrees (K,), norms (K,) and normalized coefficients (K, width) of the
    columns of ``coeffs``, trimmed by :func:`trimmed_degrees`, with zeros past
    each degree."""
    coeffs = np.asarray(coeffs, dtype=float)
    degrees, norms = trimmed_degrees(coeffs)
    rows = np.zeros((coeffs.shape[1], width))
    kept = np.arange(len(coeffs))[:, None] <= degrees
    np.divide(coeffs, norms, out=rows.T[: len(coeffs)], where=kept)
    return degrees, norms, rows


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


def _sylvester_groups(cp, cq):
    """The Sylvester matrices of the normalized pairs in the columns of ``cp``,
    ``cq``, one stack per pair of degrees; every trimmed pair needs degrees >= 1.

    Returns the norms of both sides, each of shape (K,), and a list of
    ``(m, n, cols, matrices)``: the degrees, the columns that have them and
    the stack of their matrices.
    """
    (dp, np_, rp), (dq, nq, rq) = _normalized_rows(cp, len(cp)), _normalized_rows(cq, len(cq))
    if np.any(dp < 1) or np.any(dq < 1):
        raise ZeroPolynomial("resultant needs degree >= 1 on both sides")
    groups = []
    for m, n in sorted(set(zip(dp.tolist(), dq.tolist()))):
        cols = np.flatnonzero((dp == m) & (dq == n))
        groups.append((m, n, cols, _sylvester_stack(rp[cols, : m + 1], rq[cols, : n + 1])))
    return np_, nq, groups


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
    ``value`` their product by its rule.  Indexing gives one column's
    report, without a gap."""

    normalized: np.ndarray
    scale: np.ndarray

    @property
    def value(self):
        return _scaled(self.normalized, self.scale)

    def __len__(self):
        return self.normalized.size

    def __getitem__(self, c):
        return ResultantReport(float(self.normalized[c]), float(self.scale[c]))


def column_resultant_reports(cp, cq):
    """Resultant reports of the pairs of polynomials in the columns of ``cp``, ``cq``.

    Columns hold coefficients lowest degree first, trimmed and normalized by
    :func:`_normalized_rows`; every trimmed pair needs degrees >= 1.  The
    pairs of the same degrees share one stacked ``det`` of their Sylvester
    matrices.  Returns the reports as :class:`ResultantColumns`.
    """
    p_norms, q_norms, groups = _sylvester_groups(cp, cq)
    normalized, scale = np.zeros(len(p_norms)), np.zeros(len(p_norms))
    for m, n, cols, mats in groups:
        normalized[cols] = np.linalg.det(mats)
        scale[cols] = [
            _resultant_scale(a, m, b, n)
            for a, b in zip(p_norms[cols].tolist(), q_norms[cols].tolist())
        ]
    return ResultantColumns(normalized, scale)


def column_gaps(cp, cq):
    """Sylvester gaps of the pairs of polynomials in the columns of ``cp``, ``cq``.

    The gap of a pair is the smallest singular value of the Sylvester matrix
    of the normalized pair over the largest, 0 where the largest is 0.
    Columns are trimmed and normalized as for
    :func:`column_resultant_reports`; the pairs of the same degrees share
    one stacked SVD, which gives each matrix the bits it gets alone.
    Returns the gaps, of shape (K,); a gap is finite, as the normalized
    coefficients are.
    """
    p_norms, _, groups = _sylvester_groups(cp, cq)
    gaps = np.zeros(len(p_norms))
    for _, _, cols, mats in groups:
        sv = np.linalg.svd(mats, compute_uv=False)
        gaps[cols] = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)), where=sv[:, 0] > 0)
    return gaps


class CommonRoots(NamedTuple):
    """The roots the polynomials of one column share, minus the excluded ones.

    ``real`` holds the real ones, with multiplicities and the largest
    normalized value of the polynomials there as residuals; ``complex`` the
    strictly complex ones, one per conjugate pair (positive imaginary part).
    """

    real: RootSet
    complex: list


@dataclass(frozen=True)
class RootColumns:
    """The common roots of K columns, in flat arrays sorted by column.

    The real roots of column ``real_col[i]`` are ``real[i]``, with
    ``multiplicities[i]`` and ``residuals[i]`` as in :class:`RootSet`,
    ascending in each column; its complex ones are ``complex[j]`` where
    ``complex_col[j]`` is that column.  Indexing gives one column's
    :class:`CommonRoots`.
    """

    size: int
    real_col: np.ndarray
    real: np.ndarray
    multiplicities: np.ndarray
    residuals: np.ndarray
    complex_col: np.ndarray
    complex: np.ndarray

    def __len__(self):
        return self.size

    def __getitem__(self, c):
        if not 0 <= c < self.size:
            raise IndexError(c)
        a, b = np.searchsorted(self.real_col, [c, c + 1])
        real = RootSet(self.real[a:b], self.multiplicities[a:b], self.residuals[a:b])
        a, b = np.searchsorted(self.complex_col, [c, c + 1])
        return CommonRoots(real, self.complex[a:b].tolist())


def column_common_roots(polys, exclude=None):
    """Real and complex roots shared by the polynomials in the columns of ``polys``.

    ``polys`` holds one array (n_k + 1, K) per polynomial, lowest degree
    first, column j of each for node j; ``exclude`` (same layout, or None)
    holds a polynomial whose roots are dropped where its column is not zero.
    Columns are trimmed and normalized by :func:`_normalized_rows`.  The
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
    width = max(len(c) for c in polys)
    degrees, _, rows = zip(*(_normalized_rows(c, width) for c in polys))
    degrees, rows = np.array(degrees), np.array(rows)  # (k, K) and (k, K, width)
    if np.any(degrees < 0):
        raise ZeroPolynomial("common roots of the zero polynomial")
    cols = np.arange(degrees.shape[1])
    base = np.argmin(degrees, axis=0)  # the first polynomial of lowest degree
    roots, valid = _companion_roots(rows[base, cols], degrees[base, cols])
    excl = None
    if exclude is not None:
        excl_degrees, _, excl_rows = _normalized_rows(exclude, len(exclude))
        excl = (excl_degrees >= 0, excl_rows)
    return RootColumns(
        len(cols),
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

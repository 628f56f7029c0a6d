import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sfmew.analyzer import _TOL_RES_HIGH, RESULTANT_PAIRS, _coefficient_columns, classify_point
from sfmew.constraints import coeffs_P0, coeffs_P1, coeffs_P2, coeffs_P3
from sfmew.geometry import Frame
from sfmew.invariants import SCAN_ORDER, InvariantField, compute_invariants
from sfmew.polyalg import (
    TOL_ROOT,
    ResultantReport,
    ZeroPolynomial,
    _cluster_means,
    _companion_roots,
    _sylvester_stack,
    _witness_test,
    column_common_roots,
    column_gaps,
    column_resultant_reports,
    normalized_columns,
    trimmed_degrees,
)

from columns import column, normalized
from seed7 import MEMBER_NODES, OPPOSITE_7_MEMBERS, QUADRATIC_7_MEMBERS, SPIRAL_7_MEMBERS


def poly_from_roots(roots, lc=1.0):
    coeffs = np.array([1.0])
    for r in roots:
        coeffs = npoly.polymul(coeffs, [-r, 1.0])
    return lc * coeffs


def resultant(p, q):
    """The resultant reports of one pair: columns of one."""
    return column_resultant_reports(normalized(p), normalized(q))


def gap(p, q):
    """The Sylvester gap of one pair."""
    return column_gaps(normalized(p), normalized(q))[0]


def common_roots(polys, exclude=None):
    """The common roots of one triple (or of one polynomial): columns of one."""
    excl = None if exclude is None else normalized(exclude)
    return column_common_roots([normalized(p) for p in polys], excl)


def constraint_roots(inv):
    """The common roots of P1..P3 at one point, away from the roots of P0."""
    return common_roots([coeffs_P1(inv), coeffs_P2(inv), coeffs_P3(inv)], coeffs_P0(inv))


def test_poly_trims_trailing_noise():
    assert trimmed_degrees(column([1.0, 2.0, 1e-15]))[0].tolist() == [1]
    assert trimmed_degrees(column([0.0, 0.0]))[0].tolist() == [-1]  # the zero polynomial
    assert trimmed_degrees(column([3.0]))[0].tolist() == [0]


def test_resultant_linear_pair():
    # Res(t - a, t - b) = a - b in the canonical row layout
    res = resultant([-3.0, 1.0], [-1.0, 1.0])
    assert res.value[0] == pytest.approx(2.0)


def test_resultant_shared_root_is_zero():
    res = resultant([-1.0, 0.0, 1.0], [-1.0, 1.0])
    assert abs(res.value[0]) < 1e-12


def test_resultant_rejects_degenerate_inputs():
    with pytest.raises(ZeroPolynomial):
        resultant([0.0], [0.0, 1.0])
    with pytest.raises(ZeroPolynomial):
        resultant([2.0], [0.0, 1.0])


def test_sylvester_matrix_layout():
    p = np.array([[2.0, 3.0, 1.0]])  # t^2 + 3t + 2, degree 2
    q = np.array([[-1.0, 1.0]])  # t - 1, degree 1
    mat = _sylvester_stack(p, q)[0]
    assert mat.shape == (3, 3)
    # first deg(q) rows carry p's coefficients (highest first)
    assert np.allclose(mat[0], [1.0, 3.0, 2.0])


def test_resultant_against_root_product_oracle():
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 200:
        dp, dq = rng.integers(1, 4), rng.integers(1, 4)
        pr = rng.uniform(-2, 2, dp)
        qr = rng.uniform(-2, 2, dq)
        # keep the oracle well-conditioned: no near-shared roots
        if np.min(np.abs(pr[:, None] - qr[None, :])) < 0.1:
            continue
        lp, lq = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        p, q = poly_from_roots(pr, lp), poly_from_roots(qr, lq)
        oracle = lp**dq * lq**dp * np.prod(pr[:, None] - qr[None, :])
        got = resultant(p, q).value[0]
        assert abs(got) == pytest.approx(abs(oracle), rel=1e-8)
        checked += 1


def test_real_roots_simple_quadratics():
    rs = common_roots([[-16.0, 0.0, 9.0]]).real
    assert rs == pytest.approx([-4.0 / 3.0, 4.0 / 3.0])
    assert common_roots([[4.0, 0.0, 1.0]]).real.size == 0  # t^2 + 4


def test_real_roots_quadratic_structure_p3(quadratic_structure):
    inv = compute_invariants(quadratic_structure, (1.0, 0.0))
    rs = common_roots([coeffs_P3(inv)]).real
    assert rs == pytest.approx([-2.0, -4.0 / 3.0, 0.0, 4.0 / 3.0, 2.0], abs=1e-9)


def test_real_roots_multiplicity_cluster():
    # (t - 1)^3 (t + 2)
    p = npoly.polymul(npoly.polymul([-1, 1], npoly.polymul([-1, 1], [-1, 1])), [2, 1])
    rs = common_roots([p])
    assert rs.real == pytest.approx([-2.0, 1.0], abs=1e-4)
    assert list(rs.multiplicities) == [1, 3]


def test_real_roots_recovers_shifted_factor():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = rng.uniform(-10, 10)
        q = poly_from_roots(rng.uniform(12, 20, 2))  # Q(c) != 0 by placement
        rs = common_roots([npoly.polymul([-c, 1.0], q)]).real
        assert np.min(np.abs(rs - c)) < 1e-9 * max(1.0, abs(c))


def test_common_real_roots_with_exclusion(quadratic_structure, opposite_structure,
                                          spiral_structure):
    inv = compute_invariants(quadratic_structure, (1.0, 0.0))
    rs = constraint_roots(inv).real
    assert rs == pytest.approx([-2.0, 2.0], abs=1e-9)

    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    rs = constraint_roots(inv).real
    assert rs.size == 0

    inv = compute_invariants(spiral_structure, (1.0, 0.0))
    rs = constraint_roots(inv).real
    assert rs.size == 0


def test_common_complex_roots(opposite_structure):
    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    shared = constraint_roots(inv).complex
    assert len(shared) == 1
    assert shared[0] == pytest.approx(2j, abs=1e-8)


def test_resultant_root_duality():
    # resultant vanishes (numerically singular Sylvester matrix) iff the
    # pair shares a root; complex-only sharing is visible to the resultant
    # but not to the real-root scan.
    rng = np.random.default_rng(77)
    for trial in range(200):
        shared = trial % 2 == 0
        pr = rng.integers(-5, 6, rng.integers(1, 4)).astype(float)
        qr = rng.integers(-5, 6, rng.integers(1, 4)).astype(float)
        if shared:
            qr[0] = pr[0]
        else:
            qr = qr + 0.25  # integer grids offset by 1/4 never collide
        p, q = poly_from_roots(pr), poly_from_roots(qr)
        g = gap(p, q)
        has_common = bool(np.min(np.abs(pr[:, None] - qr[None, :])) < 1e-6)
        assert (g < 1e-10) == has_common, (pr, qr, g)

    # complex shared factor: only the resultant reports it
    base = [1.0, 0.5, 1.0]  # no real roots
    p = npoly.polymul(base, [3.0, 1.0])
    q = npoly.polymul(base, [-7.0, 1.0])
    assert gap(p, q) < 1e-12
    assert abs(resultant(p, q).value[0]) < 1e-10


def test_resultant_report_gap_separates_scales(spiral_structure):
    # tiny normalized determinant with a healthy gap: genuinely nonzero
    inv = compute_invariants(spiral_structure, (0.5, 0.0))
    rep = resultant(coeffs_P1(inv), coeffs_P3(inv))
    assert abs(rep.normalized[0]) < 1e-8  # determinant alone looks tiny
    assert gap(coeffs_P1(inv), coeffs_P3(inv)) > 1e-10  # but the matrix is far from singular


def test_resultant_scale_beyond_the_float_range_is_inf():
    # scale = |P|^deg(Q) |Q|^deg(P); 1e200^2 * 1e200 overflows, and so did
    # Python's ** (OverflowError) before
    rep = resultant([-1e200, 1e200], [-4e200, 0.0, 1e200])
    assert rep.scale[0] == np.inf
    assert rep.value[0] == -np.inf  # normalized: Res(t - 1, t^2/4 - 1) = -3/4
    assert rep.normalized[0] == pytest.approx(-0.75)
    assert gap([-1e200, 1e200], [-4e200, 0.0, 1e200]) > 1e-5
    # a power that overflows in a finite product; finite scales keep their bits
    assert resultant([1e200, 1e200], [1e-200, 0.0, 1e-200]).scale[0] == (
        pytest.approx(1e200, rel=1e-12)
    )
    finite = column_resultant_reports(normalized_columns(np.array([[3.0], [-2.0]])),
                                      normalized_columns(np.array([[0.5], [1.5], [7.0]])))
    assert finite.scale[0] == 3.0 ** 2 * 7.0 ** 1


def test_resultant_value_at_a_zero_determinant_with_inf_scale_is_zero(spiral_structure):
    # 0 * inf was NaN (null in report.json); the resultant is 0 there
    assert ResultantReport(0.0, np.inf, 1e-17).value == 0.0
    assert ResultantReport(-0.0, 2.0, 1e-17).value == 0.0  # finite scales keep the product
    assert ResultantReport(0.5, np.inf, 1e-17).value == np.inf
    # the base spiral at (1e4, 0): P2 and P3 share a factor, and the scale is inf
    verdict = classify_point(spiral_structure, (1e4, 0.0))
    res23 = verdict.resultants["res23"]
    assert res23.normalized == 0.0 and res23.value == 0.0


def test_stacked_companion_roots_are_polyroots():
    # one eigvals call on the companion matrices of each degree, sorted per
    # row as polyroots sorts it: every row equals polyroots to the bit,
    # whether its roots are all real (real-sorted) or not
    rng = np.random.default_rng(77)
    rows, degrees = [], []
    for d in range(1, 11):
        for k in range(12):
            c = npoly.polyfromroots(rng.uniform(-3, 3, d)) if k % 3 == 0 else rng.normal(size=d + 1)
            if k % 4 == 1:
                c[0] = 0.0  # a root at zero
            c = c / np.max(np.abs(c))
            rows.append(np.concatenate([c, np.zeros(10 - d)]))
            degrees.append(d)
    order = rng.permutation(len(rows))
    rows, degrees = np.array(rows)[order], np.array(degrees)[order]
    roots, valid = _companion_roots(rows, degrees)
    real_rows = 0
    for row, d, got, mask in zip(rows, degrees, roots, valid):
        assert mask.sum() == d and mask[:d].all()
        want = npoly.polyroots(row[: d + 1])
        if want.dtype.kind == "f":
            real_rows += 1
            assert not got[:d].imag.any()
            assert got[:d].real.tobytes() == want.tobytes()
        else:
            assert got[:d].tobytes() == want.tobytes()
    assert 0 < real_rows < len(rows)


def test_cluster_means_are_np_mean_of_each_cluster():
    # the loop it replaced: a run of one is 0.0 + t, a longer run np.mean's
    rng = np.random.default_rng(5)
    mult = rng.integers(1, 8, 3000)
    first = np.concatenate([[0], np.cumsum(mult)[:-1]])
    centre = np.repeat(rng.uniform(-3.0, 3.0, mult.size), mult)
    t = centre * (1.0 + rng.normal(0.0, 1e-4, centre.size))
    t[first[:5]] = -0.0
    mult[:5] = 1
    want = [0.0 + t[a] if m == 1 else np.mean(t[a : a + m]) for a, m in zip(first, mult)]
    assert _cluster_means(t, first, mult).tobytes() == np.array(want).tobytes()


def test_witness_test_keeps_no_root_where_a_value_is_nan():
    # 1 + t vanishes at -1; at NaN its value is NaN, which is no witness
    rows = np.array([[[1.0, 1.0]]])  # one polynomial, one column
    keep, values = _witness_test(rows, np.array([0, 0]), np.array([np.nan, -1.0]), None)
    assert keep.tolist() == [False, True]
    assert np.isnan(values[0]) and values[1] == 0.0


_DEGREES = (8, 10, 6)  # of P1, P2 and P3
_unit = st.floats(-1.0, 1.0)
_leading = st.floats(0.5, 1.0) | st.floats(-1.0, -0.5)


@st.composite
def _planted_triples(draw):
    """Three real polynomials of degrees 8, 10 and 6 with a common real root or
    a common complex pair, and graded coefficients: P(t) -> c P(g t).  The first
    one's constant coefficient moves by up to 1e-4 of its largest, so that the
    root is shared only nearly, or not at all."""
    a = draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        factor = [-a, 1.0]
    else:
        b = draw(st.floats(0.2, 2.0))
        factor = [a * a + b * b, -2.0 * a, 1.0]
    grade = 10.0 ** draw(st.floats(-1.0, 1.0))
    polys = []
    for d in _DEGREES:
        size = d + 1 - len(factor)
        cofactor = draw(st.lists(_unit, min_size=size, max_size=size))
        p = npoly.polymul(factor, cofactor + [draw(_leading)])
        polys.append(p * grade ** np.arange(d + 1) * 10.0 ** draw(st.floats(-3.0, 3.0)))
    polys[0][0] += draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(
        st.floats(-12.0, -4.0)) * np.max(np.abs(polys[0]))
    return polys


@given(_planted_triples())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_kept_common_root_bounds_every_pairs_gap(polys):
    """At a kept root z every normalized P_k(z) is at most TOL_ROOT, so the
    Sylvester matrix of each pair maps (z^(m+n-1), ..., 1) to at most
    sqrt(m + n) TOL_ROOT times its length: the gap is at most that."""
    polys = [normalized(p) for p in polys]
    roots = column_common_roots(polys)
    assume(roots.real.size or roots.complex.size)
    for i, j in RESULTANT_PAIRS.values():
        m, n = polys[i].degrees[0], polys[j].degrees[0]
        assert column_gaps(polys[i], polys[j])[0] <= math.sqrt(m + n) * TOL_ROOT


_SEED7 = {"spiral": SPIRAL_7_MEMBERS, "quadratic": QUADRATIC_7_MEMBERS,
          "opposite": OPPOSITE_7_MEMBERS}


@pytest.mark.parametrize("family, k", [(f, k) for f in _SEED7 for k in range(3)])
def test_no_witnessed_node_of_a_family_member_has_a_certifying_gap(family, k):
    """A witness decides a node before any gap is taken: on the seed-7 members'
    grid and near-flat nodes, no witnessed node has a gap of _TOL_RES_HIGH or more."""
    field = InvariantField([Frame(_SEED7[family][k], p, SCAN_ORDER) for p in MEMBER_NODES])
    nodes = np.flatnonzero(~field.flat)
    vals, n = field.invariant_values().take(nodes), nodes.size
    p0, *polys = (normalized_columns(_coefficient_columns(fn(vals), n))
                  for fn in (coeffs_P0, coeffs_P1, coeffs_P2, coeffs_P3))
    roots = column_common_roots(polys, p0)
    witnessed = np.union1d(roots.real_col, roots.complex_col)
    for i, j in RESULTANT_PAIRS.values():
        gaps = column_gaps(polys[i].take(witnessed), polys[j].take(witnessed))
        assert not any(g >= _TOL_RES_HIGH for g in gaps)
    if family != "spiral":  # every node but the flat origin has a witness
        assert len(witnessed) == n == len(MEMBER_NODES) - 1

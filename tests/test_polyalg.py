import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sfmew.analyzer import classify_point
from sfmew.constraints import assemble_P0, assemble_P1, assemble_P2, assemble_P3
from sfmew.invariants import compute_invariants
from sfmew.polyalg import (
    Poly,
    ResultantReport,
    ResultantValue,
    ZeroPolynomial,
    _companion_roots,
    column_resultant_reports,
    common_complex_roots,
    common_real_roots,
    real_roots,
    resultant_report,
    sylvester_matrix,
    sylvester_resultant,
)


def poly_from_roots(roots, lc=1.0):
    coeffs = np.array([1.0])
    for r in roots:
        coeffs = npoly.polymul(coeffs, [-r, 1.0])
    return Poly(lc * coeffs)


def test_poly_trims_trailing_noise():
    p = Poly([1.0, 2.0, 1e-15])
    assert p.degree == 1
    assert Poly([0.0, 0.0]).is_zero
    assert Poly([3.0]).degree == 0


def test_resultant_linear_pair():
    # Res(t - a, t - b) = a - b in the canonical row layout
    res = sylvester_resultant(Poly([-3.0, 1.0]), Poly([-1.0, 1.0]))
    assert res.value == pytest.approx(2.0)


def test_resultant_shared_root_is_zero():
    res = sylvester_resultant(Poly([-1.0, 0.0, 1.0]), Poly([-1.0, 1.0]))
    assert abs(res.value) < 1e-12


def test_resultant_rejects_degenerate_inputs():
    with pytest.raises(ZeroPolynomial):
        sylvester_resultant(Poly([]), Poly([0.0, 1.0]))
    with pytest.raises(ZeroPolynomial):
        sylvester_resultant(Poly([2.0]), Poly([0.0, 1.0]))


def test_sylvester_matrix_layout():
    p = Poly([2.0, 3.0, 1.0])  # t^2 + 3t + 2, degree 2
    q = Poly([-1.0, 1.0])  # t - 1, degree 1
    mat = sylvester_matrix(p, q)
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
        got = sylvester_resultant(p, q).value
        assert abs(got) == pytest.approx(abs(oracle), rel=1e-8)
        checked += 1


def test_real_roots_simple_quadratics():
    rs = real_roots(Poly([-16.0, 0.0, 9.0]))
    assert rs.roots == pytest.approx([-4.0 / 3.0, 4.0 / 3.0])
    assert real_roots(Poly([4.0, 0.0, 1.0])).roots.size == 0  # t^2 + 4


def test_real_roots_quadratic_structure_p3(quadratic_structure):
    inv = compute_invariants(quadratic_structure, (1.0, 0.0))
    rs = real_roots(assemble_P3(inv))
    assert rs.roots == pytest.approx([-2.0, -4.0 / 3.0, 0.0, 4.0 / 3.0, 2.0], abs=1e-9)


def test_real_roots_multiplicity_cluster():
    # (t - 1)^3 (t + 2)
    p = Poly(npoly.polymul(npoly.polymul([-1, 1], npoly.polymul([-1, 1], [-1, 1])), [2, 1]))
    rs = real_roots(p, tol_root=1e-5)
    assert rs.roots == pytest.approx([-2.0, 1.0], abs=1e-4)
    assert list(rs.multiplicities) == [1, 3]


def test_real_roots_recovers_shifted_factor():
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = rng.uniform(-10, 10)
        q = poly_from_roots(rng.uniform(12, 20, 2))  # Q(c) != 0 by placement
        p = Poly(npoly.polymul([-c, 1.0], q.coeffs))
        rs = real_roots(p)
        assert np.min(np.abs(rs.roots - c)) < 1e-9 * max(1.0, abs(c))


def test_common_real_roots_with_exclusion(quadratic_structure, opposite_structure,
                                          spiral_structure):
    inv = compute_invariants(quadratic_structure, (1.0, 0.0))
    rs = common_real_roots(
        assemble_P1(inv), assemble_P2(inv), assemble_P3(inv), exclude=assemble_P0(inv)
    )
    assert rs.roots == pytest.approx([-2.0, 2.0], abs=1e-9)

    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    rs = common_real_roots(
        assemble_P1(inv), assemble_P2(inv), assemble_P3(inv), exclude=assemble_P0(inv)
    )
    assert rs.roots.size == 0

    inv = compute_invariants(spiral_structure, (1.0, 0.0))
    rs = common_real_roots(
        assemble_P1(inv), assemble_P2(inv), assemble_P3(inv), exclude=assemble_P0(inv)
    )
    assert rs.roots.size == 0


def test_common_complex_roots(opposite_structure):
    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    shared = common_complex_roots(
        assemble_P1(inv), assemble_P2(inv), assemble_P3(inv), exclude=assemble_P0(inv)
    )
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
        rep = resultant_report(p, q)
        has_common = bool(np.min(np.abs(pr[:, None] - qr[None, :])) < 1e-6)
        assert (rep.gap < 1e-10) == has_common, (pr, qr, rep.gap)

    # complex shared factor: only the resultant reports it
    base = Poly([1.0, 0.5, 1.0])  # no real roots
    p = Poly(npoly.polymul(base.coeffs, [3.0, 1.0]))
    q = Poly(npoly.polymul(base.coeffs, [-7.0, 1.0]))
    assert resultant_report(p, q).gap < 1e-12
    assert abs(sylvester_resultant(p, q).value) < 1e-10


def test_resultant_report_gap_separates_scales(spiral_structure):
    # tiny normalized determinant with a healthy gap: genuinely nonzero
    inv = compute_invariants(spiral_structure, (0.5, 0.0))
    p1, p3 = assemble_P1(inv), assemble_P3(inv)
    rep = resultant_report(p1, p3)
    assert abs(rep.normalized) < 1e-8  # determinant alone looks tiny
    assert rep.gap > 1e-10  # but the matrix is far from singular


def test_resultant_scale_beyond_the_float_range_is_inf():
    # scale = |P|^deg(Q) |Q|^deg(P); 1e200^2 * 1e200 overflows, and so did
    # Python's ** (OverflowError) before
    p, q = Poly([-1e200, 1e200]), Poly([-4e200, 0.0, 1e200])
    for rep in (resultant_report(p, q), column_resultant_reports(
        p.coeffs[:, None], q.coeffs[:, None]
    )[0]):
        assert rep.scale == np.inf
        assert rep.value == -np.inf  # normalized: Res(t - 1, t^2/4 - 1) = -3/4
        assert rep.normalized == pytest.approx(-0.75)
        assert rep.gap > 1e-5
    # a power that overflows in a finite product; finite scales keep their bits
    assert resultant_report(Poly([1e200, 1e200]), Poly([1e-200, 0.0, 1e-200])).scale == (
        pytest.approx(1e200, rel=1e-12)
    )
    finite = column_resultant_reports(np.array([[3.0], [-2.0]]), np.array([[0.5], [1.5], [7.0]]))
    assert finite[0].scale == 3.0 ** 2 * 7.0 ** 1


def test_resultant_value_at_a_zero_determinant_with_inf_scale_is_zero(spiral_structure):
    # 0 * inf was NaN (null in report.json); the resultant is 0 there
    for cls in (ResultantValue, lambda n, s: ResultantReport(n, s, 1e-17)):
        assert cls(0.0, np.inf).value == 0.0
        assert cls(-0.0, 2.0).value == 0.0  # finite scales keep the product
        assert cls(0.5, np.inf).value == np.inf
    # the base spiral at (1e4, 0): P2 and P3 share a factor, and the scale is inf
    verdict = classify_point(spiral_structure, (1e4, 0.0))
    (res23,) = [r for r in verdict.resultants if r.pair == "res23"]
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

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import polynomial as npoly

from sfmew import MoebiusStructure, analyzer
from sfmew.analyzer import (
    P0Vanishes,
    RegionSpec,
    SolutionCandidate,
    VerdictTag,
    _horner,
    _is_simple,
    _lift_root,
    alpha_from_F,
    classify_point,
    classify_points,
    f_from_P0_branch,
    scan_region,
    summarize,
    verify_candidate,
    verify_candidates,
)
from sfmew.expr import parse
from sfmew.geometry import Frame
from sfmew.invariants import (
    SCAN_ORDER,
    FlatPoint,
    InvariantField,
    PointInvariants,
    compute_invariants,
)
from sfmew.jets import Jet, jet_space

from columns import normalized, trimmed
from seed7 import (
    MEMBER_NODES,
    OPPOSITE_7_MEMBERS,
    ORIGIN_BATCH,
    QUADRATIC_7_MEMBERS,
    SPIRAL_7_1,
)
from test_batch import canon


def make_candidate(*sources, mode="real"):
    return SolutionCandidate(
        F=0.0,
        alpha=np.zeros(2, dtype=complex),
        source="UserSupplied",
        alpha_exprs=tuple(parse(s) for s in sources),
    )


# ---------------------------------------------------------------------------
# reconstruction formulas


def test_alpha_from_f_reproduces_rotation_family(quadratic_structure):
    # the verified solution family is alpha = +/-(y, -x); Eq-level oracle:
    # reconstructed alpha at F = -2 must agree with the plus sign
    for (x, y) in [(1.0, 0.0), (0.0, 1.0), (0.7, -0.4), (-1.1, 0.9)]:
        inv = compute_invariants(quadratic_structure, (x, y))
        cand = alpha_from_F(inv, -2.0)
        assert cand.alpha == pytest.approx([y, -x], abs=1e-10)
        cand2 = alpha_from_F(inv, 2.0)
        assert cand2.alpha == pytest.approx([-y, x], abs=1e-10)


def test_reconstructed_alpha_takes_each_roots_float_power():
    # a scan takes the formula on the node array of its real roots, with F^4
    # as a float's ``**`` (libm pow) rounds it root by root: np.power on the
    # array rounds some of these seed-7 quadratic roots otherwise in the last bit
    structure, points = QUADRATIC_7_MEMBERS[1], MEMBER_NODES[:60]
    count = 0
    for point, verdict in zip(points, classify_points(structure, points)):
        inv = compute_invariants(structure, point)
        for cand in verdict.candidates:
            f = cand.F
            numer = [
                inv.L[a]
                + 2.5 * inv.rho * f * inv.Y[a]
                + 0.5 * f * f * inv.grad_rho[a]
                + 3.0 * f**4 * inv.U[a]
                for a in range(2)
            ]
            alpha = np.array(numer) / (inv.sigma - 3.0 * inv.rho * f * f)
            assert cand.alpha.tobytes() == alpha.tobytes(), (point, f)
            assert cand.alpha.tobytes() == alpha_from_F(inv, f).alpha.tobytes(), (point, f)
            count += 1
    assert count > 20


def test_alpha_from_f_rejects_p0_root():
    inv = PointInvariants(rho=1.0, sigma=3.0)  # P0(1) = 0
    with pytest.raises(P0Vanishes):
        alpha_from_F(inv, 1.0)


def test_forced_f_opposite_structure(opposite_structure):
    # mu = ell = tau = 0 forces F = 0, inconsistent with sigma/(3 rho) = 8/3
    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    f, consistent = f_from_P0_branch(inv)
    assert f == pytest.approx(0.0, abs=1e-12)
    assert not consistent


def test_forced_f_sigma_nonpositive_flag(quadratic_structure):
    inv = compute_invariants(quadratic_structure, (1.0, 0.0))  # sigma < 0
    _, consistent = f_from_P0_branch(inv)
    assert not consistent


def test_forced_f_synthetic_consistent_case():
    # choose ell so the rearranged branch value hits +sqrt(sigma / (3 rho))
    rho, sigma, mu, tau, phi = 2.0, 1.5, 0.3, -0.4, 0.7
    f_target = math.sqrt(sigma / (3.0 * rho))
    ell = (-2.5 * rho**2 * f_target - mu * sigma - tau * sigma / (3 * rho) - tau * phi) / rho
    inv = PointInvariants(rho=rho, sigma=sigma, mu=mu, tau=tau, phi=phi, ell=ell)
    f, consistent = f_from_P0_branch(inv)
    assert f == pytest.approx(f_target, rel=1e-12)
    assert consistent


# ---------------------------------------------------------------------------
# classification


def test_classify_spiral_obstructed_with_closed_form_resultant(spiral_structure):
    for r, pt in [(0.25, (0.5, 0.0)), (1.0, (1.0, 0.0)), (4.0, (2.0, 0.0))]:
        verdict = classify_point(spiral_structure, pt)
        assert verdict.tag == VerdictTag.OBSTRUCTED
        res13 = verdict.resultants["res13"]
        closed = (
            2.0**142
            * 3**10
            * r**44
            * (2**4 * 3**2 * 7**2 * r**8 + 2**2 * 7**2 * 59 * 251 * r**4 - 3**2 * 131)
        )
        assert abs(res13.value) == pytest.approx(closed, rel=1e-4)


def test_classify_quadratic_admits(quadratic_structure):
    verdict = classify_point(quadratic_structure, (1.0, 0.0))
    assert verdict.tag == VerdictTag.ADMITS
    assert sorted(verdict.f_candidates) == pytest.approx([-2.0, 2.0], abs=1e-9)
    assert all(r.passed for r in verdict.residuals)
    # reconstructed F satisfies all three polynomials but not P0
    from sfmew.constraints import coeffs_P0

    inv = compute_invariants(quadratic_structure, (1.0, 0.0))
    p0 = trimmed(coeffs_P0(inv))
    for f in verdict.f_candidates:
        assert abs(npoly.polyval(f, p0)) > 1e-3 * np.max(np.abs(p0))


def test_classify_quadratic_admits_near_flat_origin(quadratic_structure):
    # the point lies 1e-3 from the flat origin; the root lift needs no neighbours
    for pt in [(1e-3, 0.0), (0.0, 1e-3)]:
        verdict = classify_point(quadratic_structure, pt)
        assert verdict.tag == VerdictTag.ADMITS, verdict.note
        assert sorted(verdict.f_candidates) == pytest.approx([-2.0, 2.0], abs=1e-9)


def test_classify_rescaled_quadratic_admits_off_axis_near_flat(quadratic_structure):
    # F = +/-2 e^{-2 omega} at an off-axis point 3e-3 from the flat origin
    rescaled = quadratic_structure.rescaled("0.02*(x*x + y*y)")
    pt = (0.0021, 0.0021)
    verdict = classify_point(rescaled, pt)
    assert verdict.tag == VerdictTag.ADMITS, verdict.note
    f = 2.0 * math.exp(-2.0 * 0.02 * (pt[0] ** 2 + pt[1] ** 2))
    assert sorted(verdict.f_candidates) == pytest.approx([-f, f], rel=1e-9)


# quadratic rescaled by omega = a x + b y + c xy + d (x^2 - y^2) + e (x^2 + y^2), with
# the Rho tensor P - Hess(omega) + d omega d omega - |d omega|^2/2 delta expanded into
# dense quadratic polynomials: (a, b, c, d, e), point, (u, P11, P12, P22)
NEAR_FLAT_RESCALED_QUADRATIC = [
    (
        (-0.0853, -0.0241, 0.0119, 0.01, -0.0128),
        (0.0, 1e-3),
        (
            "0.0 + (-0.0853)*x + (-0.0241)*y + (-0.0028000000000000004)*x*x + (0.0119)*x*y"
            " + (-0.0228)*y*y",
            "0.00894764 + (0.0007644700000000002)*x + (-0.0021140300000000002)*y"
            " + (0.499944875)*x*x + (0.000476)*x*y + (-0.500968875)*y*y",
            "-0.00984427 + (-0.00088011)*x + (0.0036028900000000005)*y"
            " + (-6.664000000000001e-05)*x*x + (1.00039697)*x*y + (-0.00054264)*y*y",
            "0.04225236 + (-0.0007644700000000002)*x + (0.0021140300000000002)*y"
            " + (-0.499944875)*x*x + (-0.000476)*x*y + (0.500968875)*y*y",
        ),
    ),
    (
        (0.0644, -0.0971, 0.0095, -0.0246, -0.0231),
        (1e-3, 0.0),
        (
            "0.0 + (0.0644)*x + (-0.0971)*y + (-0.0477)*x*x + (0.0095)*x*y"
            " + (0.0015000000000000013)*y*y",
            "0.092759475 + (-0.00522131)*x + (0.0009031000000000002)*y"
            " + (0.504505455)*x*x + (-0.0009348)*x*y + (-0.499959375)*y*y",
            "-0.01575324 + (0.009875140000000001)*x + (-0.0007292499999999999)*y"
            " + (-0.0009063)*x*x + (0.99980405)*x*y + (2.8500000000000025e-05)*y*y",
            "-0.0003594750000000019 + (0.00522131)*x + (-0.0009031000000000002)*y"
            " + (-0.504505455)*x*x + (0.0009348)*x*y + (0.499959375)*y*y",
        ),
    ),
    (
        (0.0452, -0.0789, 0.0224, -0.001, 0.0297),
        (1e-3, 0.0),
        (
            "0.0 + (0.0452)*x + (-0.0789)*y + (0.0287)*x*x + (0.0224)*x*y + (0.0307)*y*y",
            "-0.059491085 + (0.00436184)*x + (0.00585694)*y + (0.5013965)*x*x"
            " + (-8.960000000000001e-05)*x*y + (-0.5016341)*y*y",
            "-0.02596628 + (-0.0035163800000000004)*x + (0.0010079199999999998)*y"
            " + (0.00128576)*x*x + (1.00402612)*x*y + (0.00137536)*y*y",
            "-0.059308915000000004 + (-0.00436184)*x + (-0.00585694)*y + (-0.5013965)*x*x"
            " + (8.960000000000001e-05)*x*y + (0.5016341)*y*y",
        ),
    ),
    (
        (-0.0615, 0.0993, 0.0266, -0.001, 0.0296),
        (7.071e-4, 7.071e-4),
        (
            "0.0 + (-0.0615)*x + (0.0993)*y + (0.0286)*x*x + (0.0266)*x*y"
            " + (0.030600000000000002)*y*y",
            "-0.06023912 + (-0.00615918)*x + (-0.007713060000000001)*y + (0.50128214)*x*x"
            " + (-0.00010639999999999998)*x*y + (-0.50151894)*y*y",
            "-0.03270695 + (0.00404406)*x + (-0.0011224200000000003)*y + (0.00152152)*x*x"
            " + (1.0042082)*x*y + (0.00162792)*y*y",
            "-0.058160880000000005 + (0.00615918)*x + (0.007713060000000001)*y"
            " + (-0.50128214)*x*x + (0.00010639999999999998)*x*y + (0.50151894)*y*y",
        ),
    ),
]


@pytest.mark.parametrize("omega, pt, sources", NEAR_FLAT_RESCALED_QUADRATIC)
def test_classify_rescaled_quadratic_near_flat_lifts_with_best_constraint(omega, pt, sources):
    # P3's roots lose digits this close to the flat origin; lifting with P1
    # or P2 verifies both F = +/-2 e^{-2 omega}
    a, b, c, d, e = omega
    x, y = pt
    w = a * x + b * y + c * x * y + d * (x * x - y * y) + e * (x * x + y * y)
    verdict = classify_point(MoebiusStructure.from_strings(*sources), pt)
    assert verdict.tag == VerdictTag.ADMITS, verdict.note
    f = 2.0 * math.exp(-2.0 * w)
    assert sorted(verdict.f_candidates) == pytest.approx([-f, f], rel=1e-9)
    assert all(r.max_residual < 1e-8 for r in verdict.residuals)


def test_classify_unverified_real_roots_inconclusive(spiral_structure):
    # spurious real common roots near the flat origin fail the full equation;
    # that shows no solution, but does not show that none exists
    verdict = classify_point(spiral_structure, (0.05, 0.0))
    assert verdict.tag == VerdictTag.INCONCLUSIVE
    assert verdict.note == "real common roots exist but none verified"
    assert verdict.residuals and not any(r.passed for r in verdict.residuals)


def test_classify_opposite_vanishing_with_deflated_resultants(opposite_structure):
    verdict = classify_point(opposite_structure, (1.0, 0.0))
    assert verdict.tag == VerdictTag.VANISHING
    assert "complex" in verdict.note

    # deflating the shared quadratic factor leaves pairwise resultants that
    # match closed forms in rho (extra rho on the second constraint)
    from sfmew.constraints import coeffs_P1, coeffs_P2, coeffs_P3
    from sfmew.polyalg import column_resultant_reports

    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    rho = inv.rho
    assert rho == pytest.approx(16.0)
    shared = [4.0, 0.0, 1.0]
    p1, p2, p3 = (trimmed(c(inv)) for c in (coeffs_P1, coeffs_P2, coeffs_P3))
    s1, rem1 = npoly.polydiv(p1, shared)
    s2, rem2 = npoly.polydiv(p2, shared)
    s3, rem3 = npoly.polydiv(p3, shared)
    for p, rem in ((p1, rem1), (p2, rem2), (p3, rem3)):
        assert np.max(np.abs(rem)) < 1e-7 * np.max(np.abs(p))
    s1, s2, s3 = normalized(s1 / rho**2), normalized(s2 / rho**3), normalized(s3 / rho**2)
    res12 = abs(column_resultant_reports(s1, s2).value[0])
    res13 = abs(column_resultant_reports(s1, s3).value[0])
    res23 = abs(column_resultant_reports(s2, s3).value[0])
    closed12 = abs(
        1076168025.0
        / 67108864.0
        * rho**8
        * (243 * rho**6 + 12704256 * rho**4 + 131135897600 * rho**2 + 251658240000) ** 2
    )
    closed13 = abs(80289792000000 * rho**2 - 61662560256000000)
    closed23 = abs(-3583180800 * (73600 + 81 * rho**2) ** 2 * (3 * rho**2 + 256))
    assert res12 == pytest.approx(closed12, rel=1e-4)
    assert res13 == pytest.approx(closed13, rel=1e-4)
    assert res23 == pytest.approx(closed23, rel=1e-4)


def test_classify_flat_structure():
    s = MoebiusStructure.from_strings("0.2*(x*x - y*y)", "0", "0", "0")
    verdict = classify_point(s, (0.7, 0.4))
    assert verdict.tag == VerdictTag.FLAT
    assert "conformally Einstein" in verdict.note


def test_classify_deterministic(quadratic_structure):
    a = classify_point(quadratic_structure, (0.8, -0.3))
    b = classify_point(quadratic_structure, (0.8, -0.3))
    assert a.tag == b.tag
    assert a.f_candidates == b.f_candidates
    assert [r.value for r in a.resultants.values()] == [r.value for r in b.resultants.values()]


def test_orientation_flip_negates_f_and_preserves_tags(
    spiral_structure, quadratic_structure, opposite_structure
):
    for s in (spiral_structure, quadratic_structure, opposite_structure):
        v_plus = classify_point(s, (1.0, 0.0))
        v_minus = classify_point(s, (1.0, 0.0), orientation=-1)
        assert v_plus.tag == v_minus.tag
    # closed-form candidate: computed F flips sign with the orientation
    cand = make_candidate("y", "-x")
    rep_plus = verify_candidate(quadratic_structure, cand, (0.6, 0.2))
    rep_minus = verify_candidate(quadratic_structure, cand, (0.6, 0.2), orientation=-1)
    assert rep_plus.f == pytest.approx(-2.0)
    assert rep_minus.f == pytest.approx(2.0)
    assert rep_plus.passed and rep_minus.passed


def test_degenerate_branch_follows_the_one_sigma_rule():
    """sigma ~ 0 is decided once, by the field's branch columns: a node where
    sigma > 0 only through rounding does not enter the branch, a node where
    sigma is well above zero does, with the field's own tensor."""
    field = InvariantField([Frame(SPIRAL_7_1, p, SCAN_ORDER) for p in MEMBER_NODES])
    positive = field.invariant_values().sigma > 0.0
    assert np.count_nonzero(positive) == 147
    assert field.sigma_is_zero()[positive].all()
    assert all(v.m_norm is None for v in classify_points(SPIRAL_7_1, MEMBER_NODES))
    for structure in OPPOSITE_7_MEMBERS:
        verdicts = classify_points(structure, MEMBER_NODES)
        nonflat = [v for v in verdicts if v.tag != VerdictTag.FLAT]
        assert len(nonflat) == 446
        field = InvariantField([Frame(structure, p, SCAN_ORDER) for p in MEMBER_NODES])
        assert [v.m_norm for v in nonflat] == field.m_tensor().norm[~field.flat].tolist()


def test_vanishing_branch_tensor_admits_the_closed_form_candidate(monkeypatch):
    """MZeroAdmits, which no reference structure reaches: the real tensor with
    its norm set to 0 at a few sigma > 0 nodes of a batch that holds the flat
    origin.  The verdict carries the forced F of the node's own invariants and
    the tensor's alpha, and is the one the node gets alone."""
    structure = OPPOSITE_7_MEMBERS[1]
    batch = ORIGIN_BATCH
    zeroed = [batch[k] for k in (3, 40, 77)]
    m_tensor = InvariantField.m_tensor

    def vanishing(field):
        rep = m_tensor(field)
        rep.norm[[p in zeroed for p in field.frame.points]] = 0.0
        return rep

    tensor = m_tensor(InvariantField([Frame(structure, p, SCAN_ORDER) for p in batch]))
    monkeypatch.setattr(InvariantField, "m_tensor", vanishing)
    verdicts = classify_points(structure, batch)
    assert [v.tag == VerdictTag.MZERO_ADMITS for v in verdicts] == [p in zeroed for p in batch]
    for point in zeroed:
        node = batch.index(point)
        verdict = verdicts[node]
        f, consistent = f_from_P0_branch(compute_invariants(structure, point))
        assert [float(v).hex() for v in verdict.f_candidates] == [float(f).hex()]
        assert not consistent  # the opposite family forces F = 0, and sigma > 0
        assert verdict.note == "degenerate-branch tensor vanishes (forced F consistency flag false)"
        assert verdict.m_norm == 0.0
        (cand,) = verdict.candidates
        assert cand.source == "MZeroFormula" and cand.point == point
        assert cand.alpha.tobytes() == tensor.alpha[:, node].tobytes()
        assert canon(verdict) == canon(classify_point(structure, point))


# ---------------------------------------------------------------------------
# verification


def test_verify_candidates_rejects_an_unknown_mode(quadratic_structure):
    """A mode is checked where verification reads it: a ValueError that names it,
    for a closed-form candidate and a reconstructed one alike."""
    inv = compute_invariants(quadratic_structure, (0.9, -0.7))
    closed, reconstructed = make_candidate("y", "-x"), alpha_from_F(inv, -2.0)
    with pytest.raises(ValueError, match="mode must be 'real' or 'complex', not 'foo'"):
        verify_candidates(quadratic_structure, closed, [(0.9, -0.7)], mode="foo")
    for cand in (closed, reconstructed):
        with pytest.raises(ValueError, match="not 'foo'"):
            verify_candidate(quadratic_structure, cand, (0.9, -0.7), mode="foo")


def test_verify_closed_form_solution_everywhere(quadratic_structure):
    rng = np.random.default_rng(42)
    cand = make_candidate("y", "-x")
    for _ in range(20):
        pt = tuple(rng.uniform(-2, 2, 2))
        rep = verify_candidate(quadratic_structure, cand, pt)
        assert rep.max_residual < 1e-9
        assert rep.f_gradient_mismatch < 1e-9


def test_verify_complex_solution(opposite_structure):
    rng = np.random.default_rng(43)
    for sign, f_expect in ((1.0, -2j), (-1.0, 2j)):
        cand = make_candidate("0", "0", f"{sign}*y", f"{-sign}*x", mode="complex")
        for _ in range(5):
            pt = tuple(rng.uniform(-2, 2, 2))
            rep = verify_candidate(opposite_structure, cand, pt, mode="complex")
            assert rep.max_residual < 1e-9
            assert rep.f == pytest.approx(f_expect)


def test_verify_flat_structure_candidates():
    s = MoebiusStructure.from_strings("0", "0", "0", "0")
    zero = make_candidate("0", "0")
    rep = verify_candidate(s, zero, (0.3, 0.4))
    assert rep.max_residual == pytest.approx(0.0, abs=1e-15)
    bad = make_candidate("1", "0")
    rep_bad = verify_candidate(s, bad, (0.3, 0.4))
    # residual tensor is alpha_a alpha_b - delta_ab / 2
    assert rep_bad.res_tensor == pytest.approx(0.5)
    assert not rep_bad.passed


def test_verify_non_solution_fails(quadratic_structure):
    cand = make_candidate("x", "y")
    rep = verify_candidate(quadratic_structure, cand, (1.0, 0.5))
    assert not rep.passed


def test_verify_reconstructed_tracked(quadratic_structure):
    inv = compute_invariants(quadratic_structure, (0.9, -0.7))
    cand = alpha_from_F(inv, -2.0)
    rep = verify_candidate(quadratic_structure, cand, (0.9, -0.7))
    assert rep.method == "jet-lift"
    assert rep.passed
    assert rep.f_gradient_mismatch < 1e-5


def test_verify_reconstructed_exact_gradient_of_varying_f(quadratic_structure):
    # F = +/-2 e^{-2 omega} varies; its lifted jet must satisfy nabla F = -2 alpha F - Y
    rescaled = quadratic_structure.rescaled("0.3*x + 0.1*y*y")
    for pt in [(0.7, -0.4), (-1.2, 0.5)]:
        inv = compute_invariants(rescaled, pt)
        f = 2.0 * math.exp(-2.0 * (0.3 * pt[0] + 0.1 * pt[1] ** 2))
        for sign in (-1.0, 1.0):
            rep = verify_candidate(rescaled, alpha_from_F(inv, sign * f), pt)
            assert rep.passed
            assert rep.f_gradient_mismatch <= 1e-12


def test_verify_reconstructed_fails_for_bogus_root(spiral_structure, quadratic_structure):
    inv = compute_invariants(spiral_structure, (1.0, 0.0))
    rep = verify_candidate(spiral_structure, alpha_from_F(inv, 0.31), (1.0, 0.0))
    assert not rep.passed
    # next to a true root the lift reaches it, but the candidate's F was no root
    inv = compute_invariants(quadratic_structure, (0.9, -0.7))
    rep = verify_candidate(quadratic_structure, alpha_from_F(inv, -2.01), (0.9, -0.7))
    assert rep.f == pytest.approx(-2.0, abs=1e-12)
    assert rep.max_residual < 1e-9
    assert not rep.passed


def test_verify_reconstructed_at_a_flat_point_raises_flat_point():
    # the lift's own chain refuses the flat origin, |Y| just above 0 by rounding
    cand = SolutionCandidate(F=2.0, alpha=np.zeros(2), source="Alpha1Formula", point=(0.0, 0.0))
    message = r"Cotton-York form vanishes at \(0\.0, 0\.0\) \(\|Y\| = 1\.788e-18 below threshold\)"
    with pytest.raises(FlatPoint, match=f"^{message}$"):
        verify_candidate(OPPOSITE_7_MEMBERS[1], cand, (0.0, 0.0))


def test_root_lift_keeps_value_and_rejects_multiple_root():
    space = jet_space(3)
    x = Jet.variable(space, 0, 0.0)
    # t^2 - (1 + x)^2 has the simple root branch t = 1 + x through t = 1
    one_plus_x = 1.0 + x
    coeffs = [-(one_plus_x * one_plus_x), 0.0, 1.0]
    p, dp = _horner(coeffs, 1.0)
    assert _is_simple(coeffs, 1.0, dp)
    lifted = _lift_root(coeffs, 1.0, p, dp)
    assert lifted.value == 1.0
    assert lifted.partial(1, 0) == pytest.approx(1.0, abs=1e-15)
    assert lifted.partial(2, 0) == pytest.approx(0.0, abs=1e-15)
    # (t - 1)^2 + x has a double root at x = 0: no lift
    coeffs = [1.0 + x, -2.0, 1.0]
    assert not _is_simple(coeffs, 1.0, _horner(coeffs, 1.0)[1])


# ---------------------------------------------------------------------------
# region scans


def test_scan_spiral_grid(spiral_structure):
    report = scan_region(spiral_structure, RegionSpec(-2, 2, -2, 2, 21, 21))
    assert report.summary == "OBSTRUCTED"
    for node in report.nodes:
        if node.x * node.x + node.y * node.y > 0.05:
            assert node.verdict.tag == VerdictTag.OBSTRUCTED, (node.x, node.y)


def test_scan_quadratic_grid(quadratic_structure):
    report = scan_region(quadratic_structure, RegionSpec(-2, 2, -2, 2, 7, 7))
    assert report.summary == "ADMITS (F = ±2)"
    for node in report.nodes:
        if (node.x, node.y) != (0.0, 0.0):
            assert node.verdict.tag == VerdictTag.ADMITS


def test_classify_points_matches_scan_and_single_points(spiral_structure):
    region = RegionSpec(-1, 1, -1, 1, 3, 3)
    nodes = list(region.nodes())
    batched = classify_points(spiral_structure, nodes)
    assert [n.verdict for n in scan_region(spiral_structure, region).nodes] == batched
    assert [classify_point(spiral_structure, p) for p in nodes] == batched
    assert classify_points(spiral_structure, []) == []


def test_scan_flat_everywhere():
    s = MoebiusStructure.from_strings("0.2*(x*x - y*y)", "0", "0", "0")
    report = scan_region(s, RegionSpec(-1, 1, -1, 1, 5, 5))
    assert report.summary == "FLAT"
    assert set(report.histogram) == {"Flat"}


def test_scan_requires_grid(quadratic_structure):
    with pytest.raises(ValueError):
        scan_region(quadratic_structure, RegionSpec(-1, 1, -1, 1, 1, 5))


def test_summarize_mixed():
    v1 = classify_point(MoebiusStructure.from_strings("0", "0", "0", "0"), (0, 0))
    assert summarize([v1]) == "FLAT"


def test_summary_is_flat_only_where_every_verdict_is_flat(spiral_structure):
    flat = classify_point(spiral_structure, (0.0, 0.0))
    undecided = classify_point(spiral_structure, (1e30, 0.0))  # coefficients not finite
    assert (flat.tag, undecided.tag) == (VerdictTag.FLAT, VerdictTag.INCONCLUSIVE)
    assert summarize([flat, flat]) == "FLAT"
    assert summarize([flat, undecided]) == summarize([undecided, flat, flat]) == "INCONCLUSIVE"
    assert summarize([undecided]) == summarize([]) == "INCONCLUSIVE"


def test_no_points_give_no_verdicts_and_no_columns(spiral_structure):
    assert analyzer.classify_points(spiral_structure, []) == []
    with pytest.raises(ValueError, match="at least one point"):
        analyzer.classify_columns(spiral_structure, [])


# -- residuals on node columns -------------------------------------------------


def _per_node_residual_reports(frame, invs, mode, method, alpha, dalpha, F, grad_F,
                               tol_residual, on_root=None):
    """The residuals written out from their formulas node by node, as the oracle
    of the assembler on node arrays.  ``invs`` holds each node's invariants,
    None at a flat node.

    On exact inputs every sum and product is exact, whatever its order, so
    only the moduli round: they are taken with ``np.abs`` on a node array of
    each term, as the assembler takes them.
    """
    from sfmew import jets
    from sfmew.analyzer import ResidualReport

    eps = ((0.0, 1.0), (-1.0, 0.0))
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1]
    e2u, e2u_inv, K, P = (
        jets.values(getattr(frame, name)) for name in ("e2u", "e2u_inv", "curvature", "p")
    )
    o = float(frame.orientation)
    terms = []  # per node: the four tensor components, trace, U, W, the two gradient ones
    for i, inv in enumerate(invs):
        alpha_i, dalpha_i, f = alpha[:, i], dalpha[:, :, i], F[i]
        alpha_sq = e2u_inv[i] * dot(alpha_i, alpha_i)
        row = [
            dalpha_i[a, b] + alpha_i[a] * alpha_i[b] + P[a, b, i]
            - 0.5 * alpha_sq * (e2u[i] if a == b else 0.0) - 0.5 * o * e2u[i] * eps[a][b] * f
            for a in range(2) for b in range(2)
        ]
        row.append(e2u_inv[i] * (dalpha_i[0, 0] + dalpha_i[1, 1]) + K[i])
        if inv is None:
            row += [0.0] * 4
        else:
            row.append(dot(alpha_i, inv.U_up) + f * f + inv.phi)
            row.append(
                e2u_inv[i] * dot(alpha_i, inv.W) - inv.ell - 2.5 * inv.rho * f
                - 3.0 * (inv.mu + dot(alpha_i, inv.Y_up)) * f * f
            )
            row += [grad_F[a, i] + 2.0 * alpha_i[a] * f + inv.Y[a] for a in range(2)]
        terms.append(row)
    moduli = [np.abs(np.array(term)).tolist() for term in zip(*terms)]
    reports = []
    for i, point in enumerate(frame.points):
        t00, t01, t10, t11, res_trace, res_u, res_w, g0, g1 = (m[i] for m in moduli)
        res_tensor = max(t00, t01, t10, t11)
        max_res = max(res_u, res_w, res_tensor, res_trace)
        reports.append(ResidualReport(
            point=tuple(map(float, point)), mode=mode, method=method, f=F[i].item(),
            res_alpha_U=res_u, res_alpha_W=res_w, res_tensor=res_tensor,
            res_trace=res_trace, f_gradient_mismatch=max(g0, g1),
            passed=bool(max_res < tol_residual and (on_root is None or on_root[i])),
            max_residual=max_res,
        ))
    return reports


def _bits(report):
    """Every field of a residual report, floats by their bits (-0.0 apart from 0.0)."""
    def bits(x):
        if isinstance(x, complex):
            return (float(x.real).hex(), float(x.imag).hex())
        return float(x).hex() if isinstance(x, float) else x
    return tuple((name, bits(getattr(report, name))) for name in vars(report))


# dyadic points and inputs k/8, |k| <= 64: on the flat quadratic structure (u = 0,
# dyadic P) every sum and product of the residuals is exact
_RESIDUAL_POINTS = [(0.0, 0.0), (1.0, 0.0), (-0.5, 1.25), (0.375, -0.75), (0.125, 0.0), (2.0, 2.0)]
_NUMBERS = st.integers(-64, 64).map(lambda k: k / 8)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_column_residuals_are_the_per_node_residuals(data, quadratic_structure):
    """The assembler on node arrays gives the residual formulas, node by node, bit
    for bit: real (the lift) and complex (closed form) inputs, flat nodes, both
    orientations and both pass outcomes."""
    points = data.draw(st.lists(st.sampled_from(_RESIDUAL_POINTS), min_size=1, max_size=6))
    orientation = data.draw(st.sampled_from([1, -1]))
    frame = Frame.stack([Frame(quadratic_structure, p, 4, orientation) for p in points])
    n = len(points)
    mode = data.draw(st.sampled_from(["real", "complex"]))

    def node_array(*shape):
        re = data.draw(arrays(np.float64, shape + (n,), elements=_NUMBERS))
        if mode == "real":
            return re
        out = re.astype(complex)
        out.imag = data.draw(arrays(np.float64, shape + (n,), elements=_NUMBERS))
        return out

    alpha, dalpha, F, grad_F = node_array(2), node_array(2, 2), node_array(), node_array(2)
    flat = data.draw(arrays(np.bool_, (n,)))
    on_root = data.draw(st.none() | arrays(np.bool_, (n,)))
    inv = {name: data.draw(arrays(np.float64, (2, n), elements=_NUMBERS))
           for name in ("Y", "U_up", "Y_up", "W")}
    inv.update({name: data.draw(arrays(np.float64, (n,), elements=_NUMBERS))
                for name in ("phi", "ell", "rho", "mu")})
    invs = [None if flat[i] else SimpleNamespace(**{k: v[..., i] for k, v in inv.items()})
            for i in range(n)]
    # the residuals reach about 3e4: both pass outcomes
    tol = data.draw(st.sampled_from([analyzer.TOL_RESIDUAL, 1e3, 1e5]))
    method = "jets" if mode == "complex" else "jet-lift"

    with mock.patch.object(analyzer, "TOL_RESIDUAL", tol):
        new = analyzer._residual_columns(
            frame, PointInvariants(**inv), flat, mode, method, alpha, dalpha, F, grad_F, on_root,
        ).reports()
    old = _per_node_residual_reports(
        frame, invs, mode, method, alpha, dalpha, F, grad_F, tol, on_root
    )
    assert [_bits(r) for r in new] == [_bits(r) for r in old]


@pytest.mark.parametrize(
    "omega", ["0", "0.3*x - 0.2*y + 0.1*(x*x + y*y)"], ids=["base", "rescaled"]
)
def test_closed_form_and_lifted_verifications_agree(quadratic_structure, omega):
    """alpha = d omega + (y, -x) on the quadratic structure rescaled by omega, verified
    in closed form, and the reconstructed candidate of the same root, verified by
    its jet lift: both pass, with the same F."""
    structure = quadratic_structure.rescaled(omega)
    cand = make_candidate("y + 0.3 + 0.2*x", "-x - 0.2 + 0.2*y") if omega != "0" else (
        make_candidate("y", "-x")
    )
    for point in [(0.7, -0.4), (-1.1, 0.9), (1.5, 0.25)]:
        closed = verify_candidate(structure, cand, point)
        verdict = classify_point(structure, point)
        assert verdict.tag == VerdictTag.ADMITS, verdict
        root = min(verdict.candidates, key=lambda c: abs(c.F - closed.f))
        assert root.alpha_exprs is None
        lifted = verify_candidate(structure, root, point)
        assert closed.method == "jets" and lifted.method == "jet-lift"
        assert closed.passed and lifted.passed, (closed, lifted)
        assert lifted.f == pytest.approx(closed.f, rel=1e-12, abs=0.0)

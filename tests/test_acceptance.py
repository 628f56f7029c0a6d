"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria cover the three reference structures (closed-form polynomial and
resultant values, verdicts, solution verification), the conformal-invariance
property suite, the numerical-kernel oracles, and flat detection.  Stated
tolerances are pinned in the assertions.
"""

import math
import random
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from sfmew import MoebiusStructure
from sfmew.analyzer import (
    RegionSpec,
    SolutionCandidate,
    VerdictTag,
    alpha_from_F,
    classify_point,
    scan_region,
    verify_candidate,
)
from sfmew.constraints import coeffs_P0, coeffs_P1, coeffs_P2, coeffs_P3
from sfmew.expr import eval_jet, eval_value, parse
from sfmew.geometry import Frame, MoebiusStructure as MS, validate
from sfmew.invariants import CONFORMAL_WEIGHTS, InvariantField, compute_invariants
from sfmew.polyalg import column_common_roots, column_resultant_reports

from columns import normalized, trimmed
from oracles import fd_partial, random_expression


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


def closed_candidate(*sources):
    return SolutionCandidate(
        F=0.0,
        alpha=np.zeros(2, dtype=complex),
        source="UserSupplied",
        alpha_exprs=tuple(parse(s) for s in sources),
    )


# ---------------------------------------------------------------------------
# criterion 1: obstructed reference structure


def test_criterion_1_spiral_reproduction(spiral_structure):
    start = time.perf_counter()
    for r, pt in [(0.25, (0.5, 0.0)), (1.0, (1.0, 0.0)), (4.0, (2.0, 0.0))]:
        inv = compute_invariants(spiral_structure, pt)
        p1, p3 = trimmed(coeffs_P1(inv)), trimmed(coeffs_P3(inv))

        expected_p1 = 256.0 * r**2 * np.array(
            [32 * r**4, 320 * r**3, 672 * r**2, -640 * r, 56, 0, 0, 0, 31.5]
        )
        scale1 = np.max(np.abs(expected_p1))
        assert np.allclose(p1, expected_p1, rtol=1e-6, atol=1e-6 * scale1)

        expected_p3 = np.array(npoly.polymul([0, 0, 0, 0, -768.0 * r], [-4 * r**2, -6 * r, 1]))
        scale3 = np.max(np.abs(expected_p3))
        assert np.allclose(p3, expected_p3[: p3.size], rtol=1e-6, atol=1e-6 * scale3)

        # P2 against the printed reduced form, up to the P0 factor and an
        # overall constant; the printed t^2 coefficient needs the +75/2 rho^4
        # correction established by the other two reference structures
        # (decisions ledger; verbatim comparison is the xfail test below).
        reduced = 256.0 * r**2 * np.array(
            [288 * r**4, 1472 * r**3, -7392 * r**2, 0, 56, 0, 0, 0, -4.5]
        )
        reduced[2] += 37.5 * inv.rho**4
        expected_p2 = np.array(npoly.polymul(trimmed(coeffs_P0(inv)), reduced))
        got_p2 = trimmed(coeffs_P2(inv))
        idx = int(np.argmax(np.abs(expected_p2)))
        c = got_p2[idx] / expected_p2[idx]
        assert np.allclose(got_p2, c * expected_p2[: got_p2.size], rtol=1e-6,
                           atol=1e-6 * np.max(np.abs(got_p2)))

        res13 = column_resultant_reports(normalized(p1), normalized(p3))
        closed = (
            2.0**142
            * 3**10
            * r**44
            * (2**4 * 3**2 * 7**2 * r**8 + 2**2 * 7**2 * 59 * 251 * r**4 - 3**2 * 131)
        )
        assert abs(res13.value[0]) == pytest.approx(closed, rel=1e-4)

    grid = scan_region(spiral_structure, RegionSpec(-2, 2, -2, 2, 21, 21))
    assert grid.summary == "OBSTRUCTED"
    for node in grid.nodes:
        if node.x**2 + node.y**2 > 0.05:  # away from the origin
            assert node.verdict.tag == VerdictTag.OBSTRUCTED, (node.x, node.y)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"closed forms, resultant, 21x21 obstructed grid ({elapsed:.2f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the printed reduced second constraint of the obstructed example "
    "has a t^2 coefficient inconsistent with the generic assembly by "
    "75/2 rho^4 (decisions ledger); every other coefficient matches",
)
def test_criterion_1_spiral_p2_display_verbatim(spiral_structure):
    inv = compute_invariants(spiral_structure, (1.0, 0.0))
    reduced = 256.0 * np.array([288, 1472, -7392, 0, 56, 0, 0, 0, -4.5])
    expected = np.array(npoly.polymul(trimmed(coeffs_P0(inv)), reduced))
    got = trimmed(coeffs_P2(inv))
    idx = int(np.argmax(np.abs(expected)))
    c = got[idx] / expected[idx]
    assert np.allclose(got, c * expected[: got.size], rtol=1e-6,
                       atol=1e-6 * np.max(np.abs(got)))


# ---------------------------------------------------------------------------
# criterion 2: admitting reference structure


def test_criterion_2_quadratic_reproduction(quadratic_structure):
    start = time.perf_counter()
    inv = compute_invariants(quadratic_structure, (1.0, 0.0))
    found = column_common_roots(
        [normalized(coeffs_P1(inv)), normalized(coeffs_P2(inv)), normalized(coeffs_P3(inv))],
        exclude=normalized(coeffs_P0(inv)),
    )
    assert sorted(found.real) == pytest.approx([-2.0, 2.0], abs=1e-9)

    rng = np.random.default_rng(2024)
    for _ in range(6):
        pt = tuple(rng.uniform(-1.8, 1.8, 2))
        inv_pt = compute_invariants(quadratic_structure, pt)
        cand = alpha_from_F(inv_pt, -2.0)
        assert cand.alpha == pytest.approx([pt[1], -pt[0]], abs=1e-8)

    cand = closed_candidate("y", "-x")
    for _ in range(20):
        pt = tuple(rng.uniform(-2, 2, 2))
        rep = verify_candidate(quadratic_structure, cand, pt)
        assert rep.max_residual < 1e-9

    verdict = classify_point(quadratic_structure, (1.0, 0.0))
    assert verdict.tag == VerdictTag.ADMITS
    assert sorted(verdict.f_candidates) == pytest.approx([-2.0, 2.0], abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"common roots -/+2, reconstruction, residuals < 1e-9 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 3: vanishing obstructions without a real solution


def test_criterion_3_opposite_reproduction(opposite_structure):
    start = time.perf_counter()
    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    rho = inv.rho
    assert rho == pytest.approx(16.0)
    assert inv.sigma == pytest.approx(8.0 * rho, rel=1e-10)
    scale = abs(inv.sigma)
    assert abs(inv.mu) < 1e-10 * scale
    assert abs(inv.tau) < 1e-10 * scale
    assert abs(inv.ell) < 1e-10 * scale

    shared = [4.0, 0.0, 1.0]  # t^2 + 4
    p1, p2, p3 = (trimmed(c(inv)) for c in (coeffs_P1, coeffs_P2, coeffs_P3))
    s1, rem1 = npoly.polydiv(p1, shared)
    s2, rem2 = npoly.polydiv(p2, shared)
    s3, rem3 = npoly.polydiv(p3, shared)
    for p, rem in ((p1, rem1), (p2, rem2), (p3, rem3)):
        assert np.max(np.abs(rem)) < 1e-7 * np.max(np.abs(p))

    # normalizations matching the printed reduced polynomials: the second
    # constraint carries an extra factor rho (decisions ledger)
    s1 = s1 / rho**2
    s2 = s2 / rho**3
    s3 = s3 / rho**2
    closed = {
        ("s1", "s2"): 1076168025.0 / 67108864.0 * rho**8
        * (243 * rho**6 + 12704256 * rho**4 + 131135897600 * rho**2 + 251658240000) ** 2,
        ("s1", "s3"): 80289792000000 * rho**2 - 61662560256000000,
        ("s2", "s3"): -3583180800 * (73600 + 81 * rho**2) ** 2 * (3 * rho**2 + 256),
    }
    pairs = {("s1", "s2"): (s1, s2), ("s1", "s3"): (s1, s3), ("s2", "s3"): (s2, s3)}
    for key, (a, b) in pairs.items():
        got = abs(column_resultant_reports(normalized(a), normalized(b)).value[0])
        assert got == pytest.approx(abs(closed[key]), rel=1e-4), key

    rng = np.random.default_rng(7)
    for sign, f_expect in ((1.0, -2j), (-1.0, 2j)):
        cand = closed_candidate("0", "0", f"{sign}*y", f"{-sign}*x")
        for _ in range(5):
            pt = tuple(rng.uniform(-2, 2, 2))
            rep = verify_candidate(opposite_structure, cand, pt, mode="complex")
            assert rep.max_residual < 1e-9
            assert rep.f == pytest.approx(f_expect, abs=1e-9)

    verdict = classify_point(opposite_structure, (1.0, 0.0))
    assert verdict.tag == VerdictTag.VANISHING
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"invariants, deflation, resultant closed forms, complex solution ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 4: conformal invariance suite


def _random_rescalings(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        c = [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
             rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)]
        out.append(
            parse(
                f"{c[0]:.4f}*x + {c[1]:.4f}*y + {c[2]:.4f}*x*y + {c[3]:.4f}*(x*x - y*y)"
            )
        )
    return out


def _weighted_values(field):
    return {
        "Y": np.array([j.value for j in field.Y]),
        "U": np.array([j.value for j in field.U]),
        "W": np.array([j.value for j in field.W]),
        "rho": np.array([field.rho.value]),
        "sigma": np.array([field.sigma.value]),
        "tau": np.array([field.tau.value]),
        "L": np.array([j.value for j in field.L]),
    }


def test_criterion_4_conformal_invariance(
    spiral_structure, quadratic_structure, opposite_structure
):
    start = time.perf_counter()
    region = RegionSpec(0.5, 2.5, 0.5, 2.5, 11, 11)
    sample_points = [(1.0, 0.4), (0.8, 1.7), (2.2, 0.9)]
    structures = {
        "spiral": (spiral_structure, 101),
        "quadratic": (quadratic_structure, 202),
        "opposite": (opposite_structure, 303),
    }
    for name, (structure, seed) in structures.items():
        base_scan = scan_region(structure, region)
        for k, omega in enumerate(_random_rescalings(5, seed=seed)):
            rescaled = structure.rescaled(omega)
            for pt in sample_points:
                f0 = InvariantField(Frame(structure, pt, 6))
                f1 = InvariantField(Frame(rescaled, pt, 6))
                w = eval_value(omega, *pt)

                # full Cotton-York tensor components are unchanged
                dP0, dP1 = (f.frame.cov_deriv(f.frame.p, "dd") for f in (f0, f1))
                for c in range(2):
                    before = dP0[0][1][c].value - dP0[1][0][c].value
                    after = dP1[0][1][c].value - dP1[1][0][c].value
                    assert abs(after - before) <= 1e-8 * max(1.0, abs(before))

                v0, v1 = _weighted_values(f0), _weighted_values(f1)
                for qty in ("Y", "U", "W", "rho", "sigma", "tau"):
                    weight = CONFORMAL_WEIGHTS[qty]
                    expect = v0[qty] * math.exp(weight * w)
                    floor = (
                        f0.sigma_scale[0] if qty in ("sigma", "tau") else np.max(np.abs(v0[qty]))
                    ) * math.exp(weight * w)
                    tol = 1e-6 * max(np.max(np.abs(expect)), floor, 1e-30)
                    assert np.max(np.abs(v1[qty] - expect)) < tol, (name, qty)
                # L scales at its declared weight exactly where sigma = 0
                # (spiral); elsewhere see the strict-xfail companion test.
                if name == "spiral":
                    expect = v0["L"] * math.exp(CONFORMAL_WEIGHTS["L"] * w)
                    tol = 1e-6 * max(np.max(np.abs(expect)), 1e-30)
                    assert np.max(np.abs(v1["L"] - expect)) < tol

            rescan = scan_region(rescaled, region)
            for a, b in zip(base_scan.nodes, rescan.nodes):
                assert a.verdict.tag == b.verdict.tag, (name, k, a.x, a.y)
    elapsed = time.perf_counter() - start
    report(4, f"tensor invariance, weights, verdict stability on 11x11 grids ({elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the stated weight for L holds only where sigma = 0: the "
    "reconstruction identity forces L -> e^{-10w}(L + sigma grad w), "
    "verified to machine precision (decisions ledger)",
)
def test_criterion_4_l_weight_as_stated_for_sigma_nonzero(quadratic_structure):
    omega = _random_rescalings(1, seed=99)[0]
    rescaled = quadratic_structure.rescaled(omega)
    pt = (1.0, 0.4)
    f0 = InvariantField(Frame(quadratic_structure, pt, 6))
    f1 = InvariantField(Frame(rescaled, pt, 6))
    w = eval_value(omega, *pt)
    before = np.array([j.value for j in f0.L])
    after = np.array([j.value for j in f1.L])
    expect = before * math.exp(CONFORMAL_WEIGHTS["L"] * w)
    assert np.max(np.abs(after - expect)) < 1e-6 * max(np.max(np.abs(expect)), 1e-30)


# ---------------------------------------------------------------------------
# criterion 5: kernel oracles


def test_criterion_5_kernel_oracles():
    # jet derivatives against central finite differences
    rng = random.Random(314)
    checked = 0
    while checked < 100:
        src = random_expression(rng, 3)
        e = parse(src)
        x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        jet = eval_jet(e, (x0, y0), 4)
        fn = lambda xx, yy: eval_value(e, xx, yy)
        for (i, k) in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
            got = jet.partial(i, k)
            ref = fd_partial(fn, x0, y0, i, k, h=1e-4)
            assert abs(got - ref) <= 1e-6 * max(1.0, abs(got), abs(ref)), src
        checked += 1

    # resultants against the product-over-root-pairs oracle
    nrng = np.random.default_rng(2718)
    checked = 0
    while checked < 200:
        dp, dq = nrng.integers(1, 4), nrng.integers(1, 4)
        pr, qr = nrng.uniform(-2, 2, dp), nrng.uniform(-2, 2, dq)
        if np.min(np.abs(pr[:, None] - qr[None, :])) < 0.1:
            continue
        lp, lq = nrng.uniform(0.5, 2.0), nrng.uniform(0.5, 2.0)
        p_coeffs, q_coeffs = np.array([1.0]), np.array([1.0])
        for root in pr:
            p_coeffs = npoly.polymul(p_coeffs, [-root, 1.0])
        for root in qr:
            q_coeffs = npoly.polymul(q_coeffs, [-root, 1.0])
        got = column_resultant_reports(normalized(lp * p_coeffs),
                                       normalized(lq * q_coeffs)).value[0]
        oracle = lp**dq * lq**dp * np.prod(pr[:, None] - qr[None, :])
        assert abs(got) == pytest.approx(abs(oracle), rel=1e-8)
        checked += 1

    # metric compatibility and torsion-free symmetry for random factors
    rng = random.Random(161)
    for _ in range(20):
        u_src = f"0.3*({random_expression(rng, 2)})"
        s = MS.from_strings(u_src, "0", "0", "0")
        pt = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        frame = Frame(s, pt, 5)
        dg = frame.cov_deriv(frame.metric(), "dd")
        worst = max(
            abs(dg[a][b][c].value) for a in range(2) for b in range(2) for c in range(2)
        )
        assert worst < 1e-10 * max(1.0, frame.e2u.value)
        f = eval_jet(parse(random_expression(rng, 2)), pt, 5, frame.space)
        hess = frame.hessian(f)
        assert abs(hess[0][1].value - hess[1][0].value) < 1e-10 * max(
            1.0, abs(hess[0][1].value)
        )
    report(5, "jet vs finite differences, resultant oracle, metric compatibility")


# ---------------------------------------------------------------------------
# criterion 6: flat detection and trace validation


def test_criterion_6_flat_detection():
    # vanishing Rho tensor with a (harmonic) nontrivial conformal factor
    s = MoebiusStructure.from_strings("0.2*(x*x - y*y) + 0.1*x", "0", "0", "0")
    grid = scan_region(s, RegionSpec(-1.5, 1.5, -1.5, 1.5, 7, 7))
    assert set(grid.histogram) == {"Flat"}
    assert grid.summary == "FLAT"

    bad = MoebiusStructure.from_strings("0", "1", "0", "0")
    rep = validate(bad, [(0.0, 0.0), (0.7, -0.4), (1.5, 1.5)])
    assert not rep.ok
    assert len(rep.violations) == 3
    report(6, "flat verdicts everywhere; trace violation rejected")

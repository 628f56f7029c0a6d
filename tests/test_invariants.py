import math
import random

import numpy as np
import pytest

from sfmew import MoebiusStructure
from sfmew.expr import differentiate, eval_value, parse
from sfmew.geometry import Frame
from sfmew.invariants import (
    CONFORMAL_WEIGHTS,
    FlatPoint,
    InvariantField,
    SigmaZero,
    compute_M,
    compute_invariants,
    cotton_york,
)


def field_at(structure, pt, order=6):
    return InvariantField(Frame(structure, pt, order))


def test_cotton_vanishes_for_flat_structure():
    s = MoebiusStructure.from_strings("0", "0", "0", "0")
    rep = cotton_york(s, (0.7, -0.3))
    assert rep.flat
    assert np.allclose(rep.Y, 0.0)


def test_cotton_quadratic_structure(quadratic_structure):
    # hand expansion of nabla_a P_bc - nabla_b P_ac followed by dualization
    for (x, y) in [(1.0, 0.0), (0.5, -1.2), (-0.3, 0.4)]:
        rep = cotton_york(quadratic_structure, (x, y))
        assert rep.Y[0] == pytest.approx(4.0 * y, abs=1e-12)
        assert rep.Y[1] == pytest.approx(-4.0 * x, abs=1e-12)
        if (x, y) != (0.0, 0.0):
            inv = compute_invariants(quadratic_structure, (x, y))
            assert inv.rho == pytest.approx(16.0 * (x * x + y * y), rel=1e-12)


def test_cotton_dual_consistency():
    # 1/2 eps_ab Y^b must equal nabla_a K - nabla^b P_ab
    s = MoebiusStructure.from_strings(
        "0.2*x*y", "0.1 + x*x/4", "0.05*sin(x)", "-(0.1 + x*x/4)"
    ).rescaled("0.1*x - 0.05*y")
    for pt in [(0.4, -0.3), (1.1, 0.7)]:
        f = field_at(s, pt)
        frame = f.frame
        lhs = [0.5 * j.value for j in frame.rot_form(f.Y)]
        dK = frame.grad(frame.curvature)
        rhs = [
            dK[a].value
            - frame.e2u_inv.value * (f.dP[0][a][0].value + f.dP[1][a][1].value)
            for a in range(2)
        ]
        scale = max(1.0, max(abs(v) for v in rhs))
        assert abs(lhs[0] - rhs[0]) < 1e-9 * scale
        assert abs(lhs[1] - rhs[1]) < 1e-9 * scale


def test_orthogonality_of_rotated_form():
    rng = random.Random(2)
    s = MoebiusStructure.from_strings("0", "x*y", "(y*y - x*x)/2", "-(x*y)")
    for _ in range(10):
        pt = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        f = field_at(s, pt)
        if f.flat[0]:
            continue
        u_dot_y = f.frame.dot(f.U, f.Y).value
        scale = max(f.rho.value, 1e-30)
        assert abs(u_dot_y) < 1e-12 * scale


def test_invariants_opposite_structure(opposite_structure):
    # sigma = 8 rho with mu = tau = ell = 0 at every point
    for pt in [(1.0, 0.0), (0.3, 0.8), (-1.1, 0.6)]:
        inv = compute_invariants(opposite_structure, pt)
        assert inv.sigma == pytest.approx(8.0 * inv.rho, rel=1e-10)
        scale = max(abs(inv.sigma), inv.rho)
        assert abs(inv.mu) < 1e-10 * scale
        assert abs(inv.tau) < 1e-10 * scale
        assert abs(inv.ell) < 1e-10 * scale


def test_invariants_quadratic_structure(quadratic_structure):
    for pt in [(1.0, 0.0), (0.5, 0.5)]:
        inv = compute_invariants(quadratic_structure, pt)
        assert inv.sigma == pytest.approx(-8.0 * inv.rho, rel=1e-10)
        assert inv.phi == pytest.approx(-4.0, rel=1e-12)
        assert abs(inv.mu) < 1e-12
        assert abs(inv.tau) < 1e-10 * abs(inv.sigma)


def test_invariants_spiral_structure(spiral_structure):
    # independent hand expansion: sigma = 0, tau = 8 rho, mu = -4, phi = 0,
    # ell = rho^2 / 32, with rho = 16 r and r = x^2 + y^2
    for (x, y) in [(1.0, 0.0), (0.6, -0.8), (1.3, 0.4)]:
        r = x * x + y * y
        inv = compute_invariants(spiral_structure, (x, y))
        assert inv.rho == pytest.approx(16.0 * r, rel=1e-12)
        assert abs(inv.sigma) < 1e-10 * inv.rho ** (5.0 / 3.0)
        assert inv.tau == pytest.approx(8.0 * inv.rho, rel=1e-10)
        assert inv.mu == pytest.approx(-4.0, rel=1e-12)
        assert abs(inv.phi) < 1e-12
        assert inv.ell == pytest.approx(inv.rho**2 / 32.0, rel=1e-10)


def test_sigma_two_ways():
    # sigma = Y.W must match the expanded form Y^a Y^b nabla_b U_a + phi rho
    s = MoebiusStructure.from_strings("0.1*x", "x*y", "0.2*y", "-(x*y)").rescaled("0.07*y")
    for pt in [(0.8, 0.4), (-0.5, 1.0)]:
        f = field_at(s, pt)
        inv = f.point_invariants()[0]
        expanded = inv.dU_YY + inv.phi * inv.rho
        assert inv.sigma == pytest.approx(expanded, rel=1e-9)


def test_flat_point_refusal():
    s = MoebiusStructure.from_strings("0", "0", "0", "0")
    with pytest.raises(FlatPoint):
        compute_invariants(s, (0.4, 0.2))


def test_weight_scaling_under_rescaling(quadratic_structure):
    rng = random.Random(7)
    getters = {
        "Y": lambda f: np.array([j.value for j in f.Y]),
        "U": lambda f: np.array([j.value for j in f.U]),
        "W": lambda f: np.array([j.value for j in f.W]),
        "rho": lambda f: f.rho.value,
        "sigma": lambda f: f.sigma.value,
        "tau": lambda f: f.tau.value,
    }
    for _ in range(3):
        c = [rng.uniform(-0.3, 0.3) for _ in range(3)]
        omega = parse(f"{c[0]:.4f}*x + {c[1]:.4f}*y + {c[2]:.4f}*x*y")
        rescaled = quadratic_structure.rescaled(omega)
        for _ in range(4):
            pt = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            f0, f1 = field_at(quadratic_structure, pt), field_at(rescaled, pt)
            if f0.flat[0] or f1.flat[0]:
                continue
            w = eval_value(omega, *pt)
            for name, get in getters.items():
                weight = CONFORMAL_WEIGHTS[name]
                before, after = get(f0), get(f1)
                expect = before * math.exp(weight * w)
                # exact zeros (tau here) are compared against the natural
                # magnitude of same-weight quantities, not against zero
                floor = f0.sigma_scale[0] if name in ("sigma", "tau") else np.max(np.abs(before))
                scale = max(np.max(np.abs(expect)), floor * math.exp(weight * w), 1e-30)
                assert np.max(np.abs(after - expect)) < 1e-6 * scale, name


def test_l_form_transformation_law(quadratic_structure):
    # L is covariant only up to a sigma-proportional gauge term:
    # L_hat = e^{-10 w} (L_a + sigma * grad_a w); the bare weight law holds
    # only where sigma = 0.
    omega = parse("0.3*x - 0.2*y + 0.1*x*y")
    wx, wy = differentiate(omega, "x"), differentiate(omega, "y")
    rescaled = quadratic_structure.rescaled(omega)
    for pt in [(1.0, 0.3), (-0.7, 1.2), (0.4, -1.5)]:
        w = eval_value(omega, *pt)
        ups = np.array([eval_value(wx, *pt), eval_value(wy, *pt)])
        f0, f1 = field_at(quadratic_structure, pt), field_at(rescaled, pt)
        before = np.array([j.value for j in f0.L])
        after = np.array([j.value for j in f1.L])
        corrected = math.exp(-10.0 * w) * (before + f0.sigma.value * ups)
        assert np.max(np.abs(after - corrected)) < 1e-10 * max(1.0, np.max(np.abs(after)))


def test_m_branch_defined_for_positive_sigma(opposite_structure):
    rep = compute_M(opposite_structure, (1.0, 0.0))
    assert rep.norm > 0.1 * rep.scale  # clearly nonzero
    assert np.isfinite(rep.alpha).all()
    assert rep.M[0, 1] == pytest.approx(rep.M[1, 0])
    # closed-form branch candidate derived by hand: alpha = -(5/12) U
    inv = compute_invariants(opposite_structure, (1.0, 0.0))
    assert rep.alpha == pytest.approx(-(5.0 / 12.0) * inv.U)


def test_m_branch_sigma_zero_routes(spiral_structure, quadratic_structure):
    with pytest.raises(SigmaZero):
        compute_M(spiral_structure, (1.0, 0.0))  # sigma identically 0
    rep = compute_M(quadratic_structure, (1.0, 0.0))  # sigma < 0: defined
    assert rep.norm > 0


def test_m_branch_quantities_nan_when_sigma_zero(spiral_structure):
    inv = compute_invariants(spiral_structure, (1.0, 0.0))
    assert math.isnan(inv.m) and math.isnan(inv.psi) and math.isnan(inv.k)

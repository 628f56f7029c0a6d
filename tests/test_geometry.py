import random

import numpy as np
import pytest

from sfmew import MoebiusStructure
from sfmew.expr import eval_value, parse
from sfmew.geometry import (
    Frame,
    TensorAtPoint,
    christoffel,
    covariant_derivative,
    gauss_curvature,
    validate,
)
from sfmew.invariants import InvariantField

from oracles import fd_christoffel, random_expression


def flat_structure(p11="0", p12="0", p22="0", u="0"):
    return MoebiusStructure.from_strings(u, p11, p12, p22)


def test_christoffel_flat_metric_vanishes():
    g = christoffel(flat_structure(), (0.3, -0.8))
    for c in range(2):
        for a in range(2):
            for b in range(2):
                assert g[c][a][b].value == 0.0


def test_christoffel_linear_conformal_factor():
    g = christoffel(flat_structure(u="x"), (0.7, 0.1))
    # Gamma^1_11 = 1, Gamma^1_22 = -1, Gamma^2_12 = 1, Gamma^2_11 = 0
    assert g[0][0][0].value == pytest.approx(1.0)
    assert g[0][1][1].value == pytest.approx(-1.0)
    assert g[1][0][1].value == pytest.approx(1.0)
    assert g[1][0][0].value == pytest.approx(0.0)


def test_christoffel_against_finite_difference_oracle():
    rng = random.Random(3)
    for _ in range(5):
        src = random_expression(rng, 2)
        s = flat_structure(u=f"0.3*({src})")
        x, y = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        got = christoffel(s, (x, y))
        ref = fd_christoffel(lambda xx, yy: eval_value(s.u, xx, yy), x, y)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    assert got[a][b][c].value == pytest.approx(ref[a, b, c], abs=1e-7)


def test_metric_compatibility():
    rng = random.Random(9)
    for _ in range(5):
        s = flat_structure(u=f"0.4*({random_expression(rng, 2)})")
        frame = Frame(s, (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), 5)
        dg = frame.cov_deriv(frame.metric(), "dd")
        worst = max(
            abs(dg[a][b][c].value) for a in range(2) for b in range(2) for c in range(2)
        )
        assert worst < 1e-10 * max(1.0, frame.e2u.value)


def test_gauss_curvature_flat_and_disguised_flat():
    assert gauss_curvature(flat_structure(), (0.2, 0.9)).value == 0.0
    assert gauss_curvature(flat_structure(u="x"), (0.2, 0.9)).value == pytest.approx(0.0)


def test_gauss_curvature_round_sphere():
    s = flat_structure(u="-ln(1 + (x*x + y*y)/4)")
    for pt in [(0.0, 0.0), (1.0, 0.5), (-2.0, 1.3)]:
        assert gauss_curvature(s, pt).value == pytest.approx(1.0, abs=1e-12)


def test_covariant_derivative_of_constant_scalar():
    s = flat_structure(u="0.1*x*y")
    frame = Frame(s, (0.5, 0.5), 4)
    from sfmew.jets import Jet

    const = Jet.constant(frame.space, 4.2)
    grad = frame.grad(const)
    assert grad[0].value == 0.0 and grad[1].value == 0.0


def test_covariant_derivative_reduces_to_partials_on_flat():
    from sfmew.expr import eval_jet

    s = flat_structure()
    t = TensorAtPoint(comp=eval_jet(parse("x"), (0.3, 0.4), 3))
    out = covariant_derivative(s, (0.3, 0.4), t)
    assert out.kinds == "d"
    assert out.comp[0].value == pytest.approx(1.0)
    assert out.comp[1].value == pytest.approx(0.0)


def test_second_covariant_derivative_symmetric():
    rng = random.Random(17)
    for _ in range(5):
        s = flat_structure(u=f"0.3*({random_expression(rng, 2)})")
        frame = Frame(s, (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), 5)
        from sfmew.expr import eval_jet

        f = eval_jet(parse(random_expression(rng, 2)), frame.point, 5, frame.space)
        hess = frame.hessian(f)
        assert abs(hess[0][1].value - hess[1][0].value) < 1e-10 * max(
            1.0, abs(hess[0][1].value)
        )


def test_volume_form_convention():
    s = flat_structure(u="0.2*x")
    frame = Frame(s, (0.7, -0.1), 4)
    e2u = frame.e2u.value
    # eps^{ab} eps_cb = delta_c^a with eps_12 = e^{2u}
    eps_low = np.array([[0.0, e2u], [-e2u, 0.0]])
    eps_up = np.array([[0.0, 1 / e2u], [-1 / e2u, 0.0]])
    assert np.allclose(eps_up @ eps_low.T, np.eye(2))
    # rot_form implements eps_ab V^b
    v = [frame.p[0][0] + 1.0, frame.p[0][1] + 2.0]
    rot = frame.rot_form(v)
    v_up = frame.raise_index(v)
    expect = eps_low @ np.array([v_up[0].value, v_up[1].value])
    assert np.allclose([rot[0].value, rot[1].value], expect)


def test_rescale_identity():
    s = MoebiusStructure.from_strings("0.1*x", "x*y", "0", "-(x*y)")
    r = s.rescaled("0")
    for pt in [(0.3, 0.4), (-1.0, 0.2)]:
        assert eval_value(r.u, *pt) == pytest.approx(eval_value(s.u, *pt))
        assert eval_value(r.p11, *pt) == pytest.approx(eval_value(s.p11, *pt))
        assert eval_value(r.p12, *pt) == pytest.approx(eval_value(s.p12, *pt))
        assert eval_value(r.p22, *pt) == pytest.approx(eval_value(s.p22, *pt))


def test_rescale_preserves_trace_condition(quadratic_structure):
    rng = random.Random(41)
    pts = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(20)]
    r = quadratic_structure.rescaled("0.3*x - 0.2*y + 0.1*x*y")
    assert validate(r, pts, tol=1e-8).ok


def test_rescale_cotton_tensor_invariant(quadratic_structure):
    r = quadratic_structure.rescaled("0.25*x + 0.1*y*y - 0.05*x*y")
    for pt in [(1.0, 0.3), (-0.6, 1.1)]:
        f0 = InvariantField(Frame(quadratic_structure, pt, 6))
        f1 = InvariantField(Frame(r, pt, 6))
        for c in range(2):
            before = f0.dP[0][1][c].value - f0.dP[1][0][c].value
            after = f1.dP[0][1][c].value - f1.dP[1][0][c].value
            assert after == pytest.approx(before, abs=1e-8)


def test_rescale_round_trip(quadratic_structure):
    omega = "0.2*x - 0.15*y"
    r = quadratic_structure.rescaled(omega).rescaled(f"-({omega})")
    for pt in [(0.8, -0.4), (1.2, 0.9)]:
        assert eval_value(r.p11, *pt) == pytest.approx(
            eval_value(quadratic_structure.p11, *pt), abs=1e-9
        )
        assert eval_value(r.p12, *pt) == pytest.approx(
            eval_value(quadratic_structure.p12, *pt), abs=1e-9
        )
        assert eval_value(r.p22, *pt) == pytest.approx(
            eval_value(quadratic_structure.p22, *pt), abs=1e-9
        )


def test_validate_accepts_reference_structures(
    spiral_structure, quadratic_structure, opposite_structure
):
    pts = [(0.4, 0.3), (1.0, 0.0), (-1.2, 0.8)]
    for s in (spiral_structure, quadratic_structure, opposite_structure):
        assert validate(s, pts).ok


def test_validate_rejects_trace_violation():
    s = MoebiusStructure.from_strings("0", "1", "0", "0")
    report = validate(s, [(0.0, 0.0), (1.0, 1.0)])
    assert not report.ok
    assert len(report.violations) == 2

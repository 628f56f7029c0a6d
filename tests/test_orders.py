"""Jet orders: every path evaluates its jets at the lowest order their readers take.

A scan's frames are of order ``invariants.SCAN_ORDER`` = 4: the constraint
coefficients read four orders of the structure.  The nodes whose roots are
lifted get frames of order ``invariants.LIFT_ORDER`` = 5: a lifted
candidate is differentiated once more.  A closed-form candidate's frames are
of order ``analyzer._CLOSED_FORM_ORDER`` = 3: its residuals read three.
Within the invariant chain each quantity is computed from inputs truncated
to the order its readers take.  A jet keeps only its own order and sums each
coefficient's terms in one fixed order, so a higher order only adds
coefficients that nothing reads: the verdicts, point invariants, constraint
coefficients and residual reports of every higher order, and of the
untruncated chain, must come out bit-identical.  The last tests pin
far-field points: values beyond the float range, which a scan decides
without numpy warnings, and a point where a higher order's unread power
series left the float range.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfmew import analyzer, jets
from sfmew.analyzer import (
    VerdictTag,
    classify_point,
    classify_points,
    verify_candidate,
    verify_candidates,
)
from sfmew.constraints import NOT_FINITE, coeffs_P1, coeffs_P2, coeffs_P3
from sfmew.geometry import Frame, MoebiusStructure
from sfmew.invariants import LIFT_ORDER, SCAN_ORDER, InvariantField

from seed7 import OPPOSITE_7_MEMBERS
from test_batch import POINTS, canon, closed_form, structures, verify_cases

_COEFFS = (coeffs_P1, coeffs_P2, coeffs_P3)


def _columns(obj, flat):
    """``canon`` of a result of the invariant chain, node axis last, but for the
    NaN at the flat nodes' columns (``flat``), where the field sets Y to NaN:
    a NaN's sign follows the order of its operands, which a truncation
    changes, so there only which values are NaN is compared.  Every other
    value is compared bit for bit."""
    if dataclasses.is_dataclass(obj):
        fields = dataclasses.fields(obj)
        return tuple((f.name, _columns(getattr(obj, f.name), flat)) for f in fields)
    if isinstance(obj, (list, tuple)):
        return tuple(_columns(x, flat) for x in obj)
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "fc" and obj.shape[-1:] == flat.shape:
        nan = np.isnan(obj) & flat
        return canon(np.where(nan, 0.0, obj)), canon(nan)
    return canon(obj)


def _chain(structure, points, order, orientation):
    """Flatness, and the comparable form (``_columns``) of the point invariants
    and P1..P3 coefficients, of points at a frame order."""
    field = InvariantField(Frame.stack([Frame(structure, p, order, orientation) for p in points]))
    values = field.invariant_values()
    return field.flat.tolist(), _columns([values, [fn(values) for fn in _COEFFS]], field.flat)


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_scan_order_gives_the_reports_of_higher_orders(
    data, spiral_structure, quadratic_structure, opposite_structure
):
    # scan frames of orders 5..10 against 4: flat and near-flat nodes; sigma = 0
    # (spiral), real roots (quadratic, lifted at LIFT_ORDER either way) and
    # sigma > 0, the degenerate branch (opposite)
    structure = data.draw(structures(spiral_structure, quadratic_structure, opposite_structure))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=6))
    order = data.draw(st.integers(SCAN_ORDER + 1, 10))
    orientation = data.draw(st.sampled_from([1, -1]))
    verdicts = classify_points(structure, points, orientation)
    with mock.patch.object(analyzer, "SCAN_ORDER", order):
        assert canon(classify_points(structure, points, orientation)) == canon(verdicts)
    assert _chain(structure, points, order, orientation) == _chain(
        structure, points, SCAN_ORDER, orientation
    )


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_lift_order_gives_the_lifted_reports_of_higher_orders(
    data, spiral_structure, quadratic_structure
):
    # lifted roots at orders 6..10 against 5: the quadratic family's true roots,
    # which verify, and the spiral's spurious roots near the flat origin, which
    # fail; and the lift's (node, root) columns with the frame at its full order,
    # not truncated to order 1
    structure = data.draw(structures(spiral_structure, quadratic_structure, quadratic_structure))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=6))
    order = data.draw(st.integers(LIFT_ORDER + 1, 10))
    orientation = data.draw(st.sampled_from([1, -1]))
    verdicts = classify_points(structure, points, orientation)
    candidates = [(v.point, c) for v in verdicts for c in v.candidates]
    reports = [verify_candidate(structure, c, p, orientation=orientation) for p, c in candidates]
    with mock.patch.object(analyzer, "LIFT_ORDER", order):
        assert canon(classify_points(structure, points, orientation)) == canon(verdicts)
        assert canon(
            [verify_candidate(structure, c, p, orientation=orientation) for p, c in candidates]
        ) == canon(reports)
    take = Frame.take
    with mock.patch.object(Frame, "take", lambda frame, cols, order=None: take(frame, cols)):
        assert canon(classify_points(structure, points, orientation)) == canon(verdicts)


def _at_common_order(a, b, flat):
    """The coefficients of two jets at the lower of their orders (``_columns``)."""
    order = min(a.order, b.order)
    return tuple(_columns(jets.truncate(j, order).vec, flat) for j in (a, b))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_chain_truncations_keep_every_value(
    data, spiral_structure, quadratic_structure, opposite_structure
):
    structure = data.draw(structures(spiral_structure, quadratic_structure, opposite_structure))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=6))
    order = data.draw(st.sampled_from([SCAN_ORDER, LIFT_ORDER]))
    orientation = data.draw(st.sampled_from([1, -1]))
    frame = Frame.stack([Frame(structure, p, order, orientation) for p in points])
    field = InvariantField(frame)
    # the oracle: every truncation left out, so that rho = Y_a Y^a, dY = nabla Y,
    # hess_rho = nabla grad_rho, the rest of the chain and the Christoffel
    # products are computed at the orders their inputs have
    with mock.patch.object(jets, "truncate", lambda tree, order: tree):
        dP = frame.cov_deriv(frame.p, "dd")
        dP_scale = np.maximum(1.0, np.max(np.abs(jets.values(dP)), axis=(0, 1, 2)))
        oracle = InvariantField(frame)
        if not oracle.flat.all():  # what the field builds on first read, too
            expected, mreps, jinv = (
                oracle.invariant_values(), oracle.m_tensor(), oracle.invariant_jets()
            )
    assert canon(field.dP_scale) == canon(dP_scale)
    assert field.flat.tolist() == oracle.flat.tolist()
    if field.flat.all():
        return
    values = field.invariant_values()
    flat = field.flat
    assert _columns(values, flat) == _columns(expected, flat)
    assert _columns([fn(values) for fn in _COEFFS], flat) == _columns(
        [fn(expected) for fn in _COEFFS], flat
    )
    assert _columns(field.m_tensor(), flat) == _columns(mreps, flat)
    # the coefficient jets the lift differentiates: one order at LIFT_ORDER
    for fn in _COEFFS:
        for a, b in zip(fn(field.invariant_jets()), fn(jinv)):
            if isinstance(a, jets.Jet):
                assert a.order >= order - 4
                mine, full = _at_common_order(a, b, flat)
                assert mine == full


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_closed_form_order_gives_the_reports_of_higher_orders(
    data, quadratic_structure, opposite_structure
):
    structure, cand, mode = data.draw(verify_cases(quadratic_structure, opposite_structure))
    if data.draw(st.booleans()):  # a wrong candidate: nonzero residuals, which fail
        cand = closed_form(*(["0", "0"] if mode == "complex" else []), "1.5*y", "-1.5*x")
    orientation = data.draw(st.sampled_from([1, -1]))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=6))
    order = data.draw(st.integers(analyzer._CLOSED_FORM_ORDER + 1, 8))
    reports = verify_candidates(structure, cand, points, mode, orientation)
    with mock.patch.object(analyzer, "_CLOSED_FORM_ORDER", order):
        assert canon(
            verify_candidates(structure, cand, points, mode, orientation)
        ) == canon(reports)


# far field: rescaled members of the reference families, omega = a x + b y +
# c xy + d (x^2 - y^2) + e (x^2 + y^2) expanded into polynomials as the
# benchmark's families expand them (seed 7 and seed 131, second rescaling)
_OMEGA_131 = (
    "0.0 + (-0.0299)*x + (0.07)*y + (-0.0398)*x*x + (-0.0176)*x*y + (0.0019999999999999983)*y*y"
)
OPPOSITE_131 = MoebiusStructure.from_strings(
    _OMEGA_131,
    "0.077597005 + (0.0036120400000000004)*x + (0.00024624000000000016)*y"
    " + (-0.4969868)*x*x + (0.0014713600000000001)*x*y + (0.50014688)*y*y",
    "0.015507 + (-0.005045760000000001)*x + (-0.0013516000000000001)*y"
    " + (0.0014009600000000001)*x*x + (-1.00000864)*x*y + (-7.039999999999995e-05)*y*y",
    "-0.001997004999999996 + (-0.0036120400000000004)*x + (-0.00024624000000000016)*y"
    " + (0.4969868)*x*x + (-0.0014713600000000001)*x*y + (-0.50014688)*y*y",
)
SPIRAL_131 = MoebiusStructure.from_strings(
    _OMEGA_131,
    "0.077597005 + (0.0036120400000000004)*x + (0.00024624000000000016)*y"
    " + (0.0030132)*x*x + (1.00147136)*x*y + (0.00014688000000000003)*y*y",
    "0.015507 + (-0.005045760000000001)*x + (-0.0013516000000000001)*y"
    " + (-0.49859904)*x*x + (-8.639999999999755e-06)*x*y + (0.4999296)*y*y",
    "-0.001997004999999996 + (-0.0036120400000000004)*x + (-0.00024624000000000016)*y"
    " + (-0.0030132)*x*x + (-1.00147136)*x*y + (-0.00014688000000000003)*y*y",
)
OPPOSITE_7 = OPPOSITE_7_MEMBERS[2]


def test_branch_value_beyond_the_float_range_raises_no_warning():
    # omega = -36.7: M is finite, and the coefficients are not; tau sigma would
    # overflow in the branch's forced F, which only an MZeroAdmits verdict reads
    verdict = classify_point(OPPOSITE_131, (30.0, 0.0))
    assert verdict.tag == VerdictTag.INCONCLUSIVE and verdict.note == NOT_FINITE
    assert verdict.m_norm == pytest.approx(449.9966049382716, rel=1e-9)


def test_invariants_beyond_the_float_range_are_inconclusive_without_warnings():
    # the contractions overflow in their matmul: U^a U^b nabla_b L_a is inf
    point = (29.544232590366242, 5.2094453300079095)
    verdict = classify_point(SPIRAL_131, point)
    assert verdict.tag == VerdictTag.INCONCLUSIVE
    assert verdict.note == "invariants are not all finite"
    assert verdict.m_norm is None
    values = InvariantField(Frame(SPIRAL_131, point, SCAN_ORDER)).invariant_values()
    assert not values.finite()[0] and np.isinf(values.dL_UU[0])


def test_far_field_branch_tensor_is_finite_at_the_scan_order():
    # omega = 10.5: where the frames' order leaves the branch's jets too many
    # orders, the unread top power of a reciprocal series underflows to 0,
    # 1/0 = inf and inf * 0 = NaN spreads into k: m_norm was NaN (null in
    # report.json), with numpy warnings, with scan frames of order 6 before the
    # branch was truncated to order k - 3, and still is from order 7 on; scan
    # frames of orders 4 to 6 give the same finite tensor
    verdict = classify_point(OPPOSITE_7, (17.3205, 10.0))
    assert verdict.m_norm == pytest.approx(173.19838452199656, rel=1e-9)
    for order in (LIFT_ORDER, 6):
        with mock.patch.object(analyzer, "SCAN_ORDER", order):
            assert canon(classify_point(OPPOSITE_7, (17.3205, 10.0))) == canon(verdict)
    with np.errstate(all="ignore"), mock.patch.object(analyzer, "SCAN_ORDER", 7):
        assert np.isnan(classify_point(OPPOSITE_7, (17.3205, 10.0)).m_norm)


# seed 131, first rescaling
SPIRAL_131_1 = MoebiusStructure.from_strings(
    "0.0 + (0.0721)*x + (0.0496)*y + (0.052000000000000005)*x*x + (0.0297)*x*y"
    " + (-0.0072000000000000015)*y*y",
    "-0.10263087500000001 + (0.006025280000000001)*x + (0.00285561)*y"
    " + (0.004966955000000001)*x*x + (1.00351648)*x*y + (0.000337365)*y*y",
    "-0.026123840000000002 + (0.0072997700000000006)*x + (0.0004348799999999999)*y"
    " + (-0.4969112)*x*x + (-0.0006155100000000003)*x*y + (0.49957232)*y*y",
    "0.013030875000000003 + (-0.006025280000000001)*x + (-0.00285561)*y"
    " + (-0.004966955000000001)*x*x + (-1.00351648)*x*y + (-0.000337365)*y*y",
)


def test_invariant_chain_beyond_the_float_range_raises_no_warning():
    # r = 100: the chain's own products overflow (Frame.raise_index, Frame.dot)
    point = (-25.881904510252063, 96.59258262890683)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        InvariantField(Frame(SPIRAL_131_1, point, SCAN_ORDER))
        verdict = classify_point(SPIRAL_131_1, point)
    assert verdict.tag == VerdictTag.INCONCLUSIVE
    assert verdict.note == "invariants are not all finite"

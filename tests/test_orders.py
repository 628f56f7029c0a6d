"""Frame orders: every path evaluates its frames at the lowest jet order it reads.

A scan's frames are of order ``invariants.SCAN_ORDER``: the constraint
coefficients read four orders of the structure and the lift of a root one
more.  A closed-form candidate's frames are of order
``analyzer._CLOSED_FORM_ORDER``: its residuals read three.  A jet keeps only
its own order and sums each coefficient's terms in one fixed order, so a
higher order only adds coefficients that nothing reads: the verdicts, point
invariants, constraint coefficients and residual reports of every higher
order must come out bit-identical.  The last tests pin far-field points:
values beyond the float range, which a scan decides without numpy warnings,
and a point where a higher order's unread power series left the float range.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfmew import analyzer
from sfmew.analyzer import Settings, VerdictTag, classify_point, classify_points, verify_candidates
from sfmew.constraints import NOT_FINITE, coeffs_P1, coeffs_P2, coeffs_P3
from sfmew.geometry import Frame, MoebiusStructure
from sfmew.invariants import SCAN_ORDER, InvariantField

from test_batch import POINTS, canon, closed_form, structures, verify_cases


def _chain(structure, points, order, orientation):
    """Flatness, point invariants and P1..P3 coefficients of points at a frame order."""
    field = InvariantField(Frame.stack([Frame(structure, p, order, orientation) for p in points]))
    if not field.nodes.size:
        return field.flat.tolist()
    values = field.invariant_values()
    return field.flat.tolist(), values, [fn(values) for fn in (coeffs_P1, coeffs_P2, coeffs_P3)]


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_scan_order_gives_the_reports_of_higher_orders(
    data, spiral_structure, quadratic_structure, opposite_structure
):
    # flat and near-flat nodes; sigma = 0 (spiral), real roots lifted to jets
    # (quadratic) and sigma > 0, the degenerate branch (opposite)
    structure = data.draw(structures(spiral_structure, quadratic_structure, opposite_structure))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=6))
    order = data.draw(st.integers(SCAN_ORDER + 1, 10))
    orientation = data.draw(st.sampled_from([1, -1]))
    run = Settings(orientation=orientation)
    verdicts = classify_points(structure, points, run)
    with mock.patch.object(analyzer, "SCAN_ORDER", order):
        assert canon(classify_points(structure, points, run)) == canon(verdicts)
    assert canon(_chain(structure, points, order, orientation)) == canon(
        _chain(structure, points, SCAN_ORDER, orientation)
    )


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_closed_form_order_gives_the_reports_of_higher_orders(
    data, quadratic_structure, opposite_structure
):
    structure, cand, mode = data.draw(verify_cases(quadratic_structure, opposite_structure))
    if data.draw(st.booleans()):  # a wrong candidate: nonzero residuals, which fail
        cand = closed_form(*(["0", "0"] if mode == "complex" else []), "1.5*y", "-1.5*x")
    run = Settings(mode=mode, orientation=data.draw(st.sampled_from([1, -1])))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=6))
    order = data.draw(st.integers(analyzer._CLOSED_FORM_ORDER + 1, 8))
    reports = verify_candidates(structure, cand, points, mode, run)
    with mock.patch.object(analyzer, "_CLOSED_FORM_ORDER", order):
        assert canon(verify_candidates(structure, cand, points, mode, run)) == canon(reports)


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
OPPOSITE_7 = MoebiusStructure.from_strings(
    "0.0 + (0.0118)*x + (0.0038)*y + (0.020999999999999998)*x*x + (0.0237)*x*y"
    " + (-0.0009999999999999992)*y*y",
    "-0.0419376 + (0.0004055399999999999)*x + (0.00028725999999999996)*y"
    " + (-0.499398845)*x*x + (0.0010427999999999998)*x*y + (0.500278845)*y*y",
    "-0.023655159999999998 + (0.00043925999999999997)*x + (6.646000000000002e-05)*y"
    " + (0.0009953999999999998)*x*x + (-0.99952231)*x*y + (-4.739999999999996e-05)*y*y",
    "0.0019375999999999983 + (-0.0004055399999999999)*x + (-0.00028725999999999996)*y"
    " + (0.499398845)*x*x + (-0.0010427999999999998)*x*y + (-0.500278845)*y*y",
)


def test_branch_value_beyond_the_float_range_raises_no_warning():
    # omega = -36.7: tau sigma overflows in the branch's forced F, which the
    # verdict does not read; M is finite, and the coefficients are not
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
    # omega = 10.5: at order 6 and above the unread top power of a reciprocal
    # series underflows to 0, 1/0 = inf and inf * 0 = NaN spreads into k, so
    # m_norm was NaN (null in report.json), with numpy warnings
    verdict = classify_point(OPPOSITE_7, (17.3205, 10.0))
    assert verdict.m_norm == pytest.approx(173.19838452199656, rel=1e-9)
    with np.errstate(all="ignore"), mock.patch.object(analyzer, "SCAN_ORDER", 6):
        assert np.isnan(classify_point(OPPOSITE_7, (17.3205, 10.0)).m_norm)

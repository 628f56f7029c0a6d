"""Batch independence: a node's verdict, invariants, common roots and residuals
do not depend on its batch.

``classify_points`` runs nodes through the invariant chain, the constraint
assembly, the resultant reports and the common-root search in batches, and
``verify_candidates`` runs a closed-form candidate's jets and the invariant
chain in batches; each node must come out bit-identical to the same node
alone, whatever the other nodes, their order and the batch boundaries.
"""

import dataclasses
import enum
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sfmew import analyzer, geometry, jets
from sfmew.analyzer import (
    Settings,
    SolutionCandidate,
    classify_point,
    classify_points,
    verify_candidate,
    verify_candidates,
)
from sfmew.expr import parse
from sfmew.geometry import Frame, MoebiusStructure
from sfmew.invariants import InvariantField, compute_invariants
from sfmew.jets import DomainError
from sfmew.polyalg import Poly, column_common_roots, common_complex_roots, common_real_roots

# the flat origin, near-flat radii on and off the axes, and ordinary nodes
POINTS = [(0.0, 0.0)] + [
    (r * math.cos(t), r * math.sin(t))
    for r in (1e-3, 1e-2, 0.05, 0.1)
    for t in (0.0, math.pi / 2, 0.7)
] + [(1.0, 0.0), (-0.5, 1.2), (0.3, -0.8), (-1.6, -1.1), (2.0, 2.0)]


def canon(obj):
    """A comparable form of a result that tells every float bit apart (and -0.0 from 0.0)."""
    if dataclasses.is_dataclass(obj):
        return tuple((f.name, canon(getattr(obj, f.name))) for f in dataclasses.fields(obj))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(canon(x) for x in obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, complex):
        return (obj.real.hex(), obj.imag.hex())
    return obj


@st.composite
def structures(draw, spiral, quadratic, opposite):
    base = draw(st.sampled_from([spiral, quadratic, opposite]))
    if draw(st.booleans()):
        return base
    a, b = (draw(st.floats(-0.1, 0.1)) for _ in range(2))
    c = draw(st.floats(-0.03, 0.03))
    return base.rescaled(f"{a!r}*x + {b!r}*y + {c!r}*(x*x + y*y)")


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_verdicts_and_invariants_do_not_depend_on_the_batch(
    data, spiral_structure, quadratic_structure, opposite_structure
):
    structure = data.draw(structures(spiral_structure, quadratic_structure, opposite_structure))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=9))
    chunk = data.draw(st.integers(1, 5))
    with mock.patch.object(analyzer, "_CHUNK", chunk):
        batched = classify_points(structure, points)
    for point, verdict in zip(points, batched):
        assert canon(verdict) == canon(classify_point(structure, point)), point

    field = InvariantField(Frame.stack([Frame(structure, p) for p in points]))
    assert list(field.flat) == [InvariantField(Frame(structure, p)).flat[0] for p in points]
    for node, inv in zip(field.nodes, field.point_invariants()):
        assert canon(inv) == canon(compute_invariants(structure, points[node])), points[node]


def test_stacked_field_mixes_flat_sigma_zero_and_branch_nodes(
    spiral_structure, quadratic_structure, opposite_structure
):
    # one stack holding a flat node, sigma = 0 (spiral), sigma < 0
    # (quadratic) and sigma > 0 (opposite) nodes: the branch runs on a
    # column subset, and every node must still match its own field
    frames = [
        Frame(spiral_structure, (0.0, 0.0)),
        Frame(spiral_structure, (0.7, -0.2)),
        Frame(opposite_structure, (1.0, 0.5)),
        Frame(quadratic_structure, (-0.4, 1.1)),
        Frame(opposite_structure, (-1.2, -0.3)),
    ]
    field = InvariantField(Frame.stack(frames))
    assert list(field.flat) == [True, False, False, False, False]
    alone = [InvariantField(f) for f in frames[1:]]
    for inv, single in zip(field.point_invariants(), alone):
        assert canon(inv) == canon(single.point_invariants()[0])
    for rep, single in zip(field.m_tensor(), alone):
        if single.sigma_is_zero()[0]:
            assert rep is None
        else:
            assert canon(rep) == canon(single.m_tensor()[0])


def leaves(tree):
    """The jets of a jet attribute, depth first."""
    return [j for t in tree for j in leaves(t)] if isinstance(tree, list) else [tree]


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_stacked_frame_jets_are_the_per_point_frames_jets(
    data, spiral_structure, quadratic_structure, opposite_structure
):
    # a stack may mix structures and repeat points, and may hold one node
    pool = data.draw(st.lists(
        structures(spiral_structure, quadratic_structure, opposite_structure),
        min_size=1, max_size=3,
    ))
    nodes = data.draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(POINTS)), min_size=1, max_size=9
    ))
    orientation = data.draw(st.sampled_from([1, -1]))
    stacked = Frame.stack([Frame(s, p, 5, orientation) for s, p in nodes])
    assert stacked.points == [p for _, p in nodes]
    for i, (structure, point) in enumerate(nodes):
        alone = Frame(structure, point, 5, orientation)
        for name in Frame._JETS:
            for col, jet in zip(leaves(getattr(stacked, name)), leaves(getattr(alone, name))):
                assert col.vec.shape == jet.vec.shape[:1] + (len(nodes),), name
                assert col.order == jet.order, name
                assert canon(col.vec[:, i]) == canon(jet.vec), (name, point)


def test_stack_of_one_structure_evaluates_each_expression_once(quadratic_structure):
    points = [(0.1 * k - 1.2, 0.05 * k) for k in range(24)]
    with mock.patch.object(geometry, "eval_jet", wraps=geometry.eval_jet) as eval_jet:
        frames = [Frame(quadratic_structure, p) for p in points]
        assert eval_jet.call_count == 0  # a per-point frame evaluates on first read
        Frame.stack(frames)
    assert eval_jet.call_count == 4  # u, P11, P12, P22 over the 24 node columns


# u fails at x <= 0 and P22 at y <= 0: at the first point only P22 fails, at
# the second only u, so evaluating u over both nodes first meets the second
# point's error, and a point-by-point pass the first point's
LN_SQRT = MoebiusStructure.from_strings("ln(x)", "0", "0", "sqrt(y)")
FIRST_FAILS_LATE = [(1.0, -1.0), (-1.0, 1.0)]


def test_stack_raises_the_first_failing_points_error():
    for call in (
        lambda: Frame.stack([Frame(LN_SQRT, p) for p in FIRST_FAILS_LATE]),
        lambda: classify_points(LN_SQRT, FIRST_FAILS_LATE),
        lambda: verify_candidates(LN_SQRT, closed_form("0", "0"), FIRST_FAILS_LATE),
    ):
        with pytest.raises(DomainError, match="sqrt") as err:
            call()
        assert err.value.base == (1.0, -1.0)


@pytest.mark.parametrize("points, failing", [
    (FIRST_FAILS_LATE, "sqrt"),  # the first point's candidate, then the second's frame
    ([(-1.0, -1.0)], "ln"),  # one point's frame and candidate: the frame first
])
def test_verify_raises_the_error_of_a_point_by_point_pass(points, failing):
    structure = MoebiusStructure.from_strings("ln(x)", "0", "0", "0")
    with pytest.raises(DomainError, match=failing) as err:
        verify_candidates(structure, closed_form("sqrt(y)", "0"), points)
    assert err.value.base == points[0]


def closed_form(*sources):
    return SolutionCandidate(
        F=0.0, alpha=None, source="UserSupplied", alpha_exprs=tuple(parse(s) for s in sources)
    )


@st.composite
def verify_cases(draw, quadratic, opposite):
    """A structure with its closed-form solution: alpha = d omega + (y, -x) for
    the quadratic family (real mode), d omega + i (y, -x) for the opposite one."""
    complex_mode = draw(st.booleans())
    base = opposite if complex_mode else quadratic
    a, b = (draw(st.floats(-0.1, 0.1)) for _ in range(2))
    c = draw(st.floats(-0.03, 0.03))
    if draw(st.booleans()):
        structure, d_omega = base, ("0", "0")
    else:
        structure = base.rescaled(f"{a!r}*x + {b!r}*y + {c!r}*(x*x + y*y)")
        d_omega = (f"{a!r} + {2 * c!r}*x", f"{b!r} + {2 * c!r}*y")
    if complex_mode:
        sources = d_omega + ("y", "-x")
    else:
        sources = (f"y + {d_omega[0]}", f"-x + {d_omega[1]}")
    return structure, closed_form(*sources), "complex" if complex_mode else "real"


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_residual_reports_do_not_depend_on_the_batch(
    data, quadratic_structure, opposite_structure
):
    structure, cand, mode = data.draw(verify_cases(quadratic_structure, opposite_structure))
    run = Settings(mode=mode, orientation=data.draw(st.sampled_from([1, -1])))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=9))
    chunk = data.draw(st.integers(1, 5))
    with mock.patch.object(analyzer, "_CHUNK", chunk):
        batched = verify_candidates(structure, cand, points, mode, run)
    assert len(batched) == len(points)
    for point, rep in zip(points, batched):
        assert rep.passed, (point, rep)
        alone = verify_candidates(structure, cand, [point], mode, run)[0]
        assert canon(rep) == canon(alone), point


def test_verify_candidate_is_verify_candidates_on_one_point(
    quadratic_structure, opposite_structure
):
    cases = [
        (quadratic_structure, closed_form("y", "-x"), "real"),
        (opposite_structure, closed_form("0", "0", "y", "-x"), "complex"),
    ]
    for structure, cand, mode in cases:
        for point in ((0.0, 0.0), (0.7, -1.3)):  # flat and non-flat
            rep = verify_candidate(structure, cand, point, mode)
            assert canon(rep) == canon(verify_candidates(structure, cand, [point], mode)[0])
            assert rep.passed and rep.method == "jets"
            if point == (0.0, 0.0):  # flat: the algebraic residuals do not apply
                assert rep.res_alpha_U == rep.res_alpha_W == 0.0


@st.composite
def root_triples(draw):
    """Coefficients of P1..P3 with planted common roots, and of an excluded P0.

    Shared factors: simple and double real roots and complex pairs; a common
    root r0 that P0 = 3 r0^2 - 3 t^2 also has, which must be excluded; and
    sometimes a degree-1 constraint, the base of the search.
    """
    small = st.floats(-3.0, 3.0).map(lambda v: round(v, 3))
    shared = [1.0]
    for kind in draw(st.lists(st.sampled_from(["simple", "double", "pair"]), max_size=3)):
        r = draw(small)
        if kind == "pair":
            shared = npoly.polymul(shared, [r * r + draw(st.floats(0.1, 4.0)), -2.0 * r, 1.0])
        else:
            shared = npoly.polymul(shared, npoly.polypow([-r, 1.0], 2 if kind == "double" else 1))
    r0 = draw(small)
    if draw(st.booleans()):
        shared = npoly.polymul(shared, [-r0, 1.0])
    polys = []
    for k in range(3):
        if k == 2 and draw(st.booleans()):
            c = [-draw(small), 1.0]  # a degree-1 constraint
        else:
            extra = draw(st.lists(small, max_size=4))
            c = npoly.polymul(shared, npoly.polyfromroots(extra) if extra else [1.0])
        polys.append(draw(st.sampled_from([1.0, -2.5, 1e-3, 40.0])) * np.asarray(c, dtype=float))
    return polys, np.array([3.0 * r0 * r0, 0.0, -3.0])


@given(cases=st.lists(root_triples(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_common_roots_of_a_column_do_not_depend_on_the_batch(cases):
    width = max(len(c) for polys, _ in cases for c in polys)
    columns = [np.zeros((width, len(cases))) for _ in range(3)]
    for j, (polys, _) in enumerate(cases):
        for k, c in enumerate(polys):
            columns[k][: len(c), j] = c
    excluded = np.array([p0 for _, p0 in cases]).T
    batched = column_common_roots(columns, excluded)
    for (polys, p0_col), found in zip(cases, batched):
        # the public one-column calls
        alone, p0 = [Poly(c) for c in polys], Poly(p0_col)
        assert canon(found.real) == canon(common_real_roots(*alone, exclude=p0))
        assert canon(found.complex) == canon(common_complex_roots(*alone, exclude=p0))


# 2 * _CHUNK + 3 nodes or more: the grid nodes, with the flat origin and the
# near-flat nodes among them, so that the columns off the flat nodes and the
# lift batches of the real roots have odd widths
GRID = [(float(x), float(y)) for x in np.linspace(-2.0, 2.0, 14) for y in np.linspace(-2.0, 2.0, 14)]
FULL_BATCHES = GRID[: analyzer._CHUNK - 7] + POINTS[:7] + GRID[analyzer._CHUNK - 7 :] + POINTS[7:]
OMEGA = ("0.05", "-0.08", "0.02")  # omega = a x + b y + c (x^2 + y^2)


def _counting_tables(monkeypatch):
    """The table builds of the batched product, in order, under the cache's own policy."""
    builds = []
    build = jets._column_bins.__wrapped__

    def counted(space, n):
        builds.append((space.order, n))
        return build(space, n)

    cached = functools.lru_cache(maxsize=jets._column_bins.cache_info().maxsize)(counted)
    monkeypatch.setattr(jets, "_column_bins", cached)
    return builds


@pytest.mark.parametrize("family", ["spiral", "quadratic", "opposite"])
def test_full_width_batches_are_the_points_alone(family, request, monkeypatch):
    # spiral: sigma = 0, and spurious real roots near the flat origin, lifted;
    # quadratic: real roots at every node, lifted; opposite: sigma > 0
    a, b, c = OMEGA
    structure = request.getfixturevalue(f"{family}_structure").rescaled(
        f"{a}*x + {b}*y + {c}*(x*x + y*y)"
    )
    assert len(FULL_BATCHES) >= 2 * analyzer._CHUNK + 3
    builds = _counting_tables(monkeypatch)
    batched = classify_points(structure, FULL_BATCHES)
    first = list(builds)
    assert len(set(first)) == len(first), first  # no table is built twice in a scan
    assert jets._column_bins.cache_info().currsize == 0  # nor kept past it
    assert canon(classify_points(structure, FULL_BATCHES)) == canon(batched)
    assert builds == first + first

    tag = analyzer.VerdictTag
    assert {v.tag for v in batched} == {
        "spiral": {tag.FLAT, tag.OBSTRUCTED, tag.INCONCLUSIVE},  # the lifted roots fail
        "quadratic": {tag.FLAT, tag.ADMITS},
        "opposite": {tag.FLAT, tag.VANISHING},
    }[family]
    if family == "opposite":  # the degenerate branch ran: sigma > 0
        assert all(v.m_norm is not None for v in batched if v.tag != tag.FLAT)
    for point, verdict in zip(FULL_BATCHES, batched):
        assert canon(verdict) == canon(classify_point(structure, point)), point

    if family == "spiral":
        return
    d_omega = (f"{a} + 2*{c}*x", f"{b} + 2*{c}*y")
    if family == "quadratic":
        cand, mode = closed_form(f"y + {d_omega[0]}", f"-x + {d_omega[1]}"), "real"
    else:
        cand, mode = closed_form(*d_omega, "y", "-x"), "complex"
    reports = verify_candidates(structure, cand, FULL_BATCHES, mode)
    for point, rep in zip(FULL_BATCHES, reports):
        assert rep.passed, (point, rep)
        assert canon(rep) == canon(verify_candidates(structure, cand, [point], mode)[0]), point

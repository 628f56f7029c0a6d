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
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sfmew import analyzer, geometry, jets, polyalg
from sfmew.analyzer import (
    SolutionCandidate,
    alpha_from_F,
    classify_point,
    classify_points,
    verify_candidate,
    verify_candidates,
)
from sfmew.constraints import NOT_FINITE
from sfmew.expr import parse
from sfmew.geometry import Frame, MoebiusStructure
from sfmew.invariants import (
    LIFT_ORDER,
    SCAN_ORDER,
    InvariantField,
    PointInvariants,
    compute_invariants,
)
from sfmew.jets import DomainError
from sfmew.polyalg import column_common_roots, normalized_columns

from columns import normalized
from seed7 import (
    MEMBER_NODES,
    OPPOSITE_7_MEMBERS,
    ORIGIN_BATCH,
    QUADRATIC_7_MEMBERS,
    SPIRAL_7_MEMBERS,
)

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
    if isinstance(obj, dict):
        return tuple((k, canon(v)) for k, v in obj.items())
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
    values = field.invariant_values()
    for node in np.flatnonzero(~field.flat):
        alone = compute_invariants(structure, points[node])
        assert canon(values.node(node)) == canon(alone), node


# the base spiral structure with P scaled by 1e150: its invariants at (1, 0) and
# (0.5, 0.5), and its constraint coefficients at (1e-160, 0), are not all finite
HUGE_SPIRAL = MoebiusStructure.from_strings(
    "0", "1e150*x*y", "1e150*(y*y - x*x)/2", "-1e150*x*y"
)
HUGE_POINTS = [(1.0, 0.0), (0.5, 0.5), (1e-160, 0.0), (0.0, 0.0), (-0.5, 1.2)]
ZEROED = [(1.0, 0.0), (-1.6, -1.1)]  # opposite nodes whose branch tensor is made to vanish


def _vanishing_at(points):
    """``InvariantField.m_tensor`` with the norm set to 0 at ``points``."""
    m_tensor = InvariantField.m_tensor

    def vanishing(field):
        rep = m_tensor(field)
        rep.norm[[p in points for p in field.frame.points]] = 0.0
        return rep

    return vanishing


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_not_finite_and_mzero_nodes_do_not_depend_on_the_batch(data, opposite_structure):
    # Inconclusive nodes beyond the float range and MZeroAdmits nodes (reached
    # through a wrapped m_tensor), beside flat and ordinary nodes
    huge = data.draw(st.booleans())
    structure, pool = (HUGE_SPIRAL, HUGE_POINTS) if huge else (opposite_structure, POINTS)
    points = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    chunk = data.draw(st.integers(1, 5))
    with mock.patch.object(InvariantField, "m_tensor", _vanishing_at(ZEROED)):
        with mock.patch.object(analyzer, "_CHUNK", chunk):
            batched = classify_points(structure, points)
        for point, verdict in zip(points, batched):
            assert canon(verdict) == canon(classify_point(structure, point)), point
        notes = {v.note for v in classify_points(structure, pool)}
    assert notes >= ({"invariants are not all finite", NOT_FINITE} if huge else {
        "degenerate-branch tensor vanishes (forced F consistency flag false)"})


# the nodes of the mixed structure: flat, sigma = 0 exactly, sigma < 0 and twice sigma > 0
MIXED_NODES = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.5), (-1.0, 0.5), (-1.2, -0.3)]


def test_stacked_field_mixes_flat_sigma_zero_and_branch_nodes(mixed_structure):
    # one stack holding a flat node, sigma = 0, sigma < 0 and sigma > 0 nodes,
    # all at one width: the degenerate branch is NaN at the flat node and at
    # sigma = 0, and every other node must still match its own field
    frames = [Frame(mixed_structure, p) for p in MIXED_NODES]
    field = InvariantField(Frame.stack(frames))
    assert list(field.flat) == [True, False, False, False, False]
    values, mrep = field.invariant_values(), field.m_tensor()
    assert np.sign(values.sigma[1:]).tolist() == [0.0, -1.0, 1.0, 1.0]
    for name in ("m", "psi", "k"):
        assert np.isnan(getattr(values, name)[:2]).all(), name
        assert np.isfinite(getattr(values, name)[2:]).all(), name
    for name in ("M", "alpha", "norm", "scale"):
        assert np.isnan(getattr(mrep, name)[..., :2]).all(), name
        assert np.isfinite(getattr(mrep, name)[..., 2:]).all(), name
    for node, frame in enumerate(frames[1:], start=1):
        single = InvariantField(frame)
        assert canon(values.node(node)) == canon(single.invariant_values().node(0))
        if not single.sigma_is_zero()[0]:
            alone = single.m_tensor()
            for name in ("M", "alpha", "norm", "scale"):
                mine, own = getattr(mrep, name)[..., node], getattr(alone, name)[..., 0]
                assert canon(mine) == canon(own), (name, node)


SEED7 = {
    f"{family}-{k}": member
    for family, members in (
        ("spiral", SPIRAL_7_MEMBERS), ("quadratic", QUADRATIC_7_MEMBERS),
        ("opposite", OPPOSITE_7_MEMBERS),
    )
    for k, member in enumerate(members)
}


@pytest.mark.parametrize("name", [*SEED7, "mixed"])
def test_a_scan_decides_on_node_columns_only(name, mixed_structure):
    # every rule is a mask over a batch's nodes: a scan reads off no node's own
    # invariants and builds no candidate through alpha_from_F, and the candidate
    # of a verified root is still alpha_from_F's at its point alone
    structure, points = SEED7.get(name, mixed_structure), MEMBER_NODES + MIXED_NODES

    def refuse(*args):
        raise AssertionError("a scan built a per-node object")

    with mock.patch.object(PointInvariants, "node", refuse), \
            mock.patch.object(analyzer, "alpha_from_F", refuse):
        verdicts = classify_points(structure, points)
    for point, verdict in list(zip(points, verdicts))[::3]:
        for cand in verdict.candidates:
            alone = alpha_from_F(compute_invariants(structure, point), cand.F)
            assert canon(cand) == canon(alone), point


# the seed-7 opposite members with the batch of a scan of their nodes that holds
# the flat origin (sigma > 0 elsewhere), and the mixed structure's nodes
CONTRACTION_BATCHES = [(member, ORIGIN_BATCH) for member in OPPOSITE_7_MEMBERS] + [
    ("mixed", MIXED_NODES)
]


@pytest.mark.parametrize("structure, points", CONTRACTION_BATCHES,
                         ids=["opposite-base", "opposite-rescaled1", "opposite-rescaled2", "mixed"])
def test_contractions_round_as_each_nodes_own_matmul(structure, points, mixed_structure):
    # each contraction of a batch's invariants has the bits of a @ M @ b (or
    # a @ b) on node i's own 1-D arrays, in batches with flat and branch nodes
    if structure == "mixed":
        structure = mixed_structure
    field = InvariantField([Frame(structure, p, SCAN_ORDER) for p in points])
    assert field.flat.any() and field.branch is not None
    values = field.invariant_values()

    def own(tree, i):
        return np.array(jets.values(tree)[..., i])

    for name, (a, m, b) in field._contraction_terms().items():
        for i in range(len(points)):
            alone = own(a, i) @ own(b, i) if m is None else own(a, i) @ own(m, i) @ own(b, i)
            assert float(getattr(values, name)[i]).hex() == float(alone).hex(), (name, i)


def leaves(tree):
    """The jets of a jet attribute, depth first."""
    return [j for t in tree for j in leaves(t)] if isinstance(tree, list) else [tree]


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_stacked_frame_jets_are_the_per_point_frames_jets(data, mixed_structure):
    # a stack may repeat points, and may hold one node
    structure = data.draw(structures(mixed_structure, mixed_structure, mixed_structure))
    nodes = data.draw(st.lists(st.sampled_from(POINTS + MIXED_NODES), min_size=1, max_size=9))
    orientation = data.draw(st.sampled_from([1, -1]))
    stacked = Frame.stack([Frame(structure, p, 5, orientation) for p in nodes])
    assert stacked.points == nodes
    for i, point in enumerate(nodes):
        alone = Frame(structure, point, 5, orientation)
        for name in Frame._JETS:
            for col, jet in zip(leaves(getattr(stacked, name)), leaves(getattr(alone, name))):
                assert col.vec.shape == jet.vec.shape[:1] + (len(nodes),), name
                assert col.order == jet.order, name
                assert canon(col.vec[:, i]) == canon(jet.vec), (name, point)
    # some of its nodes, repeats allowed, with the jets truncated to order 1
    cols = data.draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=4))
    taken = stacked.take(cols, order=1)
    assert taken.order == 1 and taken.points == [nodes[c] for c in cols]
    for name in Frame._JETS:
        for col, jet in zip(leaves(getattr(taken, name)), leaves(getattr(stacked, name))):
            assert col.order == min(jet.order, 1), name
            assert canon(col.vec) == canon(jet.vec[: col.vec.shape[0], cols]), name


def test_stack_of_one_structure_evaluates_each_expression_once(quadratic_structure):
    points = [(0.1 * k - 1.2, 0.05 * k) for k in range(24)]
    with mock.patch.object(geometry, "eval_jet", wraps=geometry.eval_jet) as eval_jet:
        frames = [Frame(quadratic_structure, p) for p in points]
        assert eval_jet.call_count == 0  # a per-point frame evaluates on first read
        Frame.stack(frames)
    assert eval_jet.call_count == 4  # u, P11, P12, P22 over the 24 node columns


def test_stack_holds_one_structure(quadratic_structure, opposite_structure):
    with pytest.raises(ValueError, match="same structure"):
        Frame.stack([Frame(quadratic_structure, (1.0, 0.0)), Frame(opposite_structure, (1.0, 0.0))])


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
    orientation = data.draw(st.sampled_from([1, -1]))
    points = data.draw(st.lists(st.sampled_from(POINTS), min_size=1, max_size=9))
    chunk = data.draw(st.integers(1, 5))
    with mock.patch.object(analyzer, "_CHUNK", chunk):
        batched = verify_candidates(structure, cand, points, mode, orientation)
    assert len(batched) == len(points)
    for point, rep in zip(points, batched):
        assert rep.passed, (point, rep)
        alone = verify_candidates(structure, cand, [point], mode, orientation)[0]
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
    batched = column_common_roots([normalized_columns(c) for c in columns],
                                  normalized_columns(excluded))
    for j, (polys, p0_col) in enumerate(cases):
        # column j's slice of the batch is the same call on a column of one
        alone = column_common_roots([normalized(c) for c in polys], normalized(p0_col))
        real, complex_ = batched.real_col == j, batched.complex_col == j
        for name in ("real", "multiplicities", "residuals"):
            assert canon(getattr(batched, name)[real]) == canon(getattr(alone, name))
        assert canon(batched.complex[complex_]) == canon(alone.complex)


@pytest.mark.parametrize("name", ["spiral-1", "quadratic-1", "opposite-1"])
def test_a_batch_trims_each_constraint_once(name, monkeypatch):
    # one batch of the seed-7 member's grid and near-flat nodes trims P0..P3
    # once each: the resultants, the root search and the gaps read those columns
    trim, calls = polyalg.trimmed_degrees, []

    def counted(coeffs):
        calls.append(coeffs.shape)
        return trim(coeffs)

    for module in (polyalg, analyzer):
        monkeypatch.setattr(module, "trimmed_degrees", counted, raising=False)
    assert len(analyzer._batches(len(MEMBER_NODES))) == 1
    analyzer.classify_columns(SEED7[name], MEMBER_NODES)
    assert len(calls) == 4


NARROW_CHUNK = 256  # a width below the module's, at which 447 or 453 points take two batches


@pytest.mark.parametrize("n, count", [(0, 0), (1, 1), (256, 1), (257, 2), (453, 2)])
def test_batches_are_the_fewest_of_equal_widths(n, count, monkeypatch):
    monkeypatch.setattr(analyzer, "_CHUNK", NARROW_CHUNK)
    _check_batches(n, count)


@pytest.mark.parametrize("n, count", [
    (analyzer._CHUNK, 1), (analyzer._CHUNK + 1, 2), (453, 1), (2 * analyzer._CHUNK + 1, 3)
])
def test_batches_of_the_module_width_are_the_fewest_of_equal_widths(n, count):
    _check_batches(n, count)


def _check_batches(n, count):
    parts = analyzer._batches(n)
    widths = [part.stop - part.start for part in parts]
    assert len(parts) == count
    assert all(0 < w <= analyzer._CHUNK for w in widths)
    assert max(widths, default=0) - min(widths, default=0) <= 1
    assert [i for part in parts for i in range(n)[part]] == list(range(n))


def _recording_fields(monkeypatch):
    """The fields that ``analyzer`` builds, in order: their widths, and a weak
    reference to each."""
    built = []

    class Recorded(InvariantField):
        def __init__(self, frame):
            super().__init__(frame)
            built.append((len(self.frame.points), weakref.ref(self)))

    monkeypatch.setattr(analyzer, "InvariantField", Recorded)
    return built


# a 23x23 grid over [-2, 2]^2, the flat origin among its nodes: _CHUNK + 1 points or more
WIDE_GRID = [
    (float(x), float(y)) for x in np.linspace(-2.0, 2.0, 23) for y in np.linspace(-2.0, 2.0, 23)
]


def test_a_call_of_chunk_plus_one_points_runs_two_batches(opposite_structure, monkeypatch):
    # no real roots, so no lift: one field per batch, of widths 265 and 264
    points = WIDE_GRID
    assert analyzer._CHUNK + 1 <= len(points) <= 2 * analyzer._CHUNK
    for call in (
        lambda: classify_points(opposite_structure, points),
        lambda: verify_candidates(
            opposite_structure, closed_form("0", "0", "y", "-x"), points, "complex"
        ),
    ):
        fields = _recording_fields(monkeypatch)
        call()
        assert [width for width, _ in fields] == [265, 264]


def test_each_field_is_freed_once_its_values_are_read(quadratic_structure, monkeypatch):
    # the lift reads the scan's node arrays only, and residuals read the node
    # values and jets of their chain: the scan's field is unreachable when the
    # lift starts, and every field when residuals are computed (its jets and
    # frame with it), without a garbage collection
    fields = _recording_fields(monkeypatch)
    alive = []
    for name in ("_lifted_reports", "_candidate_residuals"):

        def checked(*args, name=name, original=getattr(analyzer, name)):
            alive.append((name, [ref() is not None for _, ref in fields]))
            return original(*args)

        monkeypatch.setattr(analyzer, name, checked)
    verdicts = classify_points(quadratic_structure, POINTS)
    verify_candidates(quadratic_structure, closed_form("y", "-x"), POINTS)
    assert any(v.tag == analyzer.VerdictTag.ADMITS for v in verdicts)
    assert {name for name, _ in alive} == {"_lifted_reports", "_candidate_residuals"}
    assert not any(any(refs) for _, refs in alive), alive


# 257 nodes or more, in two batches of unequal widths at a width of 256: a 17x15
# grid, the flat origin among its nodes in the first batch, and then POINTS, the
# flat origin, the near-flat nodes and ordinary ones, in the second
GRID = [
    (float(x), float(y)) for x in np.linspace(-2.0, 2.0, 17) for y in np.linspace(-2.0, 2.0, 15)
]
FULL_BATCHES = GRID + POINTS
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


def _rescaled(family, request):
    a, b, c = OMEGA
    return request.getfixturevalue(f"{family}_structure").rescaled(
        f"{a}*x + {b}*y + {c}*(x*x + y*y)"
    )


@pytest.mark.parametrize("family", ["spiral", "quadratic", "opposite"])
def test_full_width_batches_are_the_points_alone(family, request, monkeypatch):
    # spiral: sigma = 0, and spurious real roots near the flat origin, lifted;
    # quadratic: real roots at every node, lifted; opposite: sigma > 0
    monkeypatch.setattr(analyzer, "_CHUNK", NARROW_CHUNK)
    structure = _rescaled(family, request)
    widths = [len(FULL_BATCHES[part]) for part in analyzer._batches(len(FULL_BATCHES))]
    assert widths == [137, 136] and len(FULL_BATCHES) > analyzer._CHUNK
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
    a, b, c = OMEGA
    d_omega = (f"{a} + 2*{c}*x", f"{b} + 2*{c}*y")
    if family == "quadratic":
        cand, mode = closed_form(f"y + {d_omega[0]}", f"-x + {d_omega[1]}"), "real"
    else:
        cand, mode = closed_form(*d_omega, "y", "-x"), "complex"
    reports = verify_candidates(structure, cand, FULL_BATCHES, mode)
    for point, rep in zip(FULL_BATCHES, reports):
        assert rep.passed, (point, rep)
        assert canon(rep) == canon(verify_candidates(structure, cand, [point], mode)[0]), point


@pytest.mark.parametrize("family", ["spiral", "quadratic", "opposite"])
def test_batches_of_the_full_width_give_the_verdicts_of_narrower_ones(family, request):
    # WIDE_GRID goes as 265 + 264 nodes at the module's width, and as three
    # batches at a width of 256
    structure = _rescaled(family, request)
    wide = classify_points(structure, WIDE_GRID)
    with mock.patch.object(analyzer, "_CHUNK", NARROW_CHUNK):
        assert len(analyzer._batches(len(WIDE_GRID))) == 3
        narrow = classify_points(structure, WIDE_GRID)
    assert len(analyzer._batches(len(WIDE_GRID))) == 2
    for point, a, b in zip(WIDE_GRID, wide, narrow):
        assert canon(a) == canon(b), point


def test_scans_build_frames_at_the_order_their_readers_take(
    opposite_structure, quadratic_structure, monkeypatch
):
    # no real roots: each expression once per batch, at the scan order
    batches = len(analyzer._batches(len(FULL_BATCHES)))
    with mock.patch.object(geometry, "eval_jet", wraps=geometry.eval_jet) as eval_jet:
        classify_points(opposite_structure, FULL_BATCHES)
    assert [c.args[2] for c in eval_jet.call_args_list] == [SCAN_ORDER] * 4 * batches

    # real roots at every node that is not flat: one frame per node at the scan
    # order, and one more at the lift order per node whose roots are lifted
    frames = []
    init = Frame.__init__

    def counted(self, structure, point, order=6, orientation=1):
        frames.append((order, tuple(point)))
        init(self, structure, point, order, orientation)

    monkeypatch.setattr(Frame, "__init__", counted)
    verdicts = classify_points(quadratic_structure, FULL_BATCHES)
    lifted = [v.point for v in verdicts if v.tag == analyzer.VerdictTag.ADMITS]
    assert len(lifted) == sum(v.tag != analyzer.VerdictTag.FLAT for v in verdicts)
    assert sorted(p for o, p in frames if o == SCAN_ORDER) == sorted(FULL_BATCHES)
    assert sorted(p for o, p in frames if o == LIFT_ORDER) == sorted(lifted)
    assert len(frames) == len(FULL_BATCHES) + len(lifted)

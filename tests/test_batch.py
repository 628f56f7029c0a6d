"""Batch independence: a node's verdict, invariants and residuals do not depend on its batch.

``classify_points`` runs nodes through the invariant chain, the constraint
assembly and the resultant reports in batches, and ``verify_candidates``
runs a closed-form candidate's jets and the invariant chain in batches;
each node must come out bit-identical to the same node alone, whatever the
other nodes, their order and the batch boundaries.
"""

import dataclasses
import enum
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sfmew import analyzer
from sfmew.analyzer import (
    Settings,
    SolutionCandidate,
    classify_point,
    classify_points,
    verify_candidate,
    verify_candidates,
)
from sfmew.expr import parse
from sfmew.geometry import Frame
from sfmew.invariants import InvariantField, compute_invariants

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

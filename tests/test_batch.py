"""Batch independence: a node's verdict and invariants do not depend on its batch.

``classify_points`` runs nodes through the invariant chain, the constraint
assembly and the resultant reports in batches; each node must come out
bit-identical to the same node classified alone, whatever the other nodes,
their order and the batch boundaries.
"""

import dataclasses
import enum
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sfmew import analyzer
from sfmew.analyzer import classify_point, classify_points
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
    assert list(field.flat) == [InvariantField(Frame(structure, p)).flat for p in points]
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
        assert canon(inv) == canon(single.point_invariants())
    for rep, single in zip(field.m_tensor(), alone):
        if single.sigma_is_zero():
            assert rep is None
        else:
            assert canon(rep) == canon(single.m_tensor())

"""The root lift in one pass, and the first gap pair's SVDs on a worker thread.

A lift batch lifts every (constraint, root) column of its roots at once, on
coefficient lists zero-padded to P2's 11 (``analyzer._lift_batch``).  The
oracle is the per-constraint lift it replaced, kept here: each constraint's
own coefficients, Horner, Newton steps and residual pass, and the kept lift
chosen constraint after constraint.  Both must give the same residual
columns and lifted mask, bit for bit.

Where a batch has both nodes that take Sylvester gaps and roots to lift, the
first pair's SVDs run on a worker thread while the calling thread lifts; the
verdicts are those of the SVDs run inline, and no thread outlives a call.
"""

import dataclasses
import functools
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from sfmew import analyzer, jets
from sfmew.analyzer import VerdictTag, classify_columns, classify_points
from sfmew.geometry import Frame, MoebiusStructure
from sfmew.invariants import _SCALARS, _VECTORS, LIFT_ORDER, InvariantField

from seed7 import MEMBER_NODES, OPPOSITE_7_MEMBERS, QUADRATIC_7_MEMBERS, SPIRAL_7_MEMBERS
from test_analyzer import NEAR_FLAT_RESCALED_QUADRATIC
from test_batch import canon

# ---------------------------------------------------------------------------
# the oracle: one lift per constraint


def _per_constraint_lift_batch(frame, jinv, cols, f0):
    """The lift of the roots ``f0`` of the nodes ``cols``, each constraint in
    turn on its own coefficients, at the (node, root) columns."""
    jinv, frame = jinv.take(cols), frame.take(cols, order=1)
    best = analyzer._nan_residuals(frame.points, "real", "jet-lift")
    lifted = np.zeros(f0.size, dtype=bool)
    for coeffs_of in analyzer._COEFFS:
        coeffs = coeffs_of(jinv)
        p, dp = analyzer._horner(coeffs, f0)
        sel = np.flatnonzero(analyzer._is_simple(coeffs, f0, dp))
        if not sel.size:
            continue
        if sel.size == f0.size:
            F = analyzer._lift_root(coeffs, f0, p, dp)
            lifts = analyzer._lift_residuals(frame, jinv, f0, F)
        else:
            F = analyzer._lift_root(jets.take(coeffs, sel), f0[sel], *jets.take([p, dp], sel))
            lifts = analyzer._lift_residuals(frame.take(sel), jinv.take(sel), f0[sel], F)
        passed, kept = lifts.passed, best.passed[sel]
        better = ~lifted[sel] | (passed & ~kept) | (
            (passed == kept) & (lifts.max_residual < best.max_residual[sel])
        )
        for column, new in zip(best[3:], lifts[3:]):
            column[sel[better]] = new[better]
        lifted[sel] = True
    return best, lifted


def _per_constraint_lifts(structure, points, orientation, cols, roots):
    """``_lifted_reports`` by the oracle, on invariant jets at the orders the
    chain computed them (no scalar or vector truncated), in batches of
    ``_CHUNK`` roots."""
    nodes, cols = np.unique(cols, return_inverse=True)
    field = InvariantField([Frame(structure, points[c], LIFT_ORDER, orientation) for c in nodes])
    jinv = dataclasses.replace(
        field.invariant_jets(),
        **{name: getattr(field, name) for name in _SCALARS},
        **{name: list(getattr(field, name)) for name in _VECTORS},
    )
    roots = np.asarray(roots, dtype=float)
    parts = [_per_constraint_lift_batch(field.frame, jinv, cols[part], roots[part])
             for part in analyzer._batches(len(roots))]
    return (analyzer.ResidualColumns.joined([lifts for lifts, _ in parts]),
            np.concatenate([lifted for _, lifted in parts]))


# ---------------------------------------------------------------------------
# the cases: structures, points and the values lifted there

SPIRAL = MoebiusStructure.from_strings("0", "x*y", "(y*y - x*x)/2", "-(x*y)")
QUADRATIC = MoebiusStructure.from_strings("0", "(x*x - y*y)/2", "x*y", "(y*y - x*x)/2")
# sigma = 0 exactly on the axis x = 0, where t = 0 is a double root of P2
MIXED = MoebiusStructure.from_strings("0", "x*y + 0.3*x*x*x", "(y*y - x*x)/2",
                                      "-(x*y + 0.3*x*x*x)")
NEAR_FLAT_QUADRATIC = [
    (MoebiusStructure.from_strings(*sources), [pt])
    for _, pt, sources in NEAR_FLAT_RESCALED_QUADRATIC
]
# (structure, points): the spiral's points with spurious real roots near the flat
# origin (F2), ordinary points of each structure, and the near-flat points of the
# rescaled quadratic structures whose lifts differ between constraints
CASES = [
    (SPIRAL, [(0.05, 0.0), (0.02, 0.0), (0.01, 0.0), (1.0, 0.0), (-1.5, -1.0)]),
    (SPIRAL_7_MEMBERS[1], [(0.05, 0.0), (0.01, 0.0), (0.1, 0.0), (0.3, -0.8)]),
    (QUADRATIC, [(1.0, 0.0), (-0.5, 1.2), (0.3, -0.8), (1e-3, 0.0)]),
    (QUADRATIC_7_MEMBERS[1], [(1.0, 0.0), (1e-2, 0.0), (-1.6, -1.1)]),
    (MIXED, [(0.0, 1.0), (0.0, -1.3), (1.0, 0.5), (-1.0, 0.5)]),
    *NEAR_FLAT_QUADRATIC,
]
KINDS = ("root", "moved", "zero", "critical", "huge")


def _coefficient_values(structure, point):
    """The value coefficients of P1..P3 at a point, lowest degree first."""
    (values, _), = analyzer.scan_invariants(structure, [point])
    coeffs, _, _ = analyzer.constraint_columns(values)
    return [c[:, 0] for c in coeffs[1:]]


def _values_of(structure, point, kind):
    """The values of a kind lifted at a point: its real common roots ("root",
    none at some points), each moved by 1e-5 relative, more than the lift
    moves a root ("moved"), 0.0 (a double root of P2 where sigma = 0, and
    simple in P3 alone on the base quadratic's axes), the real critical
    points of each constraint, simple in the other two ("critical"), and
    values some of whose powers leave the float range ("huge"): +-1e40, whose
    ninth power does, so that it is simple in P1 and P3 but not in P2, and
    1e160, simple in none."""
    if kind in ("root", "moved"):
        (verdict,) = classify_points(structure, [point])
        roots = [float(f) for f in verdict.f_candidates] if verdict.tag in (
            VerdictTag.ADMITS, VerdictTag.INCONCLUSIVE) else []
        return [f * (1.0 + 1e-5) for f in roots] if kind == "moved" else roots
    if kind == "zero":
        return [0.0]
    if kind == "huge":
        return [1e40, -1e40, 1e160]
    critical = []
    for c in _coefficient_values(structure, point):
        if np.isfinite(c).all() and np.any(c[1:]):
            z = npoly.polyroots(npoly.polyder(c))
            critical += [float(r.real) for r in z if abs(r.imag) <= 1e-12 * max(1.0, abs(r))]
    return critical


def _simple(structure, point, f0):
    """Whether ``f0`` is a simple root of each of P1..P3 at ``point``, as the lift
    reads it."""
    with np.errstate(over="ignore", invalid="ignore"):  # the huge values
        return tuple(
            bool(analyzer._is_simple(list(c), f0, analyzer._horner(list(c), f0)[1]))
            for c in _coefficient_values(structure, point)
        )


def test_cases_take_roots_simple_in_every_number_of_constraints():
    # what the hypothesis test draws covers a root simple in all three, two, one
    # and no constraint, and a double root
    assert _simple(QUADRATIC, (1.0, 0.0), 2.0) == (True, True, True)
    assert _simple(QUADRATIC, (1.0, 0.0), 0.0) == (False, False, True)
    assert _simple(MIXED, (0.0, 1.0), 0.0) == (True, False, True)  # P2's double root
    assert _simple(SPIRAL, (1.0, 0.0), 0.0) == (True, False, False)
    critical = _values_of(SPIRAL, (1.0, 0.0), "critical")
    patterns = {_simple(SPIRAL, (1.0, 0.0), f) for f in critical}
    assert {(False, True, True), (True, False, True), (True, True, False)} <= patterns
    assert _simple(QUADRATIC, (1.0, 0.0), 1e160) == (False, False, False)
    # 1e40 ** 9 is inf: a term of P1 or P3 padded to P2's length would be NaN there
    assert _simple(QUADRATIC, (1.0, 0.0), 1e40) == (True, False, True)
    # the spiral's F2 points have real roots, which fail, and the near-flat
    # rescaled quadratic points have roots that pass with some constraints only
    assert _values_of(SPIRAL, (0.05, 0.0), "root")
    structure, (point,) = NEAR_FLAT_QUADRATIC[0]
    assert len(_values_of(structure, point, "root")) == 2


@functools.lru_cache(maxsize=None)
def _case_values(case, node, kind):
    structure, points = CASES[case]
    return tuple(_values_of(structure, points[node], kind))


@st.composite
def lift_cases(draw):
    """A structure, its points, and the lifted values as (node, value) columns."""
    case = draw(st.integers(0, len(CASES) - 1))
    structure, points = CASES[case]
    cols, roots = [], []
    for _ in range(draw(st.integers(1, 6))):
        node = draw(st.integers(0, len(points) - 1))
        values = _case_values(case, node, draw(st.sampled_from(KINDS)))
        for f in values[: draw(st.integers(1, 4))]:
            cols.append(node)
            roots.append(f)
    if not roots:  # at least one: the node's 0.0
        cols, roots = [0], [0.0]
    return structure, points, cols, roots


@given(lift_cases(), st.sampled_from([1, -1]), st.sampled_from([3, 6, 512]))
@settings(max_examples=60, deadline=None)
def test_one_pass_lift_is_the_per_constraint_lift(case, orientation, chunk):
    # at a width of 3 or 6 a lift batch holds one or two roots, and a lift of
    # several roots takes several batches
    structure, points, cols, roots = case
    with mock.patch.object(analyzer, "_CHUNK", chunk), np.errstate(
        over="ignore", invalid="ignore", divide="ignore"  # the huge values
    ):
        lifts, lifted = analyzer._lifted_reports(structure, points, orientation, cols, roots)
        expected, expected_lifted = _per_constraint_lifts(structure, points, orientation, cols,
                                                          roots)
    assert canon(lifts) == canon(expected)
    assert lifted.tolist() == expected_lifted.tolist()


def test_a_lift_batch_makes_one_residual_pass(monkeypatch):
    # 60 roots, +-F at each non-flat node of a 5x5 quadratic grid plus the
    # near-flat points: one lift batch, and one residual pass for all three
    # constraints
    calls = []
    original = analyzer._lift_residuals

    def counted(frame, inv, f0, F):
        calls.append(f0.size)
        return original(frame, inv, f0, F)

    monkeypatch.setattr(analyzer, "_lift_residuals", counted)
    member = QUADRATIC_7_MEMBERS[1]
    axis = np.linspace(-2.0, 2.0, 5)
    points = [(float(x), float(y)) for x in axis for y in axis] + MEMBER_NODES[-6:]
    columns = classify_columns(member, points)
    roots = np.count_nonzero(columns.tag[columns.f_node] == analyzer.TAGS.index(VerdictTag.ADMITS))
    assert roots == 60
    assert calls == [3 * roots]  # each root is simple in all three


def test_a_lift_of_more_roots_than_a_batch_holds(monkeypatch):
    # 172 roots, +-2 at 86 nodes of the base quadratic: more than _CHUNK // 3,
    # so two batches of 86 roots, 258 columns each; each root's report is the
    # one it gets alone
    per_batch = analyzer._CHUNK // 3
    points = [(float(x), float(y)) for x in np.linspace(-2.0, 2.0, 9)
              for y in np.linspace(-1.9, 1.9, 10)][:86]
    cols = [c for c in range(len(points)) for _ in range(2)]
    roots = [f for _ in points for f in (-2.0, 2.0)]
    assert per_batch < len(roots) <= 2 * per_batch
    widths = []
    original = analyzer._lift_batch

    def recorded(frame, jinv, coeffs, cols, f0):
        widths.append(f0.size)
        return original(frame, jinv, coeffs, cols, f0)

    monkeypatch.setattr(analyzer, "_lift_batch", recorded)
    lifts, lifted = analyzer._lifted_reports(QUADRATIC, points, 1, cols, roots)
    assert widths == [86, 86]
    assert 3 * max(widths) <= analyzer._CHUNK
    assert lifted.all() and lifts.passed.all()
    for i, (c, f) in enumerate(zip(cols, roots)):
        alone, alone_lifted = analyzer._lifted_reports(QUADRATIC, points, 1, [c], [f])
        assert canon(lifts.take(np.array([i]))) == canon(alone), (points[c], f)
        assert alone_lifted.tolist() == [True]


# ---------------------------------------------------------------------------
# the worker


class _Inline:
    """A stand-in for ``analyzer._Worker`` that makes its call on the calling
    thread, when its result is asked for."""

    def __init__(self, fn):
        self._fn = fn

    def join(self):
        pass

    def result(self):
        return self._fn()


def _recording_workers(monkeypatch):
    """The workers the analyzer starts from now on, in a list."""
    started = []

    class Recorded(analyzer._Worker):
        def __init__(self, fn):
            started.append(self)
            super().__init__(fn)

    monkeypatch.setattr(analyzer, "_Worker", Recorded)
    return started


@pytest.mark.parametrize("member", range(3))
def test_verdicts_with_the_worker_are_those_with_the_svd_inline(member, monkeypatch):
    # the seed-7 spiral members on the grid and the near-flat points: gap work,
    # and real roots near the flat origin (F2), which are lifted and fail
    structure = SPIRAL_7_MEMBERS[member]
    started = _recording_workers(monkeypatch)
    verdicts = classify_points(structure, MEMBER_NODES)
    assert len(started) == 1
    assert any(v.note == "real common roots exist but none verified" for v in verdicts)
    assert any(v.resultants and v.resultants["res13"].gap is not None for v in verdicts)
    # the threads switch as often as the interpreter lets them
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert canon(classify_points(structure, MEMBER_NODES)) == canon(verdicts)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 2 and not any(worker.is_alive() for worker in started)
    monkeypatch.setattr(analyzer, "_Worker", _Inline)
    assert canon(classify_points(structure, MEMBER_NODES)) == canon(verdicts)


class _LiftFailed(Exception):
    pass


def test_no_thread_outlives_a_call(monkeypatch):
    structure = SPIRAL_7_MEMBERS[1]
    started = _recording_workers(monkeypatch)
    before = threading.active_count()
    classify_columns(structure, MEMBER_NODES)
    assert threading.active_count() == before
    assert len(started) == 1 and not started[0].is_alive()

    # the lift raises while the worker runs: its own error reaches the caller
    def failing(*args):
        raise _LiftFailed("lift")

    with monkeypatch.context() as patch:
        patch.setattr(analyzer, "_lifted_reports", failing)
        with pytest.raises(_LiftFailed):
            classify_columns(structure, MEMBER_NODES)
    assert threading.active_count() == before
    assert len(started) == 2 and not started[1].is_alive()

    # the worker's SVD raises: its error reaches the caller, on the calling thread
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", singular)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            classify_columns(structure, MEMBER_NODES)
    assert threading.active_count() == before
    assert len(started) == 3 and not started[2].is_alive()


JET_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "d_dx", "d_dy", "take",
)


def test_the_worker_makes_no_jet_operation(monkeypatch):
    # every Jet operator is called from the calling thread, and the SVD of the
    # first gap pair from another one
    threads = {"jets": set(), "svd": set()}
    for name in JET_OPS:
        original = getattr(jets.Jet, name)

        def recorded(*args, original=original, **kwargs):
            threads["jets"].add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(jets.Jet, name, recorded)
    svd = np.linalg.svd

    def recorded_svd(*args, **kwargs):
        threads["svd"].add(threading.get_ident())
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    started = _recording_workers(monkeypatch)
    classify_columns(SPIRAL_7_MEMBERS[1], MEMBER_NODES)
    assert len(started) == 1
    assert threads["jets"] == {threading.get_ident()}
    assert started[0].ident in threads["svd"]


@pytest.mark.parametrize("structures, points", [
    (OPPOSITE_7_MEMBERS, MEMBER_NODES),  # complex roots, and no gap
    (QUADRATIC_7_MEMBERS, MEMBER_NODES),  # real roots at every node, and no gap
    (SPIRAL_7_MEMBERS, MEMBER_NODES[:-6]),  # gaps, and no root on the grid alone
], ids=["opposite", "quadratic", "spiral-grid"])
def test_batches_without_gaps_or_roots_start_no_worker(structures, points, monkeypatch):
    started = _recording_workers(monkeypatch)
    lifts = []
    original = analyzer._lifted_reports

    def recorded(*args):
        lifts.append(args)
        return original(*args)

    monkeypatch.setattr(analyzer, "_lifted_reports", recorded)
    for structure in structures:
        lifts.clear()
        columns = classify_columns(structure, points)
        assert not (np.isfinite(columns.gap).any() and lifts)
    assert started == []

"""Moebius structures on planar domains and their Levi-Civita calculus.

A structure is a conformally flat representative metric ``g_ab = e^{2u} d_ab``
together with a symmetric Rho tensor ``P_ab`` whose metric trace must equal
the Gauss curvature of ``g``.  All differential geometry happens on jets
evaluated at a base point (:class:`Frame`), so covariant derivatives of any
depth reduce to exact coefficient manipulation.

Conventions: indices are raised/lowered with ``g``; the volume form has
``eps_12 = orientation * e^{2u}`` and satisfies ``eps^{ab} eps_cb = delta_c^a``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from . import jets
from .expr import Expr, eval_jet, parse
from .jets import Jet, jet_space

__all__ = [
    "MoebiusStructure",
    "TensorAtPoint",
    "Frame",
    "christoffel",
    "gauss_curvature",
    "covariant_derivative",
    "validate",
    "ValidationReport",
]


@dataclass(frozen=True)
class MoebiusStructure:
    """Problem instance: log conformal factor and Rho tensor components.

    ``u`` defines the metric ``e^{2u} d_ab`` (always positive); ``p11``,
    ``p12``, ``p22`` are the coordinate components of the symmetric Rho
    tensor (``p21 = p12``).  Immutable after construction.
    """

    u: Expr
    p11: Expr
    p12: Expr
    p22: Expr

    @classmethod
    def from_strings(cls, u, p11, p12, p22):
        return cls(parse(u), parse(p11), parse(p12), parse(p22))

    def p_component(self, a, b):
        if a == b:
            return self.p11 if a == 0 else self.p22
        return self.p12

    def rescaled(self, omega):
        """Structure for the metric ``e^{2 omega} g`` in the same class.

        The new Rho components absorb the gradient terms of the rescaling,
        so the trace condition keeps holding automatically.
        """
        if isinstance(omega, str):
            omega = parse(omega)
        ux, uy = ex.differentiate(self.u, "x"), ex.differentiate(self.u, "y")
        wx, wy = ex.differentiate(omega, "x"), ex.differentiate(omega, "y")
        wxx = ex.differentiate(wx, "x")
        wxy = ex.differentiate(wx, "y")
        wyy = ex.differentiate(wy, "y")
        # Christoffel symbols of the original representative metric.
        gamma = {
            (0, 0, 0): ux,
            (1, 0, 0): ex.neg(uy),
            (0, 0, 1): uy,
            (1, 0, 1): ux,
            (0, 1, 1): ex.neg(ux),
            (1, 1, 1): uy,
        }

        def hess(a, b, ddw):
            # nabla_a nabla_b omega = dd omega - Gamma^c_ab d_c omega
            corr = ex.add(
                ex.mul(gamma[(0, a, b) if a <= b else (0, b, a)], wx),
                ex.mul(gamma[(1, a, b) if a <= b else (1, b, a)], wy),
            )
            return ex.sub(ddw, corr)

        grad_sq = ex.add(ex.mul(wx, wx), ex.mul(wy, wy))
        half_grad_sq = ex.mul(ex.Num(0.5), grad_sq)
        p11 = ex.add(
            ex.sub(self.p11, hess(0, 0, wxx)),
            ex.sub(ex.mul(wx, wx), half_grad_sq),
        )
        p12 = ex.add(ex.sub(self.p12, hess(0, 1, wxy)), ex.mul(wx, wy))
        p22 = ex.add(
            ex.sub(self.p22, hess(1, 1, wyy)),
            ex.sub(ex.mul(wy, wy), half_grad_sq),
        )
        return MoebiusStructure(ex.add(self.u, omega), p11, p12, p22)


@dataclass
class TensorAtPoint:
    """Tensor with jet components at a point.

    ``kinds`` is one character per index: ``"d"`` covariant (down), ``"u"``
    contravariant (up); components are nested lists over index values 0/1
    (a bare jet for a scalar).  ``weight`` is conformal-weight metadata and
    is only exercised by the rescaling tests.
    """

    comp: object
    kinds: str = ""
    weight: int = 0

    def component(self, *indices):
        c = self.comp
        for i in indices:
            c = c[i]
        return c


def _frame_jets(structure, base, order, space):
    """The jet attributes of a frame at ``base``, one point or the node arrays
    (xs, ys) of many (node columns, as :func:`~sfmew.expr.eval_jet` gives them).

    The expressions are evaluated in a fixed order, u, P11, P12, P22, and the
    derived jets after them, so the first failure at a point does not depend
    on which attribute is read first.
    """
    u = eval_jet(structure.u, base, order, space)
    p11, p12, p22 = (eval_jet(e, base, order, space) for e in
                     (structure.p11, structure.p12, structure.p22))
    du = [u.d_dx(), u.d_dy()]
    try:
        e2u = jets.exp(2.0 * u)
        e2u_inv = jets.exp(-2.0 * u)
    except jets.JetError as err:  # located as eval_jet locates the errors of expressions
        raise type(err)(f"{err} (conformal factor e^(2u), base point {base})", base=base) from err

    # gamma[c][a][b] = Gamma^c_ab for g = e^{2u} delta; the zero has the nodes'
    # shape, as a (size,) zero plus a column of one node would broadcast to a square
    zero = Jet(space, np.zeros(du[0].vec.shape), du[0].order)

    def gamma_entry(c, a, b):
        term = zero
        if c == a:
            term = term + du[b]
        if c == b:
            term = term + du[a]
        if a == b:
            term = term - du[c]
        return term

    gamma = [[[gamma_entry(c, a, b) for b in range(2)] for a in range(2)] for c in range(2)]
    curvature = -(du[0].d_dx() + du[1].d_dy()) * e2u_inv
    return {
        "u": u, "p": [[p11, p12], [p12, p22]], "du": du, "e2u": e2u, "e2u_inv": e2u_inv,
        "gamma": gamma, "curvature": curvature,
    }


def _on_first_read(name):
    """A jet attribute of a per-point frame: the first read of any evaluates them all."""

    def evaluate(frame):
        frame.__dict__.update(_frame_jets(frame.structure, frame.point, frame.order, frame.space))
        return frame.__dict__[name]

    return cached_property(evaluate)


class Frame:
    """Jet-valued geometric data of a structure at one base point.

    Holds the conformal factor and Rho components as jets of the given order,
    with the metric factors, Christoffel symbols and Gauss curvature derived
    from them.  A per-point frame is a handle: its jets are evaluated on the
    first read of any of them.  All methods are pure; a frame can be shared
    between threads.

    :meth:`stack` evaluates the jets of many points at once, one node column
    per point; the calculus methods then act on every node at once.  Every
    frame lists its nodes' points in ``points``; a per-point frame is a frame
    of one node, whose ``point`` is that node's (None on a stack), and a
    stack holds its nodes' coordinates as the node arrays ``xy`` = (xs, ys).
    """

    # jet attributes, each a jet or nested lists of jets
    _JETS = ("u", "p", "du", "e2u", "e2u_inv", "gamma", "curvature")
    u, p, du, e2u, e2u_inv, gamma, curvature = map(_on_first_read, _JETS)

    def __init__(self, structure, point, order=6, orientation=1):
        if order < 2:
            raise ValueError("frame needs jet order >= 2 for curvature")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.structure = structure
        self.point = (float(point[0]), float(point[1]))
        self.points = [self.point]
        self.order = order
        self.orientation = orientation
        self.space = jet_space(order)

    @classmethod
    def stack(cls, frames):
        """The per-point ``frames`` of one structure side by side as one frame
        over their points.

        Evaluates the jets at once, each expression once over the node
        columns of the frames' points, in the order of ``frames``; the
        per-point frames stay unevaluated.  On a ``JetError`` or an
        ``ArithmeticError`` the points are evaluated one by one, in order,
        so the error raised is the located error of the first point that
        fails alone.
        """
        first = frames[0]
        if any(f.structure is not first.structure or f.orientation != first.orientation
               or f.order != first.order for f in frames):
            raise ValueError("stacked frames need the same structure, order and orientation")
        stacked = cls._like(first, [f.point for f in frames])
        try:
            columns = _frame_jets(first.structure, stacked.xy, first.order, first.space)
        except (jets.JetError, ArithmeticError):
            # frame by frame, in node order: raises the first failing point's error
            for f in frames:
                _frame_jets(f.structure, f.point, f.order, f.space)
            raise
        stacked.__dict__.update(columns)  # the evaluated columns as they are, no copy
        return stacked

    def take(self, cols, order=None):
        """The frame at some of its nodes (repeats allowed), as a stacked frame.

        With ``order``, its jets are truncated to that order before they are
        taken: the coefficients kept keep their bits, and no others are
        copied.  The jets stay in the frame's jet space.
        """
        taken = self._like(self, [self.points[c] for c in cols])
        if order is not None:
            taken.order = min(order, self.order)
        for name in self._JETS:
            setattr(taken, name, jets.take(jets.truncate(getattr(self, name), taken.order), cols))
        return taken

    @classmethod
    def _like(cls, frame, points):
        new = cls.__new__(cls)
        new.structure, new.order = frame.structure, frame.order
        new.orientation, new.space = frame.orientation, frame.space
        new.point, new.points = None, points
        new.xy = tuple(np.array(axis) for axis in zip(*points))
        return new

    # -- coordinate and covariant derivatives --------------------------------

    def d(self, j, axis):
        return j.d_dx() if axis == 0 else j.d_dy()

    def grad(self, scalar):
        return [scalar.d_dx(), scalar.d_dy()]

    def cov_deriv(self, comp, kinds):
        """Covariant derivative; prepends one covariant index.

        ``comp`` is nested lists of jets with ``len(kinds)`` indices. Output
        index order: derivative index first, original indices after.  A
        derivative is valid to one order less than ``comp``, so the
        Christoffel products are computed to that order only.
        """
        return [self.cov_component(comp, kinds, a) for a in range(2)]

    def cov_component(self, comp, kinds, a, prefix=()):
        """The components of the covariant derivative along ``a`` whose leading
        original indices are ``prefix``: nested lists over the remaining ones."""
        # a method, not a recursive closure: a closure that calls itself is a
        # reference cycle, which would keep ``comp`` alive until the next
        # garbage collection
        if len(prefix) < len(kinds):
            return [self.cov_component(comp, kinds, a, prefix + (i,)) for i in range(2)]
        term = self.d(_component(comp, prefix), a)
        for m, kind in enumerate(kinds):
            for c in range(2):
                swapped = _component(comp, prefix[:m] + (c,) + prefix[m + 1 :])
                swapped = jets.truncate(swapped, term.order)
                if kind == "d":
                    term = term - self.gamma[c][a][prefix[m]] * swapped
                else:
                    term = term + self.gamma[prefix[m]][a][c] * swapped
        return term

    def divergence(self, vec_up):
        """nabla_a V^a for a contravariant vector (Gamma trace is 2 du); the
        products to the order of the derivatives only."""
        partials = self.d(vec_up[0], 0) + self.d(vec_up[1], 1)
        v = jets.truncate(vec_up, partials.order)
        return partials + 2.0 * (self.du[0] * v[0] + self.du[1] * v[1])

    def hessian(self, scalar):
        ds = self.grad(scalar)
        return self.cov_deriv(ds, "d")

    # -- metric helpers -------------------------------------------------------

    def raise_index(self, form):
        return [self.e2u_inv * form[0], self.e2u_inv * form[1]]

    def dot(self, a_form, b_form):
        return self.e2u_inv * (a_form[0] * b_form[0] + a_form[1] * b_form[1])

    def rot_form(self, form):
        """eps_ab V^b for a covariant V: the 90-degree rotated 1-form."""
        o = float(self.orientation)
        return [o * form[1], -o * form[0]]

    def metric(self):
        zero = Jet.constant(self.space, 0.0)
        return [[self.e2u, zero], [zero, self.e2u]]


def _component(comp, indices):
    for i in indices:
        comp = comp[i]
    return comp


# ---------------------------------------------------------------------------
# public operations


_JET_ORDER = 6  # of the jets the per-point calculus functions return
_VALIDATE_ORDER = 4  # frame order of the trace check, whose values read two orders of u
_TOL_TRACE = 1e-8  # the trace residual below this share of its scale: the condition holds


def christoffel(structure, point):
    """Christoffel symbols Gamma^c_ab as jets of order 6 (index order [c][a][b])."""
    return Frame(structure, point, _JET_ORDER).gamma


def gauss_curvature(structure, point):
    """Gauss curvature K = -e^{-2u} (u_xx + u_yy) as a jet of order 6."""
    return Frame(structure, point, _JET_ORDER).curvature


def covariant_derivative(structure, point, tensor, orientation=1):
    """Covariant derivative of a :class:`TensorAtPoint` of order-6 jets (adds one "d" index)."""
    frame = Frame(structure, point, _JET_ORDER, orientation)
    if tensor.kinds == "":
        comp = frame.grad(tensor.comp)
    else:
        comp = frame.cov_deriv(tensor.comp, tensor.kinds)
    return TensorAtPoint(comp, "d" + tensor.kinds, tensor.weight)


@dataclass
class ValidationReport:
    ok: bool
    violations: list  # (x, y, residual, scale)
    tol: float

    def __bool__(self):
        return self.ok


def validate(structure, points):
    """Check the trace condition g^{ab} P_ab = K at sample points.

    The residual is compared against 1e-8 relative to
    ``max(|K|, trace scale, 1)``.
    """
    violations = []
    for (x, y) in points:
        frame = Frame(structure, (x, y), _VALIDATE_ORDER)
        trace = frame.e2u_inv.value * (frame.p[0][0].value + frame.p[1][1].value)
        k = frame.curvature.value
        scale = max(
            1.0,
            abs(k),
            frame.e2u_inv.value
            * 2.0
            * max(abs(frame.p[0][0].value), abs(frame.p[0][1].value), abs(frame.p[1][1].value)),
        )
        residual = abs(trace - k)
        if residual > _TOL_TRACE * scale:
            violations.append((float(x), float(y), residual, scale))
    return ValidationReport(not violations, violations, _TOL_TRACE)

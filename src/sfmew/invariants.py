"""Conformal invariants of a Moebius structure at a point.

Starting from the Cotton-York 1-form Y_a (the obstruction to flatness of the
structure), the chain of derived quantities is::

    U^a = eps^{ab} Y_b                rho   = Y_a Y^a = U_a U^a
    mu  = (nabla_c Y^c) / 2           phi   = (nabla_c U^c) / 2
    W_a = Y^c nabla_c U_a + phi Y_a - 3 mu U_a
    sigma = Y_a W^a                   tau   = U_a W^a
    ell = 3 mu phi + P_ab U^a Y^b - Y^c nabla_c phi
    L_a = Y_a ell - eps_ab W^b phi

together with the directional derivatives and Rho contractions that feed the
constraint polynomials, and the degenerate-branch quantities::

    m = sigma / (3 rho) + phi
    psi = 3 mu m + P_ab U^a Y^b - Y^c nabla_c m
    k = -(3 rho / 20)(ell/sigma + mu/rho + tau/(3 rho^2) + tau phi/(rho sigma))
        + 3 (psi rho + tau m) / (4 sigma)

All quantities are computed as jets so they can be differentiated again; the
extracted point values live in :class:`PointInvariants`.  An
:class:`InvariantField` runs the chain on node columns, one per point, all
at one width: a flat node is a column of NaN, and the degenerate-branch
quantities are NaN where sigma is numerically zero.  A single point is a
field of one node, and the per-point functions at the end
(:func:`cotton_york`, :func:`compute_invariants`, :func:`compute_M`) take
its node 0.  Everything is a pure function of (structure, point) and safe
for parallel region scans.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import jets
from .geometry import Frame
from .jets import Jet, ipow

__all__ = [
    "CONFORMAL_WEIGHTS",
    "FlatPoint",
    "SigmaZero",
    "CottonReport",
    "PointInvariants",
    "InvariantField",
    "MTensorReport",
    "cotton_york",
    "compute_invariants",
    "compute_M",
    "forced_f",
    "SCAN_ORDER",
    "LIFT_ORDER",
]

#: Conformal weights w: under g -> e^{2 omega} g the quantity scales by e^{w omega}.
#: Covariant (index-down) components for the 1-forms.
CONFORMAL_WEIGHTS = {
    "Y": -2,
    "U": -2,
    "rho": -6,
    "W": -6,
    "sigma": -10,
    "tau": -10,
    "L": -10,
}

_TOL_FLAT = 1e-10  # |Y| below this share of the local size of nabla P: the point is flat
_TOL_SIGMA = 1e-9  # |sigma| below this share of its bound |Y||W|: numerically zero

#: Jet order of a scan's frames: the constraint coefficients read four orders of
#: the structure (docs/decisions.md, section 6).
SCAN_ORDER = 4
#: Jet order of the frames of a lifted root: its candidate is differentiated
#: once more than the coefficients read, 4 + 1 = 5.
LIFT_ORDER = 5


class FlatPoint(Exception):
    """The Cotton-York form vanishes here; the invariant chain is undefined."""


class SigmaZero(Exception):
    """sigma is (numerically) zero; the degenerate-branch quantities divide by it."""


@dataclass
class CottonReport:
    """Cotton-York 1-form at a point, with the flatness decision."""

    Y: np.ndarray  # covariant components (values)
    flat: bool
    norm: float
    scale: float  # local scale of nabla P used for the flatness threshold


@dataclass
class PointInvariants:
    """Values of every invariant needed by the constraint polynomials.

    Vectors are covariant components unless the name says otherwise
    (``U_up``/``Y_up``).  ``m``, ``psi``, ``k`` are NaN when sigma is
    numerically zero.  :meth:`InvariantField.invariant_values` fills the
    same fields with arrays over nodes, :meth:`InvariantField.invariant_jets`
    with jets.
    """

    point: tuple = (0.0, 0.0)
    orientation: int = 1
    e2u: float = 1.0

    rho: float = 0.0
    mu: float = 0.0
    phi: float = 0.0
    sigma: float = 0.0
    tau: float = 0.0
    ell: float = 0.0

    Y: np.ndarray = field(default_factory=lambda: np.zeros(2))
    U: np.ndarray = field(default_factory=lambda: np.zeros(2))
    Y_up: np.ndarray = field(default_factory=lambda: np.zeros(2))
    U_up: np.ndarray = field(default_factory=lambda: np.zeros(2))
    W: np.ndarray = field(default_factory=lambda: np.zeros(2))
    L: np.ndarray = field(default_factory=lambda: np.zeros(2))
    grad_rho: np.ndarray = field(default_factory=lambda: np.zeros(2))

    dsigma_U: float = 0.0  # U^a nabla_a sigma
    dsigma_Y: float = 0.0  # Y^a nabla_a sigma
    hess_rho_UU: float = 0.0  # U^a U^b nabla_a nabla_b rho
    hess_rho_YY: float = 0.0
    dY_UU: float = 0.0  # U^a U^b nabla_b Y_a
    dU_YY: float = 0.0  # Y^a Y^b nabla_b U_a
    dL_UU: float = 0.0  # U^a U^b nabla_b L_a
    dL_YY: float = 0.0
    curl_L: float = 0.0  # eps^{ab} nabla_b L_a
    P_UU: float = 0.0  # P_ab U^a U^b
    P_YY: float = 0.0
    P_UY: float = 0.0

    m: float = math.nan
    psi: float = math.nan
    k: float = math.nan

    sigma_scale: float = 1.0  # |Y||W| Cauchy-Schwarz bound, for sign decisions

    def finite(self):
        """Whether each node's invariants are finite (node arrays; ``m``, ``psi``
        and ``k``, NaN where sigma is numerically zero, aside)."""
        return np.all([
            np.isfinite(getattr(self, f.name)).reshape(-1, len(self.point)).all(axis=0)
            for f in _NODE_FIELDS if f.name not in ("m", "psi", "k")
        ], axis=0)

    def node(self, i):
        """The PointInvariants of node ``i`` of invariants held as node arrays."""
        return PointInvariants(
            point=self.point[i],
            orientation=self.orientation,
            **{name: (col[:, i] if col.ndim == 2 else col[i])
               for name, col in ((f.name, getattr(self, f.name)) for f in _NODE_FIELDS)},
        )

    def take(self, cols):
        """These invariants at some of their nodes, for node arrays or stacked jets."""
        return replace(self, point=[self.point[c] for c in cols], **{
            f.name: jets.take(getattr(self, f.name), cols) for f in _NODE_FIELDS
        })


_NODE_FIELDS = [f for f in fields(PointInvariants) if f.name not in ("point", "orientation")]


@dataclass
class MTensorReport:
    """Degenerate-branch tensor M_ab and its closed-form candidate 1-form, at
    one point or as node arrays, node axis last (:meth:`InvariantField.m_tensor`)."""

    M: np.ndarray  # 2x2 symmetric, values
    alpha: np.ndarray  # covariant components of the candidate
    norm: float
    scale: float


def forced_f(rho, mu, phi, sigma, tau, ell):
    """F forced by the degenerate branch (finite-type rearrangement).

    F = -(2/5)(rho ell + mu sigma + tau sigma/(3 rho) + tau phi) / rho^2

    Takes floats or node arrays.
    """
    numer = rho * ell + mu * sigma + tau * sigma / (3.0 * rho) + tau * phi
    return -0.4 * numer / ipow(rho, 2)


# Invariant-chain attributes of InvariantField copied into PointInvariants.
_SCALARS = ("rho", "mu", "phi", "sigma", "tau", "ell")
_VECTORS = ("Y", "U", "Y_up", "U_up", "W", "L", "grad_rho")


def _dot_jets(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _quad_jets(a, m, b):
    return _dot_jets([a[0] * m[0][j] + a[1] * m[1][j] for j in range(2)], b)


class InvariantField:
    """The full invariant chain at the nodes of a frame, kept as jets.

    ``frame`` is a :meth:`~sfmew.geometry.Frame.stack` of per-point frames,
    which evaluated their jets once over the nodes, or one per-point frame,
    a frame of one node that evaluates its jets on their first read, or a
    list of per-point frames, which the field stacks itself.  Every value is
    an array over all the nodes, at one width: a flat node keeps its column,
    with ``Y`` NaN there, so that the whole chain is NaN at it (``y_values``
    keeps the values of Y at every node).
    ``dL``, ``dY``, ``hess_rho``, ``grad_sigma`` and the degenerate branch
    (:attr:`branch`), which only some readers read, are built on first read.
    Every reader of a batch's invariants reads them from its own field:
    their node values (:meth:`invariant_values`), their jets
    (:meth:`invariant_jets`) and the branch tensor (:meth:`m_tensor`).

    Each quantity is computed from its inputs truncated to the order its
    readers take, relative to the frame order k: the contractions and the
    coefficients read order k - 4 of the chain (values in a scan, k = 4; one
    order for the lift of a root, k = 5).  A truncation drops coefficients
    that no reader takes, so every value keeps its bits (docs/decisions.md,
    section 6).  Values beyond the float range are inf or NaN, without
    warnings.
    """

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf or NaN
    def __init__(self, frame):
        if isinstance(frame, list):
            frame = Frame.stack(frame)
        f = self.frame = frame
        o = float(frame.orientation)

        # dP[a][b][c] = nabla_a P_bc: Y reads the components a != b, and only the
        # values of the others (for dP_scale), which P at order 1 gives
        p_value = jets.truncate(f.p, 1)
        dP = [
            [f.cov_component(f.p if a != b else p_value, "dd", a, (b,)) for b in range(2)]
            for a in range(2)
        ]
        dP_max = np.max(np.abs(jets.values(dP)), axis=(0, 1, 2))
        self.dP_scale = np.maximum(1.0, dP_max)
        # Y_c = eps^{ab} (nabla_a P_bc - nabla_b P_ac) = 2 eps^{12} (nabla_1 P_2c - nabla_2 P_1c)
        Y = [2.0 * o * (f.e2u_inv * (dP[0][1][c] - dP[1][0][c])) for c in range(2)]
        del dP  # nothing else reads it: not kept alive through the chain
        self.y_values = jets.values(Y)
        self.y_norm = np.hypot(*self.y_values)
        self.flat = self.y_norm < _TOL_FLAT * self.dP_scale
        # a flat node stays a column with Y NaN, so that its whole chain is NaN
        self.Y = [Jet(y.space, np.where(self.flat, np.nan, y.vec), y.order) for y in Y]

        self.U = [o * self.Y[1], -o * self.Y[0]]
        self.Y_up = f.raise_index(self.Y)
        self.U_up = f.raise_index(self.U)
        # rho is read to order k - 2: by hess_rho, through grad_rho
        y, y_up = (jets.truncate(v, frame.order - 2) for v in (self.Y, self.Y_up))
        self.rho = y[0] * y_up[0] + y[1] * y_up[1]
        self.mu = 0.5 * f.divergence(self.Y_up)
        self.phi = 0.5 * f.divergence(self.U_up)

        dU = f.cov_deriv(self.U, "d")  # dU[c][a] = nabla_c U_a
        self.dU = dU
        self.W = [
            self.Y_up[0] * dU[0][a] + self.Y_up[1] * dU[1][a]
            + self.phi * self.Y[a] - 3.0 * (self.mu * self.U[a])
            for a in range(2)
        ]
        self.sigma = f.dot(self.Y, self.W)
        # tau, P_UY, ell and L are read to order k - 3: by dL, and by the branch's k
        U, W, mu, phi, U_up, Y_up = jets.truncate(
            [self.U, self.W, self.mu, self.phi, self.U_up, self.Y_up], frame.order - 3
        )
        self.tau = f.dot(U, W)

        dphi = f.grad(self.phi)
        self.P_UY = self._p_contract(U_up, Y_up)
        self.ell = (
            3.0 * (mu * phi)
            + self.P_UY
            - (self.Y_up[0] * dphi[0] + self.Y_up[1] * dphi[1])
        )
        eps_W = f.rot_form(W)  # eps_ab W^b
        self.L = [self.Y[a] * self.ell - eps_W[a] * phi for a in range(2)]
        self.grad_rho = f.grad(self.rho)

        yw_bound = self.y_norm * np.hypot(*jets.values(self.W)) * f.e2u_inv.value
        self.sigma_scale = np.maximum(yw_bound, 1e-300)

    # -- read only by the contractions: built on first read -------------------

    @cached_property
    def dL(self):
        return self.frame.cov_deriv(self.L, "d")

    # like dL, read to order k - 4

    @cached_property
    def dY(self):
        return self.frame.cov_deriv(jets.truncate(self.Y, self.frame.order - 3), "d")

    @cached_property
    def hess_rho(self):
        return self.frame.cov_deriv(jets.truncate(self.grad_rho, self.frame.order - 3), "d")

    @cached_property
    def grad_sigma(self):
        return self.frame.grad(self.sigma)

    def _p_contract(self, a_up, b_up):
        p = self.frame.p
        return (
            p[0][0] * (a_up[0] * b_up[0])
            + p[0][1] * (a_up[0] * b_up[1] + a_up[1] * b_up[0])
            + p[1][1] * (a_up[1] * b_up[1])
        )

    def require_not_flat(self):
        """Raise :class:`FlatPoint` where every node is flat."""
        if self.flat.all():
            raise FlatPoint(
                f"Cotton-York form vanishes at {', '.join(map(str, self.frame.points))} "
                f"(|Y| = {np.max(self.y_norm):.3e} below threshold)"
            )

    # -- degenerate branch (divides by sigma) --------------------------------

    def sigma_is_zero(self):
        """Whether sigma is numerically zero, at each node (never at a flat one)."""
        return abs(self.sigma.value) < _TOL_SIGMA * self.sigma_scale

    @cached_property
    def branch(self):
        """Degenerate-branch jets ``(m, psi, k)`` over the nodes, NaN where
        sigma is numerically zero or the node is flat; None where that is
        every node.

        The branch divides by sigma in jet arithmetic, which raises
        ``DegenerateDivision`` where a value is exactly 0: it runs on a sigma
        that is NaN at those nodes, as NaN never equals 0 and gives no warning.
        """
        off = self.sigma_is_zero() | self.flat
        if off.all():
            return None
        f = self.frame
        sigma = Jet(self.sigma.space, np.where(off, np.nan, self.sigma.vec), self.sigma.order)
        m = sigma / (3.0 * self.rho) + self.phi
        dm = f.grad(m)
        # psi and k are read to the frame's order - 3, by the candidate in m_tensor
        rho, sigma, tau, mu, phi, m_low = jets.truncate(
            [self.rho, sigma, self.tau, self.mu, self.phi, m], f.order - 3
        )
        psi = 3.0 * (mu * m_low) + self.P_UY - (self.Y_up[0] * dm[0] + self.Y_up[1] * dm[1])
        bracket = (
            self.ell / sigma
            + mu / rho
            + tau / (3.0 * (rho * rho))
            + (tau * phi) / (rho * sigma)
        )
        k = (-3.0 / 20.0) * (rho * bracket) + (3.0 / 4.0) * ((psi * rho + tau * m_low) / sigma)
        return m, psi, k

    # -- extraction -----------------------------------------------------------

    def _contraction_terms(self):
        """The directional derivatives and Rho contractions in the constraint
        coefficients, as name -> (a, M, b) for a^i M_ij b^j, or for a^i b_i
        where M is None."""
        U, Y, p = self.U_up, self.Y_up, self.frame.p
        return {
            "dsigma_U": (U, None, self.grad_sigma),
            "dsigma_Y": (Y, None, self.grad_sigma),
            "hess_rho_UU": (U, self.hess_rho, U),
            "hess_rho_YY": (Y, self.hess_rho, Y),
            "dY_UU": (U, self.dY, U),  # U^a U^b nabla_b Y_a  (dY[b][a])
            "dU_YY": (Y, self.dU, Y),
            "dL_UU": (U, self.dL, U),
            "dL_YY": (Y, self.dL, Y),
            "P_UU": (U, p, U),
            "P_YY": (Y, p, Y),
            "P_UY": (U, p, Y),
        }

    def _curl_L(self, arr):
        """eps^{ab} nabla_b L_a, on node values (``arr`` reads them) or jets."""
        dL = arr(self.dL)
        return float(self.frame.orientation) * arr(self.frame.e2u_inv) * (dL[1][0] - dL[0][1])

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf or NaN
    def invariant_values(self):
        """The point invariants of every node as node arrays.

        A :class:`PointInvariants` whose scalars have shape (N,) and whose
        vectors have shape (2, N), an inf or a NaN beyond the float range and
        NaN at a flat node; ``point`` lists the nodes' points.
        """
        nan = np.full(self.flat.size, math.nan)
        m, psi, k = map(jets.values, self.branch) if self.branch else (nan, nan, nan)
        return PointInvariants(
            point=self.frame.points,
            orientation=self.frame.orientation,
            e2u=jets.values(self.frame.e2u),
            **{name: jets.values(getattr(self, name)) for name in _SCALARS + _VECTORS},
            **self._contraction_values(),
            curl_L=self._curl_L(jets.values),
            m=m,
            psi=psi,
            k=k,
            sigma_scale=self.sigma_scale,
        )

    def _contraction_values(self):
        """The contractions of ``_contraction_terms`` at every node.

        Each is one stacked matmul, ``a @ b`` or ``a @ M @ b``, of per-node
        operands of shape (N, 1, 2), (N, 2, 2) and (N, 2, 1), so that each
        node's contraction rounds as that product of its own arrays does.
        """
        rows = {}  # id of a vector or tensor of jets -> its node values, one row per node

        def per_node(tree, shape):
            if id(tree) not in rows:
                leaves = [j for row in tree for j in row] if isinstance(tree[0], list) else tree
                rows[id(tree)] = np.stack([jets.values(j) for j in leaves], axis=-1)
            return rows[id(tree)].reshape((-1,) + shape)

        out = {}
        for name, (a, m, b) in self._contraction_terms().items():
            a_row, b_col = per_node(a, (1, 2)), per_node(b, (2, 1))
            product = a_row @ b_col if m is None else (a_row @ per_node(m, (2, 2))) @ b_col
            out[name] = product.reshape(-1)
        return out

    def invariant_jets(self):
        """The invariants as jets, in a :class:`PointInvariants`.

        Holds what the constraint coefficients and the reconstruction
        formula read, so that both can be differentiated; vectors are lists
        of jets and :meth:`PointInvariants.take` picks nodes.  Every jet is
        truncated to the order k - 4 of dL, the coefficients' order, which is
        all that they and the formula take: the scalars and vectors as the
        contractions, so that no product runs at an order no reader takes.
        ``m``, ``psi`` and ``k`` are left NaN.
        """
        self.require_not_flat()
        low = self.frame.order - 4  # the order of dL: the coefficients' order
        return PointInvariants(
            point=self.frame.points,
            orientation=self.frame.orientation,
            **{name: jets.truncate(getattr(self, name), low) for name in _SCALARS},
            **{name: jets.truncate(list(getattr(self, name)), low) for name in _VECTORS},
            **{
                name: _dot_jets(*jets.truncate([a, b], low)) if m is None
                else _quad_jets(*jets.truncate([a, m, b], low))
                for name, (a, m, b) in self._contraction_terms().items()
            },
            curl_L=self._curl_L(lambda jet: jet),
            sigma_scale=self.sigma_scale,
        )

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # inf or NaN
    def m_tensor(self):
        """The branch tensor M_ab = nabla_(a alpha_b) + alpha alpha + P - (|alpha|^2/2) g.

        One :class:`MTensorReport` of node arrays, node axis last, NaN where
        :attr:`branch` is, and inf or NaN beyond the float range.
        """
        n = self.flat.size
        if self.branch is None:
            return MTensorReport(*(np.full(s + (n,), math.nan) for s in ((2, 2), (2,), (), ())))
        m, _, k = self.branch
        f = self.frame
        # the branch's candidate 1-form alpha_a = k Y_a / rho - m U_a / rho, read
        # to the frame's order - 3 (nabla alpha, values)
        m, U, rho = jets.truncate([m, self.U, self.rho], f.order - 3)
        alpha = [(k * self.Y[a] - m * U[a]) / rho for a in range(2)]
        dalpha = jets.values(f.cov_deriv(alpha, "d"))
        alpha_v, alpha_sq = jets.values(alpha), jets.values(f.dot(alpha, alpha))
        e2u, p = jets.values(f.e2u), jets.values(f.p)
        m_comp = np.zeros((2, 2, n))
        scale = np.ones(n)
        for a in range(2):
            for b in range(2):
                pieces = (
                    0.5 * (dalpha[a][b] + dalpha[b][a]),
                    alpha_v[a] * alpha_v[b],
                    p[a][b],
                    0.5 * alpha_sq * (e2u if a == b else 0.0),
                )
                m_comp[a, b] = pieces[0] + pieces[1] + pieces[2] - pieces[3]
                scale = np.maximum.reduce([scale] + [np.abs(t) for t in pieces])
        return MTensorReport(M=m_comp, alpha=alpha_v, norm=np.max(np.abs(m_comp), axis=(0, 1)),
                             scale=scale)


# ---------------------------------------------------------------------------
# public operations


def cotton_york(structure, point, orientation=1):
    """Cotton-York 1-form Y_a and the pointwise flatness decision."""
    field_ = InvariantField(Frame(structure, point, SCAN_ORDER, orientation))
    return CottonReport(
        Y=field_.y_values[:, 0],
        flat=field_.flat[0],
        norm=field_.y_norm[0],
        scale=field_.dP_scale[0],
    )


def compute_invariants(structure, point, orientation=1):
    """All point invariants; raises :class:`FlatPoint` where Y vanishes."""
    field_ = InvariantField(Frame(structure, point, SCAN_ORDER, orientation))
    field_.require_not_flat()
    return field_.invariant_values().node(0)


def compute_M(structure, point, orientation=1):
    """Degenerate-branch tensor M_ab and candidate alpha.

    Requires rho > 0 and sigma != 0 at the point; raises :class:`SigmaZero`
    otherwise (the branch needs sigma = 3 rho F^2 > 0).
    """
    field_ = InvariantField(Frame(structure, point, SCAN_ORDER, orientation))
    field_.require_not_flat()
    if field_.sigma_is_zero()[0]:
        raise SigmaZero(f"sigma = {jets.values(field_.sigma)[0]:.3e} numerically zero")
    rep = field_.m_tensor()
    return MTensorReport(
        M=rep.M[:, :, 0], alpha=rep.alpha[:, 0], norm=float(rep.norm[0]), scale=rep.scale[0]
    )

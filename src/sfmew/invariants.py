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
:class:`InvariantField` runs the chain on node columns, one per point; a
single point is a field of one node, and the per-point functions at the end
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
from .jets import ipow

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
    "DEFAULT_TOL_FLAT",
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

DEFAULT_TOL_FLAT = 1e-10


class FlatPoint(Exception):
    """The Cotton-York form vanishes here; the invariant chain is undefined."""


class SigmaZero(Exception):
    """sigma is (numerically) zero; the degenerate-branch quantities divide by it."""


@dataclass
class CottonReport:
    """Cotton-York 1-form at a point, with the flatness decision."""

    Y: np.ndarray  # covariant components (values)
    Y_jets: list
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

    def split(self):
        """One PointInvariants per node of invariants held as node arrays."""
        return [self.node(i) for i in range(len(self.point))]

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
    """Degenerate-branch tensor M_ab and its closed-form candidate 1-form."""

    M: np.ndarray  # 2x2 symmetric, values
    alpha: np.ndarray  # covariant components of the candidate
    F: float  # forced curvature scalar of the branch
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


def _hypot(a, b):
    """math.hypot of each node's pair of values, as a node array."""
    pairs = zip(np.ravel(a).tolist(), np.ravel(b).tolist())
    return np.array([math.hypot(x, y) for x, y in pairs])


class _ValueTable:
    """Node values of jets, scalars or 2-vectors or 2x2 tensors of them, read
    with one array build; ``table`` has the node axis first."""

    def __init__(self, trees):
        leaves, self._slots = [], {}
        for tree in trees:
            if id(tree) in self._slots:
                continue
            if isinstance(tree, jets.Jet):
                flat, shape = [tree], ()
            elif isinstance(tree[0], jets.Jet):
                flat, shape = tree, (2,)
            else:
                flat, shape = [j for row in tree for j in row], (2, 2)
            self._slots[id(tree)] = (np.arange(len(leaves), len(leaves) + len(flat)), shape)
            leaves.extend(flat)
        self.table = np.array([j.vec[0] for j in leaves]).reshape(len(leaves), -1).T.copy()

    def values(self, tree):
        """Node values of ``tree``, node axis last."""
        cols, shape = self._slots[id(tree)]
        return self.table[:, cols].T.reshape(shape + (-1,))

    def contract(self, terms):
        """The contractions ``terms`` (see ``InvariantField._contraction_terms``).

        Each node's contraction is a matmul of its own 2-vectors and 2x2
        tensor, ``a @ b`` or ``a @ M @ b``, so that it rounds as that
        product of one node's arrays does.
        """
        dots = [n for n, (_, m, _) in terms.items() if m is None]
        quads = [n for n in terms if n not in dots]

        def stacked(names, k, shape):  # one contiguous item per (node, name)
            cols = np.array([self._slots[id(terms[n][k])][0] for n in names])
            return self.table[:, cols].reshape((-1,) + shape)

        n = len(self.table)
        a, b = stacked(dots, 0, (1, 2)), stacked(dots, 2, (2, 1))
        out = dict(zip(dots, (a @ b).reshape(n, len(dots)).T))
        a, m, b = stacked(quads, 0, (1, 2)), stacked(quads, 1, (2, 2)), stacked(quads, 2, (2, 1))
        out.update(zip(quads, ((a @ m) @ b).reshape(n, len(quads)).T))
        return out


def _dot_jets(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _quad_jets(a, m, b):
    return _dot_jets([a[0] * m[0][j] + a[1] * m[1][j] for j in range(2)], b)


class InvariantField:
    """The full invariant chain at the nodes of a frame, kept as jets.

    ``frame`` is a :meth:`~sfmew.geometry.Frame.stack` of per-point frames,
    which evaluated their jets once over the nodes, or one per-point frame,
    a frame of one node that evaluates its jets on their first read, or a
    list of per-point frames, which the field stacks itself: then no caller
    holds the stack, and its columns at flat nodes are freed as soon as the
    chain has taken the others.  Every value is an array over the nodes.
    ``dP_scale``, ``y_norm`` and ``flat`` cover every node; the rest of the
    chain runs on the non-flat nodes, ``nodes`` (their indices), so the
    flatness branch is a column selection.
    ``dL``, ``dY``, ``hess_rho`` and ``grad_sigma``, which only the
    contractions read, are built on first read.  Build the field once and
    reuse it for invariants, constraint assembly and the degenerate branch.
    """

    def __init__(self, frame, tol_flat=DEFAULT_TOL_FLAT):
        if isinstance(frame, list):
            frame = Frame.stack(frame)
        f = self.frame = frame
        o = float(frame.orientation)

        dP = f.cov_deriv(f.p, "dd")  # dP[a][b][c] = nabla_a P_bc
        dP_max = np.max(np.abs(jets.values(dP)), axis=(0, 1, 2))
        self.dP_scale = np.maximum(1.0, dP_max)
        # Y_c = eps^{ab} (nabla_a P_bc - nabla_b P_ac) = 2 eps^{12} (nabla_1 P_2c - nabla_2 P_1c)
        self.Y = [2.0 * o * (f.e2u_inv * (dP[0][1][c] - dP[1][0][c])) for c in range(2)]
        del dP  # nothing else reads it: not kept alive through the chain (see ``dP``)
        self.y_norm = _hypot(self.Y[0].value, self.Y[1].value)
        self.flat = self.y_norm < tol_flat * self.dP_scale
        self.nodes = np.flatnonzero(~self.flat)
        self._branch = None
        if not self.nodes.size:
            return
        if self.nodes.size < self.flat.size:  # rebinds ``frame``: a stack no caller holds goes
            f = self.frame = frame = frame.take(self.nodes)
            self.Y = jets.take(self.Y, self.nodes)

        self.U = [o * self.Y[1], -o * self.Y[0]]
        self.Y_up = f.raise_index(self.Y)
        self.U_up = f.raise_index(self.U)
        self.rho = self.Y[0] * self.Y_up[0] + self.Y[1] * self.Y_up[1]
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
        self.tau = f.dot(self.U, self.W)

        dphi = f.grad(self.phi)
        self.P_UY = self._p_contract(self.U_up, self.Y_up)
        self.ell = (
            3.0 * (self.mu * self.phi)
            + self.P_UY
            - (self.Y_up[0] * dphi[0] + self.Y_up[1] * dphi[1])
        )
        eps_W = f.rot_form(self.W)  # eps_ab W^b
        self.L = [self.Y[a] * self.ell - eps_W[a] * self.phi for a in range(2)]
        self.grad_rho = f.grad(self.rho)

        yw_bound = (
            _hypot(self.Y[0].value, self.Y[1].value)
            * _hypot(self.W[0].value, self.W[1].value)
            * f.e2u_inv.value
        )
        self.sigma_scale = np.maximum(yw_bound, 1e-300)

    @cached_property
    def dP(self):
        """nabla_a P_bc as ``dP[a][b][c]``, over the nodes of ``frame``; built
        again on read, as the chain only needs it for ``Y`` and ``dP_scale``."""
        return self.frame.cov_deriv(self.frame.p, "dd")

    # -- read only by the contractions: built on first read -------------------

    @cached_property
    def dL(self):
        return self.frame.cov_deriv(self.L, "d")

    @cached_property
    def dY(self):
        return self.frame.cov_deriv(self.Y, "d")

    @cached_property
    def hess_rho(self):
        return self.frame.cov_deriv(self.grad_rho, "d")

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
        if not self.nodes.size:
            raise FlatPoint(
                f"Cotton-York form vanishes at {', '.join(map(str, self.frame.points))} "
                f"(|Y| = {np.max(self.y_norm):.3e} below threshold)"
            )

    # -- degenerate branch (divides by sigma) --------------------------------

    def sigma_is_zero(self, tol=1e-9):
        """Whether sigma is numerically zero, at each of ``nodes``."""
        return abs(self.sigma.value) < tol * self.sigma_scale

    def take(self, cols):
        """The chain at some of ``nodes`` (indices into them): for the branch,
        and for the lift of the roots of some nodes."""
        sub = object.__new__(InvariantField)
        for name, value in vars(self).items():
            if name not in ("dP", "dP_scale", "y_norm", "flat", "_branch"):
                sub.__dict__[name] = jets.take(value, cols)
        sub.frame = self.frame.take(cols)
        sub.nodes = self.nodes[cols]
        sub._branch = None
        return sub

    def branch(self):
        """Degenerate-branch jets where sigma is not numerically zero.

        Returns ``(cols, field, m, psi, k)``: ``cols`` indexes ``nodes``, the
        jets are over those columns and ``field`` is this field at those
        columns, or None where they are all of its nodes (so that the field
        holds no reference to itself).
        """
        if self._branch is None:
            cols = np.flatnonzero(~self.sigma_is_zero())
            if not cols.size:
                self._branch = (cols, None, None, None, None)
                return self._branch
            src = self if cols.size == self.nodes.size else self.take(cols)
            rho, sigma, tau, mu, phi = src.rho, src.sigma, src.tau, src.mu, src.phi
            m = sigma / (3.0 * rho) + phi
            dm = src.frame.grad(m)
            psi = 3.0 * (mu * m) + src.P_UY - (src.Y_up[0] * dm[0] + src.Y_up[1] * dm[1])
            bracket = (
                src.ell / sigma
                + mu / rho
                + tau / (3.0 * (rho * rho))
                + (tau * phi) / (rho * sigma)
            )
            k = (-3.0 / 20.0) * (rho * bracket) + (3.0 / 4.0) * ((psi * rho + tau * m) / sigma)
            self._branch = (cols, None if src is self else src, m, psi, k)
        return self._branch

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

    def invariant_values(self):
        """The point invariants of every node of ``nodes`` as node arrays.

        A :class:`PointInvariants` whose scalars have shape (N,) and whose
        vectors have shape (2, N); ``point`` lists the nodes' points.
        """
        self.require_not_flat()
        m, psi, k = (np.full(self.nodes.size, math.nan) for _ in range(3))
        cols, _, *branch = self.branch()
        if cols.size:
            for arr, jet in zip((m, psi, k), branch):
                arr[cols] = jets.values(jet)
        chain = [getattr(self, name) for name in _SCALARS + _VECTORS]
        terms = self._contraction_terms()
        table = _ValueTable(
            chain + [self.frame.e2u, self.frame.e2u_inv, self.dL]
            + [t for term in terms.values() for t in term if t is not None]
        )
        return PointInvariants(
            point=self.frame.points,
            orientation=self.frame.orientation,
            e2u=table.values(self.frame.e2u),
            **{name: table.values(t) for name, t in zip(_SCALARS + _VECTORS, chain)},
            **table.contract(terms),
            curl_L=self._curl_L(table.values),
            m=m,
            psi=psi,
            k=k,
            sigma_scale=self.sigma_scale,
        )

    def point_invariants(self):
        """A list of PointInvariants, one per node of ``nodes``."""
        if not self.nodes.size:
            return []
        return self.invariant_values().split()

    def invariant_jets(self):
        """The invariants over ``nodes`` as jets, in a :class:`PointInvariants`.

        Holds what the constraint coefficients and the reconstruction
        formula read, so that both can be differentiated; vectors are lists
        of jets and :meth:`PointInvariants.take` picks nodes.  ``m``,
        ``psi`` and ``k`` are left NaN.
        """
        self.require_not_flat()
        return PointInvariants(
            point=self.frame.points,
            orientation=self.frame.orientation,
            **{name: getattr(self, name) for name in _SCALARS},
            **{name: list(getattr(self, name)) for name in _VECTORS},
            **{
                name: _dot_jets(a, b) if m is None else _quad_jets(a, m, b)
                for name, (a, m, b) in self._contraction_terms().items()
            },
            curl_L=self._curl_L(lambda jet: jet),
            sigma_scale=self.sigma_scale,
        )

    def m_tensor(self):
        """The branch tensor M_ab = nabla_(a alpha_b) + alpha alpha + P - (|alpha|^2/2) g.

        A list of :class:`MTensorReport` over ``nodes``, with None where
        sigma is numerically zero.
        """
        if not self.nodes.size:
            return []
        cols, src, m, _, k = self.branch()
        reports = [None] * self.nodes.size
        if cols.size:
            src = src or self
            f = src.frame
            # the branch's candidate 1-form alpha_a = k Y_a / rho - m U_a / rho
            alpha = [(k * src.Y[a] - m * src.U[a]) / src.rho for a in range(2)]
            dalpha = jets.values(f.cov_deriv(alpha, "d"))
            alpha_v, alpha_sq = jets.values(alpha), jets.values(f.dot(alpha, alpha))
            e2u, p = jets.values(f.e2u), jets.values(f.p)
            m_comp = np.zeros((2, 2, cols.size))
            scale = np.ones(cols.size)
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
            F = forced_f(*(jets.values(getattr(self, q))[cols] for q in _SCALARS))
            norm = np.max(np.abs(m_comp), axis=(0, 1))
            for i, c in enumerate(cols):
                reports[c] = MTensorReport(
                    M=m_comp[:, :, i],
                    alpha=alpha_v[:, i],
                    F=F[i],
                    norm=float(norm[i]),
                    scale=scale[i],
                )
        return reports


# ---------------------------------------------------------------------------
# public operations


def cotton_york(structure, point, order=6, orientation=1, tol_flat=DEFAULT_TOL_FLAT):
    """Cotton-York 1-form Y_a and the pointwise flatness decision."""
    field_ = InvariantField(Frame(structure, point, order, orientation), tol_flat)
    return CottonReport(
        Y=jets.values(field_.Y)[:, 0],
        Y_jets=field_.Y,
        flat=field_.flat[0],
        norm=field_.y_norm[0],
        scale=field_.dP_scale[0],
    )


def compute_invariants(structure, point, order=6, orientation=1, tol_flat=DEFAULT_TOL_FLAT):
    """All point invariants; raises :class:`FlatPoint` where Y vanishes."""
    field_ = InvariantField(Frame(structure, point, order, orientation), tol_flat)
    field_.require_not_flat()
    return field_.point_invariants()[0]


def compute_M(structure, point, order=6, orientation=1, tol_flat=DEFAULT_TOL_FLAT):
    """Degenerate-branch tensor M_ab and candidate alpha.

    Requires rho > 0 and sigma != 0 at the point; raises :class:`SigmaZero`
    otherwise (the branch needs sigma = 3 rho F^2 > 0).
    """
    field_ = InvariantField(Frame(structure, point, order, orientation), tol_flat)
    field_.require_not_flat()
    rep = field_.m_tensor()[0]
    if rep is None:
        raise SigmaZero(f"sigma = {jets.values(field_.sigma)[0]:.3e} numerically zero")
    return rep

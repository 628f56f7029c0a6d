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
extracted point values live in :class:`PointInvariants`.  Everything is a pure
function of (structure, point) and safe for parallel region scans.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Frame

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
    numerically zero.  :meth:`InvariantField.invariant_jets` fills the same
    fields with jets.
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
    """
    numer = rho * ell + mu * sigma + tau * sigma / (3.0 * rho) + tau * phi
    return -0.4 * numer / rho**2


# Invariant-chain attributes of InvariantField copied into PointInvariants.
_SCALARS = ("rho", "mu", "phi", "sigma", "tau", "ell")
_VECTORS = ("Y", "U", "Y_up", "U_up", "W", "L", "grad_rho")


def _values(comps):
    """Array of the values of a list of jets (nested for a 2-tensor)."""
    if isinstance(comps[0], list):
        return np.array([[j.value for j in row] for row in comps])
    return np.array([j.value for j in comps])


def _jets(comps):
    """Object array of a list of jets (nested for a 2-tensor)."""
    return np.array(comps, dtype=object)


class InvariantField:
    """The full invariant chain at one point, kept as jets.

    Shares one :class:`~sfmew.geometry.Frame`; build it once per point and
    reuse it for invariants, constraint assembly and the degenerate branch.
    """

    def __init__(self, frame: Frame, tol_flat=DEFAULT_TOL_FLAT):
        self.frame = frame
        f = frame
        o = float(frame.orientation)

        dP = f.cov_deriv(f.p, "dd")  # dP[a][b][c] = nabla_a P_bc
        self.dP = dP
        self.dP_scale = max(
            1.0, max(abs(dP[a][b][c].value) for a in range(2) for b in range(2) for c in range(2))
        )
        # Y_c = eps^{ab} (nabla_a P_bc - nabla_b P_ac) = 2 eps^{12} (nabla_1 P_2c - nabla_2 P_1c)
        self.Y = [2.0 * o * (f.e2u_inv * (dP[0][1][c] - dP[1][0][c])) for c in range(2)]
        self.y_norm = math.hypot(self.Y[0].value, self.Y[1].value)
        self.flat = self.y_norm < tol_flat * self.dP_scale
        if self.flat:
            return

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

        self.dL = f.cov_deriv(self.L, "d")
        self.dY = f.cov_deriv(self.Y, "d")
        self.grad_rho = f.grad(self.rho)
        self.hess_rho = f.cov_deriv(self.grad_rho, "d")
        self.grad_sigma = f.grad(self.sigma)

        yw_bound = math.hypot(self.Y[0].value, self.Y[1].value) * math.hypot(
            self.W[0].value, self.W[1].value
        ) * f.e2u_inv.value
        self.sigma_scale = max(yw_bound, 1e-300)

        self._m = None
        self._psi = None
        self._k = None
        self._alpha_branch = None

    def _p_contract(self, a_up, b_up):
        p = self.frame.p
        return (
            p[0][0] * (a_up[0] * b_up[0])
            + p[0][1] * (a_up[0] * b_up[1] + a_up[1] * b_up[0])
            + p[1][1] * (a_up[1] * b_up[1])
        )

    def require_not_flat(self):
        if self.flat:
            raise FlatPoint(
                f"Cotton-York form vanishes at {self.frame.point} "
                f"(|Y| = {self.y_norm:.3e} below threshold)"
            )

    # -- degenerate branch (divides by sigma) --------------------------------

    def sigma_is_zero(self, tol=1e-9):
        return abs(self.sigma.value) < tol * self.sigma_scale

    def m_jet(self):
        if self._m is None:
            if self.sigma_is_zero():
                raise SigmaZero(f"sigma = {self.sigma.value:.3e} numerically zero")
            self._m = self.sigma / (3.0 * self.rho) + self.phi
        return self._m

    def psi_jet(self):
        if self._psi is None:
            m = self.m_jet()
            dm = self.frame.grad(m)
            self._psi = (
                3.0 * (self.mu * m)
                + self.P_UY
                - (self.Y_up[0] * dm[0] + self.Y_up[1] * dm[1])
            )
        return self._psi

    def k_jet(self):
        if self._k is None:
            m, psi = self.m_jet(), self.psi_jet()
            rho, sigma, tau = self.rho, self.sigma, self.tau
            bracket = (
                self.ell / sigma
                + self.mu / rho
                + tau / (3.0 * (rho * rho))
                + (tau * self.phi) / (rho * sigma)
            )
            self._k = (-3.0 / 20.0) * (rho * bracket) + (3.0 / 4.0) * (
                (psi * rho + tau * m) / sigma
            )
        return self._k

    def branch_alpha_jets(self):
        """Candidate 1-form alpha_a = k Y_a / rho - m U_a / rho (jets)."""
        if self._alpha_branch is None:
            k, m = self.k_jet(), self.m_jet()
            self._alpha_branch = [
                (k * self.Y[a] - m * self.U[a]) / self.rho for a in range(2)
            ]
        return self._alpha_branch

    # -- extraction -----------------------------------------------------------

    def _contractions(self, arr):
        """Directional derivatives and Rho contractions in the constraint coefficients.

        ``arr`` maps a list of jets (nested for a 2-tensor) to an array: of
        their values for :meth:`point_invariants`, of the jets themselves for
        :meth:`invariant_jets`.
        """
        f = self.frame
        U_up, Y_up, p = arr(self.U_up), arr(self.Y_up), arr(f.p)
        dsig, hess, dY, dU, dL = (
            arr(t) for t in (self.grad_sigma, self.hess_rho, self.dY, self.dU, self.dL)
        )
        curl_scale = float(f.orientation) * arr([f.e2u_inv])[0]
        return {
            "dsigma_U": U_up @ dsig,
            "dsigma_Y": Y_up @ dsig,
            "hess_rho_UU": U_up @ hess @ U_up,
            "hess_rho_YY": Y_up @ hess @ Y_up,
            "dY_UU": U_up @ dY @ U_up,  # U^a U^b nabla_b Y_a  (dY[b][a])
            "dU_YY": Y_up @ dU @ Y_up,
            "dL_UU": U_up @ dL @ U_up,
            "dL_YY": Y_up @ dL @ Y_up,
            "curl_L": curl_scale * (dL[1][0] - dL[0][1]),
            "P_UU": U_up @ p @ U_up,
            "P_YY": Y_up @ p @ Y_up,
            "P_UY": U_up @ p @ Y_up,
        }

    def point_invariants(self):
        self.require_not_flat()
        f = self.frame

        if self.sigma_is_zero():
            m = psi = k = math.nan
        else:
            m = self.m_jet().value
            psi = self.psi_jet().value
            k = self.k_jet().value

        return PointInvariants(
            point=f.point,
            orientation=f.orientation,
            e2u=f.e2u.value,
            **{name: getattr(self, name).value for name in _SCALARS},
            **{name: _values(getattr(self, name)) for name in _VECTORS},
            **{name: float(v) for name, v in self._contractions(_values).items()},
            m=m,
            psi=psi,
            k=k,
            sigma_scale=self.sigma_scale,
        )

    def invariant_jets(self):
        """The invariants as jets, in a :class:`PointInvariants`.

        Holds what the constraint coefficients and the reconstruction
        formula read, so that both can be differentiated; vectors are
        object arrays of jets.  ``m``, ``psi`` and ``k`` are left NaN.
        """
        self.require_not_flat()
        f = self.frame
        return PointInvariants(
            point=f.point,
            orientation=f.orientation,
            e2u=f.e2u.value,
            **{name: getattr(self, name) for name in _SCALARS},
            **{name: _jets(getattr(self, name)) for name in _VECTORS},
            **self._contractions(_jets),
            sigma_scale=self.sigma_scale,
        )

    def m_tensor(self):
        """The branch tensor M_ab = nabla_(a alpha_b) + alpha alpha + P - (|alpha|^2/2) g."""
        self.require_not_flat()
        alpha = self.branch_alpha_jets()
        f = self.frame
        dalpha = f.cov_deriv(alpha, "d")
        alpha_sq = f.dot(alpha, alpha)
        m_comp = np.zeros((2, 2))
        scale = 1.0
        for a in range(2):
            for b in range(2):
                sym = 0.5 * (dalpha[a][b].value + dalpha[b][a].value)
                quad = alpha[a].value * alpha[b].value
                metric = f.e2u.value if a == b else 0.0
                pieces = (sym, quad, f.p[a][b].value, 0.5 * alpha_sq.value * metric)
                m_comp[a, b] = pieces[0] + pieces[1] + pieces[2] - pieces[3]
                scale = max(scale, *(abs(t) for t in pieces))
        return MTensorReport(
            M=m_comp,
            alpha=np.array([alpha[0].value, alpha[1].value]),
            F=forced_f(
                *(q.value for q in (self.rho, self.mu, self.phi, self.sigma, self.tau, self.ell))
            ),
            norm=float(np.max(np.abs(m_comp))),
            scale=scale,
        )


# ---------------------------------------------------------------------------
# public operations


def cotton_york(structure, point, order=6, orientation=1, tol_flat=DEFAULT_TOL_FLAT):
    """Cotton-York 1-form Y_a and the pointwise flatness decision."""
    field_ = InvariantField(Frame(structure, point, order, orientation), tol_flat)
    return CottonReport(
        Y=np.array([j.value for j in field_.Y]),
        Y_jets=field_.Y,
        flat=field_.flat,
        norm=field_.y_norm,
        scale=field_.dP_scale,
    )


def compute_invariants(structure, point, order=6, orientation=1, tol_flat=DEFAULT_TOL_FLAT):
    """All point invariants; raises :class:`FlatPoint` where Y vanishes."""
    field_ = InvariantField(Frame(structure, point, order, orientation), tol_flat)
    return field_.point_invariants()


def compute_M(structure, point, order=6, orientation=1, tol_flat=DEFAULT_TOL_FLAT):
    """Degenerate-branch tensor M_ab and candidate alpha.

    Requires rho > 0 and sigma != 0 at the point; raises :class:`SigmaZero`
    otherwise (the branch needs sigma = 3 rho F^2 > 0).
    """
    field_ = InvariantField(Frame(structure, point, order, orientation), tol_flat)
    field_.require_not_flat()
    return field_.m_tensor()

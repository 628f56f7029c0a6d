"""Assembly of the constraint polynomials P0..P3 from point invariants.

For a non-flat structure, local solvability forces the curvature scalar F of
the candidate connection to be a simultaneous root of three polynomials whose
coefficients are the invariants of :mod:`sfmew.invariants`; ``P0`` is the
denominator polynomial of the reconstruction formula.  P2 is assembled in a
grouped form that clears the rational factor exactly::

    P2(t) = (sigma - 15 rho t^2) (A + B t + C t^2)^2 + P0(t) Q(t)

with A = rho ell + tau phi, B = 5/2 rho^2, C = tau + 3 mu rho, and Q the
remaining degree-8 part.

The ``coeffs_P*`` functions compute the coefficient lists, lowest degree
first, from invariants given as floats, as node arrays (one value per node,
see :meth:`~sfmew.invariants.InvariantField.invariant_values`) or as jets;
the jet form lets the analyzer lift a root of a constraint to a jet around
the point.  Integer powers go through :func:`~sfmew.jets.ipow`, which is
``np.power`` on a float and on a node array alike, so a node's coefficients
do not depend on its batch.  Coefficients come
out raw, untrimmed: stacked as rows of node arrays they are the coefficient
columns of :mod:`sfmew.polyalg`, which trims and normalizes them for root
and resultant work.
"""

import numpy as np

from .jets import ipow

__all__ = [
    "coeffs_P0", "coeffs_P1", "coeffs_P2", "coeffs_P3", "DivisionByRho", "NOT_FINITE",
]

#: The note of a point whose invariants put a constraint coefficient beyond
#: the float range (an inf or a NaN), which decides nothing there.
NOT_FINITE = "constraint coefficients are not all finite"


class DivisionByRho(Exception):
    """rho is too small to divide by (flat point reached the assembler)."""


def coeffs_P0(inv):
    """Coefficients of P0(t) = sigma - 3 rho t^2, lowest degree first."""
    return [inv.sigma, 0.0, -3.0 * inv.rho]


def coeffs_P1(inv):
    """Coefficients of the first constraint P1 (degree 8; meaningful for rho > 0),
    lowest degree first (floats or jets)."""
    rho, mu, phi, sigma, tau, ell = inv.rho, inv.mu, inv.phi, inv.sigma, inv.tau, inv.ell
    t3m = tau + 3.0 * mu * rho
    rlpt = rho * ell + phi * tau
    rho2, phi2, sigma2 = ipow(rho, 2), ipow(phi, 2), ipow(sigma, 2)
    c8 = 31.5 * rho2
    c6 = -12.0 * rho * sigma
    c4 = (
        12.0 * rho * sigma * phi
        - 63.0 * rho2 * phi2
        + 3.0 * rho * inv.dsigma_U
        + 0.5 * ipow(t3m, 2)
        + 0.5 * ipow(3.0 * rho * phi - sigma, 2)
        + 1.5 * rho * inv.hess_rho_UU
        - 9.0 * rho2 * inv.P_UU
    )
    c3 = 7.5 * ipow(rho, 3) * mu + 2.5 * tau * rho2 + 7.5 * rho2 * inv.dY_UU
    c2 = (
        (3.0 * rho * phi - sigma) * inv.dsigma_U
        + 21.0 * rho * phi2 * sigma
        - 3.0 * phi * sigma2
        + rlpt * t3m
        + 25.0 / 8.0 * ipow(rho, 4)
        + 3.0 * rho * inv.dL_UU
        + 6.0 * rho * sigma * inv.P_UU
        - 0.5 * sigma * inv.hess_rho_UU
    )
    c1 = 2.5 * rho2 * rlpt - 2.5 * inv.dY_UU * sigma * rho
    c0 = (
        -sigma * phi * inv.dsigma_U
        + 0.5 * ipow(rlpt, 2)
        - 0.5 * phi2 * sigma2
        - sigma * (inv.dL_UU + sigma * inv.P_UU)
    )
    return [c0, c1, c2, c3, c4, 0.0, c6, 0.0, c8]


def _q_part(inv):
    """Degree-8 part of the second constraint outside the rational term."""
    rho, mu, phi, sigma, tau, ell = inv.rho, inv.mu, inv.phi, inv.sigma, inv.tau, inv.ell
    t3m = tau + 3.0 * mu * rho
    rlpt = rho * ell + phi * tau
    rho2, sigma2 = ipow(rho, 2), ipow(sigma, 2)
    q8 = -4.5 * rho2
    q6 = -(9.0 * inv.dU_YY * rho + 3.0 * rho * (3.0 * phi * rho - sigma))
    q4 = (
        3.0 * inv.dU_YY * sigma
        - 1.5 * rho * inv.hess_rho_YY
        + 1.5 * ipow(t3m, 2)
        + 9.0 * rho2 * inv.P_YY
        + 3.0 * phi * sigma * rho
        - 0.5 * ipow(3.0 * phi * rho - sigma, 2)
    )
    q3 = -25.0 * rho2 * t3m
    q2 = (
        0.5 * inv.hess_rho_YY * sigma
        - 185.0 / 8.0 * ipow(rho, 4)
        - 3.0 * inv.dL_YY * rho
        - 6.0 * rho * sigma * inv.P_YY
        + phi * sigma * (3.0 * phi * rho - sigma)
        + t3m * rlpt
        - t3m * inv.dsigma_Y
    )
    q1 = (
        5.5 * rho * sigma * t3m
        - 13.5 * rho2 * rlpt
        - 2.5 * rho2 * inv.dsigma_Y
    )
    q0 = (
        inv.dL_YY * sigma
        - 2.5 * sigma * ipow(rho, 3)
        + inv.P_YY * sigma2
        - 0.5 * ipow(rlpt, 2)
        - 0.5 * ipow(phi, 2) * sigma2
        - rlpt * inv.dsigma_Y
    )
    return [q0, q1, q2, q3, q4, 0.0, q6, 0.0, q8]


def coeffs_P2(inv):
    """Coefficients of the second constraint P2 with denominators cleared
    (degree 10), lowest degree first (floats or jets)."""
    rho, mu, phi, sigma, tau, ell = inv.rho, inv.mu, inv.phi, inv.sigma, inv.tau, inv.ell
    abc = [rho * ell + tau * phi, 2.5 * ipow(rho, 2), tau + 3.0 * mu * rho]
    head = _polymul([sigma, 0.0, -15.0 * rho], _polymul(abc, abc))
    tail = _polymul([sigma, 0.0, -3.0 * rho], _q_part(inv))
    return [h + t for h, t in zip(head, tail)] + tail[len(head):]


def _polymul(a, b):
    """Product of two coefficient lists, lowest degree first.

    Each coefficient sums its terms ``a[i] b[k - i]`` left to right by
    ascending i; terms with a literal 0.0 factor are left out.
    """
    out = []
    for k in range(len(a) + len(b) - 1):
        terms = [
            a[i] * b[k - i]
            for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)
            if not (_is_zero(a[i]) or _is_zero(b[k - i]))
        ]
        out.append(sum(terms[1:], terms[0]) if terms else 0.0)
    return out


def _is_zero(c):
    return isinstance(c, float) and c == 0.0


def coeffs_P3(inv):
    """Coefficients of the third constraint P3 (degree 6; two coefficients
    divide by rho), lowest degree first (floats or jets); NaN where rho is
    NaN, as at a flat node of a batch."""
    if np.any(getattr(inv.rho, "value", inv.rho) <= 1e-300):
        raise DivisionByRho(f"rho = {inv.rho!r} at {inv.point}")
    rho, mu, phi, sigma, tau, ell = inv.rho, inv.mu, inv.phi, inv.sigma, inv.tau, inv.ell
    rlpt = rho * ell + tau * phi
    c6 = -6.0 * tau
    c5 = 18.0 * ipow(rho, 2)
    c4 = 3.0 * inv.dsigma_Y + 24.0 * rlpt - 6.0 * sigma * mu
    c3 = 13.0 * sigma * rho
    c2 = (
        (3.0 * phi - sigma / rho) * inv.dsigma_Y
        + 30.0 * mu * phi * sigma
        + 30.0 * phi * rho * ell
        + 30.0 * ipow(phi, 2) * tau
        - (3.0 * mu + tau / rho) * inv.dsigma_U
        - 10.0 * sigma * ell
        + 3.0 * rho * inv.curl_L
    )
    c1 = 25.0 * phi * sigma * rho - 2.5 * rho * inv.dsigma_U - 8.0 * ipow(sigma, 2)
    c0 = (
        -(phi * sigma / rho) * inv.dsigma_Y
        - inv.dsigma_U * (ell + phi * tau / rho)
        - inv.curl_L * sigma
    )
    return [c0, c1, c2, c3, c4, c5, c6]

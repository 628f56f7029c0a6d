"""Workload inputs and their closed-form answers.

Every family is one of the three reference structures on the flat plane
(u = 0) plus conformal rescalings g -> e^{2 omega} g drawn from the seed.
The rescaled Rho tensor is expanded here from the transformation rule

    P~_ab = P_ab - d_a d_b omega + omega_a omega_b - |d omega|^2 / 2 delta_ab

into quadratic polynomials, so the program only ever sees plain polynomial
strings.  The expected answers follow from the closed forms of the
reference structures and the conformal weight of F (F -> e^{-2 omega} F);
none of them is read from the program's output.
"""

import math
import random

import numpy as np

# Quadratic polynomials are coefficient tuples over these monomials.
MONOMIALS = ("1", "x", "y", "x*x", "x*y", "y*y")

# Rho components (P11, P12, P22) of the reference structures, all with u = 0.
BASE_RHO = {
    "spiral": ((0, 0, 0, 0, 1, 0), (0, 0, 0, -0.5, 0, 0.5), (0, 0, 0, 0, -1, 0)),
    "quadratic": ((0, 0, 0, 0.5, 0, -0.5), (0, 0, 0, 0, 1, 0), (0, 0, 0, -0.5, 0, 0.5)),
    "opposite": ((0, 0, 0, -0.5, 0, 0.5), (0, 0, 0, 0, -1, 0), (0, 0, 0, 0.5, 0, -0.5)),
}

FLAT = "Flat"
OBSTRUCTED = "Obstructed"
ADMITS = "AdmitsRealCandidate"
VANISHING = "VanishingObstructionsNoRealSolution"
INCONCLUSIVE = "Inconclusive"
TAGS = (FLAT, OBSTRUCTED, ADMITS, VANISHING, INCONCLUSIVE)

# Extra points near the flat origin, the same for every family and seed:
# distance to the flat point is what today's verdicts depend on.  Only the
# two positive axes are used: off the axes the quadratic family's answer at
# r = 1e-3 changes with omega (see CHANGES.md), which no workload may carry.
NEAR_FLAT_RADII = (1e-3, 1e-2, 1e-1)
NEAR_FLAT = tuple(p for r in NEAR_FLAT_RADII for p in ((r, 0.0), (0.0, r)))

RESCALINGS = 2  # seeded members per family, after the base structure
REL_TOL_F = 1e-7  # relative tolerance on a reconstructed F


class Member:
    """One structure of a family: omega = a x + b y + c xy + d (x^2 - y^2) + e (x^2 + y^2)."""

    def __init__(self, family, index, coeffs):
        self.family = family
        self.index = index
        self.coeffs = coeffs
        self.name = f"{family}-base" if index == 0 else f"{family}-rescaled{index}"

    def omega(self, x, y):
        a, b, c, d, e = self.coeffs
        return a * x + b * y + c * x * y + d * (x * x - y * y) + e * (x * x + y * y)

    def omega_gradient(self):
        """(d_x omega, d_y omega) as polynomials."""
        a, b, c, d, e = self.coeffs
        return (a, 2 * (d + e), c, 0, 0, 0), (b, c, 2 * (e - d), 0, 0, 0)

    def structure_sources(self):
        """Expression strings u, P11, P12, P22 of the rescaled structure."""
        a, b, c, d, e = self.coeffs
        wx, wy = self.omega_gradient()
        half_diff = _scale(0.5, _add(_mul(wx, wx), _scale(-1.0, _mul(wy, wy))))
        p11, p12, p22 = BASE_RHO[self.family]
        omega = (0, a, b, d + e, c, e - d)
        rho = (
            _add(p11, _constant(-wx[1]), half_diff),  # d_x d_x omega = wx[1]
            _add(p12, _constant(-wx[2]), _mul(wx, wy)),  # d_x d_y omega = wx[2]
            _add(p22, _constant(-wy[2]), _scale(-1.0, half_diff)),
        )
        return tuple(poly_source(p, dense=self.index > 0) for p in (omega,) + rho)


def _constant(v):
    return (v, 0, 0, 0, 0, 0)


def _add(*polys):
    return tuple(sum(cs) for cs in zip(*polys))


def _scale(k, p):
    return tuple(k * c for c in p)


def _mul(p, q):
    """Product of two polynomials of degree <= 1."""
    return (p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[0] * q[2] + p[2] * q[0],
            p[1] * q[1], p[1] * q[2] + p[2] * q[1], p[2] * q[2])


def poly_source(p, dense=False):
    """Expression string of a polynomial; ``dense`` keeps zero terms, so that
    the program's work on a rescaled member does not depend on the seed."""
    terms = [repr(float(c)) if m == "1" else f"({float(c)!r})*{m}"
             for c, m in zip(p, MONOMIALS) if dense or c != 0]
    return " + ".join(terms) if terms else "0"


def omega_coeffs(seed, index):
    """Coefficients (a, b, c, d, e) of the index-th rescaling for a seed."""
    rng = random.Random(1000 * seed + index)
    a, b = (round(rng.uniform(-0.1, 0.1), 4) for _ in range(2))
    c, d, e = (round(rng.uniform(-0.03, 0.03), 4) for _ in range(3))
    return a, b, c, d, e


def members(family, seed):
    out = [Member(family, 0, (0.0, 0.0, 0.0, 0.0, 0.0))]
    out += [Member(family, k, omega_coeffs(seed, k)) for k in range(1, RESCALINGS + 1)]
    return out


def grid_nodes(n):
    """Nodes of the n x n grid over [-2, 2]^2, in the order the program scans them."""
    xs = np.linspace(-2.0, 2.0, n)
    return [(float(x), float(y)) for x in xs for y in xs]


# ---------------------------------------------------------------------------
# closed-form answers


def expected_tag(family, x, y):
    if x == 0.0 and y == 0.0:
        return FLAT
    return {"spiral": OBSTRUCTED, "quadratic": ADMITS, "opposite": VANISHING}[family]


def check_analyze_record(member, rec):
    """True when one analyze record matches the closed form."""
    x, y = rec["x"], rec["y"]
    tag = expected_tag(member.family, x, y)
    if rec["verdict"] != tag:
        return False
    if tag == ADMITS:
        f = 2.0 * math.exp(-2.0 * member.omega(x, y))
        got = sorted(rec["f_candidates"])
        return (
            len(got) == 2
            and abs(got[0] + f) <= REL_TOL_F * f
            and abs(got[1] - f) <= REL_TOL_F * f
        )
    return True


def verify_alpha_sources(member):
    """alpha = d omega + i (y, -x) solves the opposite family (re1 re2 im1 im2)."""
    wx, wy = member.omega_gradient()
    dense = member.index > 0
    return poly_source(wx, dense), poly_source(wy, dense), "y", "-x"


def check_verify_record(member, rec):
    """True when one verify record passed with F = -2i e^{-2 omega}."""
    f = rec["F"]
    if not rec["passed"] or not isinstance(f, dict):
        return False
    expect = -2.0 * math.exp(-2.0 * member.omega(rec["x"], rec["y"]))
    return abs(f["re"]) <= REL_TOL_F * abs(expect) and abs(f["im"] - expect) <= REL_TOL_F * abs(expect)


# ---------------------------------------------------------------------------
# faults of today's program that the workloads keep (counted as failed)


def known_fault(family, x, y):
    """Label of a known fault expected at this point, or None."""
    r = math.hypot(x, y)
    if r == 0.0:
        return None
    if family == "spiral":
        if r <= 1e-3 or abs(r - 0.2) < 1e-9:
            return "F1"  # all three Sylvester gaps below tol_res_low
        if 0.01 <= r <= 0.1:
            return "F2"  # spurious real common roots, tracking grid built for nothing
    if family == "quadratic" and r <= 2e-3 and (x == 0.0 or y == 0.0):
        return "F3"  # the +-2e-3 tracking grid contains the flat origin
    return None

"""Truncated bivariate Taylor-jet arithmetic.

A jet stores the Taylor coefficients ``c[i, j] = d_x^i d_y^j f / (i! j!)`` of a
smooth function of two variables at a base point, for every ``i + j <= order``.
Sums, products, quotients and analytic-function composition act on the
coefficient vectors directly, so every partial derivative extracted from a jet
is exact for the retained orders (no finite-difference error).

Coefficients are kept in Taylor-normalized form (divided by factorials) to
keep magnitudes balanced in high-order products, and stored densely over the
triangle ``i + j <= order`` of the jet's own order, degree by degree: a
derivative, valid to one order less, keeps one degree less.

A jet with ``vec`` of shape ``(rows,)`` is a jet of one node, where
``rows = space.rows[order]``.  A jet may also carry one column of
coefficients per node, ``vec`` of shape ``(rows, N)``: every operation then
acts on the N nodes at once, and a per-node scalar is a float array of
shape ``(N,)``.  Each column goes
through exactly the float operations, in the same order, that a jet of one
node goes through, so a node's coefficients do not depend on the other
nodes of its batch.  Per-node values that the scalar path computes with the
math library (the power series of a reciprocal and of the analytic
functions exp, ln, sqrt, sin, cos and non-integer powers) are computed
value by value with it too, since numpy's vectorised functions can differ
in the last bit.

A jet does not know its point.  A :class:`JetError` says what failed;
:func:`sfmew.expr.eval_jet` adds where, as ``JetError.base``.

Jets are immutable values; every operation returns a new jet and is safe to
call concurrently.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "Jet",
    "JetSpace",
    "jet_space",
    "JetError",
    "DegenerateDivision",
    "DomainError",
    "OrderExceeded",
    "compose_series",
    "exp",
    "ln",
    "sqrt",
    "sin",
    "cos",
    "power",
    "ipow",
    "release_tables",
    "stack",
    "take",
    "values",
]


class JetError(Exception):
    """Base class for jet arithmetic failures; ``base`` is the point where
    :func:`sfmew.expr.eval_jet` met it (None from bare jet arithmetic)."""

    def __init__(self, message, base=None):
        super().__init__(message)
        self.base = base


class DegenerateDivision(JetError):
    """Division by a jet whose value at the base point is zero."""


class DomainError(JetError):
    """Analytic composition outside the function domain (ln/sqrt of <= 0), or
    with a value beyond the float range (exp of more than about 709)."""


class OrderExceeded(JetError):
    """A derivative beyond the truncation order was requested.

    Signals that the global jet order must be raised.
    """


class JetSpace:
    """Index tables for jets of a fixed truncation order.

    Holds the flat layout of the coefficient triangle plus precomputed
    gather/scatter tables for multiplication and coordinate derivatives.
    The layout goes degree by degree, so the coefficients of a jet of a
    lower order are the first ``rows[order]`` of it.  One instance is shared
    by every jet of the same truncation order (see :func:`jet_space`).
    """

    __slots__ = (
        "order",
        "size",
        "rows",
        "pairs",
        "index",
        "_mul",
        "_deriv",
    )

    def __init__(self, order):
        if order < 0:
            raise ValueError("jet order must be >= 0")
        self.order = order
        self.pairs = [(i, d - i) for d in range(order + 1) for i in range(d, -1, -1)]
        self.size = len(self.pairs)
        self.rows = [(d + 1) * (d + 2) // 2 for d in range(order + 1)]  # coefficients of degree <= d
        self.index = {p: k for k, p in enumerate(self.pairs)}

        mul_a, mul_b, mul_out = [], [], []
        for ka, (ia, ja) in enumerate(self.pairs):
            for kb, (ib, jb) in enumerate(self.pairs):
                if ia + ib + ja + jb <= order:
                    mul_a.append(ka)
                    mul_b.append(kb)
                    mul_out.append(self.index[(ia + ib, ja + jb)])
        # the product terms (ka, kb) -> out, by degree: those of a truncation
        # order are a prefix, and each output coefficient, whose terms all
        # have its degree, keeps them in enumeration order
        degree = np.array([i + j for (i, j) in self.pairs])
        by_degree = np.argsort(degree[mul_a] + degree[mul_b], kind="stable")
        terms = tuple(np.asarray(t, dtype=np.intp)[by_degree] for t in (mul_a, mul_b, mul_out))
        ends = np.searchsorted(degree[terms[2]], np.arange(order + 1), "right")
        self._mul = [tuple(t[:end] for t in terms) for end in ends]
        self._deriv = (self._deriv_tables(0), self._deriv_tables(1))

    def _deriv_tables(self, axis):
        """Source coefficient and factor of each coefficient of d/dx (axis 0) or
        d/dy, of degree below ``order``, in layout order; the factors also as a
        column, for node columns."""
        src, fac = [], []
        for (i, j) in self.pairs[: self.rows[self.order - 1]] if self.order else ():
            shifted = (i + 1, j) if axis == 0 else (i, j + 1)
            src.append(self.index[shifted])
            fac.append(shifted[axis])
        fac = np.asarray(fac, dtype=float)
        return np.asarray(src, dtype=np.intp), (fac, fac[:, None])

    def mul_vec(self, a, b, order=None):
        """Product coefficients up to ``order``; each sums its terms in
        enumeration order from 0.0.

        A coefficient of total degree d <= ``order`` takes the same terms in
        the same order whatever ``order`` is.  ``bincount`` adds the weights
        one by one in the order given, so on node columns, flattened term by
        term, every column sums its terms as a single jet does.
        """
        trunc = self.order if order is None else order
        mul_a, mul_b, mul_out = self._mul[trunc]
        prod = a[mul_a]
        prod *= b[mul_b]
        rows = self.rows[trunc]
        if prod.ndim == 1:
            return np.bincount(mul_out, weights=prod, minlength=rows)
        n = prod.shape[1]
        return np.bincount(
            _column_bins(self, n)[: prod.size], weights=prod.ravel(), minlength=rows * n
        ).reshape(rows, n)


@lru_cache(maxsize=4)  # the widths of a batch: all nodes, the non-flat ones, the branch, a lift
def _column_bins(space, n):
    """Output bin of each (term, node) product of ``n`` node columns, term-major.

    The terms go by degree, so the bins of a truncation order are a prefix:
    one table serves every order at a width.
    """
    return (space._mul[space.order][2][:, None] * n + np.arange(n)).ravel()


def release_tables():
    """Free the index tables of products on node columns; a scan calls this when
    it is done, so that its widths' tables do not outlive it."""
    _column_bins.cache_clear()


@lru_cache(maxsize=None)
def jet_space(order):
    return JetSpace(order)


class Jet:
    """Truncated Taylor expansion of a scalar at one node, or at N nodes."""

    __slots__ = ("space", "vec", "order")
    __array_ufunc__ = None  # ndarray op jet defers to the jet's reflected method

    def __init__(self, space, vec, order=None):
        self.space = space
        self.vec = vec
        self.order = space.order if order is None else order

    @classmethod
    def constant(cls, space, value):
        """Constant jet; a value array of shape (N,) gives one column per node."""
        vec = np.zeros((space.size,) + np.shape(value))
        vec[0] = value
        return cls(space, vec)

    @classmethod
    def variable(cls, space, axis, value):
        """Jet of the coordinate function x (axis 0) or y (axis 1); a value
        array of shape (N,) gives one column per node."""
        vec = np.zeros((space.size,) + (value.shape if isinstance(value, np.ndarray) else ()))
        vec[0] = value
        if space.order >= 1:
            vec[space.index[(1, 0) if axis == 0 else (0, 1)]] = 1.0
        return cls(space, vec)

    @property
    def value(self):
        return self.vec[0]

    def take(self, cols):
        """The jet at some of its nodes (repeats allowed); a one-node jet is node 0."""
        vec = self.vec if self.vec.ndim == 2 else self.vec[:, None]
        return Jet(self.space, vec[:, cols], self.order)

    def coeff(self, i, j):
        """Taylor-normalized coefficient for the (i, j) monomial."""
        if i < 0 or j < 0 or i + j > self.order:
            raise OrderExceeded(f"coefficient ({i},{j}) beyond order {self.order}")
        return self.vec[self.space.index[(i, j)]]

    def partial(self, i, j):
        """Value of d_x^i d_y^j at the base point (coefficient times i! j!)."""
        if i + j > self.order:
            raise OrderExceeded(
                f"partial ({i},{j}) requested from a jet valid to order {self.order}; "
                "raise the jet order"
            )
        return self.coeff(i, j) * math.factorial(i) * math.factorial(j)

    def d_dx(self):
        return self._derivative(0)

    def d_dy(self):
        return self._derivative(1)

    def _derivative(self, axis):
        if self.order < 1:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        src, fac = self.space._deriv[axis]
        rows = self.space.rows[self.order - 1]
        return Jet(self.space, self.vec[src[:rows]] * fac[self.vec.ndim - 1][:rows], self.order - 1)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jets have different truncation orders")
            return other
        if isinstance(other, (int, float)) or (
            isinstance(other, np.ndarray) and other.dtype != object
        ):
            return None  # scalar fast path (an array holds one scalar per node)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            vec = self.vec.copy()
            vec[0] += other
            return Jet(self.space, vec, self.order)
        a, b, order = _common(self, o)
        return Jet(self.space, a + b, order)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            vec = self.vec.copy()
            vec[0] -= other
            return Jet(self.space, vec, self.order)
        a, b, order = _common(self, o)
        return Jet(self.space, a - b, order)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(self.space, -self.vec, self.order)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet(self.space, self.vec * other, self.order)
        order = min(self.order, o.order)
        vec = self.space.mul_vec(self.vec, o.vec, order)
        return Jet(self.space, vec, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o is None:
            return Jet(self.space, self.vec / other, self.order)
        return self * _reciprocal(o)

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return power(self, exponent)

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.vec[0]!r})"


def _common(a, b):
    """The coefficients of two jets at the lower of their orders, and that order."""
    if a.order == b.order:
        return a.vec, b.vec, a.order
    order = min(a.order, b.order)
    rows = a.space.rows[order]
    return a.vec[:rows], b.vec[:rows], order


def _reciprocal(j):
    v = j.value
    if (v == 0.0).any():
        raise DegenerateDivision("division by a jet with zero value")
    series = [(-1.0) ** k / ipow(v, k + 1) for k in range(j.order + 1)]
    return compose_series(series, j)


def ipow(x, n):
    """``x ** n`` for an integer n, of a float, a jet or a node array.

    A node array goes value by value through the math library's ``pow``,
    as a single float does.  A float power beyond the float range is an
    infinity of the power's sign, not an ``OverflowError``.
    """
    if isinstance(x, np.ndarray):
        return np.array([_float_pow(t, n) for t in x.tolist()])
    if isinstance(x, Jet):
        return x**n
    return _float_pow(x, n)


def _float_pow(t, n):
    try:
        return t**n
    except OverflowError:
        return -math.inf if t < 0.0 and n % 2 else math.inf


def stack(trees):
    """Jets, or nested lists of them, side by side as node columns: the nodes
    of each in turn, a jet of one node giving one column."""
    first = trees[0]
    if isinstance(first, Jet):
        cols = [j.vec.reshape(len(j.vec), -1) for j in trees]
        return Jet(first.space, np.concatenate(cols, axis=1), first.order)
    return [stack([t[k] for t in trees]) for k in range(len(first))]


def values(tree):
    """Node values of a jet, or of nested lists of jets, node axis last.

    A jet of one node gives one node, so that every value array has a node axis.
    """
    if isinstance(tree, list):
        return np.array([values(t) for t in tree])
    return tree.vec[:1].reshape(-1)


def take(tree, cols):
    """A jet, node array or nested list of them at some of its nodes.

    Floats, which hold for every node, pass through.
    """
    if isinstance(tree, Jet):
        return tree.take(cols)
    if isinstance(tree, np.ndarray):
        return tree[..., cols]
    if isinstance(tree, list):
        return [take(t, cols) for t in tree]
    return tree


def compose_series(series, g):
    """Compose an analytic univariate function with a jet.

    ``series`` holds Taylor coefficients of f about ``g.value`` (length at
    least ``g.order + 1``); returns the jet of f(g) at the same truncation.
    Horner evaluation on the nilpotent part of ``g``.
    """
    n = g.order
    if len(series) < n + 1:
        raise ValueError(f"series too short: need {n + 1} coefficients, got {len(series)}")
    shifted = g.vec.copy()
    shifted[0] = 0.0
    s = Jet(g.space, shifted, g.order)
    acc = Jet(g.space, np.zeros(g.vec.shape), g.order)
    acc.vec[0] = series[n]
    for c in series[n - 1 :: -1]:
        acc = acc * s + c
    return acc


def _series(taylor, j, *args):
    """The Taylor coefficients ``taylor(v, order, *args)`` gives at the value v
    of ``j``: on node columns, node value by node value, each a node array."""
    v = j.value
    if not isinstance(v, np.ndarray):
        return taylor(v, j.order, *args)
    return [np.array(c) for c in zip(*(taylor(t, j.order, *args) for t in v))]


def _exp_series(v, order):
    try:
        term = math.exp(v)
    except OverflowError:
        raise DomainError(f"exp of {float(v)!r} beyond the float range") from None
    series = []
    for k in range(order + 1):
        series.append(term)
        term /= k + 1
    return series


def _ln_series(v, order):
    if v <= 0.0:
        raise DomainError(f"ln of nonpositive value {float(v)!r}")
    series = [math.log(v)]
    for k in range(1, order + 1):
        series.append((-1.0) ** (k - 1) / (k * v**k))
    return series


def _sqrt_series(v, order):
    if v <= 0.0:
        raise DomainError(f"sqrt of nonpositive value {float(v)!r}")
    series, c = [], math.sqrt(v)
    for k in range(order + 1):
        series.append(c)
        c *= (0.5 - k) / ((k + 1) * v)
    return series


def _trig_series(v, order, phase):
    series, fact = [], 1.0
    for k in range(order + 1):
        series.append(math.sin(v + phase + k * math.pi / 2.0) / fact)
        fact *= k + 1
    return series


def _power_series(v, order, exponent):
    if v <= 0.0:
        raise DomainError(f"non-integer power of nonpositive value {float(v)!r}")
    series, c = [], v**exponent
    for k in range(order + 1):
        series.append(c)
        c *= (exponent - k) / ((k + 1) * v)
    return series


def exp(j):
    return compose_series(_series(_exp_series, j), j)


def ln(j):
    return compose_series(_series(_ln_series, j), j)


def sqrt(j):
    return compose_series(_series(_sqrt_series, j), j)


def sin(j):
    return compose_series(_series(_trig_series, j, 0.0), j)


def cos(j):
    return compose_series(_series(_trig_series, j, math.pi / 2.0), j)


def power(j, exponent):
    """Raise a jet to a real power.

    Integer exponents work for any base value (negative exponents require a
    nonzero value); non-integer exponents require a positive value.
    """
    if isinstance(exponent, int) or float(exponent).is_integer():
        n = int(exponent)
        if n < 0:
            return _reciprocal(_int_power(j, -n))
        return _int_power(j, n)
    return compose_series(_series(_power_series, j, exponent), j)


def _int_power(j, n):
    if n == 0:
        one = Jet(j.space, np.zeros(j.vec.shape), j.order)
        one.vec[0] = 1.0
        return one
    result = None
    b = j
    while True:
        if n & 1:
            result = b if result is None else result * b
        n >>= 1
        if n == 0:
            return result
        b = b * b

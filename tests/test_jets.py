import math
import random

import numpy as np
import pytest

from sfmew import jets
from sfmew.jets import (
    DegenerateDivision,
    DomainError,
    Jet,
    OrderExceeded,
    compose_series,
    ipow,
    jet_space,
)

from oracles import fd_partial, poly_add, poly_const, poly_mul, poly_shift, poly_var


def jet_of_poly(p, x0, y0, order):
    """Evaluate a coefficient-dict polynomial as a jet via jet arithmetic."""
    sp = jet_space(order)
    acc = Jet.constant(sp, 0.0)
    for (i, j), c in p.items():
        term = Jet.constant(sp, c)
        for _ in range(i):
            term = term * Jet.variable(sp, 0, x0)
        for _ in range(j):
            term = term * Jet.variable(sp, 1, y0)
        acc = acc + term
    return acc


def test_product_of_linear_factors():
    sp = jet_space(2)
    x = Jet.variable(sp, 0, 0.0)
    one = Jet.constant(sp, 1.0)
    prod = (one + x) * (one - x)
    assert prod.coeff(0, 0) == 1.0
    assert prod.coeff(1, 0) == 0.0
    assert prod.coeff(2, 0) == -1.0
    assert prod.coeff(0, 1) == 0.0 and prod.coeff(1, 1) == 0.0 and prod.coeff(0, 2) == 0.0


def test_constant_division():
    sp = jet_space(3)
    q = Jet.constant(sp, 3.0) / Jet.constant(sp, 2.0)
    assert q.value == 1.5
    assert np.all(q.vec[1:] == 0.0)


def test_cubic_against_naive_expansion():
    # (x + y)^2 (x - y) at (0.5, 0.25), all order-3 coefficients
    x0, y0 = 0.5, 0.25
    s = poly_add(poly_var(0), poly_var(1))
    d = poly_add(poly_var(0), poly_mul(poly_const(-1), poly_var(1)))
    p = poly_mul(poly_mul(s, s), d)
    expected = poly_shift(p, x0, y0)

    sp = jet_space(3)
    x, y = Jet.variable(sp, 0, x0), Jet.variable(sp, 1, y0)
    j = (x + y) * (x + y) * (x - y)
    for (i, k) in sp.pairs:
        assert j.coeff(i, k) == pytest.approx(expected.get((i, k), 0.0), abs=1e-14)


def test_division_by_zero_value_raises():
    sp = jet_space(2)
    x = Jet.variable(sp, 0, 0.0)
    with pytest.raises(DegenerateDivision):
        Jet.constant(sp, 1.0) / x


def test_compose_exp_series():
    sp = jet_space(3)
    x = Jet.variable(sp, 0, 0.0)
    e = jets.exp(x)
    assert e.coeff(0, 0) == pytest.approx(1.0)
    assert e.coeff(1, 0) == pytest.approx(1.0)
    assert e.coeff(2, 0) == pytest.approx(0.5)
    assert e.coeff(3, 0) == pytest.approx(1.0 / 6.0)


def test_sqrt_of_constant():
    sp = jet_space(4)
    r = jets.sqrt(Jet.constant(sp, 4.0))
    assert r.value == pytest.approx(2.0)
    assert np.allclose(r.vec[1:], 0.0)


def test_sqrt_and_ln_domain_errors():
    sp = jet_space(2)
    with pytest.raises(DomainError):
        jets.sqrt(Jet.constant(sp, -1.0))
    with pytest.raises(DomainError):
        jets.ln(Jet.constant(sp, 0.0))


def test_sin_product_against_finite_differences():
    x0, y0 = 0.3, 0.7
    sp = jet_space(4)
    j = jets.sin(Jet.variable(sp, 0, x0) * Jet.variable(sp, 1, y0))
    f = lambda x, y: math.sin(x * y)
    for (i, k) in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
        got = j.partial(i, k)
        ref = fd_partial(f, x0, y0, i, k)
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_extract_values_and_partials():
    sp = jet_space(2)
    x, y = Jet.variable(sp, 0, 1.0), Jet.variable(sp, 1, 2.0)
    j = x * x + y * y
    assert j.partial(0, 0) == pytest.approx(5.0)
    assert j.partial(1, 0) == pytest.approx(2.0)
    assert j.partial(0, 1) == pytest.approx(4.0)
    assert j.partial(2, 0) == pytest.approx(2.0)


def test_extract_order_exceeded():
    sp = jet_space(2)
    j = Jet.variable(sp, 0, 1.0)
    with pytest.raises(OrderExceeded):
        j.partial(2, 1)
    d = j.d_dx()  # logical order drops to 1
    with pytest.raises(OrderExceeded):
        d.partial(1, 1)


def test_exp_sum_mixed_partial():
    sp = jet_space(4)
    j = jets.exp(Jet.variable(sp, 0, 0.0) + Jet.variable(sp, 1, 0.0))
    # all partials of exp(x + y) at the origin equal 1
    assert j.partial(2, 2) == pytest.approx(1.0)


def test_distributivity_ring_law():
    rng = np.random.default_rng(7)
    sp = jet_space(6)
    for _ in range(20):
        a, b, c = (Jet(sp, rng.uniform(-1, 1, sp.size)) for _ in range(3))
        lhs = a * (b + c)
        rhs = a * b + a * c
        scale = max(np.max(np.abs(lhs.vec)), 1.0)
        assert np.max(np.abs(lhs.vec - rhs.vec)) < 1e-12 * scale


def test_derivative_shift_consistency():
    sp = jet_space(5)
    x, y = Jet.variable(sp, 0, 0.4), Jet.variable(sp, 1, -0.2)
    j = jets.exp(x * y)
    dj = j.d_dx()
    assert dj.order == 4
    assert dj.value == pytest.approx(j.partial(1, 0))
    assert dj.partial(0, 1) == pytest.approx(j.partial(1, 1))


def test_integer_power_matches_repeated_multiplication():
    sp = jet_space(4)
    x = Jet.variable(sp, 0, 1.3)
    assert np.allclose(jets.power(x, 4).vec, (x * x * x * x).vec)
    inv2 = jets.power(x, -2)
    assert inv2.value == pytest.approx(1.3**-2)


def test_real_power_series():
    sp = jet_space(3)
    x = Jet.variable(sp, 0, 2.0)
    p = jets.power(x, 0.5)
    f = lambda xx, yy: math.sqrt(xx)
    assert p.partial(1, 0) == pytest.approx(fd_partial(f, 2.0, 0.0, 1, 0), rel=1e-7)


def test_compose_series_short_series_rejected():
    sp = jet_space(3)
    with pytest.raises(ValueError):
        compose_series([1.0, 1.0], Jet.variable(sp, 0, 0.0))


def test_mixed_order_operands_rejected():
    a = Jet.constant(jet_space(3), 1.0)
    b = Jet.constant(jet_space(4), 1.0)
    with pytest.raises(ValueError):
        a + b


def test_polynomial_exactness_random():
    # jets of random polynomials reproduce shifted expansion coefficients exactly
    rng = random.Random(11)
    for _ in range(10):
        p = poly_const(rng.uniform(-2, 2))
        for _ in range(rng.randrange(1, 5)):
            term = poly_const(rng.uniform(-2, 2))
            for _ in range(rng.randrange(0, 3)):
                term = poly_mul(term, poly_var(rng.randrange(2)))
            p = poly_add(p, term)
        x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        j = jet_of_poly(p, x0, y0, 6)
        expected = poly_shift(p, x0, y0)
        for (i, k) in jet_space(6).pairs:
            assert j.coeff(i, k) == pytest.approx(expected.get((i, k), 0.0), abs=1e-12)


def test_ipow_beyond_the_float_range_is_a_signed_inf():
    # Python's float ** raises OverflowError; ipow gives the power's infinity
    assert ipow(1e200, 2) == math.inf
    assert ipow(-1e200, 3) == -math.inf
    assert ipow(-1e200, 2) == math.inf
    assert ipow(1e-200, -2) == math.inf
    assert ipow(np.array([1e200, -1e200, 3.0]), 3).tolist() == [math.inf, -math.inf, 27.0]


def test_exp_beyond_the_float_range_is_a_domain_error():
    sp = jet_space(2)
    with pytest.raises(DomainError, match=r"^exp of 800\.0 beyond the float range$"):
        jets.exp(Jet.constant(sp, np.array([1.0, 800.0])))
    assert jets.exp(Jet.constant(sp, -800.0)).value == 0.0  # underflow is no error


def test_domain_errors_print_node_values_as_plain_floats():
    sp = jet_space(2)
    node_values = Jet.constant(sp, np.array([4.0, -1.0]))
    for func, name in ((jets.sqrt, "sqrt"), (jets.ln, "ln"), (lambda j: jets.power(j, 0.5),
                                                            "non-integer power")):
        with pytest.raises(DomainError) as err:
            func(node_values)
        assert str(err.value) == f"{name} of nonpositive value -1.0"


def test_a_jet_keeps_the_coefficients_of_its_own_order():
    rng = np.random.default_rng(3)
    sp = jet_space(6)
    a, b = (Jet(sp, rng.uniform(-1, 1, (sp.size, 5))) for _ in range(2))
    da = a.d_dx()
    assert da.order == 5 and da.vec.shape == (sp.rows[5], 5)
    dda = da.d_dy()
    assert dda.order == 4 and dda.vec.shape == (sp.rows[4], 5)
    # mixed orders truncate to the lower one, and give its leading coefficients
    for lower in (a + dda, a - dda, a * dda, dda * a):
        assert lower.order == 4 and lower.vec.shape == (sp.rows[4], 5)
    assert np.array_equal((a * dda).vec, sp.mul_vec(a.vec, dda.vec, 4))
    # a truncated product is the leading part of the full one, bit for bit
    for trunc in range(7):
        assert np.array_equal(sp.mul_vec(a.vec, b.vec, trunc), (a * b).vec[: sp.rows[trunc]])
    with pytest.raises(OrderExceeded):
        dda.coeff(3, 2)

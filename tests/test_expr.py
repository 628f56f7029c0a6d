import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfmew.expr import (
    BinOp,
    Call,
    ExprSyntaxError,
    Neg,
    Num,
    Pow,
    UnknownIdentifier,
    Var,
    differentiate,
    eval_jet,
    eval_value,
    parse,
    to_source,
)
from sfmew import jets
from sfmew.jets import DegenerateDivision, DomainError, Jet, jet_space

from oracles import fd_partial, random_expression


def test_parse_sum_of_squares():
    e = parse("x*x + y*y")
    assert e == BinOp("+", BinOp("*", Var("x"), Var("x")), BinOp("*", Var("y"), Var("y")))


def test_exponent_binds_tighter_than_unary_minus():
    assert parse("-x^2") == Neg(Pow(Var("x"), 2))


def test_incomplete_input_reports_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x + ")
    assert err.value.pos == 4
    assert err.value.expected


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as err:
        parse("x + z")
    assert err.value.name == "z"
    assert err.value.pos == 4


def test_precedence_and_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", Num(1.0), Num(2.0)), Num(3.0))
    assert parse("2 * x + y") == BinOp("+", BinOp("*", Num(2.0), Var("x")), Var("y"))
    assert parse("2 ^ 3") == Pow(Num(2.0), 3)
    assert parse("pi") == Num(math.pi)


def test_pow_requires_integer_exponent():
    with pytest.raises(ExprSyntaxError):
        parse("x^y")
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5")
    assert parse("x^-2") == Pow(Var("x"), -2)


def test_call_arity():
    with pytest.raises(ExprSyntaxError):
        parse("sin(x, y)")
    with pytest.raises(ExprSyntaxError):
        parse("pow(x)")
    assert parse("pow(x, 2)") == Call("pow", (Var("x"), Num(2.0)))


def test_eval_basic_partials():
    j = eval_jet(parse("x*x + y*y"), (1.0, 2.0), 2)
    assert j.partial(0, 0) == pytest.approx(5.0)
    assert j.partial(1, 0) == pytest.approx(2.0)
    assert j.partial(0, 1) == pytest.approx(4.0)
    assert j.partial(2, 0) == pytest.approx(2.0)
    assert j.partial(1, 1) == pytest.approx(0.0)


def test_eval_constant_one():
    j = eval_jet(parse("1"), (3.7, -0.2), 4)
    assert j.value == 1.0
    assert all(j.coeff(i, k) == 0.0 for (i, k) in j.space.pairs if (i, k) != (0, 0))


def test_eval_exp_mixed_partial_vs_fd():
    j = eval_jet(parse("exp(x*y)"), (0.2, 0.4), 3)
    ref = fd_partial(lambda x, y: math.exp(x * y), 0.2, 0.4, 1, 1)
    assert j.partial(1, 1) == pytest.approx(ref, rel=1e-6)


def test_eval_order_zero_is_pointwise():
    src = "sin(x) * exp(y) - 3 / (1 + x*x)"
    x, y = 0.3, -0.7
    assert eval_value(parse(src), x, y) == pytest.approx(
        math.sin(x) * math.exp(y) - 3 / (1 + x * x)
    )


def test_eval_domain_error_carries_position_and_base():
    with pytest.raises(DomainError) as err:
        eval_jet(parse("ln(x - 2)"), (1.0, 0.0), 2)
    assert err.value.base == (1.0, 0.0)
    assert "offset 0" in str(err.value)


def test_eval_degenerate_division_carries_base():
    with pytest.raises(DegenerateDivision) as err:
        eval_jet(parse("1 / (x - 1)"), (1.0, 5.0), 2)
    assert err.value.base == (1.0, 5.0)


def test_pow_call_with_constant_and_variable_exponents():
    j = eval_jet(parse("pow(x, 3)"), (1.5, 0.0), 2)
    assert j.value == pytest.approx(1.5**3)
    j2 = eval_jet(parse("pow(x, y)"), (2.0, 1.5), 2)
    assert j2.value == pytest.approx(2.0**1.5)
    ref = fd_partial(lambda x, y: x**y, 2.0, 1.5, 0, 1)
    assert j2.partial(0, 1) == pytest.approx(ref, rel=1e-6)


def _random_ast(rng, depth):
    if depth == 0:
        return rng.choice([Var("x"), Var("y"), Num(float(f"{rng.uniform(0, 9):.3f}"))])
    kind = rng.randrange(7)
    a = _random_ast(rng, depth - 1)
    b = _random_ast(rng, depth - 1)
    if kind < 4:
        return BinOp("+-*/"[kind], a, b)
    if kind == 4:
        return Neg(a)
    if kind == 5:
        return Pow(a, rng.randrange(-3, 4))
    return Call(rng.choice(["sin", "cos", "exp", "ln", "sqrt"]), (a,))


def _eval_unfolded(e, base, order):
    """Reference evaluator: every number is a constant jet and every
    operation is jet arithmetic (no constant folding)."""
    space = jet_space(order)
    funcs = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "ln": jets.ln, "sqrt": jets.sqrt}

    def ev(node):
        if isinstance(node, Num):
            return Jet.constant(space, node.value)
        if isinstance(node, Var):
            axis = 0 if node.name == "x" else 1
            return Jet.variable(space, axis, base[axis])
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, BinOp):
            a, b = ev(node.left), ev(node.right)
            return {"+": a + b, "-": a - b, "*": a * b}[node.op] if node.op != "/" else a / b
        if isinstance(node, Pow):
            return jets.power(ev(node.base), node.exponent)
        args = [ev(a) for a in node.args]
        if node.func != "pow":
            return funcs[node.func](args[0])
        if not args[1].vec[1:].any():
            return jets.power(args[0], args[1].value)
        return jets.exp(args[1] * jets.ln(args[0]))

    return ev(e)


# dense quadratic strings as the benchmark writes rescaled structures, and
# constant subtrees of every kind
FOLDING_CASES = [
    "0.0 + (-0.0853)*x + (-0.0241)*y + (-0.0028000000000000004)*x*x + (0.0119)*x*y"
    " + (-0.0228)*y*y",
    "0.00894764 + (0.0007644700000000002)*x + (-0.0021140300000000002)*y"
    " + (0.499944875)*x*x + (0.000476)*x*y + (-0.500968875)*y*y",
    "-0.0003594750000000019 + (0.00522131)*x + (-0.0009031000000000002)*y"
    " + (-0.504505455)*x*x + (0.0009348)*x*y + (0.499959375)*y*y",
    "(x*x - y*y)/2",
    "-(x*y) + 1",
    "x/3 - 1/3*y + (2/3)*x*y",
    "(2*3 - 1)*x/(4 - 2) - -(-y)",
    "pow(x, 2) + pow(2, 3)*y + pow(x + 2, 0.5) + pow(1.5, x) + pow(2, -(-1))",
    "x^-2 + 2^-3 + (1 + 2)^2*y",
    "sin(1)*x + cos(2/3)*exp(y) - sqrt(2)*ln(3) + exp(-(1 - 1))",
    "3 - x + (0 - 0)*y - (1 - 1) + x*(-(2*0))",
    "(1 + 2)*(3 - 4)/5",
    "(-2)*x",
    "x/(-3) - y*y",
    "(-1)/(x + 2) - y",
]


@pytest.mark.parametrize("source", FOLDING_CASES)
def test_constant_folding_is_bit_identical(source):
    e = parse(source)
    for base in [(0.3, -0.7), (1.2, 0.4), (-0.5, 1e-3)]:
        folded = eval_jet(e, base, 6)
        reference = _eval_unfolded(e, base, 6)
        assert folded.vec.tobytes() == reference.vec.tobytes(), base


def test_roundtrip_parse_print_parse():
    rng = random.Random(23)
    for _ in range(300):
        ast = _random_ast(rng, rng.randrange(1, 5))
        printed = to_source(ast)
        assert parse(printed) == ast, printed


def test_roundtrip_from_source_strings():
    rng = random.Random(5)
    for _ in range(100):
        src = random_expression(rng, 3)
        first = parse(src)
        assert parse(to_source(first)) == first


def test_differentiate_product_rule():
    e = parse("x*x*y")
    dx = differentiate(e, "x")
    # value check at a few points against finite differences
    for (x, y) in [(0.3, 1.2), (-1.1, 0.4)]:
        ref = fd_partial(lambda xx, yy: xx * xx * yy, x, y, 1, 0)
        assert eval_value(dx, x, y) == pytest.approx(ref, rel=1e-6)


def test_differentiate_functions_and_quotients():
    rng = random.Random(31)
    for _ in range(30):
        src = random_expression(rng, 3)
        e = parse(src)
        for var, idx in (("x", (1, 0)), ("y", (0, 1))):
            de = differentiate(e, var)
            x, y = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
            ref = fd_partial(lambda xx, yy: eval_value(e, xx, yy), x, y, *idx)
            got = eval_value(de, x, y)
            assert got == pytest.approx(ref, rel=2e-5, abs=2e-5)


# analytic functions, powers, and a pow() whose exponent has no derivatives
# at some nodes only ((x - 0.3)^7 vanishes to order 6 at x = 0.3)
NODE_CASES = FOLDING_CASES + [
    "exp(x*y) - exp(2)*x + exp(y - 1)",
    "ln(x + 3) + ln(2 + y*y) - ln(2)*x",
    "sqrt(x*x + y*y + 1) + sqrt(3)",
    "sin(x)*cos(y) + sin(2*x - y) - cos(1/2)",
    "pow(x + 3, 0.5) + pow(y + 3, x) + pow(2, y)",
    "pow(2 + y*y, (x - 0.3)^7) + pow(x + 3, 1 + y - y)",
    "x^-3 + (y + 2)^-2 - (x*y + 4)^-1",
]
NODES = [(0.3, -0.7), (1.2, 0.4), (-0.5, 1e-3), (0.3, 0.5)]


def node_arrays(points):
    """The node arrays (xs, ys) of a batch of points, as a stacked frame holds them."""
    return tuple(np.array(axis) for axis in zip(*points))


@pytest.mark.parametrize("source", NODE_CASES)
def test_node_columns_are_the_jets_of_the_points(source):
    e = parse(source)
    for order in (0, 4, 6):
        batch = eval_jet(e, node_arrays(NODES), order)
        assert batch.vec.shape == (jet_space(order).size, len(NODES))
        for i, point in enumerate(NODES):
            alone = eval_jet(e, point, order)
            assert batch.vec[:, i].tobytes() == alone.vec.tobytes(), (order, point)
            assert batch.order == alone.order


@pytest.mark.parametrize("source, bad", [
    ("ln(x - 2) + y", (1.0, 0.0)),
    ("sqrt(x) * y", (-1.0, 0.0)),
    ("1 / (x - 1) + exp(y)", (1.0, 5.0)),
    ("pow(x, 0.5) + x^-1", (-2.0, 1.0)),
])
def test_node_column_domain_error_is_that_of_the_first_failing_point(source, bad):
    e = parse(source)
    with pytest.raises(jets.JetError) as alone:
        eval_jet(e, bad, 4)
    with pytest.raises(jets.JetError) as batch:
        eval_jet(e, node_arrays([(3.0, 0.5), bad, (4.0, -1.0), (-5.0, 2.0), (1.0, 0.0)]), 4)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)
    assert batch.value.base == alone.value.base == bad


# -- products of polynomial subtrees ----------------------------------------------

# coefficients of every kind: signed zeros, subnormal and tiny, huge, and infinite
_COEFFS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, -1e-300, 1e300, -1e308, math.inf,
                           -math.inf, 1.0, -2.5]) | st.floats(-10.0, 10.0)


@st.composite
def polynomials(draw, degree):
    """A polynomial expression of degree at most ``degree`` in x and y."""
    kind = draw(st.sampled_from(["leaf", "sum", "product", "neg", "power"]))
    if kind == "leaf" or (kind == "product" and degree < 2) or (kind == "power" and degree < 2):
        return draw(st.sampled_from([Var("x"), Var("y")]) if degree else st.nothing()
                    | _COEFFS.map(Num))
    if kind == "sum":
        return BinOp(draw(st.sampled_from("+-")), draw(polynomials(degree - 1)),
                     draw(polynomials(degree)))
    if kind == "neg":
        return Neg(draw(polynomials(degree)))
    if kind == "power":
        return Pow(draw(polynomials(1)), draw(st.integers(0, degree)))
    low = draw(st.integers(1, degree - 1))
    return BinOp("*", draw(polynomials(low)), draw(polynomials(degree - low)))


_BASES = st.sampled_from([0.3, -0.7, 0.0, -0.0, 1e-200, 1e200, -3.0])


@given(e=polynomials(3), xs=st.lists(_BASES, min_size=1, max_size=4),
       ys=st.lists(_BASES, min_size=4, max_size=4), order=st.sampled_from([3, 4, 6]))
@settings(max_examples=300, deadline=None)
def test_sparse_polynomial_products_are_the_dense_ones(e, xs, ys, order):
    # products that skip the terms with a zero factor keep every bit of the dense
    # products; where a coefficient is not finite they are the dense ones
    base = (np.array(xs), np.array(ys[: len(xs)]))
    with np.errstate(all="ignore"):
        sparse = [eval_jet(e, base, order), eval_jet(e, (xs[0], ys[0]), order)]
        with mock.patch.object(jets, "poly_product", lambda a, b, degrees: a * b):
            dense = [eval_jet(e, base, order), eval_jet(e, (xs[0], ys[0]), order)]
    for got, want in zip(sparse, dense):
        assert got.vec.tobytes() == want.vec.tobytes(), to_source(e)


def test_products_of_polynomial_subtrees_are_sparse():
    # a product of two polynomial factors takes the sparse product, which on
    # affine factors sums 9 of the 70 terms of an order-4 product
    calls, product = [], jets.poly_product

    def recorded(a, b, degrees):
        calls.append(degrees)
        return product(a, b, degrees)

    with mock.patch.object(jets, "poly_product", recorded):
        eval_jet(parse("(0.5)*x*x + (2 - y)*(x + 1) + exp(x)*y + (x*y)^2*x"), (0.3, 0.4), 4)
    assert calls == [(1, 1), (1, 1), (1, 1), (4, 1)]
    space = jet_space(4)
    assert len(space._mul[4][0]) == 70 and len(space._sparse_terms(4, 1, 1)[0]) == 9

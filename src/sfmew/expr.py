"""Parser, printer, differentiator and jet evaluator for planar scalar fields.

Expressions are written in the coordinates ``x`` and ``y`` with the constant
``pi`` predefined.  Grammar (EBNF)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" integer)?
    atom   := number | "x" | "y" | "pi" | ident "(" expr ("," expr)? ")" | "(" expr ")"

``^`` takes a literal integer exponent and binds tighter than unary minus.
Functions: sin, cos, exp, ln, sqrt, pow.  ASTs are immutable; evaluation is
re-entrant.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import jets
from .jets import Jet, jet_space

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifier",
    "parse",
    "to_source",
    "eval_jet",
    "eval_value",
    "differentiate",
]

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "ln": 1, "sqrt": 1, "pow": 2}


class ExprError(Exception):
    def __init__(self, message, pos=-1):
        super().__init__(message)
        self.pos = pos


class ExprSyntaxError(ExprError):
    def __init__(self, message, pos, expected=()):
        super().__init__(message, pos)
        self.expected = tuple(expected)


class UnknownIdentifier(ExprError):
    def __init__(self, name, pos):
        super().__init__(f"unknown identifier {name!r} at offset {pos}", pos)
        self.name = name


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Expr"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*", "/"
    left: "Expr"
    right: "Expr"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    pos: int = field(default=-1, compare=False)


Expr = Num | Var | Neg | BinOp | Pow | Call


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPERATOR_CHARS = "+-*/^(),"


def _tokenize(source):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            tokens.append(("num", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at offset {i}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.cursor = 0

    def peek(self):
        return self.tokens[self.cursor]

    def advance(self):
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok

    def expect(self, kind, expected):
        tok = self.peek()
        if tok[0] != kind:
            self.fail(expected)
        return self.advance()

    def fail(self, expected):
        kind, text, pos = self.peek()
        found = text if kind != "end" else "end of input"
        raise ExprSyntaxError(
            f"syntax error at offset {pos}: expected {', '.join(expected)}, found {found!r}",
            pos,
            expected,
        )

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            self.fail(("operator", "end of input"))
        return e

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.factor(), pos)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            _, _, pos = self.advance()
            return Neg(self.factor(), pos)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            kind, text, tpos = self.peek()
            if kind != "num" or not text.isdigit():
                self.fail(("integer exponent",))
            self.advance()
            node = Pow(node, sign * int(text), pos)
        return node

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text), pos)
        if kind == "ident":
            self.advance()
            if text in ("x", "y"):
                return Var(text, pos)
            if text == "pi":
                return Num(math.pi, pos)
            if text in FUNCTIONS:
                self.expect("(", ("'('",))
                args = [self.expr()]
                if self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                if self.peek()[0] != ")":
                    self.fail(("')'", "','"))
                self.advance()
                if len(args) != FUNCTIONS[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args), pos)
            raise UnknownIdentifier(text, pos)
        if kind == "(":
            self.advance()
            node = self.expr()
            if self.peek()[0] != ")":
                self.fail(("')'",))
            self.advance()
            return node
        self.fail(("number", "'x'", "'y'", "'pi'", "function", "'('", "'-'"))


def parse(source):
    """Parse an expression string into an AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e):
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def to_source(e):
    """Render an AST back to a parsable string (round-trip stable)."""
    if isinstance(e, Num):
        if e.value < 0 or (e.value == 0 and math.copysign(1.0, e.value) < 0):
            return "-" + _wrap(Num(-e.value), _PREC_NEG)
        return repr(e.value) if e.value != int(e.value) else str(int(e.value))
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_NEG)
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        left = _wrap(e.left, prec, strict=False)
        right = _wrap(e.right, prec, strict=True)
        return f"{left} {e.op} {right}"
    if isinstance(e, Pow):
        base = to_source(e.base)
        if not isinstance(e.base, (Num, Var, Call)) or (
            isinstance(e.base, Num) and base.startswith("-")
        ):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_source(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e, prec, strict=True):
    s = to_source(e)
    inner = _prec(e)
    if inner < prec or (strict and inner == prec):
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# evaluation

_JET_FUNCS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "ln": jets.ln, "sqrt": jets.sqrt}


def eval_jet(e, base, order, space=None):
    """Evaluate an expression as a jet at ``base = (x, y)``, or on node
    columns at ``base = (xs, ys)``, two float arrays of the nodes' coordinates.

    Subtrees without x and y are folded to constants, so that sums,
    products and quotients with them take the jet's scalar fast path.  The
    result is bit-identical to evaluating every constant as a constant jet:
    ``x / c`` is ``x * (1.0 / c)``, as that jet's reciprocal gives it, and
    the zero coefficients keep the signs that jet arithmetic gives them.
    A product of two polynomial subtrees sums only the terms whose factors
    can be nonzero (:func:`~sfmew.jets.poly_product`), with the same bits.
    Node columns are bit-identical to the jets of the points one by one
    (constants are broadcast over the nodes).  Domain failures (ln/sqrt of
    nonpositive values, degenerate division) propagate as the jet errors
    annotated with the offending node's source offset and the base point,
    which is also their ``base``; on node columns, the error of the first
    point that fails alone.
    """
    if space is None:
        space = jet_space(order)
    if isinstance(base[0], np.ndarray):  # node arrays
        ctx = _EvalContext(space, base, {})
        try:
            return _as_jet(_evaluate(e, ctx), ctx)
        except (jets.JetError, ArithmeticError, _PerPoint):
            # point by point: the located error of the first failing point
            points = zip(base[0].tolist(), base[1].tolist())
            return jets.stack([eval_jet(e, p, order, space) for p in points])
    ctx = _EvalContext(space, (float(base[0]), float(base[1])), {})
    return _as_jet(_evaluate(e, ctx), ctx)


class _EvalContext(NamedTuple):
    space: object
    base: tuple  # the point, or the node arrays of x and y
    variables: dict  # the jets of x and y, built on first use


class _PerPoint(Exception):
    """The nodes of a batch take different paths; evaluate them one by one."""


class _Poly(NamedTuple):
    """The jet of a polynomial subtree, and the polynomial's degree: its
    coefficients above that degree are zero where all of them are finite."""

    jet: Jet
    degree: int


def _jet(v):
    return v.jet if isinstance(v, _Poly) else v


def _as_jet(v, ctx):
    if not isinstance(v, _Const):
        return _jet(v)
    nodes = ctx.base[0]
    value = np.full(nodes.shape, v.value) if isinstance(nodes, np.ndarray) else v.value
    const = Jet.constant(ctx.space, value)
    const.vec[1:] = v.zero
    return const


def _evaluate(node, ctx):
    """A jet, a :class:`_Poly`, or a folded constant for a subtree without x and y.

    A module-level function rather than a recursive closure, which would be
    a reference cycle holding the evaluation's jets until garbage collection.
    """
    if isinstance(node, Num):
        return _Const(float(node.value), 0.0)
    if isinstance(node, Var):
        if node.name not in ctx.variables:
            axis = 0 if node.name == "x" else 1
            ctx.variables[node.name] = _Poly(Jet.variable(ctx.space, axis, ctx.base[axis]), 1)
        return ctx.variables[node.name]
    if isinstance(node, Neg):
        arg = _evaluate(node.arg, ctx)
        if isinstance(arg, _Const):
            return _Const(-arg.value, -arg.zero)
        return _Poly(-arg.jet, arg.degree) if isinstance(arg, _Poly) else -arg
    if isinstance(node, BinOp):
        left, right = _evaluate(node.left, ctx), _evaluate(node.right, ctx)
        try:
            return _binop(node.op, left, right)
        except jets.JetError as err:
            raise _located(err, node.pos, ctx.base) from err
    if isinstance(node, Pow):
        b = _evaluate(node.base, ctx)
        try:
            if isinstance(b, _Const):
                return _folded(jets.power, b, node.exponent)
            out = jets.power(_jet(b), node.exponent)
        except jets.JetError as err:
            raise _located(err, node.pos, ctx.base) from err
        # a power of a polynomial is one, its products those of jet arithmetic
        if isinstance(b, _Poly) and node.exponent >= 0:
            return _Poly(out, b.degree * node.exponent)
        return out
    if isinstance(node, Call):
        args = [_evaluate(a, ctx) for a in node.args]
        func = _pow_call if node.func == "pow" else _JET_FUNCS[node.func]
        try:
            if all(isinstance(a, _Const) for a in args):
                return _folded(func, *args)
            return func(*(_as_jet(a, ctx) for a in args))
        except jets.JetError as err:
            raise _located(err, node.pos, ctx.base) from err
    raise TypeError(f"not an expression node: {node!r}")


class _Const(NamedTuple):
    """A folded constant: its value, and the zero (0.0 or -0.0) that fills
    the other coefficients of its constant jet."""

    value: float
    zero: float


def _binop(op, left, right):
    """``left op right``; a :class:`_Poly` where both sides are polynomials,
    or one is and the other a constant that it is not divided by."""
    if isinstance(left, _Const) and isinstance(right, _Const):
        zero = {"+": left.zero + right.zero, "-": left.zero - right.zero}.get(op, 0.0)
        return _folded(_BINOPS[op], left, right)._replace(zero=zero)
    degrees = [v.degree if isinstance(v, _Poly) else 0 if isinstance(v, _Const) else None
               for v in (left, right)]
    if None in degrees or (op == "/" and not isinstance(right, _Const)):
        degree = None
    else:
        degree = sum(degrees) if op == "*" else max(degrees)
    if not isinstance(left, _Const) and not isinstance(right, _Const):
        if op == "*" and degree is not None:
            return _Poly(jets.poly_product(left.jet, right.jet, tuple(degrees)), degree)
        out = _BINOPS[op](_jet(left), _jet(right))
    elif op in "+-":
        # jet +- constant: the constant jet's zeros enter every other coefficient
        c = right if isinstance(right, _Const) else left
        out = _BINOPS[op](_scalar(left), _scalar(right))
        out.vec[1:] += -c.zero if c is right and op == "-" else c.zero
    else:
        if op == "/" and isinstance(right, _Const):
            if right.value == 0.0:
                raise jets.DegenerateDivision("division by a jet with zero value")
            out = _jet(left) * (1.0 / right.value)
        else:
            out = _BINOPS[op](_scalar(left), _scalar(right))
        out.vec += 0.0  # a product sums from 0.0, which turns -0.0 into 0.0
    return out if degree is None else _Poly(out, degree)


def _scalar(v):
    return v.value if isinstance(v, _Const) else _jet(v)


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def _folded(func, *args):
    """The folded constant ``func`` gives on the constant jets of the arguments."""
    space = jet_space(0)
    jet_args = (Jet.constant(space, a.value) if isinstance(a, _Const) else a for a in args)
    return _Const(float(func(*jet_args).value), 0.0)


def _located(err, pos, base):
    return type(err)(f"{err} (at offset {pos}, base point {base})", base=base)


def _pow_call(a, b):
    """pow(a, b): a power where b has no derivatives, else exp(b ln a)."""
    constant = ~b.vec[1:].any(axis=0)
    if b.vec.ndim == 1:
        return jets.power(a, b.value) if constant else jets.exp(b * jets.ln(a))
    if constant.all() and (b.value == b.value[0]).all():
        return jets.power(a, b.value[0])
    if constant.any():
        raise _PerPoint
    return jets.exp(b * jets.ln(a))


def eval_value(e, x, y):
    """Plain pointwise evaluation (equals ``eval_jet`` at order 0)."""
    return eval_jet(e, (x, y), 0).value


# ---------------------------------------------------------------------------
# symbolic derivative with light simplification

def num(value):
    if value < 0:
        return Neg(Num(-value))
    return Num(float(value) + 0.0)  # normalize -0.0


def _is_num(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def add(a, b):
    if _is_num(a) and _is_num(b):
        return num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a, b):
    if _is_num(a) and _is_num(b):
        return num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def neg(a):
    if _is_num(a):
        return num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a, b):
    if _is_num(a) and _is_num(b):
        return num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return BinOp("*", a, b)


def div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def pow_int(a, n):
    if n == 0:
        return Num(1.0)
    if n == 1:
        return a
    return Pow(a, n)


def differentiate(e, var):
    """Symbolic partial derivative with respect to "x" or "y"."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, var))
    if isinstance(e, BinOp):
        da, db = differentiate(e.left, var), differentiate(e.right, var)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        return div(sub(mul(da, e.right), mul(e.left, db)), pow_int(e.right, 2))
    if isinstance(e, Pow):
        da = differentiate(e.base, var)
        return mul(mul(num(e.exponent), pow_int(e.base, e.exponent - 1)), da)
    if isinstance(e, Call):
        a = e.args[0]
        da = differentiate(a, var)
        if e.func == "sin":
            return mul(Call("cos", (a,)), da)
        if e.func == "cos":
            return neg(mul(Call("sin", (a,)), da))
        if e.func == "exp":
            return mul(e, da)
        if e.func == "ln":
            return div(da, a)
        if e.func == "sqrt":
            return div(da, mul(Num(2.0), e))
        if e.func == "pow":
            b = e.args[1]
            db = differentiate(b, var)
            # d(a^b) = a^b (db ln a + b da / a)
            return mul(e, add(mul(db, Call("ln", (a,))), div(mul(b, da), a)))
    raise TypeError(f"not an expression node: {e!r}")

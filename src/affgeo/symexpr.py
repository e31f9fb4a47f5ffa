"""Scalar expression language for coordinate functions.

Expressions are immutable ASTs over real literals, named variables,
the binary operations ``+ - * /``, integer powers ``^``, and the unary
functions ``sin cos exp sqrt`` plus negation.  They support exact
symbolic partial differentiation, substitution, evaluation at one point
or at a whole sample set in one walk of the tree, printing to a form
that re-parses to an equivalent expression, and compilation into one
function of positional values for integrator loops (:func:`compile_field`).

Grammar accepted by :func:`parse` (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Note that per this grammar ``-x^2`` parses as ``(-x)^2``; the printer
parenthesizes accordingly so that printing round-trips.

Simplification is conservative: constant folding, 0/1 identities,
``e - e -> 0`` for structurally equal operands, and folding of nested
constant terms in sums/products.  Equality of expressions beyond that
is decided by evaluation in the test suites, not by canonical forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = [
    "Expression", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg",
    "Call", "VarContext", "ExpressionError", "ExprSyntaxError",
    "UnknownIdentifierError", "UnboundVariableError", "DomainError",
    "parse", "differentiate", "evaluate", "subst", "free_vars", "to_text",
    "compile_field", "compile_fn", "MAX_DEPTH", "MAX_NESTING",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt")
MAX_NESTING = 100  # brackets, calls and unary minus inside one another
MAX_DEPTH = 400  # levels of a parsed tree; a leaf is one level

ExprLike = Union["Expression", int, float]


class ExpressionError(Exception):
    """Base class for all expression-layer errors."""


class ExprSyntaxError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnknownIdentifierError(ExpressionError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r} at offset {position}")
        self.name = name
        self.position = position


class UnboundVariableError(ExpressionError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class DomainError(ExpressionError):
    """Division by zero, sqrt of a negative number, 0 to a negative power."""


# ---------------------------------------------------------------------------
# AST nodes


class Expression:
    """Base node.  Instances are immutable and freely shareable."""

    __slots__ = ()

    def __add__(self, other: ExprLike) -> "Expression":
        return add(self, _coerce(other))

    def __radd__(self, other: ExprLike) -> "Expression":
        return add(_coerce(other), self)

    def __sub__(self, other: ExprLike) -> "Expression":
        return sub(self, _coerce(other))

    def __rsub__(self, other: ExprLike) -> "Expression":
        return sub(_coerce(other), self)

    def __mul__(self, other: ExprLike) -> "Expression":
        return mul(self, _coerce(other))

    def __rmul__(self, other: ExprLike) -> "Expression":
        return mul(_coerce(other), self)

    def __truediv__(self, other: ExprLike) -> "Expression":
        return div(self, _coerce(other))

    def __rtruediv__(self, other: ExprLike) -> "Expression":
        return div(_coerce(other), self)

    def __pow__(self, exponent: int) -> "Expression":
        return pow_(self, exponent)

    def __neg__(self) -> "Expression":
        return neg(self)

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, slots=True)
class Const(Expression):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Pow(Expression):
    base: Expression
    exponent: int


@dataclass(frozen=True, slots=True)
class Neg(Expression):
    operand: Expression


@dataclass(frozen=True, slots=True)
class Call(Expression):
    func: str
    arg: Expression


ZERO = Const(0.0)
ONE = Const(1.0)


def _coerce(x: ExprLike) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _is_const(e: Expression, value: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


# ---------------------------------------------------------------------------
# Smart constructors (the conservative simplifier)


def add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Neg) and a.operand == b:
        return ZERO
    if isinstance(b, Neg) and b.operand == a:
        return ZERO
    # fold constants of nested sums: c1 + (c2 + x) -> (c1+c2) + x
    if isinstance(a, Const) and isinstance(b, Add) and isinstance(b.left, Const):
        return Add(Const(a.value + b.left.value), b.right)
    if isinstance(b, Const) and isinstance(a, Add) and isinstance(a.left, Const):
        return Add(Const(b.value + a.left.value), a.right)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if a == b:
        return ZERO
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    if isinstance(a, Const) and isinstance(b, Mul) and isinstance(b.left, Const):
        return Mul(Const(a.value * b.left.value), b.right)
    if isinstance(b, Const) and isinstance(a, Mul) and isinstance(a.left, Const):
        return Mul(Const(b.value * a.left.value), a.right)
    if isinstance(b, Const):
        return Mul(b, a)  # constants lead, helps the folding rules above
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    if _is_const(a, 0.0) and isinstance(b, Const) and b.value != 0.0:
        return ZERO
    if isinstance(b, Const) and b.value != 0.0 and isinstance(a, Mul) \
            and isinstance(a.left, Const):
        return mul(Const(a.left.value / b.value), a.right)
    return Div(a, b)


def pow_(base: Expression, exponent: int) -> Expression:
    if not isinstance(exponent, int):
        raise TypeError("exponent must be an integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0.0 and exponent < 0):
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            pass  # leave the node; evaluation reports the domain error
    return Pow(base, exponent)


def neg(a: Expression) -> Expression:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def call(func: str, arg: Expression) -> Expression:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    if isinstance(arg, Const):
        try:
            return Const(_APPLY[func](arg.value))
        except (ValueError, OverflowError):
            pass  # leave the node; evaluation reports the domain error
    return Call(func, arg)


def _safe_sqrt(x: float) -> float:
    if x < 0.0:
        raise ValueError("sqrt of negative number")
    return math.sqrt(x)


_APPLY = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "sqrt": _safe_sqrt}


# ---------------------------------------------------------------------------
# Variable contexts

ROLE_BASE = "base"
ROLE_FIBER = "fiber"
ROLE_TIME = "time"
ROLE_AV = "av"
_ROLES = (ROLE_BASE, ROLE_FIBER, ROLE_TIME, ROLE_AV)


@dataclass(frozen=True)
class VarContext:
    """Ordered variable names, each with a role.

    Roles partition the list: ``base`` coordinates, ``fiber``
    coordinates, the ``time`` variable and the ``av`` fiber coordinate.
    """

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for name, role in self.entries:
            if role not in _ROLES:
                raise ValueError(f"unknown role {role!r} for variable {name!r}")

    @classmethod
    def make(cls, base: Iterable[str] = (), fiber: Iterable[str] = (),
             time: str | None = None, av: str | None = None) -> "VarContext":
        entries = [(n, ROLE_BASE) for n in base]
        entries += [(n, ROLE_FIBER) for n in fiber]
        if time is not None:
            entries.append((time, ROLE_TIME))
        if av is not None:
            entries.append((av, ROLE_AV))
        return cls(tuple(entries))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def with_role(self, role: str) -> tuple[str, ...]:
        return tuple(n for n, r in self.entries if r == role)

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self.entries)


# ---------------------------------------------------------------------------
# Parsing

_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append((_TOK_NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_END, "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: VarContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != _TOK_OP or value != op:
            raise ExprSyntaxError(f"expected {op!r}", at)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, at = self.peek()
        if kind != _TOK_END:
            raise ExprSyntaxError(f"unexpected {value!r}", at)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if value == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "*/":
                self.advance()
                rhs = self.factor()
                e = mul(e, rhs) if value == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expression:
        e = self.base()
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "^":
            self.advance()
            e = pow_(e, self.int_literal())
        return e

    def int_literal(self) -> int:
        sign = 1
        kind, value, at = self.peek()
        if kind == _TOK_OP and value == "-":
            self.advance()
            sign = -1
            kind, value, at = self.peek()
        if kind != _TOK_NUM or any(c in value for c in ".eE"):
            raise ExprSyntaxError("expected integer exponent", at)
        self.advance()
        return sign * int(value)

    def base(self) -> Expression:
        kind, value, at = self.advance()
        if kind == _TOK_NUM:
            return Const(float(value))
        if kind == _TOK_OP and value in "-(":
            self.nest(at)
            if value == "-":
                e = neg(self.base())
            else:
                e = self.expr()
                self.expect_op(")")
            self.nesting -= 1
            return e
        if kind == _TOK_IDENT:
            nk, nv, _ = self.peek()
            if nk == _TOK_OP and nv == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value, at)
                self.nest(at)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                self.nesting -= 1
                return call(value, arg)
            if value not in self.ctx:
                raise UnknownIdentifierError(value, at)
            return Var(value)
        raise ExprSyntaxError("expected a value", at)

    def nest(self, at: int) -> None:
        """Enter a bracket, call or unary minus; the parser recurses there."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", at)


def _check_tree(e: Expression) -> None:
    """Reject a tree deeper than MAX_DEPTH or with a non-finite constant."""
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression tree deeper than {MAX_DEPTH} levels", 0)
        if isinstance(node, Const) and not math.isfinite(node.value):
            raise ExprSyntaxError("constant out of the float range", 0)
        stack.extend((getattr(node, f.name), depth + 1) for f in fields(node)
                     if isinstance(getattr(node, f.name), Expression))


def parse(text: str, ctx: VarContext) -> Expression:
    """Parse ``text`` against the grammar, resolving variables in ``ctx``.

    A constant that is or folds to inf (``1e200*1e200``) is an error, and
    so is input past the depth the recursive walkers (``differentiate``,
    ``subst``, ``evaluate``, printing) handle within Python's default
    recursion limit: brackets, calls and unary minus nested more than
    :data:`MAX_NESTING` deep, or a tree deeper than :data:`MAX_DEPTH`
    levels (a sum of ``MAX_DEPTH - 1`` products, say).  Near the limit,
    comparing two equal deep operands (``a - a``, while simplifying) and
    derivatives deeper than their source can still raise
    ``RecursionError``.
    """
    e = _Parser(text, ctx).parse()
    _check_tree(e)
    return e


# ---------------------------------------------------------------------------
# Core operations


def differentiate(e: Expression, v: str) -> Expression:
    """Exact symbolic partial derivative of ``e`` with respect to ``v``."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Add):
        return add(differentiate(e.left, v), differentiate(e.right, v))
    if isinstance(e, Sub):
        return sub(differentiate(e.left, v), differentiate(e.right, v))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.left, v), e.right),
                   mul(e.left, differentiate(e.right, v)))
    if isinstance(e, Div):
        if isinstance(e.right, Const):
            return div(differentiate(e.left, v), e.right)
        num = sub(mul(differentiate(e.left, v), e.right),
                  mul(e.left, differentiate(e.right, v)))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        inner = differentiate(e.base, v)
        return mul(mul(Const(e.exponent), pow_(e.base, e.exponent - 1)), inner)
    if isinstance(e, Neg):
        return neg(differentiate(e.operand, v))
    if isinstance(e, Call):
        inner = differentiate(e.arg, v)
        if e.func == "sin":
            outer: Expression = call("cos", e.arg)
        elif e.func == "cos":
            outer = neg(call("sin", e.arg))
        elif e.func == "exp":
            outer = call("exp", e.arg)
        else:  # sqrt
            return div(inner, mul(Const(2.0), call("sqrt", e.arg)))
        return mul(outer, inner)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def _any(mask) -> bool:
    return mask if isinstance(mask, bool) else bool(mask.any())


def _each(fn, x):
    return np.array([fn(v) for v in x.tolist()]) if isinstance(x, np.ndarray) else fn(x)


def evaluate(e: Expression,
             point: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Evaluate ``e`` with all free variables bound by ``point``.

    ``point`` may bind names to equal-length 1-D float arrays, one value
    per sample point: one walk of the tree then gives the per-point
    values (a float where ``e`` uses no array), bit for bit those of a
    loop over the points.  ``+ - * /`` and negation are numpy ufuncs,
    which round as Python floats do; ``^`` and the functions apply
    Python's ``**`` and :mod:`math` to each element.
    """
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            value = point[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
        return value if isinstance(value, np.ndarray) else float(value)
    if isinstance(e, Add):
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Sub):
        return evaluate(e.left, point) - evaluate(e.right, point)
    if isinstance(e, Mul):
        return evaluate(e.left, point) * evaluate(e.right, point)
    if isinstance(e, Div):
        denom = evaluate(e.right, point)
        if _any(denom == 0.0):
            raise DomainError("division by zero")
        return evaluate(e.left, point) / denom
    if isinstance(e, Pow):
        base, k = evaluate(e.base, point), e.exponent
        if k < 0 and _any(base == 0.0):
            raise DomainError("zero raised to a negative power")
        try:
            return _each(lambda b: b ** k, base)
        except OverflowError:
            raise DomainError("power overflow") from None
    if isinstance(e, Neg):
        return -evaluate(e.operand, point)
    if isinstance(e, Call):
        x = evaluate(e.arg, point)
        if e.func == "sqrt" and _any(x < 0.0):
            raise DomainError("sqrt of a negative number")
        try:
            return _each(_APPLY[e.func], x)
        except OverflowError:
            raise DomainError(f"{e.func} overflow") from None
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def subst(e: Expression, bindings: Mapping[str, ExprLike]) -> Expression:
    """Substitute expressions (or numbers) for variables, re-simplifying."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        if e.name in bindings:
            return _coerce(bindings[e.name])
        return e
    if isinstance(e, Add):
        return add(subst(e.left, bindings), subst(e.right, bindings))
    if isinstance(e, Sub):
        return sub(subst(e.left, bindings), subst(e.right, bindings))
    if isinstance(e, Mul):
        return mul(subst(e.left, bindings), subst(e.right, bindings))
    if isinstance(e, Div):
        return div(subst(e.left, bindings), subst(e.right, bindings))
    if isinstance(e, Pow):
        return pow_(subst(e.base, bindings), e.exponent)
    if isinstance(e, Neg):
        return neg(subst(e.operand, bindings))
    if isinstance(e, Call):
        return call(e.func, subst(e.arg, bindings))
    raise TypeError(f"cannot substitute in {type(e).__name__}")


def free_vars(e: Expression) -> frozenset[str]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, Pow):
        return free_vars(e.base)
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, Call):
        return free_vars(e.arg)
    raise TypeError(f"no free variables for {type(e).__name__}")


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _fmt_number(value: float) -> str:
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def _render(e: Expression) -> tuple[str, int]:
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_fmt_number(-e.value)}", _PREC_NEG
        return _fmt_number(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Add) and isinstance(e.right, Neg):
        l = _paren(e.left, _PREC_ADD)
        r = _paren(e.right.operand, _PREC_ADD + 1)
        return f"{l} - {r}", _PREC_ADD
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        l = _paren(e.left, _PREC_ADD)
        r = _paren(e.right, _PREC_ADD + 1)  # subtraction is left-associative
        return f"{l} {op} {r}", _PREC_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        l = _paren(e.left, _PREC_MUL)
        r = _paren(e.right, _PREC_MUL + 1)
        return f"{l}{op}{r}", _PREC_MUL
    if isinstance(e, Neg):
        return f"-{_paren(e.operand, _PREC_ATOM)}", _PREC_NEG  # "-x^2" is (-x)^2
    if isinstance(e, Pow):
        return f"{_paren(e.base, _PREC_ATOM)}^{e.exponent}", _PREC_POW
    if isinstance(e, Call):
        inner, _ = _render(e.arg)
        return f"{e.func}({inner})", _PREC_ATOM
    raise TypeError(f"cannot print {type(e).__name__}")


def _paren(e: Expression, min_prec: int) -> str:
    text, prec = _render(e)
    if prec < min_prec:
        return f"({text})"
    return text


def to_text(e: Expression) -> str:
    """Render ``e`` as text accepted by :func:`parse`."""
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Compilation (hot loops only; `evaluate` is the contract-carrying API)

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_NAMESPACE = {"inf": math.inf, "nan": math.nan,
              **{f"_{f}": getattr(math, f) for f in FUNCTIONS}}


def _constant(value: float) -> str:
    text = repr(value)  # inf and nan are bound in the namespace
    return f"({text})" if text.startswith("-") else text


def _emit(e: Expression, args: Mapping[str, str], lines: list[str]) -> str:
    """Append one assignment per interior node of ``e`` to ``lines``, in
    the order Python would evaluate the nested expression; return the
    operand that holds the value of ``e``."""
    values: list[str] = []
    stack: list[tuple[Expression, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Const):
            values.append(_constant(node.value))
        elif isinstance(node, Var):
            values.append(args[node.name])
        elif not ready:
            stack.append((node, True))
            children = [getattr(node, f.name) for f in fields(node)]
            stack.extend((c, False) for c in reversed(children)
                         if isinstance(c, Expression))
        else:
            if isinstance(node, Pow):
                code = f"{values.pop()} ** {node.exponent}"
            elif isinstance(node, Neg):
                code = f"-{values.pop()}"
            elif isinstance(node, Call):
                code = f"_{node.func}({values.pop()})"
            else:
                right = values.pop()
                code = f"{values.pop()} {_BINARY[type(node)]} {right}"
            lines.append(f"    _t{len(lines)} = {code}")
            values.append(f"_t{len(lines) - 1}")
    return values.pop()


def compile_field(exprs: Iterable[Expression], names: Iterable[str]):
    """Compile expressions into one function ``f(*values) -> tuple``.

    The function takes one positional value per name in ``names`` and
    returns one value per expression.  Its body is three-address code:
    one local per interior node, assigned in the order Python evaluates
    the nested expression, so a tree of any depth compiles.  The
    arithmetic is that of the arguments: Python floats raise
    ``ZeroDivisionError`` for a zero divisor and ``OverflowError`` for a
    power overflow where ``np.float64`` values give inf or nan; ``exp``
    overflow raises ``OverflowError`` and ``sqrt`` of a negative number
    ``ValueError`` either way.
    """
    args = {n: f"_y{i}" for i, n in enumerate(names)}
    lines: list[str] = []
    results = [_emit(e, args, lines) for e in exprs]
    source = "\n".join([f"def _field({', '.join([*args.values(), ''])}):", *lines,
                        f"    return ({', '.join([*results, ''])})"])
    namespace = dict(_NAMESPACE)
    exec(source, namespace)  # noqa: S102 - generated from our own AST
    return namespace["_field"]


def compile_fn(exprs: Iterable[Expression], names: Iterable[str]):
    """Compile expressions into one callable ``f(values) -> list``.

    ``values`` is indexed positionally following ``names``; the body is
    that of :func:`compile_field`, so domain errors surface the same way.
    """
    fn = compile_field(exprs, names)
    return lambda values: list(fn(*values))

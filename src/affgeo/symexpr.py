"""Scalar expression language for coordinate functions.

Expressions are immutable slotted ASTs over real literals, named
variables, the binary operations ``+ - * /``, integer powers ``^``, and
the unary functions ``sin cos exp sqrt`` plus negation.  They support exact
symbolic partial differentiation, substitution, evaluation at one point
or at a whole sample set in one walk of the tree, printing to a form
that re-parses to an equivalent expression, and compilation into one
function of positional values for integrator loops (:func:`compile_field`).

Trees share subtrees: a derivative reuses the nodes of its source.  So
each interior node caches the derivatives taken of it and its free
variables, :func:`evaluate` evaluates each shared node once per call,
and :func:`differentiate` and :func:`subst` return at once from a
subtree that does not hold the variable.  The node classes must not be
subclassed: the smart constructors and the walkers dispatch on the exact
type of a node, so a subclass's node would be neither folded nor walked.

Grammar accepted by :func:`parse` (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' '-'? digits)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Note that per this grammar ``-x^2`` parses as ``(-x)^2``, so ``exp(-x^2)``
grows without bound and ``exp(-(x^2))`` is the Gaussian; the printer
parenthesizes accordingly so that printing round-trips.

Simplification is conservative: constant folding, 0/1 identities,
``e - e -> 0`` for structurally equal operands, and folding of nested
constant terms in sums/products.  Equality of expressions beyond that
is decided by evaluation in the test suites, not by canonical forms.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from ._immutable import Immutable, fill_slots

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


class Expression(Immutable):
    """Base node, built by :func:`parse` or the smart constructors (it has
    no arithmetic operators).  Instances are immutable and freely shareable.

    The slots of the base are not fields.  On an interior node,
    ``_partials`` holds the derivatives :func:`differentiate` took of it,
    by variable name, and ``_free`` the names :func:`free_vars` counted
    in it; each is None until then (a leaf never sets them).  Neither
    takes part in ``==``, ``hash``, ``repr`` or :func:`compile_field`.
    ``__weakref__`` lets a node be held weakly.  Past the frozen
    ``__setattr__``, every slot is written through its member descriptor's
    ``__set__``, bound once at import (``Add.left.__set__``, say).
    """

    __slots__ = ("_partials", "_free", "__weakref__")

    def __str__(self) -> str:
        return to_text(self)

    def __copy__(self):  # the fields are immutable: a copy, shallow or deep, is the node
        return self

    def __deepcopy__(self, memo):
        return self


_set_partials, _set_free = Expression._partials.__set__, Expression._free.__set__


def _interior(cls):
    """Give ``cls`` the ``__init__`` of its arity: fields in ``__slots__`` order, empty caches."""
    setters = [getattr(cls, name).__set__ for name in cls.__slots__]
    if len(setters) == 1:
        [set_a] = setters

        def __init__(self, a):
            set_a(self, a)
            _set_partials(self, None)
            _set_free(self, None)
    else:
        set_a, set_b = setters

        def __init__(self, a, b):
            set_a(self, a)
            set_b(self, b)
            _set_partials(self, None)
            _set_free(self, None)
    cls.__init__ = __init__
    return cls


class Const(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set_value(self, float(value))


class Var(Expression):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)


_set_value, _set_name = Const.value.__set__, Var.name.__set__


@_interior
class Add(Expression):
    __slots__ = ("left", "right")


@_interior
class Sub(Expression):
    __slots__ = ("left", "right")


@_interior
class Mul(Expression):
    __slots__ = ("left", "right")


@_interior
class Div(Expression):
    __slots__ = ("left", "right")


@_interior
class Pow(Expression):
    __slots__ = ("base", "exponent")


@_interior
class Neg(Expression):
    __slots__ = ("operand",)


@_interior
class Call(Expression):
    __slots__ = ("func", "arg")


ZERO = Const(0.0)
ONE = Const(1.0)
_NO_NAMES = frozenset()


def _coerce(x: ExprLike) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _is_const(e: Expression, value: float | None = None) -> bool:
    return type(e) is Const and (value is None or e.value == value)


# ---------------------------------------------------------------------------
# Smart constructors (the conservative simplifier) and the node kinds


def add(a: Expression, b: Expression) -> Expression:
    ta, tb = type(a), type(b)
    if ta is Const:
        if tb is Const:
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif tb is Const and b.value == 0.0:
        return a
    if ta is Neg and a.operand == b or tb is Neg and b.operand == a:
        return ZERO
    # fold constants of nested sums: c1 + (c2 + x) -> (c1+c2) + x
    if ta is Const and tb is Add and type(b.left) is Const:
        return Add(Const(a.value + b.left.value), b.right)
    if tb is Const and ta is Add and type(a.left) is Const:
        return Add(Const(b.value + a.left.value), a.right)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    ta, tb = type(a), type(b)
    if tb is Const:
        if ta is Const:
            return Const(a.value - b.value)
        if b.value == 0.0:
            return a
    if ta is tb and a == b:
        return ZERO
    if ta is Const and a.value == 0.0:
        return neg(b)
    if tb is Neg:  # a - (-b) is the double a + b, a NaN's sign aside; add would re-associate
        return Add(a, b.operand)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    ta, tb = type(a), type(b)
    if tb is Const:
        if ta is Const:
            return Const(a.value * b.value)
        a, b, tb = b, a, ta  # constants lead, helps the folding rule below
    elif ta is not Const:
        return Mul(a, b)
    c = a.value
    if c == 0.0:
        return ZERO
    if c == 1.0:
        return b
    if c == -1.0:
        return neg(b)
    if tb is Mul and type(b.left) is Const:
        return Mul(Const(c * b.left.value), b.right)
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if type(b) is not Const:
        return Div(a, b)
    c = b.value
    if c == 1.0:
        return a
    if c != 0.0:
        ta = type(a)
        if ta is Const:
            return Const(a.value / c)
        if ta is Mul and type(a.left) is Const:
            return mul(Const(a.left.value / c), a.right)
    return Div(a, b)


def pow_(base: Expression, exponent: int) -> Expression:
    if not isinstance(exponent, int):
        raise TypeError("exponent must be an integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if type(base) is Const and not (base.value == 0.0 and exponent < 0):
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            pass  # leave the node; evaluation reports the domain error
    return Pow(base, exponent)


def neg(a: Expression) -> Expression:
    t = type(a)
    if t is Const:
        return Const(-a.value)
    if t is Neg:
        return a.operand
    return Neg(a)


def call(func: str, arg: Expression) -> Expression:
    if func not in FUNCTIONS:
        raise ValueError(f"unknown function {func!r}")
    if type(arg) is Const:
        try:
            return Const(_APPLY[func](arg.value))
        except (ValueError, OverflowError):
            pass  # leave the node; evaluation reports the domain error
    return Call(func, arg)


_APPLY = {f: getattr(math, f) for f in FUNCTIONS}  # sqrt of a negative raises ValueError


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


class _Kind(NamedTuple):
    """How the structural walkers treat one interior node type.  ``text``
    and ``code`` are formats of the operands' texts, the node itself ``e``."""

    operands: tuple[str, ...]  # the fields that hold subexpressions
    build: Callable[..., Expression]  # smart constructor of (node, *new operands)
    text: str  # printed form
    prec: int  # precedence of the printed form
    binds: tuple[int, ...]  # least precedence each operand prints bare at
    code: str  # what compile_field generates


_KINDS = {
    Add: _Kind(("left", "right"), lambda e, a, b: add(a, b), "{0} + {1}", _PREC_ADD,
               (_PREC_ADD, _PREC_ADD + 1), "{0} + {1}"),
    Sub: _Kind(("left", "right"), lambda e, a, b: sub(a, b), "{0} - {1}", _PREC_ADD,
               (_PREC_ADD, _PREC_ADD + 1), "{0} - {1}"),  # left-associative
    Mul: _Kind(("left", "right"), lambda e, a, b: mul(a, b), "{0}*{1}", _PREC_MUL,
               (_PREC_MUL, _PREC_MUL + 1), "{0} * {1}"),
    Div: _Kind(("left", "right"), lambda e, a, b: div(a, b), "{0}/{1}", _PREC_MUL,
               (_PREC_MUL, _PREC_MUL + 1), "{0} / {1}"),
    Pow: _Kind(("base",), lambda e, a: pow_(a, e.exponent), "{0}^{e.exponent}",
               _PREC_POW, (_PREC_ATOM,), "{0} ** {e.exponent}"),
    # "-x^2" reads as (-x)^2, so a power under a minus prints in brackets
    Neg: _Kind(("operand",), lambda e, a: neg(a), "-{0}", _PREC_NEG, (_PREC_ATOM,), "-{0}"),
    # the call's own brackets hold any operand
    Call: _Kind(("arg",), lambda e, a: call(e.func, a), "{e.func}({0})", _PREC_ATOM,
                (_PREC_ADD,), "_{e.func}({0})"),
}


# ---------------------------------------------------------------------------
# Variable contexts


class VarContext(Immutable):
    """The ordered, unique variable names an expression may use."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        fill_slots(self, names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")

    @classmethod
    def make(cls, base: Iterable[str] = (), time: str | None = None) -> "VarContext":
        """The names ``base``, then ``time`` if set."""
        return cls((*base, *(() if time is None else (time,))))

    def __contains__(self, name: str) -> bool:
        return name in self.names


# ---------------------------------------------------------------------------
# Parsing

# One token, a run of whitespace (group 1) or an unexpected character (group
# 2).  Numbers and names are ASCII, so a superscript digit is unexpected.
_TOKEN = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                    r"|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()]|(\s+)|(.)", re.S)
_BINARY = {"+": add, "-": sub, "*": mul, "/": div}


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Each token's text and offset, then ``("", len(text))`` for the end."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m[2]:
            raise ExprSyntaxError(f"unexpected character {m[2]!r}", m.start())
        if not m[1]:
            tokens.append((m[0], m.start()))
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    """A token is a number, a name, an operator (one character) or the end ("")."""

    def __init__(self, text: str, ctx: VarContext):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def take(self, ops: str = "") -> tuple[str, int] | None:
        """Consume the next token; given ``ops``, only an operator among
        them, and return None if the next token is not one."""
        token = self.tokens[self.pos]
        if ops and not (token[0] and token[0] in ops):
            return None
        self.pos += 1
        return token

    def parse(self) -> Expression:
        e = self.binary()
        value, at = self.take()
        if value:
            raise ExprSyntaxError(f"unexpected {value!r}", at)
        return e

    def binary(self, level: int = 0) -> Expression:
        """Terms joined by ``+ -`` (level 0) or factors joined by ``* /``
        (level 1), from the left."""
        e = self.factor() if level else self.binary(1)
        while token := self.take("*/" if level else "+-"):
            e = _BINARY[token[0]](e, self.factor() if level else self.binary(1))
        return e

    def factor(self) -> Expression:
        e = self.base()
        if self.take("^"):
            sign = -1 if self.take("-") else 1
            value, at = self.take()
            if not value.isdigit():  # a number without '.', 'e' or 'E'
                raise ExprSyntaxError("expected integer exponent", at)
            if float(value) == math.inf:  # the power rule makes a Const of the exponent
                raise ExprSyntaxError("exponent out of the float range", at)
            e = pow_(e, sign * int(value.lstrip("0") or "0"))  # int() refuses 4301 digits
        return e

    def base(self) -> Expression:
        value, at = self.take()
        if value.isidentifier():
            if not self.take("("):
                if value not in self.ctx:
                    raise UnknownIdentifierError(value, at)
                return Var(value)
            if value not in FUNCTIONS:
                raise UnknownIdentifierError(value, at)
        elif value not in ("-", "("):
            try:
                return Const(float(value))
            except ValueError:  # an operator other than '-' or '(', or the end
                raise ExprSyntaxError("expected a value", at) from None
        # a call, bracket or unary minus: the parser recurses here
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", at)
        if value == "-":
            e = neg(self.base())
        else:
            e = self.binary()
            if not self.take(")"):
                raise ExprSyntaxError("expected ')'", self.tokens[self.pos][1])
            if value != "(":
                e = call(value, e)
        self.nesting -= 1
        return e


def _check_tree(e: Expression) -> None:
    """Reject a tree deeper than MAX_DEPTH or with a non-finite constant."""
    stack = [(e, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression tree deeper than {MAX_DEPTH} levels", 0)
        if isinstance(node, Const):
            if not math.isfinite(node.value):
                raise ExprSyntaxError("constant out of the float range", 0)
        elif not isinstance(node, Var):
            stack.extend((getattr(node, name), depth + 1)
                         for name in _KINDS[type(node)].operands)


def parse(text: str, ctx: VarContext) -> Expression:
    """Parse ``text`` against the grammar, resolving variables in ``ctx``.

    A constant that is or folds to inf (``1e200*1e200``) is an error, and
    so is input past the depth the recursive walkers (``differentiate``,
    ``subst``, ``free_vars``, ``evaluate``, printing) handle within
    Python's default recursion limit: brackets, calls and unary minus
    nested more than :data:`MAX_NESTING` deep, or a tree deeper than
    :data:`MAX_DEPTH` levels (a sum of ``MAX_DEPTH - 1`` products, say).
    Near the limit, derivatives deeper than their source can still raise
    ``RecursionError``.
    """
    e = _Parser(text, ctx).parse()
    _check_tree(e)
    return e


# ---------------------------------------------------------------------------
# Core operations


def differentiate(e: Expression, v: str) -> Expression:
    """Exact symbolic partial derivative of ``e`` with respect to ``v``.

    Each interior node keeps the derivatives taken of it, so asking again
    for the partial of a node, or of a subtree it shares with another
    expression, returns the same object without walking the subtree.  A
    node that does not hold ``v`` returns ``ZERO`` at once.
    """
    t = type(e)
    if t is Const:
        return ZERO
    if t is Var:
        return ONE if e.name == v else ZERO
    if v not in free_vars(e):
        return ZERO
    partials = e._partials
    if partials is None:
        partials = {}
        _set_partials(e, partials)
    else:
        d = partials.get(v)
        if d is not None:
            return d
    if t is Mul:
        d = add(mul(differentiate(e.left, v), e.right),
                mul(e.left, differentiate(e.right, v)))
    elif t is Add:
        d = add(differentiate(e.left, v), differentiate(e.right, v))
    elif t is Sub:
        d = sub(differentiate(e.left, v), differentiate(e.right, v))
    elif t is Div:
        if type(e.right) is Const:
            d = div(differentiate(e.left, v), e.right)
        else:
            num = sub(mul(differentiate(e.left, v), e.right),
                      mul(e.left, differentiate(e.right, v)))
            d = ZERO if _is_const(num, 0.0) else div(num, pow_(e.right, 2))
    elif t is Pow:
        inner = differentiate(e.base, v)
        d = mul(mul(Const(e.exponent), pow_(e.base, e.exponent - 1)), inner)
    elif t is Neg:
        d = neg(differentiate(e.operand, v))
    elif t is Call:
        inner = differentiate(e.arg, v)
        if _is_const(inner, 0.0):
            d = ZERO
        elif e.func == "sin":
            d = mul(call("cos", e.arg), inner)
        elif e.func == "cos":
            d = mul(neg(call("sin", e.arg)), inner)
        elif e.func == "exp":
            d = mul(call("exp", e.arg), inner)
        else:  # sqrt
            d = div(inner, mul(Const(2.0), call("sqrt", e.arg)))
    else:
        raise TypeError(f"cannot differentiate {t.__name__}")
    partials[v] = d
    return d


def _any(mask) -> bool:
    return mask if isinstance(mask, bool) else bool(mask.any())


def _each(fn, x):
    """``fn(x)``, element by element where ``x`` is an array."""
    if isinstance(x, np.ndarray):
        return np.array(list(map(fn, x.tolist())))
    return fn(x)


def evaluate(e: Expression | Iterable[Expression],
             point: Mapping[str, float | np.ndarray]) -> float | np.ndarray | list:
    """Evaluate ``e`` with all free variables bound by ``point``.

    ``point`` may bind names to equal-length 1-D float arrays, one value
    per sample point: one walk of the tree then gives the per-point
    values (a float where ``e`` uses no array), bit for bit those of a
    loop over the points.  ``+ - * /`` and negation are numpy ufuncs,
    which round as Python floats do; ``^`` is ``np.float_power``, which
    calls the C ``pow`` that Python's ``**`` calls, and the functions
    apply :mod:`math` to each element.  ``e`` may also be a list of trees,
    whose values come back as a list from one walk: a node shared by
    several parents, in one tree or across them (derivatives share
    subtrees with their source), is evaluated once per call, the first
    time the walk reaches it.
    """
    if isinstance(e, Expression):
        return _evaluate(e, point, {})
    done: dict = {}
    trees = list(e)  # held to the end of the call: ``done`` is keyed by id
    return [_evaluate(t, point, done) for t in trees]


def _evaluate(e: Expression, point, done: dict) -> float | np.ndarray:
    """The walk of :func:`evaluate`; ``done`` maps ``id`` of each interior
    node evaluated so far to its value (the roots keep them all alive)."""
    t = type(e)
    if t is Const:
        return e.value
    if t is Var:
        try:
            value = point[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
        return value if isinstance(value, np.ndarray) else float(value)
    value = done.get(id(e))
    if value is not None:
        return value
    if t is Mul:
        value = _evaluate(e.left, point, done) * _evaluate(e.right, point, done)
    elif t is Add:
        value = _evaluate(e.left, point, done) + _evaluate(e.right, point, done)
    elif t is Sub:
        value = _evaluate(e.left, point, done) - _evaluate(e.right, point, done)
    elif t is Div:
        denom = _evaluate(e.right, point, done)
        if _any(denom == 0.0):
            raise DomainError("division by zero")
        value = _evaluate(e.left, point, done) / denom
    elif t is Pow:
        base, k = _evaluate(e.base, point, done), e.exponent
        if k < 0 and _any(base == 0.0):
            raise DomainError("zero raised to a negative power")
        if isinstance(base, np.ndarray):
            # as float.__pow__: a nan base stays (1.0 at k = 0), the rest is C pow
            with np.errstate(all="ignore"):
                value = np.where(base == base, np.float_power(base, float(k)), base if k else 1.0)
            if _any(np.isinf(value) & np.isfinite(base)):
                raise DomainError("power overflow")
        else:
            try:
                value = base ** k
            except OverflowError:
                raise DomainError("power overflow") from None
    elif t is Neg:
        value = -_evaluate(e.operand, point, done)
    elif t is Call:
        x = _evaluate(e.arg, point, done)
        if e.func == "sqrt" and _any(x < 0.0):
            raise DomainError("sqrt of a negative number")
        try:
            value = _each(_APPLY[e.func], x)
        except OverflowError:
            raise DomainError(f"{e.func} overflow") from None
    else:
        raise TypeError(f"cannot evaluate {t.__name__}")
    done[id(e)] = value
    return value


def subst(e: Expression, bindings: Mapping[str, ExprLike]) -> Expression:
    """Substitute expressions (or numbers) for variables, re-simplifying;
    a subtree that holds none of the bound names is returned as it is."""
    t = type(e)
    if t is Const:
        return e
    if t is Var:
        if e.name in bindings:
            return _coerce(bindings[e.name])
        return e
    if free_vars(e).isdisjoint(bindings):
        return e
    kind = _KINDS[t]
    operands = []
    for name in kind.operands:  # a loop, not a comprehension: one frame per level
        operands.append(subst(getattr(e, name), bindings))
    return kind.build(e, *operands)


def free_vars(e: Expression) -> frozenset[str]:
    """The names of the variables in ``e``.  An interior node counts them
    once and keeps them; it shares an operand's set that holds the other's."""
    t = type(e)
    if t is Const:
        return _NO_NAMES
    if t is Var:
        return frozenset((e.name,))
    names = e._free
    if names is None:
        names = _NO_NAMES
        for name in _KINDS[t].operands:  # a loop: one frame per level
            more = free_vars(getattr(e, name))
            if not more <= names:
                names = more if names <= more else names | more
        _set_free(e, names)
    return names


# ---------------------------------------------------------------------------
# Printing


def _fmt_number(value: float) -> str:
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def _render(e: Expression) -> tuple[str, int]:
    """The text of ``e`` and its precedence."""
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_fmt_number(-e.value)}", _PREC_NEG
        return _fmt_number(e.value), _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Add) and isinstance(e.right, Neg):
        e = Sub(e.left, e.right.operand)  # a + -b prints as a - b
    kind = _KINDS[type(e)]
    texts = []
    for name, bind in zip(kind.operands, kind.binds):
        text, prec = _render(getattr(e, name))
        texts.append(f"({text})" if prec < bind else text)
    return kind.text.format(*texts, e=e), kind.prec


def to_text(e: Expression) -> str:
    """Render ``e`` as text accepted by :func:`parse`."""
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Compilation (hot loops only; `evaluate` is the contract-carrying API)

_NAMESPACE = {f"_{f}": fn for f, fn in _APPLY.items()}
_FIELD_FACTORIES = {}  # factory source -> compiled factory, one per field shape


def _emit(e: Expression, args: Mapping[str, str], lines: list[str],
          constants: list[float]) -> str:
    """Append one assignment per interior node of ``e`` to ``lines``, in
    the order Python would evaluate the nested expression, and the value
    of each constant to ``constants``, named ``_c<k>`` in the code; return
    the operand that holds the value of ``e``."""
    values: list[str] = []
    stack: list[tuple[Expression, bool]] = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, Const):
            values.append(f"_c{len(constants)}")
            constants.append(node.value)
        elif isinstance(node, Var):
            values.append(args[node.name])
        elif not ready:
            stack.append((node, True))
            stack.extend((getattr(node, name), False)
                         for name in reversed(_KINDS[type(node)].operands))
        else:
            kind = _KINDS[type(node)]
            operands = values[-len(kind.operands):]
            del values[-len(kind.operands):]
            lines.append(f"        _t{len(lines)} = {kind.code.format(*operands, e=node)}")
            values.append(f"_t{len(lines) - 1}")
    return values.pop()


def compile_field(exprs: Iterable[Expression], names: Iterable[str]):
    """Compile expressions into one function ``f(*values) -> tuple``.

    The function takes one positional value per name in ``names`` and
    returns one value per expression.  Its body is three-address code:
    one local per interior node, assigned in the order Python evaluates
    the nested expression, so a tree of any depth compiles.  Constants
    are closure variables, not literals, so the code depends only on the
    shape of the expressions: each shape is compiled once, into a factory
    cached for the life of the process, and each call binds its own
    constants by calling that factory.  The arithmetic is that of the
    arguments: Python floats raise ``ZeroDivisionError`` for a zero
    divisor and ``OverflowError`` for a power overflow where
    ``np.float64`` values give inf or nan; ``exp`` overflow raises
    ``OverflowError`` and ``sqrt`` of a negative number ``ValueError``
    either way.
    """
    args = {n: f"_y{i}" for i, n in enumerate(names)}
    lines: list[str] = []
    constants: list[float] = []
    results = [_emit(e, args, lines, constants) for e in exprs]
    source = "\n".join([
        f"def _make({', '.join(f'_c{k}' for k in range(len(constants)))}):",
        f"    def _field({', '.join([*args.values(), ''])}):", *lines,
        f"        return ({', '.join([*results, ''])})",
        "    return _field"])
    make = _FIELD_FACTORIES.get(source)
    if make is None:
        namespace = dict(_NAMESPACE)
        exec(source, namespace)  # noqa: S102 - generated from our own AST
        make = _FIELD_FACTORIES[source] = namespace["_make"]
    return make(*constants)


def compile_fn(exprs: Iterable[Expression], names: Iterable[str]):
    """Compile expressions into one callable ``f(values) -> list``.

    ``values`` is indexed positionally following ``names``; the body is
    that of :func:`compile_field`, so domain errors surface the same way.
    """
    fn = compile_field(exprs, names)
    return lambda values: list(fn(*values))

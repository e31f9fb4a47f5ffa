import cmath
import math
import operator
import struct
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from affgeo import symexpr as se
from affgeo.symexpr import (
    Const, Var, VarContext, parse, differentiate, evaluate, subst,
    free_vars, to_text, ExprSyntaxError, UnknownIdentifierError,
    UnboundVariableError, DomainError,
)

CTX_PQ = VarContext.make(base=("p", "q"))
CTX_XY = VarContext.make(base=("x", "y"))


def test_parse_free_vars():
    e = parse("p^2/2 + q^2/2", CTX_PQ)
    assert free_vars(e) == frozenset({"p", "q"})


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("sin(x)*", CTX_XY)
    assert err.value.position == 7


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("p + z", CTX_PQ)
    assert err.value.name == "z"


def test_parse_unknown_function():
    with pytest.raises(UnknownIdentifierError):
        parse("tan(p)", CTX_PQ)


def test_grammar_unary_minus_binds_before_power():
    # per the grammar, -x^2 is (-x)^2
    e = parse("-x^2", CTX_XY)
    assert evaluate(e, {"x": 3.0}) == 9.0


@pytest.mark.parametrize("exponent", ["1" + "0" * 400, "1" + "0" * 4999, "-1" + "0" * 400],
                         ids=["401-digits", "5000-digits", "negative-401-digits"])
def test_parse_rejects_an_exponent_past_the_float_range(exponent):
    with pytest.raises(ExprSyntaxError, match="exponent out of the float range") as err:
        parse(f"x^{exponent}", CTX_XY)
    assert err.value.position == 2 + exponent.startswith("-")


def test_parse_admits_the_largest_exponent_a_float_holds():
    exponent = int(1.7976931348623157e308)
    assert parse(f"x^{exponent}", CTX_XY) == se.Pow(Var("x"), exponent)


def test_parse_numbers():
    e = parse("1.5e-2 + 2", CTX_XY)
    assert evaluate(e, {}) == pytest.approx(2.015)


@pytest.mark.parametrize("text, position", [("1.2.3", 3), ("1..", 2), ("x*\u00b2", 2),
                                            ("x^\u00b2", 2)])
def test_parse_rejects_malformed_numbers_with_an_offset(text, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, CTX_XY)
    assert err.value.position == position


@pytest.mark.parametrize("text, value", [("3.", 3.0), (".5", 0.5), ("1.e5", 1e5),
                                         ("1e-05", 1e-05), ("2E+3", 2e3)])
def test_parse_accepts_every_decimal_form(text, value):
    assert parse(text, CTX_XY) == Const(value)


def test_differentiate_power_rule():
    e = parse("x^2 + 3*y", CTX_XY)
    assert differentiate(e, "x") == se.mul(Const(2.0), Var("x"))


def test_differentiate_table_rule():
    assert differentiate(parse("sin(x)", CTX_XY), "x") == se.call("cos", Var("x"))


def test_differentiate_independent():
    assert differentiate(parse("x^2", CTX_XY), "y") == Const(0.0)


def test_differentiate_independent_quotient_and_root_fold_to_zero():
    # the quotient rule used to leave 0/(1 + q^2)^2
    assert differentiate(parse("1/(1 + q^2)", CTX_PQ), "p") == Const(0.0)
    assert differentiate(parse("sqrt(1 + q^2)", CTX_PQ), "p") == Const(0.0)


def test_evaluate_basic():
    assert evaluate(parse("x^2 + 3*y", CTX_XY), {"x": 2, "y": 1}) == 7.0
    assert evaluate(parse("sin(x)", CTX_XY), {"x": 0.0}) == 0.0


def test_evaluate_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("x/y", CTX_XY), {"x": 1.0, "y": 0.0})


def test_evaluate_sqrt_negative():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)", CTX_XY), {"x": -1.0})


def test_evaluate_unbound():
    with pytest.raises(UnboundVariableError):
        evaluate(Var("x"), {})


@pytest.mark.parametrize("apply", [
    lambda x: x + x, lambda x: 1.0 + x, lambda x: x - 1.0, lambda x: 1.0 - x,
    lambda x: x * x, lambda x: 2 * x, lambda x: x / 2, lambda x: 2 / x,
    lambda x: x ** 2, lambda x: -x,
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "pow", "neg"])
def test_expressions_have_no_arithmetic_operators(apply):
    # trees are built by parse or the smart constructors, one way
    with pytest.raises(TypeError):
        apply(Var("x"))


def test_sub_cancels_equal_operands():
    e = parse("sin(x)*y", CTX_XY)
    assert se.sub(e, e) == Const(0.0)


def test_subst_simplifies():
    s = parse("x^2", CTX_XY)
    f = se.sub(Var("y"), s)
    assert subst(f, {"y": s}) == Const(0.0)


# --- the simplifier, pinned rule by rule ------------------------------------

C, NAN, NAN2 = Const, math.nan, float("nan")  # two NaN objects: `is` tells them apart
x, y = Var("x"), Var("y")
Add, Mul, Neg = se.Add, se.Mul, se.Neg

SIMPLIFIER = [
    # constructor, operands, the exact repr of the tree it builds
    # Const op Const folds; a zero divisor does not
    ("add", (C(2.0), C(3.0)), "Const(value=5.0)"),
    ("sub", (C(2.0), C(3.0)), "Const(value=-1.0)"),
    ("mul", (C(2.0), C(3.0)), "Const(value=6.0)"),
    ("div", (C(3.0), C(2.0)), "Const(value=1.5)"),
    ("div", (C(1.0), C(0.0)), "Div(left=Const(value=1.0), right=Const(value=0.0))"),
    ("div", (C(0.0), C(0.0)), "Div(left=Const(value=0.0), right=Const(value=0.0))"),
    ("div", (C(0.0), C(-2.0)), "Const(value=-0.0)"),
    ("neg", (C(2.0),), "Const(value=-2.0)"),
    ("neg", (C(0.0),), "Const(value=-0.0)"),
    ("neg", (C(-0.0),), "Const(value=0.0)"),
    # the 0 identities, with +0.0 and -0.0 on either side; 0/x stays unfolded
    ("add", (C(0.0), x), "Var(name='x')"),
    ("add", (x, C(0.0)), "Var(name='x')"),
    ("add", (C(-0.0), x), "Var(name='x')"),
    ("add", (x, C(-0.0)), "Var(name='x')"),
    ("add", (C(0.0), C(-0.0)), "Const(value=0.0)"),
    ("add", (C(-0.0), C(0.0)), "Const(value=0.0)"),
    ("add", (C(-0.0), C(-0.0)), "Const(value=-0.0)"),
    ("sub", (x, C(0.0)), "Var(name='x')"),
    ("sub", (x, C(-0.0)), "Var(name='x')"),
    ("sub", (C(0.0), x), "Neg(operand=Var(name='x'))"),
    ("sub", (C(-0.0), x), "Neg(operand=Var(name='x'))"),
    ("sub", (C(0.0), C(0.0)), "Const(value=0.0)"),
    ("sub", (C(-0.0), C(0.0)), "Const(value=-0.0)"),
    ("sub", (C(0.0), Neg(x)), "Var(name='x')"),
    ("mul", (C(0.0), x), "Const(value=0.0)"),
    ("mul", (x, C(0.0)), "Const(value=0.0)"),
    ("mul", (C(-0.0), x), "Const(value=0.0)"),
    ("mul", (x, C(-0.0)), "Const(value=0.0)"),
    ("mul", (C(-0.0), C(2.0)), "Const(value=-0.0)"),
    ("mul", (C(-1.0), C(0.0)), "Const(value=-0.0)"),
    ("div", (C(0.0), x), "Div(left=Const(value=0.0), right=Var(name='x'))"),
    ("div", (C(-0.0), x), "Div(left=Const(value=-0.0), right=Var(name='x'))"),
    ("div", (x, C(0.0)), "Div(left=Var(name='x'), right=Const(value=0.0))"),
    ("div", (x, C(-0.0)), "Div(left=Var(name='x'), right=Const(value=-0.0))"),
    ("div", (C(-0.0), C(2.0)), "Const(value=-0.0)"),
    ("div", (Mul(C(3.0), x), C(0.0)),
     "Div(left=Mul(left=Const(value=3.0), right=Var(name='x')), right=Const(value=0.0))"),
    # the 1 and -1 identities
    ("mul", (C(1.0), x), "Var(name='x')"),
    ("mul", (x, C(1.0)), "Var(name='x')"),
    ("mul", (C(-1.0), x), "Neg(operand=Var(name='x'))"),
    ("mul", (x, C(-1.0)), "Neg(operand=Var(name='x'))"),
    ("mul", (C(-1.0), Neg(x)), "Var(name='x')"),
    ("mul", (Neg(x), C(-1.0)), "Var(name='x')"),
    ("div", (x, C(1.0)), "Var(name='x')"),
    ("div", (C(1.0), x), "Div(left=Const(value=1.0), right=Var(name='x'))"),
    ("div", (x, C(-1.0)), "Div(left=Var(name='x'), right=Const(value=-1.0))"),
    ("div", (C(0.0), C(1.0)), "Const(value=0.0)"),
    # nested constants fold on both sides: c1 + (c2 + x) and (c2*x) * c1
    ("add", (C(2.0), Add(C(3.0), x)), "Add(left=Const(value=5.0), right=Var(name='x'))"),
    ("add", (Add(C(3.0), x), C(2.0)), "Add(left=Const(value=5.0), right=Var(name='x'))"),
    ("add", (C(2.0), Add(x, C(3.0))),
     "Add(left=Const(value=2.0), right=Add(left=Var(name='x'), right=Const(value=3.0)))"),
    ("add", (Add(x, C(3.0)), C(2.0)),
     "Add(left=Add(left=Var(name='x'), right=Const(value=3.0)), right=Const(value=2.0))"),
    ("mul", (C(2.0), Mul(C(3.0), x)), "Mul(left=Const(value=6.0), right=Var(name='x'))"),
    ("mul", (Mul(C(3.0), x), C(2.0)), "Mul(left=Const(value=6.0), right=Var(name='x'))"),
    ("mul", (C(2.0), Mul(x, C(3.0))),
     "Mul(left=Const(value=2.0), right=Mul(left=Var(name='x'), right=Const(value=3.0)))"),
    ("mul", (Mul(x, C(3.0)), C(2.0)),
     "Mul(left=Const(value=2.0), right=Mul(left=Var(name='x'), right=Const(value=3.0)))"),
    ("div", (Mul(C(3.0), x), C(2.0)), "Mul(left=Const(value=1.5), right=Var(name='x'))"),
    ("div", (Mul(C(3.0), x), C(3.0)), "Var(name='x')"),
    ("div", (Mul(C(-2.0), x), C(2.0)), "Neg(operand=Var(name='x'))"),
    ("div", (Mul(x, C(3.0)), C(2.0)),
     "Div(left=Mul(left=Var(name='x'), right=Const(value=3.0)), right=Const(value=2.0))"),
    ("div", (Mul(C(3.0), x), y),
     "Div(left=Mul(left=Const(value=3.0), right=Var(name='x')), right=Var(name='y'))"),
    # constants move to the left operand
    ("mul", (x, C(2.0)), "Mul(left=Const(value=2.0), right=Var(name='x'))"),
    ("mul", (C(2.0), x), "Mul(left=Const(value=2.0), right=Var(name='x'))"),
    ("mul", (Add(x, y), C(2.0)),
     "Mul(left=Const(value=2.0), right=Add(left=Var(name='x'), right=Var(name='y')))"),
    ("add", (x, C(2.0)), "Add(left=Var(name='x'), right=Const(value=2.0))"),
    ("mul", (x, y), "Mul(left=Var(name='x'), right=Var(name='y'))"),
    ("add", (x, y), "Add(left=Var(name='x'), right=Var(name='y'))"),
    # a + -a, -a + a and e - e; a zero right operand returns the left one first
    ("add", (x, Neg(x)), "Const(value=0.0)"),
    ("add", (Neg(x), x), "Const(value=0.0)"),
    ("add", (Neg(x), y), "Add(left=Neg(operand=Var(name='x')), right=Var(name='y'))"),
    ("add", (C(2.0), Neg(C(2.0))), "Const(value=0.0)"),
    ("add", (Neg(C(2.0)), C(2.0)), "Const(value=0.0)"),
    ("add", (Neg(C(0.0)), C(0.0)), "Neg(operand=Const(value=0.0))"),
    ("add", (Mul(x, y), Neg(Mul(x, y))), "Const(value=0.0)"),
    ("add", (Neg(Neg(x)), Neg(x)), "Const(value=0.0)"),
    ("sub", (x, x), "Const(value=0.0)"),
    ("sub", (Mul(x, y), Mul(x, y)), "Const(value=0.0)"),
    ("sub", (x, y), "Sub(left=Var(name='x'), right=Var(name='y'))"),
    ("sub", (Mul(x, y), Mul(y, x)),
     "Sub(left=Mul(left=Var(name='x'), right=Var(name='y')), "
     "right=Mul(left=Var(name='y'), right=Var(name='x')))"),
    ("sub", (C(0.0), C(-0.0)), "Const(value=0.0)"),
    # neg(neg(x))
    ("neg", (Neg(x),), "Var(name='x')"),
    ("neg", (x,), "Neg(operand=Var(name='x'))"),
    ("neg", (Neg(Neg(x)),), "Neg(operand=Var(name='x'))"),
    ("neg", (Neg(C(2.0)),), "Const(value=2.0)"),
    # NaN constants; structural equality compares the float objects first
    ("add", (C(NAN), C(1.0)), "Const(value=nan)"),
    ("add", (C(NAN), x), "Add(left=Const(value=nan), right=Var(name='x'))"),
    ("add", (x, C(NAN)), "Add(left=Var(name='x'), right=Const(value=nan))"),
    ("sub", (C(NAN), C(NAN)), "Const(value=nan)"),
    ("sub", (C(NAN), x), "Sub(left=Const(value=nan), right=Var(name='x'))"),
    ("sub", (x, C(NAN)), "Sub(left=Var(name='x'), right=Const(value=nan))"),
    ("mul", (C(NAN), x), "Mul(left=Const(value=nan), right=Var(name='x'))"),
    ("mul", (x, C(NAN)), "Mul(left=Const(value=nan), right=Var(name='x'))"),
    ("mul", (C(NAN), C(0.0)), "Const(value=nan)"),
    ("mul", (C(NAN), Mul(C(2.0), x)), "Mul(left=Const(value=nan), right=Var(name='x'))"),
    ("mul", (C(2.0), Mul(C(NAN), x)), "Mul(left=Const(value=nan), right=Var(name='x'))"),
    ("div", (x, C(NAN)), "Div(left=Var(name='x'), right=Const(value=nan))"),
    ("div", (C(NAN), x), "Div(left=Const(value=nan), right=Var(name='x'))"),
    ("div", (C(1.0), C(NAN)), "Const(value=nan)"),
    ("div", (Mul(C(2.0), x), C(NAN)), "Mul(left=Const(value=nan), right=Var(name='x'))"),
    ("neg", (C(NAN),), "Const(value=nan)"),
    ("add", (C(NAN), Add(C(1.0), x)), "Add(left=Const(value=nan), right=Var(name='x'))"),
    ("sub", (Mul(C(NAN), x), Mul(C(NAN), x)), "Const(value=0.0)"),
    ("add", (Neg(C(NAN)), C(NAN)), "Const(value=0.0)"),
    ("sub", (Mul(C(NAN), x), Mul(C(NAN2), x)),
     "Sub(left=Mul(left=Const(value=nan), right=Var(name='x')), "
     "right=Mul(left=Const(value=nan), right=Var(name='x')))"),
    ("add", (Neg(C(NAN)), C(NAN2)),
     "Add(left=Neg(operand=Const(value=nan)), right=Const(value=nan))"),
    # a - (-b) is a + b, built as one node: add would re-associate c1 + (c2 + x)
    ("sub", (x, Neg(y)), "Add(left=Var(name='x'), right=Var(name='y'))"),
    ("sub", (C(0.0), Neg(x)), "Var(name='x')"),
    ("sub", (C(2.0), Neg(Add(C(1.0), x))),
     "Add(left=Const(value=2.0), right=Add(left=Const(value=1.0), right=Var(name='x')))"),
    ("sub", (Neg(x), Neg(x)), "Const(value=0.0)"),
]


@pytest.mark.parametrize("fn, operands, tree", SIMPLIFIER)
def test_the_smart_constructors_build_the_pinned_trees(fn, operands, tree):
    assert repr(getattr(se, fn)(*operands)) == tree


# --- random-expression machinery -----------------------------------------


def _leaf(rng_vals):
    return st.one_of(
        st.sampled_from([Var("x"), Var("y")]),
        st.floats(-3, 3, allow_nan=False).map(lambda v: Const(round(v, 3))),
    )


def polynomials(max_depth=4):
    """Strategy for division-free expressions (safe to evaluate anywhere)."""
    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: se.add(*ab)),
            st.tuples(children, children).map(lambda ab: se.sub(*ab)),
            st.tuples(children, children).map(lambda ab: se.mul(*ab)),
            st.tuples(children, st.integers(0, 3)).map(lambda bn: se.pow_(*bn)),
            children.map(se.neg),
            children.map(lambda e: se.call("sin", e)),
            children.map(lambda e: se.call("cos", e)),
        )
    return st.recursive(_leaf(None), extend, max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.sampled_from(["x", "y"]),
       st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_derivative_matches_finite_difference(e, v, x, y):
    h = 1e-6
    point = {"x": x, "y": y}
    up = dict(point, **{v: point[v] + h})
    dn = dict(point, **{v: point[v] - h})
    approx = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
    exact = evaluate(differentiate(e, v), point)
    scale = max(1.0, abs(exact), abs(approx))
    assert abs(exact - approx) / scale < 1e-5


@settings(max_examples=40, deadline=None)
@given(polynomials(), polynomials())
def test_differentiate_is_additive(e, f):
    lhs = differentiate(se.add(e, f), "x")
    rhs = se.add(differentiate(e, "x"), differentiate(f, "x"))
    for k in range(32):
        pt = {"x": math.sin(3.1 * k + 0.2), "y": math.cos(1.7 * k)}
        assert abs(evaluate(lhs, pt) - evaluate(rhs, pt)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_print_parse_round_trip(e, ):
    text = to_text(e)
    reparsed = parse(text, CTX_XY)
    for k in range(8):
        pt = {"x": 0.37 * k - 1.1, "y": 0.53 * k - 1.9}
        assert evaluate(reparsed, pt) == pytest.approx(evaluate(e, pt), abs=1e-12)


def test_print_parse_round_trip_negated_power():
    e = se.neg(se.pow_(Var("x"), 2))
    assert evaluate(parse(to_text(e), CTX_XY), {"x": 1.1}) == evaluate(e, {"x": 1.1})


def test_print_parse_round_trip_division():
    e = se.div(se.add(Var("x"), Const(1.0)), se.add(se.pow_(Var("y"), 2), Const(1.0)))
    reparsed = parse(to_text(e), CTX_XY)
    pt = {"x": 0.3, "y": -0.8}
    assert evaluate(reparsed, pt) == pytest.approx(evaluate(e, pt), abs=1e-15)


def test_compile_matches_evaluate():
    e = parse("sin(x)*y + x^3/(y^2+1)", CTX_XY)
    fn = se.compile_fn([e], ["x", "y"])
    for k in range(10):
        x, y = 0.3 * k - 1.2, 0.41 * k - 2.0
        assert fn([x, y])[0] == pytest.approx(evaluate(e, {"x": x, "y": y}), abs=1e-15)


def test_var_context_roles():
    ctx = VarContext.make(base=("q1", "p1"), time="t")
    assert ctx.names == ("q1", "p1", "t")
    assert VarContext.make(time="t", base=("x",)).names == ("x", "t")
    assert VarContext.make(base=("x",)).names == ("x",)
    with pytest.raises(ValueError):
        VarContext.make(base=("a", "a"))


# --- non-finite constants, overflow, and evaluation over a sample set -------


@pytest.mark.parametrize("text", ["1e400*x", "1e200*1e200*x", "x + 1e308*(1e308*y)",
                                  "-1e400"])
def test_parse_rejects_non_finite_constants(text):
    with pytest.raises(ExprSyntaxError):
        parse(text, CTX_XY)


def test_non_finite_constant_from_the_api_prints_and_compiles():
    assert to_text(Const(math.inf)) == "inf"
    assert to_text(Const(-math.inf)) == "-inf"
    assert to_text(Const(math.nan)) == "nan"
    fn = se.compile_fn([Const(math.inf), se.mul(Const(-math.inf), Var("x"))], ["x"])
    assert fn([2.0]) == [math.inf, -math.inf]


def test_power_overflow_is_a_domain_error():
    e = parse("x^400", CTX_XY)
    with pytest.raises(DomainError):
        evaluate(e, {"x": 10.0})
    with pytest.raises(DomainError):
        evaluate(e, {"x": np.array([0.5, 10.0])})
    assert evaluate(e, {"x": np.array([0.5, 1.0])})[1] == 1.0


def test_folding_an_overflowing_power_defers_to_evaluation():
    e = parse("1e200^2*x", CTX_XY)
    with pytest.raises(DomainError):
        evaluate(e, {"x": 1.0})


def test_array_evaluation_domain_errors():
    xs = np.array([1.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        evaluate(parse("y/x", CTX_XY), {"x": xs, "y": 1.0})
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x - 1)", CTX_XY), {"x": xs})
    with pytest.raises(DomainError):
        evaluate(parse("x^-2", CTX_XY), {"x": xs})
    with pytest.raises(DomainError):
        evaluate(parse("exp(1000*x)", CTX_XY), {"x": xs})


def test_array_evaluation_of_a_constant_is_a_float():
    assert evaluate(parse("2*3 + 1", CTX_XY), {"x": np.zeros(4)}) == 7.0


@pytest.mark.parametrize("e", [se.Pow(Var("x"), k) for k in range(-3, 7)]
                         + [se.Call(f, Var("y")) for f in se.FUNCTIONS])
def test_array_powers_and_functions_round_as_python_does(e):
    # np.power and np.exp differ from Python's ** and math.exp in the last
    # bit for a few percent of arguments; the array path must not use them
    xy = np.random.default_rng(5).uniform(0.01, 2.0, size=(1000, 2))
    array = evaluate(e, {"x": xy[:, 0], "y": xy[:, 1]})
    scalar = np.array([evaluate(e, {"x": x, "y": y}) for x, y in xy.tolist()])
    assert array.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()


def _bits_or_error(fn):
    """The bits of the value(s), or the message of the ``DomainError``;
    numpy's warnings are left on, so one that escapes fails under -W error."""
    try:
        return np.asarray(fn(), float).view(np.uint64).tolist()
    except DomainError as err:
        return str(err)


ANY_FLOAT = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.floats(),  # ±0, subnormals, ±inf and NaNs of either sign
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1080, 1024)),  # every scale, up to overflow
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ANY_FLOAT, min_size=1, max_size=20), st.integers(-6, 12))
def test_an_array_power_is_pythons_power_bit_for_bit(bases, k):
    e = se.Pow(Var("x"), k)
    each = [_bits_or_error(lambda: evaluate(e, {"x": b})) for b in bases]
    for b, expected in zip(bases, each):
        single = _bits_or_error(lambda: evaluate(e, {"x": np.array([b])}))
        assert single == (expected if isinstance(expected, str) else [expected])
    # over several points the zero check runs first, then the power
    errors = [r for r in each if isinstance(r, str)]
    zero = "zero raised to a negative power"
    expected = (zero if zero in errors else errors[0]) if errors else each
    assert _bits_or_error(lambda: evaluate(e, {"x": np.array(bases)})) == expected


def _safe(arg):
    return se.Add(Const(1.5), se.Mul(arg, arg))


def all_kinds(max_leaves=10, leaves=_leaf(None), distinct=False):
    """Strategy for trees that use every node kind, with an interior node at
    the root, built without the simplifier; divisors, ``sqrt`` and ``exp``
    get safe arguments.  With ``distinct`` the two operands of a binary node
    differ."""
    def extend(children):
        pairs = st.tuples(children, children)
        if distinct:
            pairs = pairs.filter(lambda ab: ab[0] != ab[1])
        return st.one_of(
            pairs.map(lambda ab: se.Add(*ab)),
            pairs.map(lambda ab: se.Sub(*ab)),
            pairs.map(lambda ab: se.Mul(*ab)),
            pairs.map(lambda ab: se.Div(ab[0], _safe(ab[1]))),
            st.tuples(children, st.integers(-3, 6)).map(lambda bk: se.Pow(*bk)),
            children.map(se.Neg),
            children.map(lambda e: se.Call("sin", e)),
            children.map(lambda e: se.Call("cos", e)),
            children.map(lambda e: se.Call("exp", se.Call("sin", e))),
            children.map(lambda e: se.Call("sqrt", _safe(e))),
        )
    return st.recursive(leaves, extend, max_leaves=max_leaves).filter(
        lambda e: not isinstance(e, (Const, Var)))


def _outcome(fn):
    """The values, or None when evaluation failed at some point."""
    try:
        return fn()
    except (DomainError, ValueError):  # math.sin(inf) raises ValueError
        return None


@settings(max_examples=150, deadline=None)
@given(all_kinds(), st.integers(0, 2**32 - 1))
def test_array_evaluation_matches_point_by_point_bit_for_bit(e, seed):
    xy = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(50, 2))
    scalar = _outcome(lambda: np.array(
        [evaluate(e, {"x": x, "y": y}) for x, y in xy.tolist()]))
    with np.errstate(all="ignore"):
        array = _outcome(lambda: np.broadcast_to(
            evaluate(e, {"x": xy[:, 0], "y": xy[:, 1]}), (50,)))
    if scalar is None:
        assert array is None
    else:
        assert array.dtype == np.float64
        assert array.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()


@settings(max_examples=150, deadline=None)
@given(all_kinds(), all_kinds(), st.integers(0, 2**32 - 1))
def test_subtracting_a_negation_builds_the_sum_with_the_same_doubles(a, b, seed):
    """Equal bits wherever the old tree is a number; where it is NaN the new
    one is NaN too, but Neg flips a NaN's sign bit and the sum does not."""
    assume(a != se.Neg(b))  # e - e folds to 0 first
    folded, kept = se.sub(a, se.Neg(b)), se.Sub(a, se.Neg(b))
    assert type(folded) is se.Add and (folded.left, folded.right) == (a, b)
    xy = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(50, 2))
    env = {"x": xy[:, 0], "y": xy[:, 1]}
    with np.errstate(all="ignore"):
        old, new = (_outcome(lambda: np.broadcast_to(evaluate(e, env), (50,)).copy())
                    for e in (kept, folded))
    if old is None:
        assert new is None
    else:
        nan = np.isnan(old)
        assert np.isnan(new).tolist() == nan.tolist()
        assert new[~nan].view(np.uint64).tolist() == old[~nan].view(np.uint64).tolist()


def test_subtracting_a_negated_nan_gives_a_nan():
    for b in (NAN, -NAN):
        old = evaluate(se.Sub(x, se.Neg(C(b))), {"x": 1.0})
        new = evaluate(se.sub(x, se.Neg(C(b))), {"x": 1.0})
        assert math.isnan(old) and math.isnan(new)


# --- sympy as an oracle that shares no code with symexpr ----------------------


def _to_sympy(e, sp):
    """``e`` as a sympy expression; each constant keeps its exact binary value."""
    if isinstance(e, Const):
        return sp.Rational(e.value)
    if isinstance(e, Var):
        return sp.Symbol(e.name)
    if isinstance(e, se.Pow):
        return _to_sympy(e.base, sp) ** e.exponent
    if isinstance(e, se.Neg):
        return -_to_sympy(e.operand, sp)
    if isinstance(e, se.Call):
        return getattr(sp, e.func)(_to_sympy(e.arg, sp))
    op = {se.Add: operator.add, se.Sub: operator.sub, se.Mul: operator.mul,
          se.Div: operator.truediv}[type(e)]
    return op(_to_sympy(e.left, sp), _to_sympy(e.right, sp))


def _subtrees(e):
    yield e
    for name in type(e).__slots__:
        child = getattr(e, name)
        if isinstance(child, se.Expression):
            yield from _subtrees(child)


def _agree(e, oracle, point, sp):
    """Whether ``evaluate(e, point)`` is within rounding of the sympy
    expression ``oracle`` at ``point`` (30 digits); true where either side
    is undefined there.  Rounding is bounded by the largest value of any
    subtree of ``e``, which needs every argument of sin, cos and exp to be
    at most 1e3 in size: the absolute error of a function of a large
    argument grows with the argument, so such a point is skipped too."""
    try:
        values = {id(t): evaluate(t, point) for t in _subtrees(e)}
        exact = complex(oracle.evalf(30, subs={sp.Symbol(n): v for n, v in point.items()}))
    except (DomainError, ValueError, TypeError, ZeroDivisionError, OverflowError):
        return True
    magnitudes = list(map(abs, values.values()))
    if not (all(map(math.isfinite, magnitudes)) and cmath.isfinite(exact)) or exact.imag:
        return True
    if any(abs(values[id(t.arg)]) > 1e3 for t in _subtrees(e)
           if isinstance(t, se.Call) and t.func != "sqrt"):
        return True
    return abs(values[id(e)] - exact.real) <= 1e-9 * max(1.0, *magnitudes)


def test_sympy_oracle_skips_a_function_of_a_large_argument():
    # d/dy of -sin((y^3)^-3) is cos((y^3)^-3) times about 9/y^10: near
    # y = -0.1 the argument is about -1e9, and the few ulps of rounding in
    # it make cos off by about 1e-7, times 1e10
    sp = pytest.importorskip("sympy")
    e = se.Neg(se.Call("sin", se.Pow(se.Pow(Var("y"), 3), -3)))
    d = differentiate(e, "y")
    oracle = sp.diff(_to_sympy(e, sp), sp.Symbol("y"))
    for y in (-0.11, -0.1):
        assert _agree(d, oracle, {"x": 0.0, "y": y}, sp)
    # where the argument is -512 the values are still compared
    assert _agree(d, oracle, {"x": 0.0, "y": -0.5}, sp)
    assert not _agree(d, oracle * 1.000001, {"x": 0.0, "y": -0.5}, sp)


def _varying(max_leaves):
    """``all_kinds`` over variable leaves with distinct operands, so that few
    derivatives and substitutions of a drawn tree fold to a constant."""
    return all_kinds(max_leaves, st.sampled_from([Var("x"), Var("y")]), distinct=True)


@settings(max_examples=150, deadline=None)
@given(_varying(6), _varying(3), _varying(3), st.sampled_from(["x", "y"]),
       st.integers(0, 2**32 - 1))
def test_differentiate_subst_and_printing_agree_with_sympy(e, g, h, v, seed):
    sp = pytest.importorskip("sympy")
    if v not in free_vars(e):  # a derivative by a variable e holds
        v = min(free_vars(e))
    x, y = sp.symbols("x y")
    ours = _to_sympy(e, sp)
    cases = [(e, ours), (differentiate(e, v), sp.diff(ours, sp.Symbol(v))),
             (subst(e, {"x": g, "y": h}),
              ours.xreplace({x: _to_sympy(g, sp), y: _to_sympy(h, sp)}))]
    # each tree printed and read back by sympy must give the same values
    cases += [(tree, sp.sympify(to_text(tree), locals={"x": x, "y": y})) for tree, _ in cases]
    for px, py in np.random.default_rng(seed).uniform(-2.0, 2.0, size=(3, 2)).tolist():
        for tree, oracle in cases:
            assert _agree(tree, oracle, {"x": px, "y": py}, sp), (to_text(tree), oracle)


X, Y = Var("x"), Var("y")


@pytest.mark.parametrize("e", [
    se.Sub(X, se.Sub(Y, X)), se.Sub(X, se.Add(Y, X)), se.Add(X, se.Neg(se.Sub(Y, X))),
    se.Div(X, se.Mul(Y, X)), se.Div(X, se.Div(Y, X)), se.Mul(se.Add(X, Y), Y),
    se.Pow(se.Neg(X), 2), se.Pow(se.Add(X, Y), 2), se.Pow(Const(-2.0), 2),
    se.Neg(se.Add(X, Y)), se.Neg(se.Pow(X, 2)), se.Call("sin", se.Add(X, Y))],
    ids=lambda e: to_text(e))
def test_printed_brackets_agree_with_sympy(e):
    # the operands that must print in brackets, one node kind each
    sp = pytest.importorskip("sympy")
    oracle = sp.sympify(to_text(e), locals={"x": sp.Symbol("x"), "y": sp.Symbol("y")})
    for point in ({"x": 0.3, "y": 0.7}, {"x": -1.1, "y": 1.9}):
        assert _agree(e, oracle, point, sp)


# --- compiled fields and the depth limits of parse ---------------------------


def test_compile_field_takes_positional_values_and_returns_a_tuple():
    e = parse("sin(x)*y + x^3/(y^2+1)", CTX_XY)
    fn = se.compile_field([e, Const(2.0), Var("y")], ["x", "y"])
    assert fn(0.3, -1.1) == (evaluate(e, {"x": 0.3, "y": -1.1}), 2.0, -1.1)
    assert se.compile_field([], [])() == ()


def test_compile_field_parenthesizes_negative_constants():
    # "-2.0 ** 2" would be -(2.0 ** 2)
    fn = se.compile_field([se.Pow(Const(-2.0), 2), se.Neg(Const(-0.5))], ["x"])
    assert fn(0.0) == (4.0, 0.5)


def test_compile_field_compiles_each_shape_once_and_binds_constants_per_call():
    def shape(a, b):
        return [se.add(se.mul(Const(a), Var("x")), se.div(Var("y"), Const(b)))]
    f = se.compile_field(shape(2.0, 4.0), ["x", "y"])
    g = se.compile_field(shape(3.0, 8.0), ["x", "y"])
    assert (f(1.0, 2.0), g(1.0, 2.0)) == ((2.5,), (3.25,))
    assert f.__code__ is g.__code__
    other = se.compile_field([se.sub(se.mul(Const(2.0), Var("x")), Var("y"))], ["x", "y"])
    assert other.__code__ is not f.__code__
    # one positional value per name, whatever the constants
    for values in [(1.0,), (1.0, 2.0, 3.0)]:
        with pytest.raises(TypeError):
            f(*values)


def test_compiled_constants_keep_their_bits():
    values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 0.1]
    fn = se.compile_field([Const(v) for v in values], ["x"])
    def bits(floats):
        return [struct.pack("<d", v) for v in floats]
    assert bits(fn(1.0)) == bits(values)
    # -0.0 * 2.0 is -0.0, where a constant read as 0.0 would give 0.0
    assert bits(se.compile_field([se.Mul(Const(-0.0), Var("x"))], ["x"])(2.0)) == bits([-0.0])


def test_compile_field_handles_trees_of_any_depth():
    e = Var("x")
    for k in range(3000):
        e = se.Add(e, se.Mul(Const(0.5), Var("y")))
    assert se.compile_field([e], ["x", "y"])(1.0, 2.0) == (3001.0,)
    assert se.compile_fn([e], ["x", "y"])([1.0, 2.0]) == [3001.0]


def _compiled_outcome(e, x, y):
    try:
        return se.compile_field([e], ["x", "y"])(x, y)[0]
    except (ZeroDivisionError, OverflowError, ValueError):
        return None


@settings(max_examples=150, deadline=None)
@given(all_kinds(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_compiled_field_matches_evaluate_bit_for_bit(e, x, y):
    expected = _outcome(lambda: evaluate(e, {"x": x, "y": y}))
    got = _compiled_outcome(e, x, y)
    if expected is None or got is None:
        assert expected is None and got is None
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_parse_admits_trees_up_to_max_depth():
    # a sum of n products is n + 1 levels deep
    n = se.MAX_DEPTH - 1
    e = parse("+".join(["2*x"] * n), CTX_XY)
    assert evaluate(e, {"x": 1.0}) == 2.0 * n
    with pytest.raises(ExprSyntaxError, match="deeper than"):
        parse("+".join(["2*x"] * (n + 1)), CTX_XY)


@pytest.mark.parametrize("open_, close", [("(", ")"), ("sin(", ")"), ("-", "")])
def test_parse_admits_nesting_up_to_max_nesting(open_, close):
    k = se.MAX_NESTING
    parse(open_ * k + "x" + close * k, CTX_XY)
    with pytest.raises(ExprSyntaxError, match="deeper than") as err:
        parse(open_ * 2000 + "x" + close * 2000, CTX_XY)
    assert err.value.position == k * len(open_)


# --- recursion headroom, structural comparison and the per-node caches -------


def _chain(link, depth):
    e = Var("x")
    for _ in range(depth - 1):
        e = link(e)
    return e


LINKS = {"add": lambda e: se.Add(e, Var("x")), "mul": lambda e: se.Mul(e, Var("x")),
         "sin": lambda e: se.Call("sin", e)}
TEXTS = {"add": lambda depth: " + ".join(["x"] * depth),  # the text of _chain
         "mul": lambda depth: "*".join(["x"] * depth),
         "sin": lambda depth: "sin(" * (depth - 1) + "x" + ")" * (depth - 1)}


def _same_bits(e):
    """Evaluate ``e`` on floats and on arrays; the values must agree."""
    xs = [-0.9, 0.3, 1.0]
    scalar = np.array([evaluate(e, {"x": x}) for x in xs])
    array = np.broadcast_to(evaluate(e, {"x": np.array(xs)}), (3,))
    assert array.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()


@pytest.mark.parametrize("kind", LINKS)
def test_walkers_take_one_frame_per_level(kind):
    e = _chain(LINKS[kind], se.MAX_DEPTH - 1)
    _same_bits(e)
    _same_bits(differentiate(e, "x"))  # deeper than e for products
    # twice the depth parse admits still fits under the default limit of
    # 1000 frames; a walker that took two frames per level would not
    deep = _chain(LINKS[kind], 2 * se.MAX_DEPTH)
    differentiate(deep, "x")
    _same_bits(deep)
    swapped = subst(deep, {"x": Var("y")})
    assert free_vars(deep) == {"x"} and free_vars(swapped) == {"y"}
    assert evaluate(swapped, {"y": 0.3}) == evaluate(deep, {"x": 0.3})
    assert to_text(_chain(LINKS[kind], se.MAX_DEPTH)) == TEXTS[kind](se.MAX_DEPTH)
    if kind == "sin":  # a call prints with one frame per level
        assert to_text(deep) == TEXTS[kind](2 * se.MAX_DEPTH)


@pytest.mark.parametrize("kind", LINKS)
def test_pruned_walkers_take_one_frame_per_level(kind):
    # each walker counts the free variables of a fresh chain on its first call
    for depth in (se.MAX_DEPTH - 1, 2 * se.MAX_DEPTH):
        e = _chain(LINKS[kind], depth)
        assert differentiate(e, "y") is se.ZERO and differentiate(e, "x") is not se.ZERO
        e = _chain(LINKS[kind], depth)
        assert subst(e, {"y": 1.0}) is e
        assert free_vars(subst(e, {"x": Var("y")})) == {"y"}


def test_every_interior_node_type_has_one_row():
    kinds = {cls for cls in vars(se).values()
             if isinstance(cls, type) and issubclass(cls, se.Expression)}
    assert set(se._KINDS) == kinds - {se.Expression, Const, Var}


def test_simplifier_compares_deep_operands_without_recursion():
    total = "+".join(["x"] * (se.MAX_DEPTH - 1))
    assert parse(f"({total}) - ({total})", CTX_XY) == Const(0.0)
    assert parse(f"-({total}) + ({total})", CTX_XY) == Const(0.0)


def _rebuild(e):
    """An unshared copy of ``e`` that has never been differentiated."""
    return type(e)(*[_rebuild(c) if isinstance(c, se.Expression) else c
                     for c in (getattr(e, name) for name in type(e).__slots__)])


@settings(max_examples=150, deadline=None)
@given(all_kinds(), all_kinds())
def test_structural_comparison_agrees_with_equality(e, f):
    assert se._equal(e, f) == (e == f)
    assert se._equal(e, _rebuild(e)) and e == _rebuild(e)
    assert se._equal(e, e)


@settings(max_examples=150, deadline=None)
@given(all_kinds(), st.sampled_from(["x", "y"]))
def test_derivatives_are_cached_per_node(e, v):
    w = "y" if v == "x" else "x"
    before = (hash(e), repr(e), list(type(e).__slots__))
    first, other = differentiate(e, v), differentiate(e, w)
    assert differentiate(e, v) is first and differentiate(e, w) is other
    assert first == differentiate(_rebuild(e), v)
    assert other == differentiate(_rebuild(e), w)
    assert (hash(e), repr(e), list(type(e).__slots__)) == before
    assert e == _rebuild(e) and hash(e) == hash(_rebuild(e))


def _recount(e):
    """The names of the variables in ``e``, counted with an explicit stack."""
    names, stack = set(), [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        elif not isinstance(node, Const):
            stack.extend(child for child in (getattr(node, name) for name in
                                             type(node).__slots__)
                         if isinstance(child, se.Expression))
    return names


@settings(max_examples=150, deadline=None)
@given(all_kinds(), all_kinds())
def test_free_variables_are_counted_once_per_node(e, f):
    dag = se.Mul(e, se.Add(f, se.Neg(e)))  # e is shared
    before = [(hash(t), repr(t)) for t in (dag, e, f)]
    for t in (dag, *_subtrees(dag)):
        assert free_vars(t) == _recount(t)
        if not isinstance(t, (Const, Var)):
            assert free_vars(t) is free_vars(t)
    assert [(hash(t), repr(t)) for t in (dag, e, f)] == before
    assert dag == _rebuild(dag) and hash(dag) == hash(_rebuild(dag))
    assert _compiled_outcome(dag, 0.3, -0.7) == _compiled_outcome(_rebuild(dag), 0.3, -0.7)


@settings(max_examples=150, deadline=None)
@given(all_kinds(), st.dictionaries(st.sampled_from(["x", "y", "z"]),
                                    st.sampled_from([0.0, 2.0, Var("z"), Var("x")])))
def test_walkers_return_at_once_where_the_variable_does_not_occur(e, bindings):
    for t in _subtrees(e):
        for v in ("x", "y", "z"):
            if v not in free_vars(t):
                assert differentiate(t, v) is se.ZERO
        if free_vars(t).isdisjoint(bindings):
            assert subst(t, bindings) is t


def _result(fn):
    """The bits of the values, or the type and message of the error."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(fn(), float).view(np.uint64).tolist()
    except (DomainError, ValueError) as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(all_kinds(), all_kinds(), st.integers(0, 2**32 - 1))
def test_shared_subtrees_evaluate_as_unshared_copies(t, u, seed):
    # derivatives share subtrees with their source, and the DAG reuses t
    dt = differentiate(t, "x")
    dag = se.Add(se.Mul(t, se.Sub(dt, u)), se.Div(dt, se.Add(se.Neg(t), u)))
    tree = _rebuild(dag)
    xy = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(20, 2))
    for point in ({"x": xy[0, 0], "y": xy[0, 1]}, {"x": xy[:, 0], "y": xy[:, 1]}):
        assert _result(lambda: evaluate(dag, point)) == _result(lambda: evaluate(tree, point))


@settings(max_examples=150, deadline=None)
@given(all_kinds(), all_kinds(), st.integers(0, 2**32 - 1))
def test_a_list_of_trees_evaluates_as_each_tree_alone(t, u, seed):
    # the trees share t, its derivative and u; the last two fail, each its own way
    dt = differentiate(t, "x")
    trees = [se.Mul(t, dt), se.Sub(dt, u), se.Add(se.Neg(t), u)]
    failing = [*trees, se.Div(u, se.Sub(Var("y"), Var("y"))), se.Call("sqrt", se.Neg(_safe(t)))]
    xy = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(20, 2))
    for point in ({"x": xy[0, 0], "y": xy[0, 1]}, {"x": xy[:, 0], "y": xy[:, 1]}):
        shape = np.shape(point["x"])
        for group in (trees, failing):
            together = _result(lambda: [np.broadcast_to(v, shape) for v in evaluate(group, point)])
            alone = _result(lambda: [np.broadcast_to(evaluate(e, point), shape) for e in group])
            assert together == alone
        assert isinstance(together, tuple)  # the error of the first tree that fails
        # the call keeps no tree alive: its memo is keyed by id and dropped on return
        root = se.Add(se.Mul(t, dt), u)
        ref = weakref.ref(root)
        _result(lambda: evaluate([root, trees[0]], point))
        del root
        assert ref() is None


def test_a_shared_node_is_evaluated_once_per_call(monkeypatch):
    calls = []
    monkeypatch.setitem(se._APPLY, "sin", lambda v: calls.append(v) or math.sin(v))
    s = se.Call("sin", Var("x"))
    dag = se.Add(se.Mul(s, s), se.Neg(s))
    for _ in range(2):
        assert evaluate(dag, {"x": 0.5}) == math.sin(0.5) * math.sin(0.5) - math.sin(0.5)
    evaluate(dag, {"x": np.array([0.1, 0.2])})
    assert calls == [0.5, 0.5, 0.1, 0.2]


def test_a_shared_node_that_fails_raises_the_unshared_error():
    bad = se.Div(Var("x"), se.Sub(Var("y"), Var("y")))
    dag = se.Add(se.Call("sqrt", bad), se.Mul(bad, bad))
    for point in ({"x": 1.0, "y": 2.0}, {"x": np.ones(3), "y": np.zeros(3)}):
        with pytest.raises(DomainError, match="division by zero"):
            evaluate(dag, point)
        assert _result(lambda: evaluate(dag, point)) == \
            _result(lambda: evaluate(_rebuild(dag), point))

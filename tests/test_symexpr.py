import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_parse_numbers():
    e = parse("1.5e-2 + 2", CTX_XY)
    assert evaluate(e, {}) == pytest.approx(2.015)


def test_differentiate_power_rule():
    e = parse("x^2 + 3*y", CTX_XY)
    assert differentiate(e, "x") == se.mul(Const(2.0), Var("x"))


def test_differentiate_table_rule():
    assert differentiate(parse("sin(x)", CTX_XY), "x") == se.call("cos", Var("x"))


def test_differentiate_independent():
    assert differentiate(parse("x^2", CTX_XY), "y") == Const(0.0)


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


def test_sub_cancels_equal_operands():
    e = parse("sin(x)*y", CTX_XY)
    assert e - e == Const(0.0)


def test_subst_simplifies():
    s = parse("x^2", CTX_XY)
    f = Var("y") - s
    assert subst(f, {"y": s}) == Const(0.0)


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
    lhs = differentiate(e + f, "x")
    rhs = differentiate(e, "x") + differentiate(f, "x")
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
    e = se.div(Var("x") + 1.0, Var("y") ** 2 + 1.0)
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
    ctx = VarContext.make(base=("q1",), fiber=("p1",), time="t", av="s")
    assert ctx.names == ("q1", "p1", "t", "s")
    assert ctx.with_role("time") == ("t",)
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
    # numpy's own power and exp differ from Python's in the last bit for
    # a few percent of arguments; the array path must not use them
    xy = np.random.default_rng(5).uniform(0.01, 2.0, size=(1000, 2))
    array = evaluate(e, {"x": xy[:, 0], "y": xy[:, 1]})
    scalar = np.array([evaluate(e, {"x": x, "y": y}) for x, y in xy.tolist()])
    assert array.view(np.uint64).tolist() == scalar.view(np.uint64).tolist()


def _safe(arg):
    return se.Add(Const(1.5), se.Mul(arg, arg))


def all_kinds(max_leaves=10):
    """Strategy for trees that use every node kind, built without the
    simplifier; divisors, ``sqrt`` and ``exp`` get safe arguments."""
    def extend(children):
        pairs = st.tuples(children, children)
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
    return st.recursive(_leaf(None), extend, max_leaves=max_leaves)


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

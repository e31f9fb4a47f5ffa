import itertools
import math

import numpy as np
import pytest

from affgeo import symexpr as se
from affgeo.brackets import (
    BracketError, LieAffgebraData, LieAffgebroidData, NonAffineSectionError,
    Patch, aff_jacobi_bracket, affgebra_to_affgebroid, atiyah_algebroid,
    jet_bundle_affgebroid, hull_extend, is_aff_poisson, random_polynomial,
    verify_affgebra, verify_affgebroid,
)
from affgeo.reporting import Report, per_point_max
from affgeo.symexpr import Const, Var, evaluate, parse, VarContext

EPS3 = np.zeros((3, 3, 3))
for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    EPS3[i, j, k] = 1.0
    EPS3[j, i, k] = -1.0


def test_affgebra_rejects_nonantisymmetric_c():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    with pytest.raises(BracketError):
        LieAffgebraData(np.zeros((2, 2)), c)


def test_affgebra_bracket_rotation_example():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    data = LieAffgebraData(J, np.zeros((2, 2, 2)))
    out = data.bracket([1.0, 0.0], [0.0, 0.0])
    assert np.allclose(out, [0.0, -1.0])


def test_affgebra_bracket_skew_on_diagonal():
    rng = np.random.default_rng(0)
    data = LieAffgebraData(rng.normal(size=(3, 3)), EPS3)
    for _ in range(8):
        u = rng.normal(size=3)
        assert np.allclose(data.bracket(u, u), 0.0)


def test_verify_abelian_passes_any_D():
    rng = np.random.default_rng(1)
    data = LieAffgebraData(rng.normal(size=(4, 4)), np.zeros((4, 4, 4)))
    report = verify_affgebra(data)
    assert report.passed
    assert report["jacobi"].residual < 1e-12


def test_verify_so3_passes():
    report = verify_affgebra(LieAffgebraData(np.zeros((3, 3)), EPS3))
    assert report.passed


def test_verify_cross_product_with_identity_fails_with_witness():
    report = verify_affgebra(LieAffgebraData(np.eye(3), EPS3))
    assert not report.passed
    jac = report["jacobi"]
    assert not jac.passed
    assert jac.witness is not None and jac.residual > 0.1


# --- bundle structures -----------------------------------------------------


def grid16():
    return Patch.box(("q", "t")).grid(4)


def test_a_patch_over_a_point_samples_an_empty_block_and_draws_nothing():
    rng = np.random.default_rng(4)
    assert Patch.box(()).sample(rng, 5).shape == (5, 0)
    assert rng.uniform() == np.random.default_rng(4).uniform()
    assert Patch.box(()).grid(3).shape == (1, 0)


def test_a_grid_is_refused_above_its_bound_and_built_up_to_it():
    from affgeo.brackets import MAX_GRID_POINTS
    assert Patch.box(("q",)).grid(MAX_GRID_POINTS).shape == (MAX_GRID_POINTS, 1)
    with pytest.raises(BracketError, match="more than the bound"):
        Patch.box(("q",)).grid(MAX_GRID_POINTS + 1)


def jet_commutator(f, g):
    """The commutator of d/dt + f d/dq with d/dt + g d/dq, which is
    vertical: the jet bundle's bracket of the sections ``f`` and ``g``."""
    def d(e, v):
        return se.differentiate(e, v)
    [f], [g] = f, g
    return [se.sub(se.sub(se.add(d(g, "t"), se.mul(f, d(g, "q"))), d(f, "t")),
                   se.mul(g, d(f, "q")))]


def with_bracket(data, bracket):
    """``data`` with ``bracket`` in place of the structure-function
    expansion, and its second-slot part as the bracket difference."""
    zero = [se.ZERO] * data.rank
    data.bracket = bracket
    data.second_linear = lambda f, W: [
        se.sub(a, b) for a, b in zip(bracket(f, W), bracket(f, zero))]
    return data


def test_jet_bundle_bracket_matches_commutator_oracle():
    data = jet_bundle_affgebroid()
    ctx = VarContext.make(base=("q", "t"))
    f = parse("sin(q)*t", ctx)
    g = parse("q^2 - t", ctx)
    out = data.bracket([f], [g])[0]
    [oracle] = jet_commutator([f], [g])

    for p in grid16():
        env = {"q": p[0], "t": p[1]}
        assert abs(evaluate(out, env) - evaluate(oracle, env)) < 1e-12


def test_jet_bundle_backends_agree():
    via_expansion = jet_bundle_affgebroid()
    via_commutator = with_bracket(LieAffgebroidData(
        via_expansion.patch, 1, via_expansion.beta, via_expansion.c,
        via_expansion.anchor_ref, via_expansion.anchor_lin), jet_commutator)
    ctx = VarContext.make(base=("q", "t"))
    f = parse("q*t + 1", ctx)
    g = parse("cos(t) - q", ctx)
    b1 = via_expansion.bracket([f], [g])[0]
    b2 = via_commutator.bracket([f], [g])[0]
    for p in grid16():
        env = {"q": p[0], "t": p[1]}
        assert abs(evaluate(b1, env) - evaluate(b2, env)) < 1e-12


def test_verify_jet_bundle_passes():
    report = verify_affgebroid(jet_bundle_affgebroid(), grid16(),
                               rng=np.random.default_rng(2))
    assert report.passed, [c.to_dict() for c in report.checks]


def test_affgebroid_construction_rejects_bad_antisymmetry():
    patch = Patch.box(("q", "t"))
    zero = Const(0.0)
    with pytest.raises(BracketError):
        LieAffgebroidData(patch, 1, [[zero]], [[[Const(2.0)]]],
                          [zero, Const(1.0)], [[Const(1.0), zero]])

    def refused_at(c):
        # constant pairs are judged on their sum, the others on a grid, in one (i, j, k) order
        rank = len(c)
        with pytest.raises(BracketError, match="not antisymmetric") as info:
            LieAffgebroidData(patch, rank, [[zero] * rank] * rank, c,
                              [zero, Const(1.0)], [[zero, zero]] * rank)
        return str(info.value).rsplit("at ", 1)[1]

    assert refused_at([[[zero, zero], [Const(1.0), zero]],
                       [[Const(-0.5), zero], [zero, zero]]]) == "(i=0, j=1, k=0)"
    for value in (math.nan, math.inf, -math.inf):
        assert refused_at([[[Const(value)]]]) == "(i=0, j=0, k=0)"
    assert refused_at([[[zero, Var("q")], [Const(1.0), zero]],
                       [[Const(1.0), zero], [zero, zero]]]) == "(i=0, j=0, k=1)"


def test_doubled_anchor_breaks_leibniz_for_independent_bracket():
    data = jet_bundle_affgebroid()
    doctored = with_bracket(LieAffgebroidData(
        data.patch, 1, data.beta, data.c,
        [se.mul(Const(2.0), a) for a in data.anchor_ref],
        [[se.mul(Const(2.0), a) for a in lin] for lin in data.anchor_lin]),
        jet_commutator)
    report = verify_affgebroid(doctored, grid16(),
                               rng=np.random.default_rng(3))
    leib = report["leibniz"]
    assert not leib.passed
    assert leib.witness is not None


def test_bracket_of_section_with_itself_vanishes():
    data = jet_bundle_affgebroid()
    f = [parse("q^2*t", VarContext.make(base=("q", "t")))]
    out = data.bracket(f, f)[0]
    for p in grid16():
        assert abs(evaluate(out, {"q": p[0], "t": p[1]})) < 1e-12


# --- hull extension ---------------------------------------------------------


def test_hull_reference_self_bracket_vanishes():
    hull = hull_extend(jet_bundle_affgebroid())
    a0 = (Const(1.0), [Const(0.0)])
    weight, comps = hull.bracket(a0, a0)
    assert weight == Const(0.0)
    assert comps[0] == Const(0.0)


def test_hull_restriction_reproduces_input():
    data = jet_bundle_affgebroid()
    hull = hull_extend(data)
    ctx = VarContext.make(base=("q", "t"))
    f = [parse("sin(q) + t", ctx)]
    g = [parse("q*t^2", ctx)]
    weight, comps = hull.bracket((1.0, f), (1.0, g))
    direct = data.bracket(f, g)
    assert weight == Const(0.0)
    for p in grid16():
        env = {"q": p[0], "t": p[1]}
        assert abs(evaluate(comps[0], env) - evaluate(direct[0], env)) < 1e-12


def test_hull_weight_zero_sector_is_model_bracket():
    data = jet_bundle_affgebroid()
    hull = hull_extend(data)
    ctx = VarContext.make(base=("q", "t"))
    f = [parse("q^2", ctx)]
    g = [parse("t*q", ctx)]
    weight, comps = hull.bracket((0.0, f), (0.0, g))
    assert weight == Const(0.0)
    # model sector of this bundle: [f d/dq, g d/dq] = (f g_q - g f_q) d/dq
    expected = se.sub(se.mul(f[0], se.differentiate(g[0], "q")),
                      se.mul(g[0], se.differentiate(f[0], "q")))
    for p in grid16():
        env = {"q": p[0], "t": p[1]}
        assert abs(evaluate(comps[0], env) - evaluate(expected, env)) < 1e-12


def test_hull_jacobi_with_random_weights():
    data = jet_bundle_affgebroid()
    hull = hull_extend(data)
    rng = np.random.default_rng(4)
    secs = [(random_polynomial(data.patch, rng),
             [random_polynomial(data.patch, rng)]) for _ in range(3)]
    X, Y, Z = secs

    def nested(A, B, C):
        inner = hull.bracket(B, C)
        return hull.bracket(A, inner)

    total_w = Const(0.0)
    total_c = Const(0.0)
    for A, B, C in [(X, Y, Z), (Y, Z, X), (Z, X, Y)]:
        w, comps = nested(A, B, C)
        total_w = se.add(total_w, w)
        total_c = se.add(total_c, comps[0])
    for p in grid16():
        env = {"q": p[0], "t": p[1]}
        assert abs(evaluate(total_w, env)) < 1e-9
        assert abs(evaluate(total_c, env)) < 1e-9


def test_hull_distinguished_dual_section_is_closed():
    data = jet_bundle_affgebroid()
    hull = hull_extend(data)
    rng = np.random.default_rng(5)
    X = (random_polynomial(data.patch, rng), [random_polynomial(data.patch, rng)])
    Y = (random_polynomial(data.patch, rng), [random_polynomial(data.patch, rng)])
    residual = hull.one_cocycle_residual(X, Y)
    for p in grid16():
        assert abs(evaluate(residual, {"q": p[0], "t": p[1]})) < 1e-9


def test_hull_extend_refuses_invalid_input():
    data = jet_bundle_affgebroid()
    doctored = with_bracket(LieAffgebroidData(
        data.patch, 1, data.beta, data.c,
        [se.mul(Const(2.0), a) for a in data.anchor_ref],
        [[se.mul(Const(2.0), a) for a in lin] for lin in data.anchor_lin]),
        jet_commutator)
    with pytest.raises(BracketError):
        hull_extend(doctored)


# --- the Atiyah structure and the dual bracket ------------------------------


def test_atiyah_bracket_examples():
    data = atiyah_algebroid(Patch.box(("x",)))
    x = Var("x")
    # [(d/dx, 0), (0, x)] = (0, 1)
    out = data.bracket([1.0, 0.0], [0.0, x])
    assert out[0] == Const(0.0)
    assert out[1] == Const(1.0)
    # skew on equal sections
    out = data.bracket([1.0, 0.0], [1.0, 0.0])
    assert out == [Const(0.0), Const(0.0)]


def test_atiyah_vertical_generator_is_central():
    data = atiyah_algebroid(Patch.box(("x",)))
    rng = np.random.default_rng(6)
    for _ in range(4):
        f = [random_polynomial(data.patch, rng), random_polynomial(data.patch, rng)]
        out = data.second_linear(f, [0.0, 1.0])
        for p in data.patch.grid(5):
            env = data.patch.env(p)
            assert all(abs(evaluate(o, env)) < 1e-12 for o in out)


def canonical_poisson_oracle(F, G, pairs):
    """Independent Poisson bracket: sum dF/dp dG/dx - dF/dx dG/dp."""
    out = Const(0.0)
    for x, p in pairs:
        out = se.sub(se.add(out, se.mul(se.differentiate(F, p), se.differentiate(G, x))),
                     se.mul(se.differentiate(F, x), se.differentiate(G, p)))
    return out


@pytest.mark.parametrize("names", [("x",), ("x", "y")])
def test_atiyah_dual_bracket_is_canonical_poisson(names):
    patch = Patch.box(names)
    data = atiyah_algebroid(patch)
    m = len(names)
    rng = np.random.default_rng(7)
    wnames = [f"w{j+1}" for j in range(m)]
    ctx = VarContext.make(base=list(names) + wnames)

    def random_affine():
        e = random_polynomial(patch, rng)
        for w in wnames:
            e = se.add(e, se.mul(random_polynomial(patch, rng), Var(w)))
        return e

    for _ in range(2):
        sigma, sigma2 = random_affine(), random_affine()
        ours = aff_jacobi_bracket(data, sigma, sigma2)
        oracle = canonical_poisson_oracle(sigma, sigma2,
                                          list(zip(names, wnames)))
        for _ in range(16):
            env = {n: rng.uniform(-1, 1) for n in ctx.names}
            assert abs(evaluate(ours, env) - evaluate(oracle, env)) < 1e-9


def test_aff_jacobi_skew():
    data = atiyah_algebroid(Patch.box(("x",)))
    sigma = parse("w1*x + x^2", VarContext.make(base=("x", "w1")))
    assert aff_jacobi_bracket(data, sigma, sigma) == Const(0.0)


def test_aff_jacobi_rejects_non_affine_sections():
    data = atiyah_algebroid(Patch.box(("x",)))
    sigma = parse("w1^2", VarContext.make(base=("x", "w1")))
    with pytest.raises(NonAffineSectionError):
        aff_jacobi_bracket(data, sigma, Const(0.0))


def test_aff_jacobi_over_a_point_constant_sections():
    # abelian structure over a point with a central distinguished vector
    data = affgebra_to_affgebroid(
        LieAffgebraData(np.zeros((2, 2)), np.zeros((2, 2, 2))), v=[0.0, 1.0])
    out = aff_jacobi_bracket(data, Const(2.0), Var("w1"))
    assert out == Const(0.0)


def test_is_aff_poisson_atiyah_true():
    report = is_aff_poisson(atiyah_algebroid(Patch.box(("x",))),
                            rng=np.random.default_rng(8))
    assert [c.check for c in report.checks] == ["derivation", "centrality"]
    assert report["derivation"].passed == report["centrality"].passed
    assert report.passed


def test_is_aff_poisson_false_when_distinguished_vector_not_central():
    # over a point: D v != 0 for v = e2
    D = np.array([[0.0, 1.0], [0.0, 1.0]])
    data = affgebra_to_affgebroid(LieAffgebraData(D, np.zeros((2, 2, 2))),
                                  v=[0.0, 1.0])
    report = is_aff_poisson(data, rng=np.random.default_rng(9))
    assert report["derivation"].passed == report["centrality"].passed
    assert not report.passed
    assert all(c.witness["criterion"] == c.check for c in report.checks)


def test_is_aff_poisson_witness_names_the_one_failing_criterion():
    # a vertical beta of 1e-10 fails centrality (tolerance 1e-12), while the
    # larger derivation residual stays under its own tolerance of 1e-9
    atiyah = atiyah_algebroid(Patch.box(("x1",)))
    data = LieAffgebroidData(atiyah.patch, atiyah.rank,
                             [atiyah.beta[0], [se.ZERO, Const(1e-10)]], atiyah.c,
                             atiyah.anchor_ref, atiyah.anchor_lin, v=atiyah.v)
    report = is_aff_poisson(data, rng=np.random.default_rng(0))
    derivation, centrality = report["derivation"], report["centrality"]
    assert derivation.passed and not centrality.passed
    assert derivation.residual > centrality.residual
    assert derivation.witness is None
    assert centrality.witness["criterion"] == "centrality"
    assert centrality.witness["residual"] == centrality.residual
    assert set(centrality.witness["point"]) == {"x1"}


def test_is_aff_poisson_passing_criteria_carry_no_witness():
    report = is_aff_poisson(atiyah_algebroid(Patch.box(("x",))), rng=np.random.default_rng(8))
    assert report.passed
    assert [c.witness for c in report.checks] == [None, None]


@pytest.mark.parametrize("data", [jet_bundle_affgebroid(),
                                  atiyah_algebroid(Patch.box(("x1", "x2")))],
                         ids=["jet_bundle", "atiyah_dim2"])
def test_verify_affgebroid_expands_each_bracket_once(data, monkeypatch):
    # 3 skew brackets [f, f] and the 3 inner Jacobi brackets, which the
    # anchor-morphism check reuses for [f1, f2] and [f2, f3]
    calls = []

    def counted(self, f, g, _original=LieAffgebroidData.bracket):
        calls.append((f, g))
        return _original(self, f, g)
    monkeypatch.setattr(LieAffgebroidData, "bracket", counted)
    assert verify_affgebroid(data, data.patch.grid(3)).passed
    assert len(calls) == 6
    f1, f2, f3 = [f for f, g in calls[:3]]
    assert all(f is g for f, g in calls[:3])
    assert [tuple(map(id, pair)) for pair in calls[3:]] == [
        (id(f2), id(f3)), (id(f3), id(f1)), (id(f1), id(f2))]


def test_is_aff_poisson_abelian_true():
    data = affgebra_to_affgebroid(
        LieAffgebraData(np.zeros((3, 3)), np.zeros((3, 3, 3))),
        v=[1.0, 2.0, 0.5])
    report = is_aff_poisson(data, rng=np.random.default_rng(10))
    assert report["derivation"].passed == report["centrality"].passed
    assert report.passed


def test_aff_jacobi_bracket_partial_map_is_a_derivation():
    data = atiyah_algebroid(Patch.box(("x",)))
    ctx = VarContext.make(base=("x", "w1"))
    s1 = parse("w1*x", ctx)

    def partial(f):
        # the bracket at s1 across a shift of its second slot from the zero section
        return se.sub(aff_jacobi_bracket(data, s1, f), aff_jacobi_bracket(data, s1, Const(0.0)))

    # a derivation here: its zero-order term (value on the constant 1) vanishes
    assert partial(Const(1.0)) == Const(0.0)
    rng = np.random.default_rng(11)
    out = partial(Var("w1"))
    oracle = canonical_poisson_oracle(s1, Var("w1"), [("x", "w1")])
    for _ in range(8):
        env = {"x": rng.uniform(-1, 1), "w1": rng.uniform(-1, 1)}
        assert abs(evaluate(out, env) - evaluate(oracle, env)) < 1e-12


def test_aff_jacobi_bracket_requires_distinguished_section():
    x = Var("x")
    with pytest.raises(BracketError, match="distinguished section"):
        aff_jacobi_bracket(jet_bundle_affgebroid(), x, x)


# --- sampled residuals: witnesses and non-finite values --------------------


def _nan_at_middle_point(name):
    """Zero at -1 and 1, NaN at 0: inf - inf from an overflowing square."""
    x = Var(name)
    big = se.Mul(Const(1e300), se.Mul(se.Add(x, Const(1.0)), se.Sub(x, Const(1.0))))
    return se.Sub(se.Mul(big, big), se.Mul(big, big))


def _point_check(data, comps, pts):
    """A sampled check as ``verify_affgebroid`` records it."""
    env = data.patch.env(pts)
    residuals = per_point_max([evaluate(c, env) for c in comps], len(pts))
    return Report("x").check("c", residuals, 1e-9,
                             lambda at: {"point": pts[at[0]].tolist()})


def test_point_witness_is_the_first_of_equal_worst_points():
    patch = Patch.box(("q", "t"))
    data = jet_bundle_affgebroid()
    pts = patch.grid(3)  # q runs slowest: t = -1, 0, 1 for each q
    check = _point_check(data, [se.mul(Var("t"), Var("t"))], pts)
    assert check.residual == 1.0
    assert check.witness == {"point": [-1.0, -1.0], "residual": 1.0}
    check = _point_check(data, [Var("q"), se.neg(Var("q"))], pts[3:])
    assert check.residual == 1.0 and check.witness["point"] == [1.0, -1.0]


def _line_bundle():
    zero = Const(0.0)
    return LieAffgebroidData(Patch.box(("q",)), 1, [[zero]], [[[zero]]], [zero],
                             [[Const(1.0)]])


def test_point_check_reports_a_nan_point():
    with np.errstate(all="ignore"):
        check = _point_check(_line_bundle(),
                             [Const(5.0), _nan_at_middle_point("q")],
                             Patch.box(("q",)).grid(3))
    assert math.isnan(check.residual) and check.witness["point"] == [0.0]


def test_sampled_check_with_nan_at_one_grid_point_fails():
    data = with_bracket(_line_bundle(), lambda f, g: [_nan_at_middle_point("q")])
    with np.errstate(all="ignore"):
        report = verify_affgebroid(data, data.patch.grid(3),
                                   rng=np.random.default_rng(0))
    skew = report["skew"]
    assert not skew.passed and math.isnan(skew.residual)
    assert skew.witness["point"] == [0.0]
    assert not report.passed


def test_verify_affgebra_with_nan_in_D_fails():
    D = np.eye(2)
    D[1, 0] = math.nan
    report = verify_affgebra(LieAffgebraData(D, np.zeros((2, 2, 2))))
    assert not report["skew"].passed and not report["jacobi"].passed
    assert report["skew"].witness["pair"] == ["o", "o"]  # D @ 0 is NaN


def test_affgebroid_construction_rejects_nan_structure_functions():
    zero = Const(0.0)
    with pytest.raises(BracketError):
        LieAffgebroidData(Patch.box(("q", "t")), 1, [[zero]], [[[Const(math.nan)]]],
                          [zero, Const(1.0)], [[Const(1.0), zero]])


def test_points_of_a_line_may_be_given_as_a_flat_list():
    data = with_bracket(_line_bundle(), lambda f, g: [se.mul(Var("q"), se.sub(g[0], f[0]))])
    grid = data.patch.grid(5)
    flat = verify_affgebroid(data, grid.ravel().tolist(), rng=np.random.default_rng(4))
    column = verify_affgebroid(data, grid, rng=np.random.default_rng(4))
    assert not column.passed
    assert flat.to_dict() == column.to_dict()


def test_constant_beta_and_cross_product_c_give_the_closed_form_bracket():
    # zero anchors, so [a0 + f, a0 + g] = (g - f)^j beta_j + f^i g^j c_ij
    patch, zero = Patch.box(("q",)), Const(0.0)
    B = np.array([[0.5, -1.0, 2.0], [0.0, 1.5, -0.25], [3.0, 0.0, -2.0]])
    data = LieAffgebroidData(
        patch, 3, [[Const(v) for v in row] for row in B],
        [[[Const(v) for v in cij] for cij in ci] for ci in EPS3], [zero],
        [[zero]] * 3)
    rng = np.random.default_rng(5)
    f = [random_polynomial(patch, rng) for _ in range(3)]
    g = [random_polynomial(patch, rng) for _ in range(3)]
    env = patch.env(np.linspace(-1.0, 1.0, 9)[:, None])
    F, G, bracket = (np.array(evaluate(s, env)).T for s in (f, g, data.bracket(f, g)))
    assert np.abs(bracket - ((G - F) @ B + np.cross(F, G))).max() < 1e-12


@pytest.mark.parametrize("names", [(), ("x",), ("x", "y"), ("x", "y", "z")])
def test_a_random_polynomial_draws_the_coefficients_of_one_scalar_draw_each(names):
    # the reference draws one coefficient per call: the constant, the linear
    # terms, then the quadratic ones; the library's tree and the generator's
    # state after it are the same
    rng, ref = np.random.default_rng(17), np.random.default_rng(17)
    vars_ = [Var(n) for n in names]
    expected = Const(ref.uniform(-1.0, 1.0))
    for v in vars_:
        expected = se.add(expected, se.mul(Const(ref.uniform(-1.0, 1.0)), v))
    for va, vb in itertools.combinations_with_replacement(vars_, 2):
        expected = se.add(expected, se.mul(se.mul(Const(ref.uniform(-1.0, 1.0)), va), vb))
    assert random_polynomial(Patch.box(names), rng) == expected
    assert rng.bit_generator.state == ref.bit_generator.state

import numpy as np
import pytest

from affgeo import symexpr as se
from affgeo.affine import AffineGeometryError, AffineSpaceSpec
from affgeo.duality import (
    FIBER, DoubleDualMaps, DualElement, F_of_section, HullPoint,
    SpecialAffineSpace, iota_sharp,
    one, pair,
)
from affgeo.symexpr import Const, Var, VarContext, evaluate, parse


def special(dim, v):
    return SpecialAffineSpace(AffineSpaceSpec(dim), np.asarray(v, float))


def test_pair_formula():
    spec = AffineSpaceSpec(2)
    h = HullPoint(spec, [1.0, 0.0], 1.0)
    d = DualElement(spec, [2.0, 3.0], 5.0)
    assert pair(h, d) == pytest.approx(7.0)


def test_pair_with_one_on_embedded_points_and_vectors():
    spec = AffineSpaceSpec(3)
    rng = np.random.default_rng(0)
    unit = one(spec)
    for _ in range(8):
        p = spec.point(rng.normal(size=3))
        v = spec.vector(rng.normal(size=3))
        assert pair(HullPoint.embed_point(p), unit) == 1.0
        assert pair(HullPoint.embed_vector(v), unit) == 0.0


def test_pair_bilinearity():
    spec = AffineSpaceSpec(3)
    rng = np.random.default_rng(1)
    for _ in range(32):
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        l1, l2 = rng.normal(), rng.normal()
        a, b = rng.normal(), rng.normal()
        d = DualElement(spec, rng.normal(size=3), rng.normal())
        combo = HullPoint(spec, a * z1 + b * z2, a * l1 + b * l2)
        expect = a * pair(HullPoint(spec, z1, l1), d) + b * pair(HullPoint(spec, z2, l2), d)
        assert abs(pair(combo, d) - expect) < 1e-12
        # and in the dual slot
        h = HullPoint(spec, z1, l1)
        d1 = DualElement(spec, rng.normal(size=3), rng.normal())
        d2 = DualElement(spec, rng.normal(size=3), rng.normal())
        dcombo = DualElement(spec, a * d1.w + b * d2.w, a * d1.c + b * d2.c)
        expect = a * pair(h, d1) + b * pair(h, d2)
        assert abs(pair(h, dcombo) - expect) < 1e-12


def hull_dual_pairing(n):
    """The pairing of the hull basis (the unit vectors, then the origin)
    with the dual basis (the unit covectors, then the constant one)."""
    space = AffineSpaceSpec(n)
    hull = [*(HullPoint.embed_vector(space.vector(e)) for e in np.eye(n)),
            HullPoint.embed_point(space.point(np.zeros(n)))]
    dual = [*(DualElement(space, e, 0.0) for e in np.eye(n)), one(space)]
    return [[pair(h, d) for d in dual] for h in hull]


def test_dual_dimension():
    for n in range(1, 5):
        assert np.linalg.matrix_rank(hull_dual_pairing(n)) == n + 1


def test_special_dual_one_dimensional():
    S = special(1, [1.0])
    assert S.dim == 1
    assert np.allclose(S.level.solve(np.zeros(S.dim)), [1.0])
    # model is spanned by the constant function only
    assert S.level.basis.shape[1] == 0
    assert one(S.space).w @ S.v == 0.0
    assert S.level.contains(DualElement(S.space, [1.0], -7.0).w)
    assert not S.level.contains(DualElement(S.space, [2.0], 0.0).w)


def test_special_dual_constraint_plane():
    S = special(2, [0.0, 1.0])
    assert S.dim == 2
    # members are exactly those with second w-component equal to one
    member = S.dual_element([3.0], c=-2.0)
    assert type(member) is DualElement and member.space is S.space
    assert member.w[1] == pytest.approx(1.0)
    assert S.level.contains(member.w)
    assert S.quotient_var_names() == ("w1",)


def test_one_is_not_a_member():
    S = special(2, [0.0, 1.0])
    assert not S.level.contains(one(S.space).w)
    assert one(S.space).w @ S.v == 0.0


SCALES = (1e-150, 1e-100, 1e-8, 1.0, 1e4, 1e8, 1e100, 1e150)


@pytest.mark.parametrize("scale", SCALES)
def test_special_dual_elements_of_a_scaled_vector_are_members(scale):
    # <w, v> = 1 was tested to an absolute 1e-12, and the rounding of the
    # sum grows with |v|: at 1e8 every one of these members was refused
    rng = np.random.default_rng(2)
    for n in range(1, 5):
        for free in (1e-3, 1.0, 1e3):
            for _ in range(25):
                S = special(n, rng.normal(size=n) * scale)
                assert S.level.contains(S.dual_element(rng.normal(size=n - 1) * free, 0.0).w)


def test_a_distinguished_vector_whose_square_underflows_is_nonzero():
    # the nonzero test took the norm of v, and its square underflowed to 0
    S = special(2, [1e-200, 0.0])
    assert S.level.solve(np.zeros(S.dim)).tolist() == [1e200, 0.0]
    with pytest.raises(AffineGeometryError, match="nonzero"):
        special(2, [0.0, -0.0])


@pytest.mark.parametrize("v", [[1e-310, 0.0], [0.0, 5e-324], [-1e-309, 1e-310]])
def test_a_distinguished_vector_without_a_finite_dual_origin_is_refused(v):
    # 1 / v_k overflowed in the special dual's origin
    with pytest.raises(AffineGeometryError, match="too small"):
        special(2, v)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_distinguished_vector_that_is_not_finite_is_refused(bad):
    # it was accepted, and building its special dual then failed with a message
    # about the pairing; a clock covector was refused with these words
    with pytest.raises(AffineGeometryError, match="^distinguished vector must be finite$"):
        special(2, [bad, 1.0])


@pytest.mark.parametrize("w", [[0.0, 1.0, 5.0], [1.0]], ids=["longer", "shorter"])
def test_membership_of_a_dual_element_of_another_dimension_raises(w):
    S = special(2, [0.0, 1.0])
    with pytest.raises(ValueError):
        S.level.contains(DualElement(AffineSpaceSpec(len(w)), w, 0.0).w)


def test_membership_refuses_a_non_finite_pairing():
    S = special(2, [0.0, 1.0])
    for w in ([0.0, np.nan], [np.inf, 1.0]):
        assert not S.level.contains(DualElement(S.space, w, 0.0).w)
    # the pivot entry is solved, so only a free entry can be nan or inf; free
    # entries whose terms overflow in the solve are refused too, with no warning
    cases = [(S, [bad]) for bad in (np.nan, np.inf, -np.inf)]
    cases.append((special(3, [1.0, 1.0, 1.0]), [1e308, 1e308]))
    for space, free in cases:
        with pytest.raises(AffineGeometryError,
                           match="^linear part does not send the distinguished vector to 1$"):
            space.dual_element(free, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_double_dual_round_trip(n):
    rng = np.random.default_rng(10 + n)
    v = rng.normal(size=n)
    while np.linalg.norm(v) < 0.3:
        v = rng.normal(size=n)
    maps = DoubleDualMaps(special(n, v))
    for _ in range(100):
        x = rng.uniform(-5, 5, n)
        back = maps.backward(maps.forward(x))
        assert np.max(np.abs(back - x)) < 1e-12
    origin = np.zeros(n)
    assert np.max(np.abs(maps.backward(maps.forward(origin)) - origin)) < 1e-12


def test_double_dual_sends_distinguished_vector_to_constant_direction():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        v = rng.normal(size=n)
        maps = DoubleDualMaps(special(n, v))
        image = maps.forward(v)  # forward is linear, so it is its own linear part
        expect = np.zeros(n)
        expect[-1] = 1.0  # the evaluation-at-origin slot, i.e. the constant
        assert np.max(np.abs(image - expect)) < 1e-12


CTX_X = VarContext.make(base=("x",))


def test_F_of_section_properties():
    sigma = parse("x^2", CTX_X)
    F = F_of_section(sigma)
    assert FIBER == "s"
    assert se.differentiate(F, "s") == Const(1.0)  # exact, so chi(F) = -1
    assert se.subst(F, {"s": sigma}) == Const(0.0)
    assert evaluate(F, {"x": 2.0, "s": 4.0}) == 0.0


def test_F_of_zero_section():
    assert F_of_section(Const(0.0)) == Var("s")


def test_F_of_affine_section_value():
    sigma = parse("3*x + 1", CTX_X)
    F = F_of_section(sigma)
    assert evaluate(F, {"x": 1.0, "s": 5.0}) == pytest.approx(1.0)


def test_F_rejects_fiber_dependence():
    with pytest.raises(AffineGeometryError, match="fiber coordinate 's'"):
        F_of_section(Var("s"))


def test_F_difference_is_base_function():
    rng = np.random.default_rng(3)
    s1 = parse("x^2 + 1", CTX_X)
    s2 = parse("sin(x) - 2*x", CTX_X)
    diff = se.sub(F_of_section(s1), F_of_section(s2))
    target = se.sub(s2, s1)
    for _ in range(16):
        x, s = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lhs = evaluate(diff, {"x": x, "s": s})
        assert abs(lhs - evaluate(target, {"x": x})) < 1e-12


def test_iota_sharp_of_distinguished_vector_is_one():
    S = special(3, [0.5, -1.0, 2.0])
    expr = iota_sharp([0.5, -1.0, 2.0], S)
    rng = np.random.default_rng(4)
    for _ in range(16):
        env = {name: rng.normal() for name in S.quotient_var_names()}
        assert evaluate(expr, env) == pytest.approx(1.0, abs=1e-12)


def test_iota_sharp_zero():
    S = special(2, [0.0, 1.0])
    assert iota_sharp([0.0, 0.0], S) == Const(0.0)


def test_iota_sharp_coordinate_example():
    # distinguished vector along the second axis, section along the first
    S = special(2, [0.0, 1.0])
    assert iota_sharp([1.0, 0.0], S) == Var("w1")


def test_iota_dagger_invariant_along_constant_direction():
    # pairing as a function of (w, c) has no c dependence: finite difference
    S = special(3, [1.0, 1.0, 1.0])
    rng = np.random.default_rng(5)
    X = rng.normal(size=3)
    for _ in range(8):
        w = rng.normal(size=3)
        c = rng.normal()
        f0 = w @ X + 0.0 * c
        f1 = w @ X + 0.0 * (c + 1e-4)
        assert abs((f1 - f0) / 1e-4) < 1e-9


def test_iota_sharp_with_expression_coefficients():
    S = special(2, [0.0, 1.0])
    ctx = VarContext.make(base=("x",))
    X = [parse("x^2", ctx), parse("x", ctx)]
    expr = iota_sharp(X, S)
    assert evaluate(expr, {"x": 2.0, "w1": 3.0}) == pytest.approx(3.0 * 4.0 + 2.0)

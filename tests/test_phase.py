import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgeo import symexpr as se
from affgeo.brackets import Patch, random_polynomial
from affgeo.phase import (
    AVMorphism, FiberConstancyError, PhaseError, TimePhaseSpace,
    bold_d_oneform, canonical_poisson, check_affine_reduction,
    eq1_aff_poisson, omega_Z, sample_points, section_one_form,
)
from affgeo.symexpr import Const, Var, VarContext, evaluate, parse


def line_patch(*names):
    return Patch.box(names or ("x",))


def at(alpha, m):
    """The phase point of a 1-form at ``m``: its components evaluated there."""
    env = alpha.patch.env(m)
    return np.array([evaluate(c, env) for c in alpha.components])


def test_bold_d_of_tag_section_vanishes():
    z = line_patch()
    sigma = parse("x^2", z.context())
    assert np.allclose(at(section_one_form(z, sigma, tag=sigma), [1.0]), 0.0)
    assert np.allclose(at(section_one_form(z, se.ZERO), [1.0]), 0.0)


def test_bold_d_symbolic_derivative():
    z = line_patch()
    alpha = section_one_form(z, parse("x^2", z.context()))
    assert at(alpha, [1.0]) == pytest.approx([2.0])
    assert alpha.tag == se.ZERO


def test_sections_with_constant_difference_share_differentials():
    z = line_patch()
    ctx = z.context()
    alpha = section_one_form(z, parse("sin(x)", ctx))
    beta = section_one_form(z, parse("sin(x) + 5", ctx))
    for m in np.linspace(-2, 2, 9):
        assert at(alpha, [m]) == pytest.approx(at(beta, [m]), abs=0)


def test_retag_is_a_groupoid_action():
    z = line_patch()
    ctx = z.context()
    s1, s2 = parse("x^2", ctx), parse("sin(x)", ctx)
    alpha = section_one_form(z, s1, tag=se.ZERO)
    double = alpha.retag(s1).retag(s2)
    direct = alpha.retag(s2)
    assert at(double, [0.7]) == pytest.approx(at(direct, [0.7]), abs=0)
    assert double.tag == direct.tag == s2


def test_round_trip_retag_exact():
    z = line_patch()
    s1 = parse("x^2 - 3*x", z.context())
    alpha = section_one_form(z, s1)
    assert at(alpha.retag(s1).retag(se.ZERO), [0.3]) == pytest.approx(at(alpha, [0.3]), abs=0)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_retag_of_random_sections_composes_and_round_trips(dim, seed):
    rng = np.random.default_rng(seed)
    z = line_patch(*(f"x{i + 1}" for i in range(dim)))
    sigma, s1, s2 = (random_polynomial(z, rng) for _ in range(3))
    alpha = section_one_form(z, sigma)
    m = rng.uniform(-1, 1, dim)
    double = at(alpha.retag(s1).retag(s2), m)
    assert np.max(np.abs(double - at(alpha.retag(s2), m))) < 1e-12
    assert np.max(np.abs(at(alpha.retag(s1).retag(se.ZERO), m) - at(alpha, m))) < 1e-12
    # retagging the differential is the differential taken in the new tag
    assert np.max(np.abs(at(alpha.retag(s2), m)
                         - at(section_one_form(z, sigma, tag=s2), m))) < 1e-12


def test_a_section_or_tag_off_the_patch_is_refused():
    z = line_patch()
    inside, outside = parse("x^2", z.context()), se.mul(Var("y"), Var("x"))
    alpha = section_one_form(z, inside)
    for build in (lambda: section_one_form(z, outside),
                  lambda: section_one_form(z, inside, tag=outside),
                  lambda: alpha.retag(outside),
                  lambda: omega_Z(z, via=outside),
                  lambda: omega_Z(z, via=Var("s"))):
        with pytest.raises(PhaseError, match="unknown variables"):
            build()


def test_bold_d_oneform_of_exact_form_is_zero():
    z = line_patch("x", "y")
    rng = np.random.default_rng(0)
    for _ in range(6):
        two = bold_d_oneform(section_one_form(z, random_polynomial(z, rng)))
        assert np.max(np.abs(two.matrix(sample_points(z.names, rng, 8)))) < 1e-12


def test_bold_d_oneform_rotation_example():
    z = line_patch("x", "y")
    alpha_comps = (se.neg(Var("y")), Var("x"))
    from affgeo.phase import AffineOneForm
    alpha = AffineOneForm(z, se.ZERO, alpha_comps)
    two = bold_d_oneform(alpha)
    assert two.terms[(0, 1)] == Const(2.0)


def test_bold_d_oneform_tag_independent():
    z = line_patch("x", "y")
    ctx = z.context()
    from affgeo.phase import AffineOneForm
    alpha = AffineOneForm(z, se.ZERO, (parse("-y + x^2", ctx), parse("x*y", ctx)))
    direct = bold_d_oneform(alpha)
    via_other = bold_d_oneform(alpha.retag(parse("x^2 + y^2", ctx)))
    rng = np.random.default_rng(1)
    points = sample_points(z.names, rng, 12)
    assert np.max(np.abs(direct.matrix(points) - via_other.matrix(points))) < 1e-12


def test_omega_flat_tag_is_darboux():
    z = line_patch()
    omega = omega_Z(z)
    assert omega.coords == ("x", "p1")
    assert omega.terms[(0, 1)] == Const(-1.0)  # i.e. dp ^ dx


def test_omega_invariance_one_dim():
    z = line_patch()
    base = omega_Z(z)
    other = omega_Z(z, via=parse("x^2", z.context()))
    axis = np.linspace(-2, 2, 5)
    points = {"x": np.repeat(axis, 5), "p1": np.tile(axis, 5)}
    assert np.max(np.abs(base.matrix(points) - other.matrix(points))) < 1e-12


def test_omega_invariance_two_dim_with_sin():
    z = line_patch("x1", "x2")
    ctx = z.context()
    base = omega_Z(z)
    rng = np.random.default_rng(2)
    points = sample_points(("x1", "x2", "p1", "p2"), rng, 25)
    for text in ("sin(x1)", "x1^2*x2 + cos(x2)"):
        via = parse(text, ctx)
        assert np.max(np.abs(omega_Z(z, via=via).matrix(points) - base.matrix(points))) < 1e-12


def test_canonical_poisson_darboux_pairs():
    pairs = [("x", "p")]
    assert canonical_poisson(Var("p"), Var("x"), pairs) == Const(1.0)
    assert canonical_poisson(Var("x"), Var("x"), pairs) == Const(0.0)
    out = canonical_poisson(Var("p") ** 2, Var("x"), pairs)
    assert evaluate(out, {"p": 3.0, "x": 0.0}) == pytest.approx(6.0)


def test_canonical_poisson_antisymmetric_and_jacobi():
    pairs = [("x1", "p1"), ("x2", "p2")]
    names = ("x1", "x2", "p1", "p2")
    patch = Patch.box(names)
    rng = np.random.default_rng(3)
    F, G, H = (random_polynomial(patch, rng) for _ in range(3))
    anti = canonical_poisson(F, G, pairs) + canonical_poisson(G, F, pairs)
    cyc = (canonical_poisson(F, canonical_poisson(G, H, pairs), pairs)
           + canonical_poisson(G, canonical_poisson(H, F, pairs), pairs)
           + canonical_poisson(H, canonical_poisson(F, G, pairs), pairs))
    points = sample_points(names, rng, 16)
    assert np.max(np.abs(evaluate(anti, points))) < 1e-12
    assert np.max(np.abs(evaluate(cyc, points))) < 1e-9


def test_equal_deep_functions_bracket_to_zero():
    # F == G compared the trees recursively, past Python's stack
    text = "+".join(["q*p"] * 398)
    F, G = (parse(text, VarContext.make(base=("q", "p"))) for _ in range(2))
    assert F is not G
    assert canonical_poisson(F, G, [("q", "p")]) == se.ZERO


def timephase():
    return TimePhaseSpace(q=("q",), p=("p",))


def reference_flipped_bracket(space, a, b):
    """The bracket of the flipped energy quotient that ``run_reduction_check``
    built by hand: the attached functions ``-e - a`` and ``-e - b``,
    bracketed upstairs and restricted to ``e = 0``."""
    F = se.sub(se.neg(Var(space.energy)), a)
    G = se.sub(se.neg(Var(space.energy)), b)
    return se.subst(canonical_poisson(F, G, space.pairs), {space.energy: 0.0})


def _flipped_pairs():
    space = timephase()
    ctx = VarContext.make(base=space.base_names)
    patch = Patch.box(space.base_names)
    rng = np.random.default_rng(11)
    yield (se.neg(parse("p^2/2 + q*t", ctx)), se.neg(parse("q*p - t", ctx)))
    yield (parse("sin(q)*t", ctx), parse("p + q^2", ctx))
    for _ in range(50):
        yield random_polynomial(patch, rng), random_polynomial(patch, rng)


def test_the_flipped_bracket_is_eq1_of_the_negated_sections_bit_for_bit():
    space = timephase()
    points = sample_points(space.base_names, np.random.default_rng(12), 10**4, -50.0, 50.0)
    for a, b in _flipped_pairs():
        new = eq1_aff_poisson(space, se.neg(a), se.neg(b))
        old = reference_flipped_bracket(space, a, b)
        got, want = (np.broadcast_to(np.asarray(evaluate(e, points), float), 10**4)
                     for e in (new, old))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (a, b)


def test_the_attached_function_of_a_negated_hamiltonian_prints_as_a_sum():
    space = timephase()
    sigma = se.neg(parse("p^2/2 + q^2/2", VarContext.make(base=space.base_names)))
    assert str(space.section_function(sigma)) == "e + (p^2/2 + q^2/2)"


def test_eq1_skew():
    space = timephase()
    ctx = VarContext.make(base=space.base_names)
    sigma = parse("p^2/2 + q*t", ctx)
    assert eq1_aff_poisson(space, sigma, sigma) == Const(0.0)


def test_eq1_fiber_constancy_holds_for_honest_sections():
    space = timephase()
    ctx = VarContext.make(base=space.base_names)
    H = parse("p^2/2", ctx)
    sigma = se.neg(H)
    rng = np.random.default_rng(4)
    for other in ("q*t - p", "sin(q) + t*p^2", "cos(t)"):
        sigma2 = parse(other, ctx)
        out = eq1_aff_poisson(space, sigma, sigma2)
        assert space.energy not in se.free_vars(out)
        # the bracket upstairs is constant along the energy direction
        up = canonical_poisson(space.section_function(sigma),
                               space.section_function(sigma2), space.pairs)
        variation = se.differentiate(up, space.energy)
        assert np.max(np.abs(evaluate(variation, sample_points(space.names, rng, 16)))) < 1e-9


def test_eq1_matches_upstairs_bracket_pointwise():
    # the defining identity: descended bracket composed with the
    # projection equals the cotangent bracket of the attached functions
    space = timephase()
    ctx = VarContext.make(base=space.base_names)
    sigma = se.neg(parse("p", ctx))
    sigma2 = se.neg(parse("q", ctx))
    down = eq1_aff_poisson(space, sigma, sigma2)
    up = canonical_poisson(space.section_function(sigma),
                           space.section_function(sigma2), space.pairs)
    rng = np.random.default_rng(5)
    points = sample_points(space.names, rng, 16)
    assert np.max(np.abs(evaluate(down, points) - evaluate(up, points))) < 1e-12


def test_eq1_rejects_sections_using_the_energy_direction():
    space = timephase()
    bad = se.mul(Var("e"), Var("q"))
    good = parse("p", VarContext.make(base=space.base_names))
    with pytest.raises(FiberConstancyError):
        eq1_aff_poisson(space, bad, good)


# --- reduction --------------------------------------------------------------


def reduction_setup():
    space = timephase()
    ctx = VarContext.make(base=space.base_names)
    pairs = space.pairs

    def bracket_z(f, g):
        return canonical_poisson(f, g, pairs)

    def bracket_y(s1, s2):
        return eq1_aff_poisson(space, s1, s2)

    sections = [
        (se.neg(parse("p^2/2 + q*t", ctx)), se.neg(parse("q*p - t", ctx))),
        (parse("sin(q)*t", ctx), parse("p + q^2", ctx)),
        (Const(3.0), Const(-1.0)),
    ]
    identity_base = {n: Var(n) for n in space.base_names}
    rng = np.random.default_rng(6)
    points = sample_points(space.names, rng, 12)
    return space, bracket_z, bracket_y, sections, identity_base, points


def test_reduction_identity_passes_for_energy_shift_morphism():
    space, bz, by, sections, base_map, points = reduction_setup()
    rho = AVMorphism(base_map, se.sub(Var("e"), Var("r")), "r")
    report = check_affine_reduction(rho, bz, by, sections, points)
    assert report.passed
    assert report["reduction_identity"].residual < 1e-9


def test_reduction_constant_sections_both_sides_zero():
    space, bz, by, _, base_map, points = reduction_setup()
    rho = AVMorphism(base_map, se.sub(Var("e"), Var("r")), "r")
    report = check_affine_reduction(rho, bz, by,
                                    [(Const(2.0), Const(5.0))], points)
    assert report.passed
    assert report["reduction_identity"].residual < 1e-15


def test_reduction_flipped_morphism_with_mismatched_bracket_fails():
    space, bz, _, sections, base_map, points = reduction_setup()
    rho_flipped = AVMorphism(base_map, se.add(Var("e"), Var("r")), "r")

    def bracket_y_mismatched(s1, s2):
        # built with the opposite fiber identification; only the part
        # that is odd in the sections flips, so the identity must fail
        return reference_flipped_bracket(space, s1, s2)

    report = check_affine_reduction(rho_flipped, bz, bracket_y_mismatched,
                                    sections, points)
    assert not report.passed
    assert report["reduction_identity"].witness is not None


def test_avmorphism_pullback_solves_fiber_equation():
    space, *_ = reduction_setup()
    base_map = {n: Var(n) for n in space.base_names}
    rho = AVMorphism(base_map, se.sub(Var("e"), Var("r")), "r")
    sigma = Var("q")
    pulled = rho.pullback(sigma)
    env = {"q": 2.0, "t": 0.5, "p": -1.0, "e": 4.0}
    # fiber equation: e - r = sigma  =>  r = e - sigma
    assert evaluate(pulled, env) == pytest.approx(4.0 - 2.0)


def test_avmorphism_rejects_degenerate_fiber_map():
    rho = AVMorphism({}, Const(1.0), "r")
    with pytest.raises(PhaseError):
        rho.pullback(Const(0.0))

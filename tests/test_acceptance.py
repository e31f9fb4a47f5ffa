"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
in captured output) and also enforces its stated runtime budget.
"""

import contextlib
import filecmp
import math
import time

import numpy as np

from affgeo import cli
from affgeo import symexpr as se
from affgeo.affine import AffineSpaceSpec, BiAffineMap, difference
from affgeo.brackets import (
    LieAffgebraData, Patch, aff_jacobi_bracket, affgebra_to_affgebroid,
    atiyah_algebroid, jet_bundle_affgebroid, hull_extend, is_aff_poisson,
    random_polynomial, verify_affgebra,
)
from affgeo.duality import (
    FIBER, DoubleDualMaps, F_of_section, SpecialAffineSpace,
)
from affgeo.mechanics import (
    NewtonSpaceTime, ObservedPhase, compare_frames,
    gauge_transform, integrate, newton_dynamics, observed_hamiltonian,
    tau_clock_residual, timedep_dynamics,
)
from affgeo.phase import (
    AVMorphism, TimePhaseSpace, bold_d_oneform, canonical_poisson,
    check_affine_reduction, eq1_aff_poisson, omega_Z, sample_points,
    section_one_form,
)
from affgeo.symexpr import Const, Var, VarContext, evaluate, parse
from test_duality import hull_dual_pairing


@contextlib.contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} [{name}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget_s else f"FAIL (over budget {elapsed:.1f}s)"
    print(f"criterion {num:2d} [{name}]: {status}")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s"


def test_criterion_1_affine_axiom_suite():
    with criterion(1, "affine axiom suite", 1.0):
        theta = 0.7
        given = {"ref": (np.eye(2), np.zeros(2)),  # chart: (matrix, offset)
                 "shift": (np.eye(2), np.array([1.0, 1.0])),
                 "rot": (np.array([[math.cos(theta), -math.sin(theta)],
                                   [math.sin(theta), math.cos(theta)]]), np.array([0.5, -2.0]))}
        spec = AffineSpaceSpec(2)
        for name in ("shift", "rot"):
            spec.add_chart(name, *given[name])
        rng = np.random.default_rng(0)
        charts = spec.charts
        for _ in range(32):
            pts = [spec.point(rng.uniform(-4, 4, 2),
                              chart=charts[rng.integers(len(charts))])
                   for _ in range(3)]
            # each point in the reference chart by numpy, from its own chart's matrix and offset
            refs = [given[p.chart][0] @ p.coords + given[p.chart][1] for p in pts]
            for i in range(3):
                deviation = (difference(pts[i - 1], pts[i]).components
                             - (refs[i - 1] - refs[i]))
                assert np.max(np.abs(deviation)) < 1e-12

        phi = BiAffineMap(C=rng.normal(size=(2, 3, 2)),
                          D=rng.normal(size=(2, 3)),
                          E=rng.normal(size=(2, 2)), F=rng.normal(size=2))
        for _ in range(64):
            x, u = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
            y, w = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            r1 = phi.apply(x + u, y) - phi.apply(x, y) - phi.part_first(u, y)
            r2 = phi.apply(x, y + w) - phi.apply(x, y) - phi.part_second(x, w)
            assert max(np.max(np.abs(r1)), np.max(np.abs(r2))) < 1e-12


def test_criterion_2_duality_suite():
    with criterion(2, "duality suite", 1.0):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 4):
            assert np.linalg.matrix_rank(hull_dual_pairing(n)) == n + 1
            v = rng.normal(size=n)
            while np.linalg.norm(v) < 0.3:
                v = rng.normal(size=n)
            maps = DoubleDualMaps(SpecialAffineSpace(AffineSpaceSpec(n), v))
            for _ in range(100):
                x = rng.uniform(-5, 5, n)
                assert np.max(np.abs(maps.backward(maps.forward(x)) - x)) < 1e-12

        for raw in ("x^2", "3*x + 1", "sin(x) - x"):
            sigma = parse(raw, VarContext.make(base=("x",)))
            F = F_of_section(sigma)
            assert se.differentiate(F, FIBER) == Const(1.0)
            assert se.subst(F, {FIBER: sigma}) == Const(0.0)


def test_criterion_3_affgebra_verifier():
    with criterion(3, "affgebra verifier", 1.0):
        rng = np.random.default_rng(2)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k], eps[j, i, k] = 1.0, -1.0
        assert verify_affgebra(
            LieAffgebraData(rng.normal(size=(3, 3)), np.zeros((3, 3, 3)))).passed
        assert verify_affgebra(LieAffgebraData(np.zeros((3, 3)), eps)).passed
        bad = verify_affgebra(LieAffgebraData(np.eye(3), eps))
        assert not bad.passed
        assert bad["jacobi"].witness is not None


def test_criterion_4_hull_extension():
    with criterion(4, "hull extension of the jet-bundle bracket", 5.0):
        data = jet_bundle_affgebroid()
        rng = np.random.default_rng(3)
        pts = data.patch.grid(4)  # 16 points
        hull = hull_extend(data)

        secs = [(random_polynomial(data.patch, rng),
                 [random_polynomial(data.patch, rng)]) for _ in range(3)]
        total_w, total_c = Const(0.0), Const(0.0)
        for A, B, C in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            w, comps = hull.bracket(secs[A], hull.bracket(secs[B], secs[C]))
            total_w = se.add(total_w, w)
            total_c = se.add(total_c, comps[0])
        for p in pts:
            env = {"q": p[0], "t": p[1]}
            assert abs(evaluate(total_w, env)) < 1e-9
            assert abs(evaluate(total_c, env)) < 1e-9

        # restriction: exact on the stored frame data, 1e-12 on samples
        w01, frame_bracket = hull.bracket((1.0, [Const(0.0)]),
                                          (0.0, [Const(1.0)]))
        assert w01 == Const(0.0) and frame_bracket[0] == data.beta[0][0]
        f = [parse("sin(q)*t", VarContext.make(base=("q", "t")))]
        g = [parse("q^2 - t", VarContext.make(base=("q", "t")))]
        weight, comps = hull.bracket((1.0, f), (1.0, g))
        direct = data.bracket(f, g)
        assert weight == Const(0.0)
        for p in pts:
            env = {"q": p[0], "t": p[1]}
            assert abs(evaluate(comps[0], env) - evaluate(direct[0], env)) < 1e-12


def test_criterion_5_dual_bracket_vs_poisson():
    with criterion(5, "dual bracket matches canonical Poisson", 5.0):
        rng = np.random.default_rng(4)
        for m in (1, 2):
            names = tuple(f"x{i + 1}" for i in range(m))
            wnames = tuple(f"w{j + 1}" for j in range(m))
            patch = Patch.box(names)
            data = atiyah_algebroid(patch)

            def random_affine():
                e = random_polynomial(patch, rng)
                for w in wnames:
                    e = se.add(e, se.mul(random_polynomial(patch, rng), Var(w)))
                return e

            pairs = list(zip(names, wnames))
            for _ in range(2):
                s1, s2 = random_affine(), random_affine()
                ours = aff_jacobi_bracket(data, s1, s2)
                oracle = canonical_poisson(s1, s2, pairs)
                points = sample_points(names + wnames, rng, 32)
                assert np.max(np.abs(evaluate(ours, points) - evaluate(oracle, points))) < 1e-9

        structures = [
            atiyah_algebroid(Patch.box(("x",))),
            atiyah_algebroid(Patch.box(("x1", "x2"))),
            affgebra_to_affgebroid(
                LieAffgebraData(np.zeros((2, 2)), np.zeros((2, 2, 2))),
                v=[0.0, 1.0]),
            affgebra_to_affgebroid(
                LieAffgebraData([[0.0, 1.0], [0.0, 1.0]],
                                np.zeros((2, 2, 2))), v=[0.0, 1.0]),
        ]
        for data in structures:
            report = is_aff_poisson(data, rng=rng)
            assert report["derivation"].passed == report["centrality"].passed


def test_criterion_6_omega_invariance():
    with criterion(6, "two-form invariance and squared differential", 2.0):
        z = Patch.box(("x",))
        base = omega_Z(z)
        axis = np.linspace(-2, 2, 5)
        points = {"x": np.repeat(axis, 5), "p1": np.tile(axis, 5)}
        for text in ("x^2", "sin(x)", "x^2 - 3*x + cos(x)"):
            via = parse(text, z.context())
            assert np.max(np.abs(omega_Z(z, via=via).matrix(points) - base.matrix(points))) < 1e-12

        rng = np.random.default_rng(5)
        z2 = Patch.box(("x", "y"))
        for _ in range(4):
            two = bold_d_oneform(section_one_form(z2, random_polynomial(z2, rng)))
            assert np.max(np.abs(two.matrix(sample_points(("x", "y"), rng, 8)))) < 1e-12


def test_criterion_7_eq1_and_reduction():
    with criterion(7, "quotient bracket and affine reduction", 2.0):
        rng = np.random.default_rng(6)
        space = TimePhaseSpace(q=("q",), p=("p",))
        ctx = VarContext.make(base=space.base_names)
        s1 = se.neg(parse("p^2/2 + q*t", ctx))
        s2 = se.neg(parse("q*p - t", ctx))
        up = canonical_poisson(space.section_function(s1),
                               space.section_function(s2), space.pairs)
        variation = se.differentiate(up, space.energy)
        assert np.max(np.abs(evaluate(variation, sample_points(space.names, rng, 16)))) < 1e-9
        down = eq1_aff_poisson(space, s1, s2)  # descends: agrees with the bracket upstairs
        points = sample_points(space.names, rng, 16)
        assert np.max(np.abs(evaluate(down, points) - evaluate(up, points))) < 1e-9

        def bracket_z(f, g):
            return canonical_poisson(f, g, space.pairs)

        def bracket_y(a, b):
            return eq1_aff_poisson(space, a, b)

        sections = [(s1, s2), (parse("sin(q)*t", ctx), parse("p + q^2", ctx))]
        base_map = {n: Var(n) for n in space.base_names}
        points = sample_points(space.names, rng, 12)
        rho = AVMorphism(base_map, se.sub(Var("e"), Var("r")), "r")
        assert check_affine_reduction(rho, bracket_z, bracket_y,
                                      sections, points).passed

        def bracket_y_flipped(a, b):
            F = se.sub(se.neg(Var("e")), a)
            G = se.sub(se.neg(Var("e")), b)
            return se.subst(canonical_poisson(F, G, space.pairs), {"e": 0.0})

        rho_flipped = AVMorphism(base_map, se.add(Var("e"), Var("r")), "r")
        flipped = check_affine_reduction(rho_flipped, bracket_z,
                                         bracket_y_flipped, sections, points)
        assert not flipped.passed
        assert flipped["reduction_identity"].witness is not None


def test_criterion_8_timedep_dynamics_recovery():
    with criterion(8, "time-dependent dynamics recovery", 10.0):
        rng = np.random.default_rng(7)
        patch = Patch.box(("q1", "p1", "t"))
        axis = np.linspace(-1, 1, 5)
        grid_envs = [{"q1": a, "p1": b, "t": c}
                     for a in axis for b in axis for c in axis]
        for _ in range(5):
            H = random_polynomial(patch, rng)
            fld = timedep_dynamics(1, H, rng=rng)
            for env in grid_envs:
                closed = np.array([evaluate(c, env) for c in fld.components])
                reduced = np.array([evaluate(c, env)
                                    for c in fld.reduction_components])
                assert np.max(np.abs(closed - reduced)) < 1e-12

        osc = timedep_dynamics(
            1, parse("p1^2/2 + q1^2/2", VarContext.make(base=("q1", "p1", "t"))))
        q0, p0 = 1.0, 0.5
        traj = integrate(osc, [q0, p0, 0.0], h=1e-3, T=10.0)
        for k in range(0, len(traj), 200):
            t = traj.times[k]
            assert abs(traj.states[k, 0]
                       - (q0 * math.cos(t) + p0 * math.sin(t))) < 1e-6

        n = 6283
        traj = integrate(osc, [q0, p0, 0.0], h=2 * math.pi / n, T=2 * math.pi)
        assert np.max(np.abs(traj.states[-1, :2] - traj.states[0, :2])) < 1e-9


def test_criterion_9_frame_independence():
    with criterion(9, "frame independence of Newtonian world-lines", 30.0):
        st = NewtonSpaceTime(3)
        ctx = VarContext.make(base=("q1", "q2", "q3"), time="t")
        potentials = {
            "free": Const(0.0),
            "uniform": parse("2*q1 - q2 + 0.5*q3", ctx),
            "harmonic": parse("(q1^2 + q2^2 + q3^2)/2", ctx),
        }
        boosts = [[0.3, 0.0, 0.0], [0.0, 0.2, -0.1], [0.15, 0.15, 0.15]]
        initial = ObservedPhase([1.0, 0.0, 0.0, 0.0], [0.0, 0.5, -0.2], 0.3,
                                st.rest_frame())
        for name, phi in potentials.items():
            _, _, (rest, *lines) = compare_frames(st, 1.0, phi, initial, boosts, h=1e-3,
                                                  T=10.0)
            assert len(lines) == len(boosts)
            for v, line in zip(boosts, lines):
                deviation = np.max(np.abs(rest.events - line.events))
                assert deviation < 1e-6, (name, v, deviation)

        rng = np.random.default_rng(8)
        for _ in range(4):
            v = rng.normal(size=3)
            back = gauge_transform(gauge_transform(initial, v, 1.0), -v, 1.0)
            assert np.max(np.abs(back.p - initial.p)) < 1e-12
            assert abs(back.s - initial.s) < 1e-12

        [fld] = newton_dynamics(st, [st.rest_frame()], 1.0, potentials["harmonic"])
        traj = integrate(fld, [1.0, 0.0, 0.0, 0.0, 0.0, 0.5, -0.2],
                         h=1e-3, T=10.0)
        assert tau_clock_residual(fld, traj).max() < 1e-12
        H = observed_hamiltonian(fld)
        values = [H(s) for s in traj.states]
        assert max(abs(v - values[0]) for v in values) < 1e-6


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "scenario determinism", 120.0):
        for path in cli.bundled_scenarios():
            name = path.stem
            out1 = tmp_path / "run1" / name
            out2 = tmp_path / "run2" / name
            code1 = cli.main(["run", name, "--out", str(out1)])
            code2 = cli.main(["run", name, "--out", str(out2)])
            assert code1 == code2
            files1 = sorted(p.name for p in out1.iterdir())
            files2 = sorted(p.name for p in out2.iterdir())
            assert files1 == files2 and files1
            for fname in files1:
                assert filecmp.cmp(out1 / fname, out2 / fname, shallow=False), \
                    f"{name}/{fname} differs between runs"

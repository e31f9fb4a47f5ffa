"""Command-line front end: run scenario files, emit reports and CSVs.

Scenario files are flat INI text: ``key = value`` lines under
``[section]`` headers, with expressions quoted and parsed by the
expression language.  Runs are deterministic given the seed recorded
in the scenario (overridable with ``--seed``); a JSON report and any
trajectory CSVs are written to the output directory (``--out``, the
``AFFGEO_OUT`` environment variable, or the working directory).

Exit codes: 0 all checks pass, 1 a check failed, 2 the scenario could
not be loaded, holds an invalid value or expressions too deep for the
symbolic layer, 3 a runtime domain error interrupted the run.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import symexpr as se
from .affine import AffineGeometryError, AffineMap, AffineSpaceSpec, BiAffineMap, cocycle_check
from .brackets import (
    BracketError, LieAffgebraData, LieAffgebroidData, Patch,
    aff_jacobi_bracket, atiyah_algebroid, hull_extend, is_aff_poisson,
    random_polynomial, verify_affgebra, verify_affgebroid,
)
from .duality import (
    AVCoordinates, DualElement, F_of_section, HullPoint, SpecialAffineSpace,
    double_special_dual, dual_dimension, pair,
)
from .mechanics import (
    IntegrationError, MechanicsError, NewtonSpaceTime, ObservedPhase,
    TimeDepSystem, compare_frames, energy_drift, gauge_transform, integrate,
    newton_dynamics, tau_clock_residual, timedep_dynamics, timedep_event_fn,
)
from .phase import (
    AVBundle, AVMorphism, canonical_poisson, check_affine_reduction,
    eq1_aff_poisson, omega_Z, sample_envs, sample_points, section_one_form,
    bold_d_oneform, TimePhaseSpace,
)
from .reporting import Report, first_worst, per_point_max

KINDS = ("affine-verify", "duality-verify", "affgebra-verify",
         "affgebroid-verify", "timedep", "newton", "compare-frames",
         "reduction-check")


class ScenarioError(Exception):
    pass


# ---------------------------------------------------------------------------
# Scenario parsing helpers


def _strip_quotes(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    return raw


def _floats(raw: str) -> list[float]:
    parts = raw.replace(",", " ").split()
    try:
        return [float(p) for p in parts]
    except ValueError as err:
        raise ScenarioError(f"bad number list {raw!r}: {err}") from None


def _matrix(raw: str, rows: int, cols: int) -> np.ndarray:
    raw = raw.strip()
    if raw == "identity":
        if rows != cols:
            raise ScenarioError("identity matrix requires a square shape")
        return np.eye(rows)
    if raw == "zero":
        return np.zeros((rows, cols))
    data = [_floats(r) for r in raw.split(";") if r.strip()]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ScenarioError(f"matrix {raw!r} is not {rows} x {cols}")
    return np.array(data)


def _ints(raw: str, count: int = 0, high: float = math.inf) -> list[int]:
    """Integers in 1..high from a list, exactly ``count`` of them if set."""
    parts = raw.replace(",", " ").split()
    if not parts or count and len(parts) != count or not all(
            p.isdecimal() and 1 <= int(p) <= high for p in parts):
        raise ScenarioError(f"bad list {raw!r}: want {count or 'some'} "
                            f"integers in 1..{high}")
    return [int(p) for p in parts]


def _expr(raw: str, ctx: se.VarContext) -> se.Expression:
    try:
        return se.parse(_strip_quotes(raw), ctx)
    except se.ExpressionError as err:
        raise ScenarioError(f"bad expression {raw!r}: {err}") from None


def _expr_list(raw: str, ctx: se.VarContext) -> list[se.Expression]:
    pieces = [p for p in raw.split(",") if p.strip()]
    return [_expr(p, ctx) for p in pieces]


class Scenario:
    def __init__(self, path: Path):
        self.path = path
        parser = configparser.ConfigParser(delimiters=("=",),
                                           comment_prefixes=("#", ";"),
                                           inline_comment_prefixes=None,
                                           interpolation=None)
        try:
            with open(path) as handle:
                parser.read_file(handle)
        except (OSError, configparser.Error) as err:
            raise ScenarioError(f"cannot load {path}: {err}") from None
        self.cfg = parser
        if not parser.has_section("scenario"):
            raise ScenarioError("missing [scenario] section")
        self.name = self.get("scenario", "name", path.stem)
        self.kind = self.get("scenario", "kind")
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        self.description = self.get("scenario", "description", "")
        self.seed = self.get_int("scenario", "seed", 0)

    def get(self, section: str, key: str, default=None) -> str:
        if self.cfg.has_option(section, key):
            return self.cfg.get(section, key).strip()
        if default is None:
            raise ScenarioError(f"missing field [{section}] {key}")
        return default

    def _number(self, kind, section: str, key: str, default):
        raw = self.get(section, key, None if default is None else str(default))
        try:
            return kind(raw)
        except ValueError:
            raise ScenarioError(
                f"[{section}] {key} = {raw!r} is not {kind.__name__}") from None

    def get_float(self, section: str, key: str, default=None) -> float:
        return self._number(float, section, key, default)

    def get_int(self, section: str, key: str, default=None) -> int:
        return self._number(int, section, key, default)

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        raw = self.get(section, key, str(default)).lower()
        return raw in ("1", "true", "yes", "on")

    def items(self, section: str) -> list[tuple[str, str]]:
        if not self.cfg.has_section(section):
            return []
        return list(self.cfg.items(section))


# ---------------------------------------------------------------------------
# Runners, one per scenario kind


def run_affine_verify(sc: Scenario, rng, outdir: Path, report: Report):
    dim = sc.get_int("space", "dim")
    try:
        spec = AffineSpaceSpec(dim)
        for name, raw in sc.items("charts"):
            if "|" not in raw:
                raise ScenarioError(f"chart {name!r} must look like 'rows | offset'")
            mat_raw, off_raw = raw.split("|", 1)
            spec.add_chart(name, _matrix(mat_raw, dim, dim), _floats(off_raw))
    except AffineGeometryError as err:
        raise ScenarioError(str(err)) from None
    charts = spec.charts
    samples = _ints(sc.get("params", "samples", "64"), 1)[0]

    report.check("cocycle_across_charts", [cocycle_check(*[
        spec.point(rng.uniform(-3, 3, dim), chart=charts[rng.integers(len(charts))])
        for _ in range(3)]) for _ in range(16)], 1e-12)

    phi = BiAffineMap(C=rng.normal(size=(dim, dim, dim)),
                      D=rng.normal(size=(dim, dim)),
                      E=rng.normal(size=(dim, dim)),
                      F=rng.normal(size=dim))
    residuals = []
    for _ in range(samples):
        x, y = rng.uniform(-2, 2, dim), rng.uniform(-2, 2, dim)
        u, w = rng.uniform(-2, 2, dim), rng.uniform(-2, 2, dim)
        residuals += [phi.apply(x + u, y) - phi.apply(x, y) - phi.part_first(u, y),
                      phi.apply(x, y + w) - phi.apply(x, y) - phi.part_second(x, w)]
    report.check("biaffine_part_identities", np.abs(residuals), 1e-12)

    amap = AffineMap(spec, spec, rng.normal(size=(dim, dim)), rng.normal(size=dim))
    residuals = []
    for _ in range(16):
        ref = rng.uniform(-2, 2, dim)
        base = amap.apply(spec.point(ref)).coords
        residuals += [amap.apply(spec.convert_point(spec.point(ref), chart)).coords
                      - base for chart in charts]
    report.check("map_chart_invariance", np.abs(residuals), 1e-12)


def run_duality_verify(sc: Scenario, rng, outdir: Path, report: Report):
    dims = _ints(sc.get("params", "dims", "1, 2, 3, 4"))
    points = _ints(sc.get("params", "points", "100"), 1)[0]

    ok = all(dual_dimension(AffineSpaceSpec(n)) == n + 1 for n in dims)
    report.add("dual_dimension", ok, 0.0)

    residuals = []
    for n in dims:
        v = rng.normal(size=n)
        while np.linalg.norm(v) < 0.3:
            v = rng.normal(size=n)
        maps = double_special_dual(SpecialAffineSpace(AffineSpaceSpec(n), v))
        for _ in range(points):
            x = rng.uniform(-5, 5, n)
            residuals.append(np.max(np.abs(maps.backward(maps.forward(x)) - x)))
    report.check("double_dual_round_trip", residuals, 1e-12)

    av = AVCoordinates(base=("x",))
    ctx = av.context()
    exact = True
    for raw in ("x^2", "3*x + 1", "sin(x)"):
        sigma = se.parse(raw, ctx)
        F = F_of_section(sigma, av)
        exact &= se.differentiate(F, "s") == se.Const(1.0)
        exact &= se.subst(F, {"s": sigma}) == se.Const(0.0)
    report.add("F_section_identities", exact, 0.0)

    residuals = []
    h = 1e-4
    for n in dims:
        space = AffineSpaceSpec(n)
        X = HullPoint.embed_vector(space.vector(rng.normal(size=n)))
        for _ in range(8):
            w = rng.normal(size=n)
            c = rng.normal()
            f0 = pair(X, DualElement(space, w, c))
            f1 = pair(X, DualElement(space, w, c + h))
            residuals.append(abs((f1 - f0) / h))
    report.check("pairing_vertical_invariance", residuals, 1e-9)


def _load_affgebra(sc: Scenario) -> LieAffgebraData:
    dim = sc.get_int("structure", "dim")
    D = _matrix(sc.get("structure", "D", "zero"), dim, dim)
    c = np.zeros((dim, dim, dim))
    preset = sc.get("structure", "c", "entries")
    if preset == "cross3":
        if dim != 3:
            raise ScenarioError("cross3 structure constants need dim = 3")
        for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
    elif preset in ("zero", "entries"):
        for key, _ in sc.items("c"):
            i, j, k = (n - 1 for n in _ints(key, 3, dim))
            value = sc.get_float("c", key)
            c[i, j, k] = value
            c[j, i, k] = -value
    else:
        raise ScenarioError(f"unknown structure-constant preset {preset!r}")
    try:
        return LieAffgebraData(D, c)
    except BracketError as err:
        raise ScenarioError(str(err)) from None


def run_affgebra_verify(sc: Scenario, rng, outdir: Path, report: Report):
    data = _load_affgebra(sc)
    result = verify_affgebra(data)
    report.checks.extend(result.checks)


def _base_patch(sc: Scenario) -> Patch:
    coords = tuple(p.strip() for p in sc.get("base", "coords").split(",") if p.strip())
    low = sc.get_float("base", "low", -1.0)
    high = sc.get_float("base", "high", 1.0)
    return Patch.box(coords, low, high)


def _sample_points(sc: Scenario, patch: Patch, rng) -> np.ndarray:
    raw = sc.get("base", "samples", "grid:4")
    mode, _, arg = raw.partition(":")
    if mode == "grid":
        return patch.grid(_ints(arg or "4", 1)[0])
    if mode == "random":
        return patch.sample(rng, _ints(arg or "16", 1)[0])
    raise ScenarioError(f"unknown sampling mode {raw!r}")


def _load_affgebroid(sc: Scenario, patch: Patch) -> LieAffgebroidData:
    ctx = patch.context()
    rank = sc.get_int("structure", "rank")
    zero = se.Const(0.0)
    beta = [[zero] * rank for _ in range(rank)]
    for key, raw in sc.items("beta"):
        i = _ints(key, 1, rank)[0] - 1
        beta[i] = _expr_list(raw, ctx)
    c = [[[zero] * rank for _ in range(rank)] for _ in range(rank)]
    for key, raw in sc.items("c"):
        i, j = (n - 1 for n in _ints(key, 2, rank))
        comps = _expr_list(raw, ctx)
        c[i][j] = comps
        c[j][i] = [se.neg(e) for e in comps]
    anchor_ref = _expr_list(sc.get("structure", "anchor_ref"), ctx)
    anchor_lin = []
    for i in range(rank):
        anchor_lin.append(_expr_list(sc.get("structure", f"anchor{i + 1}"), ctx))
    v = None
    if sc.cfg.has_option("structure", "v"):
        v = _floats(sc.get("structure", "v"))
    try:
        return LieAffgebroidData(patch, rank, beta, c, anchor_ref, anchor_lin, v=v)
    except BracketError as err:
        raise ScenarioError(str(err)) from None


def _check_atiyah_poisson(dim: int, rng, report: Report, n_points: int = 32):
    names = tuple(f"x{i + 1}" for i in range(dim))
    patch = Patch.box(names)
    data = atiyah_algebroid(patch)
    wnames = tuple(f"w{j + 1}" for j in range(dim))

    def random_affine():
        e = random_polynomial(patch, rng)
        for w in wnames:
            e = se.add(e, se.mul(random_polynomial(patch, rng), se.Var(w)))
        return e

    diffs = []
    pairs = list(zip(names, wnames))
    for _ in range(2):
        s1, s2 = random_affine(), random_affine()
        ours = aff_jacobi_bracket(data, s1, s2)
        oracle = canonical_poisson(s1, s2, pairs)
        point = sample_points(names + wnames, rng, n_points)
        diffs.append(se.evaluate(ours, point) - se.evaluate(oracle, point))
    report.check(f"dual_bracket_matches_poisson_dim{dim}",
                 [per_point_max([d], n_points) for d in diffs], 1e-9)

    result = is_aff_poisson(data, rng=rng)
    report.add(f"aff_poisson_criteria_agree_dim{dim}",
               result.criteria_agree and bool(result),
               first_worst([result.derivation_residual,
                            result.centrality_residual])[0], result.witness)


def run_affgebroid_verify(sc: Scenario, rng, outdir: Path, report: Report):
    if sc.get_bool("structure", "atiyah", False):
        dims = _ints(sc.get("structure", "dims", "1, 2"))
        for dim in dims:
            _check_atiyah_poisson(dim, rng, report)
        return
    patch = _base_patch(sc)
    data = _load_affgebroid(sc, patch)
    pts = _sample_points(sc, patch, rng)
    result = verify_affgebroid(data, pts, rng=rng)
    report.checks.extend(result.checks)
    # hull checks only make sense on a structure that verified
    if result.passed and sc.get_bool("checks", "hull", False):
        hull = hull_extend(data, pts, rng=rng)
        secs = [(random_polynomial(patch, rng),
                 [random_polynomial(patch, rng) for _ in range(data.rank)])
                for _ in range(3)]

        env, n = patch.env(pts), len(pts)

        def sampled(name, values, tol):
            report.check(name, per_point_max(values, n), tol,
                         lambda at: {"point": pts[at[0]].tolist()})

        f, g = secs[0][1], secs[1][1]
        weight, comps = hull.bracket((1.0, f), (1.0, g))
        sampled("hull_restriction", [se.evaluate(weight, env)] + [
            se.evaluate(a, env) - se.evaluate(b, env)
            for a, b in zip(comps, data.bracket(f, g))], 1e-12)

        total_w = se.Const(0.0)
        total_c = [se.Const(0.0)] * data.rank
        for X, Y, Z in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            w, comps = hull.bracket(secs[X], hull.bracket(secs[Y], secs[Z]))
            total_w = se.add(total_w, w)
            total_c = [se.add(a, b) for a, b in zip(total_c, comps)]
        sampled("hull_jacobi", [se.evaluate(e, env) for e in [total_w, *total_c]], 1e-9)
        sampled("hull_unit_cocycle_closed", [se.evaluate(
            hull.one_cocycle_residual(secs[0], secs[1]), env)], 1e-9)


def run_timedep(sc: Scenario, rng, outdir: Path, report: Report):
    dim = sc.get_int("system", "dim")
    q = tuple(f"q{i + 1}" for i in range(dim))
    p = tuple(f"p{i + 1}" for i in range(dim))
    ctx = se.VarContext.make(base=q + p, time="t")
    H = _expr(sc.get("system", "hamiltonian"), ctx)
    sys = TimeDepSystem(dim, H)
    fld = timedep_dynamics(sys, rng=rng)
    report.check("dynamics_agreement", fld.cross_check_residual, 1e-12)

    h = sc.get_float("integration", "step")
    T = sc.get_float("integration", "duration")
    y0 = _floats(sc.get("integration", "initial"))
    if len(y0) == 2 * dim:
        y0 = y0 + [0.0]
    event_fn, event_names = timedep_event_fn(sys)
    traj = integrate(fld, y0, h, T, event_fn=event_fn, event_names=event_names)
    report.add("finite_trajectory", True, 0.0)

    _check_energy(fld, traj, H, report)

    csv_name = sc.get("output", "trajectory", f"{sc.name}.csv")
    traj.to_csv(outdir / csv_name)


def _check_energy(fld, traj, source: se.Expression, report: Report):
    """Energy conservation, checked when ``source`` does not depend on t."""
    if se.differentiate(source, "t") == se.Const(0.0):
        report.check("energy_drift", energy_drift(fld, traj), 1e-6)


def _check_newton(fld, traj, phi: se.Expression, report: Report):
    report.check("tau_clock", tau_clock_residual(fld, traj), 1e-12)
    _check_energy(fld, traj, phi, report)


def _newton_inputs(sc: Scenario):
    """(st, phi, mass, event, momentum, step, duration) of a Newton run."""
    dim = sc.get_int("spacetime", "dim", 3)
    g = None
    if sc.cfg.has_option("spacetime", "metric"):
        g = _matrix(sc.get("spacetime", "metric"), dim, dim)
    ctx = se.VarContext.make(base=tuple(f"q{i + 1}" for i in range(dim)),
                             time="t")
    phi = _expr(sc.get("system", "potential", "0"), ctx)
    return (NewtonSpaceTime(dim, g=g), phi, sc.get_float("system", "mass", 1.0),
            _floats(sc.get("initial", "event")),
            _floats(sc.get("initial", "momentum")),
            sc.get_float("integration", "step"),
            sc.get_float("integration", "duration"))


def run_newton(sc: Scenario, rng, outdir: Path, report: Report):
    st, phi, m, x0, p0, h, T = _newton_inputs(sc)
    frame = st.frame(_floats(sc.get("system", "frame"))) \
        if sc.cfg.has_option("system", "frame") else st.rest_frame()
    fld = newton_dynamics(st, frame, m, phi)
    traj = integrate(fld, [*x0, *p0], h, T,
                     event_fn=fld.event_of, event_names=fld.event_names)
    _check_newton(fld, traj, phi, report)
    csv_name = sc.get("output", "trajectory", f"{sc.name}.csv")
    traj.to_csv(outdir / csv_name)


def run_compare_frames(sc: Scenario, rng, outdir: Path, report: Report):
    st, phi, m, x0, p0, h, T = _newton_inputs(sc)
    initial = ObservedPhase(x0, p0, sc.get_float("initial", "s", 0.0),
                            st.rest_frame())
    boosts = [_floats(r) for r in sc.get("frames", "boosts").split(";")
              if r.strip()]
    if not boosts:
        raise ScenarioError("[frames] boosts lists no boost")

    comparisons = [compare_frames(st, m, phi, initial, v, h, T,
                                  scenario=f"{sc.name}/boost{i + 1}")
                   for i, v in enumerate(boosts)]
    for i, cmp in enumerate(comparisons):
        report.add(f"frame_independence_boost{i + 1}",
                   cmp.passed, cmp.max_deviation)
    payload = json.dumps(_jsonify([c.to_dict() for c in comparisons]),
                         indent=2, sort_keys=True)
    (outdir / f"{sc.name}_comparisons.json").write_text(payload + "\n")

    backs = [gauge_transform(gauge_transform(initial, v, m), [-x for x in v], m)
             for v in boosts]
    report.check("gauge_round_trip",
                 [np.abs([*(b.p - initial.p), b.s - initial.s]) for b in backs],
                 1e-12, lambda at: {"boost": boosts[at[0]]})

    # the rest-frame world-line every comparison starts from
    _check_newton(newton_dynamics(st, initial.frame, m, phi),
                  comparisons[0].trajectories[0], phi, report)


def run_reduction_check(sc: Scenario, rng, outdir: Path, report: Report):
    if sc.get_bool("checks", "omega", False):
        coords = tuple(p.strip() for p in
                       sc.get("forms", "coords", "x").split(",") if p.strip())
        z = AVBundle(Patch.box(coords))
        ctx = z.patch.context()
        raw_sections = [p for p in sc.get("forms", "sections").split(",") if p.strip()]
        for i, raw in enumerate(raw_sections):
            z.register(f"s{i + 1}", _expr(raw, ctx))
        base = omega_Z(z)
        n = len(coords)
        momenta = tuple(f"p{i + 1}" for i in range(n))
        grid = np.linspace(-1.5, 1.5, 5)
        mesh = np.meshgrid(*([grid] * (2 * n)), indexing="ij")
        envs = [dict(zip(coords + momenta, vals))
                for vals in zip(*[m.ravel() for m in mesh])]
        report.check("omega_trivialization_invariance",
                     [base.max_difference(omega_Z(z, via=f"s{i + 1}"), envs)
                      for i in range(len(raw_sections))], 1e-12)

        residuals = []
        for _ in range(4):
            sigma = random_polynomial(z.patch, rng, degree=3)
            name = f"r{rng.integers(1e9)}"
            z.register(name, sigma)
            two = bold_d_oneform(section_one_form(z, name))
            residuals += [np.abs(two.matrix(env))
                          for env in sample_envs(coords, rng, 8)]
        report.check("bold_d_squared_zero", residuals, 1e-12)

    if sc.get_bool("checks", "eq1", False):
        space = TimePhaseSpace(q=("q",), p=("p",))
        ctx = se.VarContext.make(base=space.base_names)
        s1 = _expr(sc.get("sections", "sigma1"), ctx)
        s2 = _expr(sc.get("sections", "sigma2"), ctx)
        down = eq1_aff_poisson(space, s1, s2, rng=rng)
        up = canonical_poisson(space.section_function(s1),
                               space.section_function(s2), space.pairs)
        point = sample_points(space.names, rng, 16)
        report.check("eq1_descends_to_cotangent_bracket", per_point_max(
            [se.evaluate(down, point) - se.evaluate(up, point)], 16), 1e-9)
        report.check("eq1_fiber_constancy", per_point_max([se.evaluate(
            se.differentiate(up, space.energy),
            sample_points(space.names, rng, 16))], 16), 1e-9)

    mode = sc.get("checks", "reduction", "none")
    if mode != "none":
        space = TimePhaseSpace(q=("q",), p=("p",))
        ctx = se.VarContext.make(base=space.base_names)
        pairs_up = space.pairs

        def bracket_z(f, g):
            return canonical_poisson(f, g, pairs_up)

        def bracket_y(a, b):
            return eq1_aff_poisson(space, a, b, rng=np.random.default_rng(sc.seed))

        def bracket_y_flipped(a, b):
            F = se.sub(se.neg(se.Var(space.energy)), a)
            G = se.sub(se.neg(se.Var(space.energy)), b)
            return se.subst(canonical_poisson(F, G, pairs_up),
                            {space.energy: 0.0})

        sections = [
            (se.neg(_expr("p^2/2 + q*t", ctx)), se.neg(_expr("q*p - t", ctx))),
            (_expr("sin(q)*t", ctx), _expr("p + q^2", ctx)),
        ]
        base_map = {n: se.Var(n) for n in space.base_names}
        envs = sample_envs(space.names, rng, 12)
        if mode == "standard":
            rho = AVMorphism(base_map, se.sub(se.Var("e"), se.Var("r")), "r")
            result = check_affine_reduction(rho, bracket_z, bracket_y,
                                            sections, envs)
        elif mode == "flipped":
            rho = AVMorphism(base_map, se.add(se.Var("e"), se.Var("r")), "r")
            result = check_affine_reduction(rho, bracket_z, bracket_y_flipped,
                                            sections, envs)
        else:
            raise ScenarioError(f"unknown reduction mode {mode!r}")
        report.checks.extend(result.checks)


RUNNERS = {
    "affine-verify": run_affine_verify,
    "duality-verify": run_duality_verify,
    "affgebra-verify": run_affgebra_verify,
    "affgebroid-verify": run_affgebroid_verify,
    "timedep": run_timedep,
    "newton": run_newton,
    "compare-frames": run_compare_frames,
    "reduction-check": run_reduction_check,
}


# ---------------------------------------------------------------------------
# Entry points


def bundled_dir():
    return resources.files("affgeo") / "scenarios"


def bundled_scenarios() -> list[Path]:
    root = bundled_dir()
    return sorted(Path(str(p)) for p in root.iterdir()
                  if p.name.endswith(".ini"))


def resolve_scenario(arg: str) -> Path:
    path = Path(arg)
    if path.is_file():
        return path
    candidate = Path(str(bundled_dir() / f"{arg}.ini"))
    if candidate.is_file():
        return candidate
    raise ScenarioError(f"no scenario file or bundled scenario named {arg!r}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def run_scenario(path: Path, seed: int | None, outdir: Path,
                 as_json: bool) -> int:
    sc = Scenario(path)
    if seed is not None:
        sc.seed = seed
    if sc.seed < 0:
        raise ScenarioError(f"seed {sc.seed} is negative")
    rng = np.random.default_rng(sc.seed)
    outdir.mkdir(parents=True, exist_ok=True)
    report = Report(sc.name)
    RUNNERS[sc.kind](sc, rng, outdir, report)

    payload = _jsonify({**report.to_dict(), "kind": sc.kind, "seed": sc.seed})
    report_path = outdir / f"{sc.name}_report.json"
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"  {c.check}: {status} (residual {c.residual:.3e})")
            if c.witness is not None and not c.passed:
                print(f"    witness: {json.dumps(_jsonify(c.witness), sort_keys=True)}")
        print(f"scenario {sc.name}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def list_scenarios(as_json: bool, kind: str | None) -> int:
    rows = []
    for path in bundled_scenarios():
        sc = Scenario(path)
        if kind and sc.kind != kind:
            continue
        rows.append({"name": sc.name, "kind": sc.kind,
                     "description": sc.description})
    if as_json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    width = max((len(r["name"]) for r in rows), default=4)
    kwidth = max((len(r["kind"]) for r in rows), default=4)
    for r in rows:
        print(f"{r['name']:<{width}}  {r['kind']:<{kwidth}}  {r['description']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="affgeo",
        description="Run verification and simulation scenarios for the "
                    "affine-value geometry toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario file or bundled scenario")
    runp.add_argument("scenario")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--json", action="store_true")
    listp = sub.add_parser("list", help="list bundled scenarios")
    listp.add_argument("--json", action="store_true")
    listp.add_argument("--kind", default=None)
    args = parser.parse_args(argv)

    if args.command == "list":
        return list_scenarios(args.json, args.kind)

    try:
        path = resolve_scenario(args.scenario)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    outdir = Path(args.out or os.environ.get("AFFGEO_OUT") or ".")
    try:
        return run_scenario(path, args.seed, outdir, args.json)
    except (ScenarioError, MechanicsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # parse bounds the depth of its trees, but a derivative can be
        # deeper than its source (a chain of quotients about threefold)
        print(f"error: expressions too deep for the symbolic layer (parsed "
              f"trees have at most {se.MAX_DEPTH} levels)", file=sys.stderr)
        return 2
    except (se.DomainError, IntegrationError, BracketError,
            AffineGeometryError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: run scenario files, emit reports and CSVs.

Scenario files are INI text with quoted expressions.  ``KINDS`` holds one
table per scenario kind of every key a file may set, with its type,
default and range; :class:`Scenario` rejects anything else and hands the
runners typed values.  Runs are deterministic given the seed (the file's
or ``--seed``).  Each runner returns its output files; the JSON report and
those files go to the output directory (``--out``, ``$AFFGEO_OUT`` or the
working directory) and nowhere else, only once every check has run, and
all of them or none.

Exit codes: 0 all checks pass, 1 a check failed, 2 the scenario could not
be loaded (a file that is not UTF-8 INI text as :func:`read_ini` reads it,
an unknown section or key, a key its mode does not read, a missing key, a
value of the wrong type or out of range), holds a value the library
rejects, a malformed expression or one too deep for the symbolic layer,
needs more memory than the host grants, or an output cannot be written
(``--out`` names a file, an output's name is a directory or the report's),
3 a runtime domain error interrupted the run.  Only :func:`main` maps library
errors to codes: refused values (``BracketError``, ``AffineGeometryError``,
``MechanicsError``, ``PhaseError``) exit 2, ``DomainError`` and ``IntegrationError`` 3.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import symexpr as se
from .affine import AffineGeometryError, AffineMap, AffineSpaceSpec, BiAffineMap, difference
from .brackets import (
    MAX_GRID_POINTS, BracketError, HullAlgebroidData, LieAffgebraData, LieAffgebroidData, Patch,
    aff_jacobi_bracket, atiyah_algebroid, is_aff_poisson,
    random_polynomial, verify_affgebra, verify_affgebroid,
)
from .duality import (
    FIBER, DoubleDualMaps, DualElement, F_of_section, HullPoint,
    SpecialAffineSpace, one, pair,
)
from .mechanics import (
    FRAME_TOL, IntegrationError, MechanicsError, NewtonSpaceTime, ObservedPhase,
    compare_frames, energy_drift, gauge_transform, integrate,
    newton_dynamics, tau_clock_residual, timedep_dynamics,
)
from .phase import (
    AVMorphism, PhaseError, canonical_poisson, check_affine_reduction,
    eq1_aff_poisson, omega_Z, point_at, sample_points, section_one_form,
    bold_d_oneform, TimePhaseSpace,
)
from .reporting import Report, first_worst, per_point_max


class ScenarioError(Exception):
    pass


# ---------------------------------------------------------------------------
# Loading.  A value type is a function ``(raw, bound) -> value`` raising
# ValueError; ``bound`` reads a range limit given as another (section, key).


def _show(limit) -> str:
    return f"[{limit[0]}] {limit[1]}" if isinstance(limit, tuple) else f"{limit:g}"


def Match(pattern: str, what: str, convert=str):
    def parse(raw, bound):
        if not re.fullmatch(pattern, raw):
            raise ValueError(f"want {what}")
        return convert(raw)
    return parse


def Enum(*choices):
    return Match("|".join(map(re.escape, choices)), "one of " + ", ".join(choices))


def Int(lo, hi=math.inf):
    def parse(raw, bound):
        if re.fullmatch(r"-?[0-9]+", raw) and bound(lo) <= int(raw) <= bound(hi):
            return int(raw)
        raise ValueError(f"want an integer in {_show(lo)}..{_show(hi)}")
    return parse


def Float(above=None, finite=True):
    """A float, finite unless ``finite`` is false, above ``above`` if set."""
    def parse(raw, bound):
        value = float(raw)
        if finite and not math.isfinite(value):
            raise ValueError("want a finite number")
        if above and not value > bound(above):
            raise ValueError(f"want a number above {_show(above)}")
        return value
    return parse


def List(item, sep=r"[\s,]+", distinct=False):
    """A non-empty list of ``item`` values separated by ``sep``."""
    def parse(raw, bound):
        values = [item(p.strip(), bound) for p in re.split(sep, raw) if p.strip()]
        if not values or distinct and len(set(values)) < len(values):
            raise ValueError(f"want a non-empty list{' of distinct items' * distinct}")
        return values
    return parse


QUOTED = r"\"[^\"]*\"|'[^']*'"
BOOL = Match("true|false", "true or false", lambda raw: raw == "true")
FILE_NAME = Match(r"(?!\.\.?$)[^/\\\0]+", "a plain file name")  # outputs stay in --out
NAMES = List(Match(r"[A-Za-z_][A-Za-z0-9_]*", "a name"), ",", distinct=True)
EXPR = Match(QUOTED, "a quoted expression", lambda raw: raw[1:-1])
EXPRS = Match(rf"({QUOTED})(\s*,\s*({QUOTED}))*", "quoted expressions and commas",
              lambda raw: [q[1:-1] for q in re.findall(QUOTED, raw)])
FLOATS = List(Float(finite=False))
FINITE_FLOATS = List(Float())  # for the keys that become integration states
ROWS = List(FLOATS, ";")
FINITE_ROWS = List(FINITE_FLOATS, ";")


def MATRIX(raw, bound):
    """Rows of equal length separated by ``;``, or ``identity`` or ``zero``."""
    if raw in ("identity", "zero"):
        return raw
    rows = ROWS(raw, bound)
    if len({len(r) for r in rows}) > 1:
        raise ValueError("want rows of equal length")
    return rows


def CHART(raw, bound):
    rows, offset = Match(r"[^|]*\|.*", "'rows | offset'")(raw, bound).split("|", 1)
    return MATRIX(rows.strip(), bound), FLOATS(offset, bound)


def SAMPLES(raw, bound):
    """``grid:<n>`` points per axis (4 if left out) or ``random:<n>`` (16)."""
    spec = Match(r"(grid|random)(:.*)?", "grid:<n> or random:<n>")(raw, bound)
    mode, _, n = spec.partition(":")
    return mode, Int(1, MAX_GRID_POINTS)(n or {"grid": "4", "random": "16"}[mode], bound)


REQUIRED = "required"


class Key(NamedTuple):
    """One key in the table of a scenario kind.

    ``key`` is a name, or a pattern in which ``<name>`` stands for any text
    and ``<i> <j> <k>`` for integers in ``index`` = (lo, hi); its value is
    then a dict from the tuple of those names or integers to the value.  An
    entry of two or more integers is antisymmetric in the first two: it may
    not be given with its partner.  The key is read only if ``when`` =
    (section, key, value) holds.
    """
    section: str
    key: str
    type: object
    default: str | None = None
    when: tuple | None = None
    index: tuple | None = None


def read_ini(path: Path) -> dict[str, dict[str, str]]:
    """The file's sections as {section: {key: text}}, as configparser reads
    them with ``=`` the only delimiter, ``#`` and ``;`` comments on whole
    lines, case-sensitive keys, no interpolation and no repeated section or
    key; the grammar is in README.  A UTF-8 byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8-sig") as handle:  # \r\n and \r read as \n
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"cannot load {path}: {err}") from None
    sections, values, key, indent = {}, None, None, 0
    for n, line in enumerate(lines, 1):
        text = line.strip()
        if not text or text[0] in "#;":
            if key and not text:
                values[key].append("")
            continue
        depth = len(line) - len(line.lstrip())
        if key and depth > indent:
            values[key].append(text)
            continue
        indent, end = depth, text.rfind("]")
        if text[0] == "[" and end > 1:
            if text[1:end] in sections:
                raise ScenarioError(f"cannot load {path}: line {n}: {line!r} repeats a section")
            values = sections[text[1:end]] = {}
            key = None
            continue
        key, eq, value = text.partition("=")
        key = key.rstrip()
        if values is None or not eq or not key or key in values:
            why = ("comes before the first [section]" if values is None else
                   "repeats a key" if eq and key else "is not key = value")
            raise ScenarioError(f"cannot load {path}: line {n}: {line!r} {why}")
        values[key] = [value.lstrip()]
    return {s: {k: "\n".join(v).rstrip() for k, v in keys.items()}
            for s, keys in sections.items()}


@functools.cache  # built on the first file of each kind, not at import
def _index(kind: str):
    """The table of ``kind``, and for each of its sections the entries'
    places in it: a dict for the plain keys, a compiled regex per pattern."""
    table, sections = COMMON + KINDS[kind][1], {}
    for n, e in enumerate(table):
        plain, patterns = sections.setdefault(e.section, ({}, []))
        if "<" in e.key:
            patterns.append((re.compile(re.sub(r"<[ijk]>", "(0|[1-9][0-9]*)", e.key)
                                        .replace("<name>", "(.+)")), n))
        else:
            plain[e.key] = n
    return table, sections


class Scenario(dict):
    """A scenario file checked against the table of its kind.

    It maps each (section, key) of the table to the typed value: the
    file's, else the default, else None (also for a key not read).
    """

    def __init__(self, path: Path):
        raw = read_ini(path)
        kind = raw.get("scenario", {}).get("kind")
        self._read(COMMON[0], {} if kind is None else {"kind": ((), kind)})
        self.kind = self["scenario", "kind"]
        table, sections = _index(self.kind)
        given = [{} for _ in table]  # per entry: {key in the file: (names or indices, text)}
        for section, keys in raw.items():
            if section not in sections:
                raise ScenarioError(f"unknown section [{section}] for kind {self.kind}")
            plain, patterns = sections[section]
            for key, text in keys.items():
                if key in plain:
                    given[plain[key]][key] = (), text
                    continue
                for regex, n in patterns:
                    if at := regex.fullmatch(key):
                        given[n][key] = at.groups(), text
                        break
                else:
                    raise ScenarioError(f"unknown key [{section}] {key} for kind {self.kind}")
        for e, keys in zip(table[1:], given[1:]):
            self._read(e, keys)
        if self.kind == "reduction-check" and [self["checks", k] for k in (
                "omega", "eq1", "reduction")] == [False, False, "none"]:
            raise ScenarioError("reduction-check runs no check: set omega, eq1 or reduction")
        self.name = self["scenario", "name"] or path.stem
        self.seed = self["scenario", "seed"]

    def _parse(self, e: Key, key: str, raw: str, kind=None):
        def bound(limit):
            return self[limit] if isinstance(limit, tuple) else limit
        try:
            return (kind or e.type)(raw.strip(), bound)
        except ValueError as err:
            raise ScenarioError(f"[{e.section}] {key} = {raw!r}: {err}") from None

    def _read(self, e: Key, given: dict) -> None:
        """Set entry ``e`` from ``given``, its keys in the file."""
        if e.when and self[e.when[:2]] != e.when[2]:
            if given:
                s, k, v = e.when
                raise ScenarioError(f"[{e.section}] {next(iter(given))} is read only "
                                    f"when [{s}] {k} = {str(v).lower()}")
            self[e.section, e.key] = None
            return
        if not given and e.default == REQUIRED:
            raise ScenarioError(f"missing [{e.section}] {e.key}")
        if not given and e.default is not None:
            given = {e.key: ((), e.default)}
        value = {}  # from the names or indices in a key (none for a plain key)
        for k, (at, v) in given.items():
            if e.index:
                at = tuple(self._parse(e, k, i, Int(*e.index)) for i in at)
                partner = (*at[1::-1], *at[2:])
                if partner != at and partner in value:
                    raise ScenarioError(f"[{e.section}] {' '.join(map(str, partner))} and "
                                        f"[{e.section}] {k} set one antisymmetric pair")
            value[at] = self._parse(e, k, v)
        self[e.section, e.key] = value if "<" in e.key else value.get(())


def _matrix(value, n: int) -> np.ndarray:
    """A matrix key's value as an array; ``identity`` and ``zero`` are n x n."""
    if value in ("identity", "zero"):
        return np.eye(n) if value == "identity" else np.zeros((n, n))
    return np.array(value)


def _expr(text: str, ctx: se.VarContext) -> se.Expression:
    try:
        return se.parse(text, ctx)
    except se.ExpressionError as err:
        raise ScenarioError(f"bad expression {text!r}: {err}") from None


def _exprs(texts: list[str], ctx: se.VarContext) -> list[se.Expression]:
    return [_expr(t, ctx) for t in texts]


# ---------------------------------------------------------------------------
# Runners, one per scenario kind: each returns its output files as {name: bytes}, or None


def run_affine_verify(sc: Scenario, rng, report: Report):
    dim = sc["space", "dim"]
    given = {AffineSpaceSpec.reference: (np.eye(dim), np.zeros(dim))}  # chart: (matrix, offset)
    spec = AffineSpaceSpec(dim)
    for (name,), (rows, offset) in sc["charts", "<name>"].items():
        given[name] = _matrix(rows, dim), np.array(offset)
        spec.add_chart(name, *given[name])
    charts = spec.charts
    triples = [[spec.point(rng.uniform(-3, 3, dim), chart=charts[rng.integers(len(charts))])
                for _ in range(3)] for _ in range(16)]
    # each point in the reference chart by numpy, from its own chart's matrix and offset
    refs = [[given[p.chart][0] @ p.coords + given[p.chart][1] for p in t] for t in triples]
    report.check("cocycle_across_charts", [[
        np.abs(difference(t[i - 1], t[i]).components - (r[i - 1] - r[i])) for i in range(3)]
        for t, r in zip(triples, refs)], 1e-12,
        lambda at: {"charts": [p.chart for p in triples[at[0]]]})

    phi = BiAffineMap(C=rng.normal(size=(dim, dim, dim)), D=rng.normal(size=(dim, dim)),
                      E=rng.normal(size=(dim, dim)), F=rng.normal(size=dim))
    x, y, u, w = rng.uniform(-2, 2, (sc["params", "samples"], 4, dim)).transpose(1, 0, 2)
    # each residual reads three sums of at most (dim+1)^2 terms, none with a larger sum
    # of |terms| than phi's with |C|, |D|, |E|, |F| at |x| + |u|, |y| + |w|
    size = np.max(BiAffineMap(*map(abs, (phi.C, phi.D, phi.E, phi.F)))
                  .apply(abs(x) + abs(u), abs(y) + abs(w)))
    report.check("biaffine_part_identities", np.abs([
        phi.apply(x + u, y) - phi.apply(x, y) - phi.part_first(u, y),
        phi.apply(x, y + w) - phi.apply(x, y) - phi.part_second(x, w)]),
        1e-12 + 4 * (dim + 1) ** 2 * 2.0**-52 * size,
        lambda at: {"slot": ("first", "second")[at[0]], "sample": at[1]})

    amap = AffineMap(spec, spec, rng.normal(size=(dim, dim)), rng.normal(size=dim))
    points = spec.point(rng.uniform(-2, 2, (16, dim)))
    base = amap.apply(points).coords
    report.check("map_chart_invariance", np.abs([
        amap.apply(spec.convert_point(points, chart)).coords - base for chart in charts]), 1e-12,
        lambda at: {"chart": charts[at[0]], "point": points.coords[at[1]].tolist()})


def run_duality_verify(sc: Scenario, rng, report: Report):
    dims = sc["params", "dims"]
    ranks = []  # the hull basis paired with the dual basis has rank n + 1
    for n in dims:
        space, basis = AffineSpaceSpec(n), np.eye(n)
        hull = [*(HullPoint.embed_vector(space.vector(e)) for e in basis),
                HullPoint.embed_point(space.point(np.zeros(n)))]
        dual = [*(DualElement(space, e, 0.0) for e in basis), one(space)]
        pairing = [[pair(h, d) for d in dual] for h in hull]
        ranks.append(abs(np.linalg.matrix_rank(pairing) - (n + 1)))
    report.check("dual_dimension", ranks, 0.5, lambda at: {"dim": dims[at[0]]})

    residuals, xs = [], []  # one row per dimension, one residual per point
    for n in dims:
        v = rng.normal(size=n)
        while np.linalg.norm(v) < 0.3:
            v = rng.normal(size=n)
        maps = DoubleDualMaps(SpecialAffineSpace(AffineSpaceSpec(n), v))
        xs.append(rng.uniform(-5, 5, (sc["params", "points"], n)))
        residuals.append(np.max(np.abs(maps.backward(maps.forward(xs[-1])) - xs[-1]), axis=1))
    report.check("double_dual_round_trip", residuals, 1e-12,
                 lambda at: {"dim": dims[at[0]], "point": xs[at[0]][at[1]].tolist()})

    x = np.linspace(-2, 2, 9)
    texts, residuals = ("x^2", "3*x + 1", "sin(x)"), []
    for raw in texts:  # dF/ds = 1, and F = 0 on the section's graph, on a fixed grid
        sigma = se.parse(raw, se.VarContext.make(base=("x",)))
        F = F_of_section(sigma)
        graph = {"x": x, FIBER: se.evaluate(sigma, {"x": x})}
        residuals.append(per_point_max([se.evaluate(se.differentiate(F, FIBER), graph) - 1.0,
                                        se.evaluate(F, graph)], len(x)))
    report.check("F_section_identities", residuals, 1e-12,
                 lambda at: {"section": texts[at[0]], "x": float(x[at[1]])})

    residuals = []
    h = 1e-4
    for n in dims:
        space = AffineSpaceSpec(n)
        X = HullPoint.embed_vector(space.vector(rng.normal(size=n)))
        residuals.append([])
        for w, c in ((rng.normal(size=n), rng.normal()) for _ in range(8)):
            f0, f1 = (pair(X, DualElement(space, w, c + dc)) for dc in (0.0, h))
            residuals[-1].append(abs((f1 - f0) / h))
    report.check("pairing_vertical_invariance", residuals, 1e-9,
                 lambda at: {"dim": dims[at[0]], "sample": at[1]})


def run_affgebra_verify(sc: Scenario, rng, report: Report):
    dim, preset = sc["structure", "dim"], sc["structure", "c"]
    if preset == "cross3" and dim != 3:
        raise ScenarioError("cross3 structure constants need dim = 3")
    c = np.zeros((dim, dim, dim))
    for (i, j, k), value in ({(1, 2, 3): 1.0, (2, 3, 1): 1.0, (3, 1, 2): 1.0}
                             if preset == "cross3" else sc["c", "<i> <j> <k>"] or {}).items():
        c[i - 1, j - 1, k - 1] = value
        c[j - 1, i - 1, k - 1] = -value
    data = LieAffgebraData(_matrix(sc["structure", "D"], dim), c)
    report.checks.extend(verify_affgebra(data).checks)


def _load_affgebroid(sc: Scenario, patch: Patch) -> LieAffgebroidData:
    ctx, rank = patch.context(), sc["structure", "rank"]
    zero = se.ZERO
    beta = [[zero] * rank for _ in range(rank)]
    for (i,), texts in sc["structure", "beta<i>"].items():
        beta[i - 1] = _exprs(texts, ctx)
    c = [[[zero] * rank for _ in range(rank)] for _ in range(rank)]
    for (i, j), texts in sc["c", "<i> <j>"].items():
        c[i - 1][j - 1] = _exprs(texts, ctx)
        c[j - 1][i - 1] = [se.neg(e) for e in c[i - 1][j - 1]]
    anchors = sc["structure", "anchor<i>"]  # the library wants one per index
    return LieAffgebroidData(
        patch, rank, beta, c, _exprs(sc["structure", "anchor_ref"], ctx),
        [_exprs(anchors[i], ctx) for i in sorted(anchors)])


def _check_atiyah_poisson(dim: int, rng, report: Report):
    names = tuple(f"x{i + 1}" for i in range(dim))
    patch = Patch.box(names)
    data = atiyah_algebroid(patch)
    wnames = data.special.quotient_var_names()

    def random_affine():
        e = random_polynomial(patch, rng)
        for w in wnames:
            e = se.add(e, se.mul(random_polynomial(patch, rng), se.Var(w)))
        return e

    diffs, points = [], []
    for _ in range(2):
        s1, s2 = random_affine(), random_affine()
        ours = aff_jacobi_bracket(data, s1, s2)
        oracle = canonical_poisson(s1, s2, list(zip(names, wnames)))
        points.append(sample_points(names + wnames, rng, 32))
        diffs.append(np.subtract(*se.evaluate([ours, oracle], points[-1])))
    report.check(f"dual_bracket_matches_poisson_dim{dim}", np.abs(diffs), 1e-9,
                 lambda at: {"case": at[0], "point": point_at(points[at[0]], at[1])})

    # one row for the two criteria: the worse failing one, or else the worse of both
    checks = is_aff_poisson(data, rng=rng).checks
    failing = [c for c in checks if not c.passed] or checks
    worst = failing[first_worst([c.residual for c in failing])[1][0]]
    report.add(f"aff_poisson_criteria_agree_dim{dim}", worst.passed, worst.residual,
               worst.witness)


def run_affgebroid_verify(sc: Scenario, rng, report: Report):
    if sc["structure", "atiyah"]:
        for dim in sc["structure", "dims"]:
            _check_atiyah_poisson(dim, rng, report)
        return
    patch = Patch.box(sc["base", "coords"], sc["base", "low"], sc["base", "high"])
    data = _load_affgebroid(sc, patch)
    mode, count = sc["base", "samples"]
    pts = patch.grid(count) if mode == "grid" else patch.sample(rng, count)
    result = verify_affgebroid(data, pts, rng=rng)
    report.checks.extend(result.checks)
    # hull checks only make sense on a structure that verified, as this one
    # just did on pts: hull_extend would verify it again
    if not (result.passed and sc["checks", "hull"]):
        return
    hull = HullAlgebroidData(data)
    secs = [(random_polynomial(patch, rng),
             [random_polynomial(patch, rng) for _ in range(data.rank)]) for _ in range(3)]
    env, n = patch.env(pts), len(pts)

    def sampled(name, values, tol):
        report.check(name, per_point_max(values, n), tol,
                     lambda at: {"point": pts[at[0]].tolist()})

    f, g = secs[0][1], secs[1][1]
    weight, comps = hull.bracket((1.0, f), (1.0, g))
    total = [se.ZERO] * (data.rank + 1)  # weight, then components
    for X, Y, Z in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        w, cs = hull.bracket(secs[X], hull.bracket(secs[Y], secs[Z]))
        total = [se.add(a, b) for a, b in zip(total, [w, *cs])]
    r = data.rank  # the three checks' trees, in one evaluation
    v = se.evaluate([weight, *comps, *data.bracket(f, g), *total,
                     hull.one_cocycle_residual(secs[0], secs[1])], env)
    sampled("hull_restriction", [v[0]] + [a - b for a, b in zip(v[1:r + 1], v[r + 1:2 * r + 1])],
            1e-12)
    sampled("hull_jacobi", v[2 * r + 1:-1], 1e-9)
    sampled("hull_unit_cocycle_closed", v[-1:], 1e-9)


def run_timedep(sc: Scenario, rng, report: Report):
    dim = sc["system", "dim"]
    ctx = se.VarContext.make(base=[f"{v}{i + 1}" for v in "qp" for i in range(dim)],
                             time="t")
    H = _expr(sc["system", "hamiltonian"], ctx)
    fld = timedep_dynamics(dim, H, rng=rng)
    report.check("dynamics_agreement", fld.cross_check_residuals, 1e-12,
                 lambda at: {"state": point_at(fld.cross_check_states, at[0])})

    y0 = sc["integration", "initial"]
    if len(y0) == 2 * dim:  # the initial time may be left out
        y0 = y0 + [0.0]
    traj = integrate(fld, y0, sc["integration", "step"], sc["integration", "duration"])
    report.add("finite_trajectory", True, 0.0)
    _check_energy(fld, traj, H, report)
    return {sc["output", "trajectory"] or f"{sc.name}.csv": traj.to_csv()}


def _check_energy(fld, traj, source: se.Expression, report: Report, clock=False):
    """Energy conservation if ``source`` is free of t; after the clock rate if ``clock``."""
    def at_state(at):  # one residual per state of traj
        return {"step": at[0], "time": float(traj.times[at[0]])}
    if clock:
        report.check("tau_clock", tau_clock_residual(fld, traj), 1e-12, at_state)
    if se.differentiate(source, "t") == se.ZERO:
        report.check("energy_drift", energy_drift(fld, traj), 1e-6, at_state)


def _newton_inputs(sc: Scenario):
    """(st, phi, mass, event, momentum, step, duration) of a Newton run."""
    dim, g = sc["spacetime", "dim"], sc["spacetime", "metric"]
    ctx = se.VarContext.make(base=[f"q{i + 1}" for i in range(dim)], time="t")
    st = NewtonSpaceTime(dim, g=None if g is None else _matrix(g, dim))
    return (st, _expr(sc["system", "potential"], ctx), sc["system", "mass"],
            sc["initial", "event"], sc["initial", "momentum"],
            sc["integration", "step"], sc["integration", "duration"])


def run_newton(sc: Scenario, rng, report: Report):
    st, phi, m, x0, p0, h, T = _newton_inputs(sc)
    u = sc["system", "frame"]
    [fld] = newton_dynamics(st, [st.rest_frame() if u is None else st.frame(u)], m, phi)
    traj = integrate(fld, [*x0, *p0], h, T)
    _check_energy(fld, traj, phi, report, clock=True)
    return {sc["output", "trajectory"] or f"{sc.name}.csv": traj.to_csv()}


def run_compare_frames(sc: Scenario, rng, report: Report):
    st, phi, m, x0, p0, h, T = _newton_inputs(sc)
    initial = ObservedPhase(x0, p0, sc["initial", "s"], st.rest_frame())
    boosts = sc["frames", "boosts"]
    fld, (_, *boosted), (rest, *lines) = compare_frames(st, m, phi, initial, boosts, h, T)
    comparisons = []
    for i, (line, v, phase) in enumerate(zip(lines, boosts, boosted), 1):
        # one row per step: a failure names its time
        result = report.check(
            f"frame_independence_boost{i}",
            np.max(np.abs(rest.events - line.events), axis=1), FRAME_TOL,
            lambda at: {"boost": v, "step": at[0], "time": float(rest.times[at[0]])})
        comparisons.append({"scenario": f"{sc.name}/boost{i}",
                            "frames": [initial.frame.u.tolist(), phase.frame.u.tolist()],
                            "max_deviation": result.residual, "pass": result.passed})

    backs = [gauge_transform(b, [-x for x in v], m) for b, v in zip(boosted, boosts)]
    report.check("gauge_round_trip",
                 [np.abs([*(b.p - initial.p), b.s - initial.s]) for b in backs],
                 1e-12, lambda at: {"boost": boosts[at[0]]})
    _check_energy(fld, rest, phi, report, clock=True)
    return {f"{sc.name}_comparisons.json": (_dumps(comparisons, indent=2) + "\n").encode()}


def run_reduction_check(sc: Scenario, rng, report: Report):
    if sc["checks", "omega"]:
        coords, texts = tuple(sc["forms", "coords"]), sc["forms", "sections"]
        patch = Patch.box(coords)
        sections = _exprs(texts, patch.context())
        base = omega_Z(patch)
        mesh = Patch.box(base.coords, -1.5, 1.5)  # the base, then momenta
        points = mesh.env(mesh.grid(5))
        report.check("omega_trivialization_invariance", [
            np.abs(omega_Z(patch, via=s).matrix(points) - base.matrix(points))
            for s in sections], 1e-12,
            lambda at: {"section": texts[at[0]], "point": point_at(points, at[1])})

        residuals, sigmas, points = [], [], []  # (section, point, i, j)
        for _ in range(4):
            sigmas.append(random_polynomial(patch, rng))
            two = bold_d_oneform(section_one_form(patch, sigmas[-1]))
            points.append(sample_points(coords, rng, 8))
            residuals.append(np.abs(two.matrix(points[-1])))
        report.check("bold_d_squared_zero", residuals, 1e-12, lambda at: {
            "section": str(sigmas[at[0]]), "point": point_at(points[at[0]], at[1])})

    space = TimePhaseSpace(q=("q",), p=("p",))
    ctx = se.VarContext.make(base=space.base_names)
    if sc["checks", "eq1"]:
        s1, s2 = (_expr(sc["sections", key], ctx) for key in ("sigma1", "sigma2"))
        up = canonical_poisson(space.section_function(s1),
                               space.section_function(s2), space.pairs)
        down = eq1_aff_poisson(space, s1, s2)
        for name, residual in (("eq1_descends_to_cotangent_bracket", se.sub(down, up)),
                               ("eq1_fiber_constancy", se.differentiate(up, space.energy))):
            point = sample_points(space.names, rng, 16)
            report.check(name, per_point_max([se.evaluate(residual, point)], 16), 1e-9,
                         lambda at: {"point": point_at(point, at[0])})

    if sc["checks", "reduction"] == "none":
        return
    flip = sc["checks", "reduction"] == "flipped"

    def bracket_y(a, b):  # flipped, -e - a and -e - b bracket as e - (-a) and e - (-b)
        return eq1_aff_poisson(space, *((se.neg(a), se.neg(b)) if flip else (a, b)))

    sections = [(se.neg(_expr("p^2/2 + q*t", ctx)), se.neg(_expr("q*p - t", ctx))),
                (_expr("sin(q)*t", ctx), _expr("p + q^2", ctx))]
    points = sample_points(space.names, rng, 12)
    rho = AVMorphism({n: se.Var(n) for n in space.base_names},
                     (se.add if flip else se.sub)(se.Var(space.energy), se.Var("r")), "r")
    report.checks.extend(
        check_affine_reduction(rho, lambda f, g: canonical_poisson(f, g, space.pairs),
                               bracket_y, sections, points).checks)


# ---------------------------------------------------------------------------
# One table per scenario kind, with the runner that reads it


# a scenario's own dim: timedep's set-up grows as dim^2, newton's and compare-frames' memory
# too, and affine-verify's bi-affine tensor as dim^3; 33 times the largest dim in use (3)
MAX_DIM = 100
NEWTON = [
    Key("spacetime", "dim", Int(1, MAX_DIM), "3"),
    Key("spacetime", "metric", MATRIX),
    Key("system", "potential", EXPR, '"0"'),
    Key("system", "mass", Float(), "1.0"),
    Key("initial", "event", FINITE_FLOATS, REQUIRED),
    Key("initial", "momentum", FINITE_FLOATS, REQUIRED),
    Key("integration", "step", Float(), REQUIRED),
    Key("integration", "duration", Float(), REQUIRED),
]
NO_ATIYAH = ("structure", "atiyah", False)
RANK = (1, ("structure", "rank"))
MAX_RANK = 100  # an affgebroid loads rank^3 c slots; 50 times the largest rank in use (2)
# the Atiyah algebroid of dim n checks its antisymmetry on 3 points per axis,
# 3^n in all, so n is at most the 10 that brackets.MAX_GRID_POINTS admits
MAX_ATIYAH_DIM = max(n for n in range(64) if 3 ** n <= MAX_GRID_POINTS)
# an affgebra's Jacobi check takes (n+1)^3 cases of an n^3 sum: 10^8 products (1 s) admit 21
MAX_AFFGEBRA_DIM = max(n for n in range(64) if (n + 1) ** 3 * n ** 3 <= 10 ** 8)
# duality's dual_dimension pairs (n+1)^2 elements, one Python call each: 10^5 (1 s) admit 315
MAX_DUALITY_DIM = max(n for n in range(1024) if (n + 1) ** 2 <= 10 ** 5)
KINDS = {
    "affine-verify": (run_affine_verify, [
        Key("space", "dim", Int(1, MAX_DIM), REQUIRED),
        Key("charts", "<name>", CHART),
        Key("params", "samples", Int(1), "64"),
    ]),
    "duality-verify": (run_duality_verify, [
        Key("params", "dims", List(Int(1, MAX_DUALITY_DIM)), "1, 2, 3, 4"),
        Key("params", "points", Int(1), "100"),
    ]),
    "affgebra-verify": (run_affgebra_verify, [
        Key("structure", "dim", Int(1, MAX_AFFGEBRA_DIM), REQUIRED),
        Key("structure", "D", MATRIX, "zero"),
        Key("structure", "c", Enum("entries", "zero", "cross3"), "entries"),
        Key("c", "<i> <j> <k>", Float(), when=("structure", "c", "entries"),
            index=(1, ("structure", "dim"))),
    ]),
    "affgebroid-verify": (run_affgebroid_verify, [
        Key("structure", "atiyah", BOOL, "false"),
        Key("structure", "dims", List(Int(1, MAX_ATIYAH_DIM), distinct=True), "1, 2",
            ("structure", "atiyah", True)),
        Key("base", "coords", NAMES, REQUIRED, NO_ATIYAH),
        Key("base", "low", Float(), "-1", NO_ATIYAH),
        Key("base", "high", Float(above=("base", "low")), "1", NO_ATIYAH),
        Key("base", "samples", SAMPLES, "grid:4", NO_ATIYAH),
        Key("structure", "rank", Int(1, MAX_RANK), REQUIRED, NO_ATIYAH),
        Key("structure", "anchor_ref", EXPRS, REQUIRED, NO_ATIYAH),
        Key("structure", "anchor<i>", EXPRS, None, NO_ATIYAH, RANK),
        Key("structure", "beta<i>", EXPRS, None, NO_ATIYAH, RANK),
        Key("c", "<i> <j>", EXPRS, None, NO_ATIYAH, RANK),
        Key("checks", "hull", BOOL, "false", NO_ATIYAH),
    ]),
    "timedep": (run_timedep, [
        Key("system", "dim", Int(1, MAX_DIM), REQUIRED),
        Key("system", "hamiltonian", EXPR, REQUIRED),
        Key("integration", "step", Float(), REQUIRED),
        Key("integration", "duration", Float(), REQUIRED),
        Key("integration", "initial", FINITE_FLOATS, REQUIRED),
        Key("output", "trajectory", FILE_NAME),
    ]),
    "newton": (run_newton, NEWTON + [
        Key("system", "frame", FINITE_FLOATS),
        Key("output", "trajectory", FILE_NAME),
    ]),
    "compare-frames": (run_compare_frames, NEWTON + [
        Key("initial", "s", Float(finite=False), "0"),
        Key("frames", "boosts", FINITE_ROWS, REQUIRED),
    ]),
    "reduction-check": (run_reduction_check, [
        Key("checks", "omega", BOOL, "false"),
        Key("checks", "eq1", BOOL, "false"),
        Key("checks", "reduction", Enum("none", "standard", "flipped"), "none"),
        Key("forms", "coords", NAMES, "x", ("checks", "omega", True)),
        Key("forms", "sections", EXPRS, REQUIRED, ("checks", "omega", True)),
        Key("sections", "sigma1", EXPR, REQUIRED, ("checks", "eq1", True)),
        Key("sections", "sigma2", EXPR, REQUIRED, ("checks", "eq1", True)),
    ]),
}
# Keys of every kind; the name defaults to the file's stem.
COMMON = [
    Key("scenario", "kind", Enum(*KINDS), REQUIRED),
    Key("scenario", "name", FILE_NAME),
    Key("scenario", "description", Match(".*", "text"), ""),
    Key("scenario", "seed", Int(0), "0"),
]


# ---------------------------------------------------------------------------
# Entry points


def bundled_scenarios() -> list[Path]:
    root = resources.files("affgeo") / "scenarios"
    return sorted(Path(str(p)) for p in root.iterdir() if p.name.endswith(".ini"))


def resolve_scenario(arg: str) -> Path:
    path = Path(arg)
    if not path.is_file():
        path = Path(str(resources.files("affgeo") / "scenarios" / f"{arg}.ini"))
    if path.is_file():
        return path
    raise ScenarioError(f"no scenario file or bundled scenario named {arg!r}")


def _dumps(obj, **kwargs) -> str:
    """JSON text of ``obj``, with numpy scalars written as Python values."""
    return json.dumps(obj, sort_keys=True, default=np.generic.item, **kwargs)


def _write_all(outdir: Path, files: dict[str, bytes]) -> None:
    """Write every file or none: each to a temporary file in ``outdir``,
    then each renamed over its name, in order.  On a failure the
    temporaries, and the files already renamed, are removed.  Plain
    ``os`` calls on ``str`` paths cost about as much as overwriting the
    files in place; ``pathlib`` and buffered files added some 20 us a
    file (2-vCPU Xeon virtual machine, ext4)."""
    paths = [(os.path.join(outdir, f".{file}.{os.getpid()}.tmp"), os.path.join(outdir, file))
             for file in files]
    placed = 0
    try:
        for (temp, _), data in zip(paths, files.values()):
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
        for temp, path in paths:
            os.replace(temp, path)
            placed += 1
    except OSError:
        # the files this run put in place, then the temporaries not renamed
        for leftover in [p for _, p in paths[:placed]] + [t for t, _ in paths[placed:]]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(leftover)
        raise


def run_scenario(path: Path, seed: int | None, outdir: Path, as_json: bool) -> int:
    sc = Scenario(path)
    if seed is not None:
        sc.seed = seed
    if sc.seed < 0:
        raise ScenarioError(f"seed {sc.seed} is negative")
    rng = np.random.default_rng(sc.seed)
    report = Report(sc.name)
    files = KINDS[sc.kind][0](sc, rng, report) or {}
    name = f"{sc.name}_report.json"
    if name in files:
        raise ScenarioError(f"an output named {name} would overwrite the report")

    payload = _dumps({**report.to_dict(), "kind": sc.kind, "seed": sc.seed}, indent=2)
    # every check has run: write the runner's files and the report
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ScenarioError(f"cannot create output directory {outdir}: {err}") from None
    _write_all(outdir, {**files, name: (payload + "\n").encode()})
    if as_json:
        print(payload)
    else:
        for c in report.checks:
            print(f"  {c.check}: {'PASS' if c.passed else 'FAIL'} (residual {c.residual:.3e})")
            if c.witness is not None and not c.passed:
                print(f"    witness: {_dumps(c.witness)}")
        print(f"scenario {sc.name}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def list_scenarios(as_json: bool, kind: str | None) -> int:
    rows = [{"name": sc.name, "kind": sc.kind, "description": sc["scenario", "description"]}
            for sc in map(Scenario, bundled_scenarios())
            if not kind or sc.kind == kind]
    if as_json:
        print(_dumps(rows, indent=2))
        return 0
    width = max((len(r["name"]) for r in rows), default=4)
    kwidth = max((len(r["kind"]) for r in rows), default=4)
    for r in rows:
        print(f"{r['name']:<{width}}  {r['kind']:<{kwidth}}  {r['description']}")
    return 0


@functools.cache  # built on the first call, not at import; each parse gets a new Namespace
def _parser() -> argparse.ArgumentParser:
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
    listp.add_argument("--kind", default=None, choices=list(KINDS))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "list":
        return list_scenarios(args.json, args.kind)
    outdir = Path(args.out or os.environ.get("AFFGEO_OUT") or ".")
    try:
        return run_scenario(resolve_scenario(args.scenario), args.seed, outdir, args.json)
    except (ScenarioError, MechanicsError, PhaseError, BracketError,
            AffineGeometryError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        # parse bounds the depth of its trees, but a derivative can be
        # deeper than its source (a chain of quotients about threefold)
        print(f"error: expressions too deep for the symbolic layer (parsed "
              f"trees have at most {se.MAX_DEPTH} levels)", file=sys.stderr)
        return 2
    except MemoryError as err:  # an input too large for this host, as one too deep is refused
        print(f"error: out of memory ({str(err) or 'no detail'})", file=sys.stderr)
        return 2
    except (se.DomainError, IntegrationError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3

"""Bracket structures on affine spaces and affine bundles.

The data of a bracket is stored relative to a reference section ``a0``
and a model frame ``v_1 .. v_n``:

* ``beta_i``  -- components of the mixed bracket of ``a0`` with ``v_i``,
* ``c_ij``    -- components of the model bracket of ``v_i`` with ``v_j``
  (antisymmetric in ``i j``),
* an anchor, given by the vector field attached to ``a0`` and the
  vector fields attached to the frame sections.

The bracket of two sections ``a0 + f^i v_i`` and ``a0 + g^j v_j`` is
then evaluated through the expansion that bi-affinity, skew-symmetry
and the Leibniz rule force:

    (g^j - f^j) beta_j + rho(a0)(g^j - f^j) v_j + f^i g^j c_ij
        + f^i rho(v_i)(g^j) v_j - g^j rho(v_j)(f^i) v_i

Over a point all derivative terms vanish and the expansion reduces to
``D(w - u) + c(u, w)`` with ``D`` the matrix of the ``beta``'s.

Verification is exact where exactness is free: the axioms of a bracket
over a point are affine in each slot, so they hold identically iff they
hold on the finite set of reference-plus-basis points, which the
verifier enumerates.  Bundle checks sample instead, since coefficients
are arbitrary expressions.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import symexpr as se
from ._immutable import Immutable, fill_slots
from .affine import AffineSpaceSpec, _matvec
from .duality import SpecialAffineSpace, iota_sharp
from .reporting import Report, per_point_max
from .symexpr import Expression

__all__ = [
    "BracketError", "NonAffineSectionError", "Patch", "random_polynomial",
    "LieAffgebraData", "LieAffgebroidData", "HullAlgebroidData",
    "verify_affgebra", "verify_affgebroid", "hull_extend",
    "aff_jacobi_bracket", "is_aff_poisson", "atiyah_algebroid",
    "affgebra_to_affgebroid", "jet_bundle_affgebroid",
]

JACOBI_TOL = 1e-9      # symbolic derivatives, float evaluation only
CENTRALITY_TOL = 1e-12
MAX_GRID_POINTS = 10**5  # in one Patch.grid, over 1000 times the largest grid in use (64)


class BracketError(ValueError):
    """Malformed bracket data or failed construction-time verification."""


class NonAffineSectionError(BracketError):
    """A section that had to be affine in the fiber coordinates is not."""


# ---------------------------------------------------------------------------
# Base patches and random coefficient functions


class Patch(Immutable):
    """Open box ``(low, high)^m`` in R^m, one axis per name: the base of a bundle."""

    __slots__ = ("names", "low", "high")

    def __init__(self, names: tuple[str, ...], low: float, high: float):
        fill_slots(self, names, low, high)

    @classmethod
    def box(cls, names, low=-1.0, high=1.0) -> "Patch":
        return cls(tuple(names), low, high)

    @property
    def dim(self) -> int:
        return len(self.names)

    def context(self) -> se.VarContext:
        return se.VarContext.make(base=self.names)

    def env(self, point) -> dict[str, float]:
        """Coordinates of one point; of an ``(N, dim)`` block of points,
        one array per coordinate (a sample set for ``se.evaluate``)."""
        return dict(zip(self.names, np.atleast_1d(np.asarray(point, float)).T))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` uniform points; over a point, an empty block and no draw."""
        return rng.uniform(self.low, self.high, size=(count, self.dim))

    def grid(self, per_axis: int) -> np.ndarray:
        """``per_axis`` points on each axis, the last axis varying fastest;
        more than :data:`MAX_GRID_POINTS` points are refused before any is made."""
        count = per_axis ** self.dim
        if count > MAX_GRID_POINTS:
            raise BracketError(f"a grid of {per_axis} points on each of {self.dim} axes has "
                               f"{count} points, more than the bound of {MAX_GRID_POINTS}")
        index = np.moveaxis(np.indices((per_axis,) * self.dim), 0, -1)
        return np.linspace(self.low, self.high, per_axis).take(index.reshape(count, self.dim))


def random_polynomial(patch: Patch, rng: np.random.Generator) -> Expression:
    """Random quadratic over the patch coordinates, coefficients in [-1, 1]."""
    vars_ = [se.Var(n) for n in patch.names]
    # one draw of all 1 + m + m(m+1)/2 coefficients, the values one draw each gives
    coefs = iter(rng.uniform(-1.0, 1.0, 1 + len(vars_) * (len(vars_) + 3) // 2).tolist())
    expr: Expression = se.Const(next(coefs))
    for v in vars_:
        expr = se.add(expr, se.mul(se.Const(next(coefs)), v))
    for va, vb in itertools.combinations_with_replacement(vars_, 2):
        expr = se.add(expr, se.mul(se.mul(se.Const(next(coefs)), va), vb))
    return expr


def _coerce_section(components, n: int) -> list[Expression]:
    comps = [c if isinstance(c, Expression) else se.Const(float(c))
             for c in components]
    if len(comps) != n:
        raise BracketError(f"expected {n} section components, got {len(comps)}")
    return comps


# ---------------------------------------------------------------------------
# Brackets over a point


class LieAffgebraData:
    """Bracket data over a point: matrix ``D`` and constants ``c``.

    ``D`` houses the mixed bracket of the reference element with model
    vectors; ``c[i, j]`` the model bracket of the i-th and j-th basis
    vectors.  ``c`` must be antisymmetric in ``(i, j)``, which already
    forces the reconstructed bracket to be skew.  ``bracket`` and
    ``second_linear`` take vectors or stacks ``(N, n)`` of them, row by row.
    """

    def __init__(self, D, c):
        self.D = np.array(D, dtype=float)
        self.c = np.array(c, dtype=float)
        n = self.D.shape[0]
        if self.D.shape != (n, n) or self.c.shape != (n, n, n):
            raise BracketError("inconsistent bracket data shapes")
        if np.max(np.abs(self.c + self.c.transpose(1, 0, 2))) > 1e-15:
            raise BracketError("structure constants are not antisymmetric")
        self.n = n

    def bracket(self, u, w) -> np.ndarray:
        """Full bracket of ``o + u`` with ``o + w``."""
        u, w = np.asarray(u, float), np.asarray(w, float)
        return _expand(self.D, self.c, u, w, w - u)

    def second_linear(self, u, W) -> np.ndarray:
        """Second-slot linear part: bracket of ``o + u`` against model ``W``."""
        W = np.asarray(W, float)
        return _expand(self.D, self.c, np.asarray(u, float), W, W)


def _expand(D, c, u, w, d) -> np.ndarray:
    """``D d + c(u, w)``: with ``d = w - u`` the bracket, with ``d = w`` its second slot."""
    return _matvec(D, d) + np.einsum("ijk,...i,...j->...k", c, u, w)


def verify_affgebra(data: LieAffgebraData) -> Report:
    """Exact axiom check by enumeration of reference-plus-basis points.

    Skew-symmetry and the Jacobi identity are affine in each argument,
    so each holds identically iff it holds with every argument drawn
    from the origin and the basis translates; the verifier evaluates each
    on the stack of all cases of that cube, and reports the worst residual
    with a witness.  Each check passes below 1e-12 plus ``4 n(n+1) 2^-52``
    times the largest component of its sums taken with ``|D|``, ``|c|`` and
    ``|d|``, the sum of ``|terms|`` that bounds their rounding: an expansion
    has ``n(n+1)`` terms, and Jacobi's outer ones take the inner ones' sizes.
    """
    n = data.n
    report = Report("affgebra")
    points = np.vstack([np.zeros(n), np.eye(n)])  # all entries >= 0, so |u| = u
    labels = ["o"] + [f"o+e{i + 1}" for i in range(n)]
    D, c = np.abs(data.D), np.abs(data.c)
    size_ops = (lambda u, w: _expand(D, c, u, w, np.abs(w - u)),
                lambda u, W: _expand(D, c, u, W, W))

    def add(check, key, arity, residual):
        cases = list(itertools.product(range(n + 1), repeat=arity))
        args = points[np.array(cases).T]
        size = np.max(residual(*size_ops, *args))
        report.check(check, np.abs(residual(data.bracket, data.second_linear, *args)),
                     1e-12 + 4 * n * (n + 1) * 2.0**-52 * size,
                     lambda at: {key: [labels[i] for i in cases[at[0]]]})

    add("skew", "pair", 2, lambda bracket, second, u, w: bracket(u, w) + bracket(w, u))
    add("jacobi", "triple", 3, lambda bracket, second, u1, u2, u3: (
        second(u1, bracket(u2, u3)) + second(u2, bracket(u3, u1)) + second(u3, bracket(u1, u2))))
    return report


# ---------------------------------------------------------------------------
# Brackets over a patch


class LieAffgebroidData:
    """Bracket and anchor data on an affine bundle over a patch.

    ``beta[i]`` and ``c[i][j]`` are length-``rank`` lists of expressions
    over the base; ``anchor_ref`` and ``anchor_lin[i]`` are vector
    fields on the base (components over the patch coordinates).  The
    optional ``v`` marks a distinguished model section (constant frame
    coefficients), making the bundle special.
    """

    def __init__(self, patch: Patch, rank: int, beta, c, anchor_ref,
                 anchor_lin, v=None):
        self.patch = patch
        self.rank = rank
        self.beta = [_coerce_section(b, rank) for b in beta]
        if len(self.beta) != rank:
            raise BracketError("beta must have one entry per frame section")
        self.c = [[_coerce_section(cij, rank) for cij in row] for row in c]
        if len(self.c) != rank or any(len(row) != rank for row in self.c):
            raise BracketError("c must be rank x rank")
        self.anchor_ref = _coerce_section(anchor_ref, patch.dim)
        self.anchor_lin = [_coerce_section(a, patch.dim) for a in anchor_lin]
        if len(self.anchor_lin) != rank:
            raise BracketError("anchor_lin must have one entry per frame section")
        self.v = None if v is None else np.array(v, dtype=float)
        if self.v is not None and self.v.shape != (rank,):
            raise BracketError("distinguished section has wrong length")
        self._check_antisymmetry()

    def _check_antisymmetry(self):
        env = self.patch.env(self.patch.grid(3))
        for i, j, k in itertools.product(range(self.rank), repeat=3):
            s = se.evaluate(se.add(self.c[i][j][k], self.c[j][i][k]), env)
            if not np.all(np.abs(s) <= 1e-12):
                raise BracketError(f"structure functions not antisymmetric "
                                   f"at (i={i}, j={j}, k={k})")

    # -- anchor ------------------------------------------------------------

    def anchor(self, h, f) -> list[Expression]:
        """Vector field of the hull section ``h a0 + f^i v_i``: with ``h = 1``
        a section of the bundle, with ``h = 0`` a model section."""
        h, f = se._coerce(h), _coerce_section(f, self.rank)
        comps = [se.mul(h, a) for a in self.anchor_ref]
        for i in range(self.rank):
            comps = [se.add(ca, se.mul(f[i], li))
                     for ca, li in zip(comps, self.anchor_lin[i])]
        return comps

    def apply_field(self, field, func: Expression) -> Expression:
        """Derivative of ``func`` along a base vector field; a component
        that is the constant 0 adds nothing and is not differentiated."""
        out: Expression = se.ZERO
        for comp, name in zip(field, self.patch.names):
            if not se._is_const(comp, 0.0):
                out = se.add(out, se.mul(comp, se.differentiate(func, name)))
        return out

    # -- bracket -----------------------------------------------------------

    def bracket(self, f, g) -> list[Expression]:
        """Bracket of the sections ``a0 + f`` and ``a0 + g``."""
        f = _coerce_section(f, self.rank)
        g = _coerce_section(g, self.rank)
        return self._expansion(f, g, [se.sub(b, a) for a, b in zip(f, g)])

    def _expansion(self, f, g, d) -> list[Expression]:
        """The structure-function expansion with ``d`` where ``g - f``
        enters: the bracket, or with ``g = d = W`` its second-slot part."""
        n = self.rank
        out: list[Expression] = []
        for k in range(n):
            term = self._structure_terms(k, d, self.apply_field(self.anchor_ref, d[k]), f, g)
            for i in range(n):
                term = se.add(term, se.mul(
                    f[i], self.apply_field(self.anchor_lin[i], g[k])))
            for j in range(n):
                term = se.sub(term, se.mul(
                    g[j], self.apply_field(self.anchor_lin[j], f[k])))
            out.append(term)
        return out

    def second_linear(self, f, W) -> list[Expression]:
        """Second-slot linear part: bracket of ``a0 + f`` against model ``W``."""
        f = _coerce_section(f, self.rank)
        W = _coerce_section(W, self.rank)
        return self._expansion(f, W, W)

    def _structure_terms(self, k, d, middle, f, g) -> Expression:
        """Component ``k`` of ``d^j beta_j + middle + f^i g^j c_ij``, added in
        that order, leaving out each term whose structure function is the constant 0."""
        term: Expression = se.ZERO
        for j in range(self.rank):
            if not se._is_const(self.beta[j][k], 0.0):
                term = se.add(term, se.mul(d[j], self.beta[j][k]))
        term = se.add(term, middle)
        for i, j in itertools.product(range(self.rank), repeat=2):
            if not se._is_const(self.c[i][j][k], 0.0):
                term = se.add(term, se.mul(se.mul(f[i], g[j]), self.c[i][j][k]))
        return term

    # -- helpers -----------------------------------------------------------

    @functools.cached_property
    def special(self) -> SpecialAffineSpace:
        """The fibre with its distinguished section, whose special dual has the
        quotient coordinates of the dual side; built once per structure."""
        if self.v is None:
            raise BracketError("no distinguished section on this bundle")
        return SpecialAffineSpace(AffineSpaceSpec(self.rank), self.v)


def _point_residuals(data: LieAffgebroidData, groups, points) -> list[np.ndarray]:
    """For each group of components, the largest ``|component|`` at each of
    the ``(N, dim)`` sample points; all groups are evaluated in one call."""
    values = iter(se.evaluate([c for comps in groups for c in comps], data.patch.env(points)))
    return [per_point_max([next(values) for _ in comps], len(points)) for comps in groups]


def verify_affgebroid(data: LieAffgebroidData, sample_points,
                      rng: np.random.Generator | None = None) -> Report:
    """Sampled axiom verification: skew, Jacobi, Leibniz, anchor morphism.

    Coefficients of the probe sections are random polynomials; the symbolic
    residuals of all four checks are evaluated at the supplied base points
    in one :func:`~affgeo.symexpr.evaluate` call, to :data:`JACOBI_TOL`.
    """
    rng = rng or np.random.default_rng(0)
    pts = np.asarray(sample_points, float).reshape(len(sample_points), data.patch.dim)
    report = Report("affgebroid")

    def at_point(at):  # at = (case, point)
        return {"point": pts[at[1]].tolist()}

    secs = [[random_polynomial(data.patch, rng) for _ in range(data.rank)] for _ in range(3)]
    f1, f2, f3 = secs
    skew = [data.bracket(f, f) for f in secs]
    # the cyclic sum of [f, [g, h]] over (f1, f2, f3), (f2, f3, f1), (f3, f1, f2)
    inner = [data.bracket(g, h) for g, h in [(f2, f3), (f3, f1), (f1, f2)]]
    jacobi = [se.ZERO] * data.rank
    for f, br in zip(secs, inner):
        jacobi = [se.add(t, o) for t, o in zip(jacobi, data.second_linear(f, br))]

    # Leibniz: bracket of a section against (coefficient * frame section)
    leibniz = []
    f = secs[0]
    rho_f = data.anchor(se.ONE, f)
    for i in range(data.rank):
        coeff = random_polynomial(data.patch, rng)
        unit = [se.ONE if j == i else se.ZERO
                for j in range(data.rank)]
        scaled = [se.mul(coeff, u) for u in unit]
        lhs = data.second_linear(f, scaled)
        base = data.second_linear(f, unit)
        deriv = data.apply_field(rho_f, coeff)
        rhs = [se.add(se.mul(coeff, b), se.mul(deriv, u))
               for b, u in zip(base, unit)]
        leibniz.append([se.sub(a, b) for a, b in zip(lhs, rhs)])

    # anchor morphism (the anchor of a bracket is the commutator of anchors) on [f1, f2], [f2, f3]
    anchor = []
    for f, g, br in [(f1, f2, inner[2]), (f2, f3, inner[0])]:
        lhs = data.anchor(se.ZERO, br)
        X, Y = data.anchor(se.ONE, f), data.anchor(se.ONE, g)
        comm = [se.sub(data.apply_field(X, Y[a]), data.apply_field(Y, X[a]))
                for a in range(data.patch.dim)]
        anchor.append([se.sub(a, b) for a, b in zip(lhs, comm)])

    r = _point_residuals(data, [*skew, jacobi, *leibniz, *anchor], pts)
    report.check("skew", r[:3], JACOBI_TOL, at_point)
    report.check("jacobi", r[3:4], JACOBI_TOL, at_point)
    report.check("leibniz", r[4:4 + data.rank], JACOBI_TOL,
                 lambda at: {**at_point(at), "frame": at[0]})
    report.check("anchor_morphism", r[4 + data.rank:], JACOBI_TOL, at_point)
    return report


# ---------------------------------------------------------------------------
# The hull extension


class HullAlgebroidData:
    """Bracket on sections of the vector hull, extending bundle data.

    Sections are pairs ``(h, comps)``: the weight function (coefficient
    of the embedded reference section) and the model components.  The
    weight-1 slice reproduces the input bracket; the weight function of
    any bracket obeys the closed-cocycle identity of the distinguished
    dual section.
    """

    def __init__(self, data: LieAffgebroidData):
        self.data = data

    def bracket(self, X, Y) -> tuple[Expression, list[Expression]]:
        data = self.data
        (h, f), (h2, g) = X, Y
        h, h2 = se._coerce(h), se._coerce(h2)
        f, g = _coerce_section(f, data.rank), _coerce_section(g, data.rank)
        rho_X = data.anchor(h, f)
        rho_Y = data.anchor(h2, g)
        weight = se.sub(data.apply_field(rho_X, h2), data.apply_field(rho_Y, h))
        d = [se.sub(se.mul(h, gj), se.mul(h2, fj)) for fj, gj in zip(f, g)]
        comps: list[Expression] = []
        for k in range(data.rank):
            term = data._structure_terms(k, d, se.ZERO, f, g)
            term = se.add(term, data.apply_field(rho_X, g[k]))
            term = se.sub(term, data.apply_field(rho_Y, f[k]))
            comps.append(term)
        return weight, comps

    def one_cocycle_residual(self, X, Y) -> Expression:
        """Pairing of the distinguished dual section with the exterior
        derivative identity: anchor derivatives of the weights minus the
        weight of the bracket.  Identically zero for a closed one-form.
        """
        (h, f), (h2, g) = X, Y
        weight, _ = self.bracket(X, Y)
        lhs = se.sub(self.data.apply_field(self.data.anchor(h, f), se._coerce(h2)),
                     self.data.apply_field(self.data.anchor(h2, g), se._coerce(h)))
        return se.sub(lhs, weight)


def hull_extend(data: LieAffgebroidData) -> HullAlgebroidData:
    """Extend bundle bracket data to the vector hull.

    The input is verified first, on the 3-per-axis grid of its patch;
    extension of an invalid structure is refused.
    """
    report = verify_affgebroid(data, data.patch.grid(3))
    if not report.passed:
        failing = [c.check for c in report.checks if not c.passed]
        raise BracketError(f"input verification failed: {', '.join(failing)}")
    return HullAlgebroidData(data)


# ---------------------------------------------------------------------------
# Dual-side correspondence: aff-Jacobi brackets from bundle brackets


def _affine_w_coefficients(sigma: Expression, names) -> tuple[list[Expression], Expression]:
    """Split an expression affine in the ``w`` coordinates into
    (linear coefficients, value at w = 0)."""
    coeffs = []
    for name in names:
        d = se.differentiate(sigma, name)
        if se.free_vars(d) & set(names):
            raise NonAffineSectionError(
                f"section is not affine in the fiber coordinate {name!r}")
        coeffs.append(d)
    zero = {name: 0.0 for name in names}
    return coeffs, se.subst(sigma, zero)


def section_for_dual_function(data: LieAffgebroidData,
                              sigma: Expression) -> list[Expression]:
    """Section of the bundle corresponding to an affine function on the
    quotient of its special dual (the F identification, dual side)."""
    special = data.special
    names = special.quotient_var_names()
    if set(names) & set(data.patch.names):
        raise BracketError("quotient coordinate names collide with base names")
    coeffs, const = _affine_w_coefficients(sigma, names)
    v = data.v
    comps: list[Expression] = [se.ZERO] * data.rank
    for j, cj in zip(special.level.free, coeffs):
        comps[j] = se.neg(cj)
    for j in range(data.rank):
        comps[j] = se.sub(comps[j], se.mul(const, se.Const(v[j])))
    return comps


def aff_jacobi_bracket(data: LieAffgebroidData, sigma: Expression,
                       sigma2: Expression) -> Expression:
    """Bracket of two affine sections of the dual AV-bundle.

    Both sections are translated to bundle sections, bracketed there,
    and the result is pushed back down to a function on the quotient of
    the special dual.
    """
    a = section_for_dual_function(data, sigma)
    b = section_for_dual_function(data, sigma2)
    return iota_sharp(data.bracket(a, b), data.special)


def is_aff_poisson(data: LieAffgebroidData,
                   rng: np.random.Generator | None = None) -> Report:
    """Evaluate the two criteria for the induced dual bracket to be aff-Poisson.

    * derivation test: the partial map of the bracket is always a
      first-order operator ``f -> V(f) + lam*f``; it is a derivation
      iff the zero-order term ``lam`` (the bracket applied to the
      constant section 1) vanishes.  The residual is the Leibniz defect
      on a product of two affine coordinate functions, which for a
      first-order operator equals ``-lam * f * g``.
    * centrality test: the distinguished section commutes with the
      frame in the hull and is killed by the anchor.

    Both are evaluated at 8 random base points.  The report has one check
    per criterion, ``derivation`` to :data:`JACOBI_TOL` and ``centrality``
    to :data:`CENTRALITY_TOL`; a failing one's witness names its
    criterion and its worst point.  The bracket is aff-Poisson iff the
    report passes, and the criteria agree iff both checks give one verdict.
    """
    rng = rng or np.random.default_rng(0)
    names = data.special.quotient_var_names()
    pts = data.patch.sample(rng, 8)
    report = Report("aff-poisson")

    # derivation side: lam = {sigma, sigma' + 1} - {sigma, sigma'}
    defects, envs = [], []
    for _ in range(3):
        sigma = se.Const(rng.uniform(-1, 1))
        for name in names:
            sigma = se.add(sigma, se.mul(se.Const(rng.uniform(-1, 1)), se.Var(name)))
        sigma2 = se.Const(rng.uniform(-1, 1))
        lam = se.sub(aff_jacobi_bracket(data, sigma, se.add(sigma2, se.Const(1.0))),
                     aff_jacobi_bracket(data, sigma, sigma2))
        f = se.Var(names[0]) if names else se.ONE
        g = (se.Var(data.patch.names[0]) if data.patch.dim else se.ONE)
        env = data.patch.env(pts)
        env.update(zip(names, rng.uniform(-2, 2, size=(len(pts), len(names))).T))
        defects.append(per_point_max(
            [se.evaluate(se.mul(lam, se.mul(f, g)), env)], len(pts)))
        envs.append(env)
    report.check("derivation", defects, JACOBI_TOL, lambda at: {
        "criterion": "derivation",
        "point": {n: float(v[at[1]]) for n, v in envs[at[0]].items()}})

    # centrality side: hull brackets of v against the frame, and the anchor
    hull = HullAlgebroidData(data)
    v_sec = (se.ZERO, [se.Const(float(x)) for x in data.v])
    frame = [(se.ONE, [se.ZERO] * data.rank)]
    for i in range(data.rank):
        comps = [se.ONE if j == i else se.ZERO
                 for j in range(data.rank)]
        frame.append((se.ZERO, comps))
    central = data.anchor(se.ZERO, list(data.v))
    for X in frame:
        weight, comps = hull.bracket(v_sec, X)
        central += [weight] + comps
    report.check("centrality", _point_residuals(data, [central], pts)[0], CENTRALITY_TOL,
                 lambda at: {"criterion": "centrality",
                             "point": dict(zip(data.patch.names, pts[at[0]].tolist()))})
    return report


# ---------------------------------------------------------------------------
# Stock structures


def atiyah_algebroid(patch: Patch) -> LieAffgebroidData:
    """Invariant vector fields on a trivialized principal line bundle.

    Sections are pairs (vector field on the base, function), the frame
    is the coordinate fields plus the vertical generator, the anchor
    forgets the function part, and the vertical generator is central.
    The special affine dual of this bundle is the phase bundle of the
    line bundle (times a line), which is why its induced dual bracket
    reproduces the canonical Poisson bracket.
    """
    m = patch.dim
    n = m + 1
    zero = se.ZERO
    beta = [[zero] * n for _ in range(n)]
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    anchor_ref = [zero] * m
    anchor_lin = []
    for i in range(m):
        anchor_lin.append([se.ONE if a == i else zero for a in range(m)])
    anchor_lin.append([zero] * m)
    v = np.zeros(n)
    v[m] = 1.0
    return LieAffgebroidData(patch, n, beta, c, anchor_ref, anchor_lin, v=v)


def affgebra_to_affgebroid(data: LieAffgebraData, v=None) -> LieAffgebroidData:
    """View bracket data over a point as bundle data over an empty patch,
    with ``v`` the distinguished model section, if any."""
    n = data.n
    beta = [[se.Const(data.D[k, i]) for k in range(n)] for i in range(n)]
    c = [[[se.Const(data.c[i, j, k]) for k in range(n)]
          for j in range(n)] for i in range(n)]
    return LieAffgebroidData(Patch.box(()), n, beta, c, [], [[] for _ in range(n)], v=v)


def jet_bundle_affgebroid() -> LieAffgebroidData:
    """First-jet prolongations of curves on a plane fibred over time.

    The bundle consists of the tangent vectors projecting to the unit
    time vector; the reference section is the time direction, the
    model frame the spatial direction, and the anchor the inclusion
    into the tangent bundle, over the box ``(q, t)`` in ``[-1, 1]^2``.
    """
    zero = se.ZERO
    one_ = se.ONE
    beta = [[zero]]
    c = [[[zero]]]
    anchor_ref = [zero, one_]    # the time direction
    anchor_lin = [[one_, zero]]  # the spatial direction
    return LieAffgebroidData(Patch.box(("q", "t")), 1, beta, c, anchor_ref, anchor_lin)

"""Phase bundles of AV-bundles, differentials, and Poisson brackets.

An AV-bundle over a patch is presented in a reference trivialization,
so a section is an expression over the base and so is a trivialization
(the section it takes as zero).  Phase elements are kept in a fixed
trivialization with explicit retagging instead of as equivalence
classes: the differential of a section is an affine 1-form with a tag,
a phase point is that 1-form evaluated at a point, and retagging moves
both by the same exact form.  Every statement of trivialization
independence then becomes an executable comparison between tags.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from . import symexpr as se
from ._immutable import Immutable, fill_slots
from .reporting import Report, per_point_max
from .symexpr import Expression
if TYPE_CHECKING:  # annotations only: phase does not load the bracket stack
    from .brackets import Patch

__all__ = [
    "AffineOneForm", "TwoForm", "PhaseError",
    "FiberConstancyError", "section_one_form", "bold_d_oneform",
    "omega_Z", "canonical_poisson", "TimePhaseSpace", "eq1_aff_poisson",
    "AVMorphism", "check_affine_reduction", "sample_points", "point_at",
]


class PhaseError(ValueError):
    pass


class FiberConstancyError(PhaseError):
    """The would-be descended function varies along the quotient fibers."""


def _over(patch: Patch, sigma: Expression) -> Expression:
    """``sigma``, a section over ``patch``: it uses only the base names."""
    extraneous = se.free_vars(sigma) - set(patch.names)
    if extraneous:
        raise PhaseError(f"section uses unknown variables {sorted(extraneous)}")
    return sigma


class AffineOneForm(Immutable):
    """Section of the phase bundle: covector components plus a tag, the
    trivializing section they are taken against.

    Evaluated at a point it is a phase point; ``retag`` re-expresses it
    in another trivialization, shifting by ``d(old - new)``.
    """

    __slots__ = ("patch", "tag", "components")

    def __init__(self, patch: Patch, tag: Expression, components: tuple[Expression, ...]):
        fill_slots(self, patch, tag, components)

    def retag(self, new_tag: Expression) -> "AffineOneForm":
        shift = se.sub(self.tag, _over(self.patch, new_tag))
        comps = tuple(se.add(c, se.differentiate(shift, n))
                      for c, n in zip(self.components, self.patch.names))
        return AffineOneForm(self.patch, new_tag, comps)


def section_one_form(patch: Patch, sigma: Expression,
                     tag: Expression = se.ZERO) -> AffineOneForm:
    """The differential of a section, as an affine 1-form.

    The components are the ordinary differential of the difference
    between the section and the tag section; two sections with a
    constant difference give the same 1-form.
    """
    diff = se.sub(_over(patch, sigma), _over(patch, tag))
    comps = tuple(se.differentiate(diff, n) for n in patch.names)
    return AffineOneForm(patch, tag, comps)


class TwoForm(Immutable):
    """Two-form with expression coefficients; antisymmetric by storage.

    Terms are kept for index pairs ``i < j`` over the coordinate list,
    once each; the evaluated matrix is filled antisymmetrically.
    """

    __slots__ = ("coords", "terms")

    def __init__(self, coords: tuple[str, ...], terms: dict[tuple[int, int], Expression]):
        fill_slots(self, coords, terms)

    def matrix(self, points: dict[str, np.ndarray]) -> np.ndarray:
        """The matrices at the points of a sample set, as ``(count, n, n)``."""
        n = len(self.coords)
        out = np.zeros((_count(points), n, n))
        for (i, j), value in zip(self.terms, se.evaluate(self.terms.values(), points)):
            out[:, i, j] = value
            out[:, j, i] = -value
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (i, j), coeff in sorted(self.terms.items()):
            pieces.append(f"({se.to_text(coeff)}) d{self.coords[i]}^d{self.coords[j]}")
        return " + ".join(pieces)


def bold_d_oneform(alpha: AffineOneForm) -> TwoForm:
    """Differential of an affine 1-form: an ordinary two-form.

    The components already represent the difference against the tag
    section's differential, so the exterior derivative of the component
    covector field is the tag-independent answer (retagging shifts the
    components by an exact, hence closed, form).
    """
    names, comps = alpha.patch.names, alpha.components
    return TwoForm(names, {(i, j): se.sub(se.differentiate(comps[j], names[i]),
                                          se.differentiate(comps[i], names[j]))
                           for i, j in combinations(range(len(names)), 2)})


def omega_Z(patch: Patch, via: Expression = se.ZERO) -> TwoForm:
    """Canonical symplectic form of the phase bundle, in tag coordinates
    (the base names, then momenta ``p1..pn``).

    Computed as the pullback of the cotangent form ``sum dp_i ^ dx_i``
    through the trivialization induced by the section ``via``; the
    result is independent of that choice because the trivializations
    differ by translation by a closed form.
    """
    base = patch.names
    n = len(base)
    momentum_names = tuple(f"p{i + 1}" for i in range(n))
    if set(momentum_names) & set(base):
        raise PhaseError("momentum names collide with base names")
    terms = {(i, n + i): se.Const(-1.0) for i in range(n)}  # dp_i ^ dx_i = -(dx_i ^ dp_i)
    translation = bold_d_oneform(section_one_form(patch, se.ZERO, via))
    return TwoForm(base + momentum_names, {**terms, **translation.terms})


# ---------------------------------------------------------------------------
# Poisson brackets


def canonical_poisson(F: Expression, G: Expression, pairs) -> Expression:
    """Canonical bracket: sum over pairs of dF/dp dG/dx - dF/dx dG/dp.

    The sign is fixed so the bracket of a momentum with its coordinate
    is one, which is what makes the recovered time-dependent dynamics
    carry the unit time component.
    """
    if F == G:
        return se.ZERO  # antisymmetry, decidable structurally
    out: Expression = se.ZERO
    for x, p in pairs:
        out = se.add(out, se.sub(
            se.mul(se.differentiate(F, p), se.differentiate(G, x)),
            se.mul(se.differentiate(F, x), se.differentiate(G, p))))
    return out


def sample_points(names, rng: np.random.Generator, count: int,
                  low: float = -1.0, high: float = 1.0) -> dict[str, np.ndarray]:
    """``count`` uniform points drawn as one ``(count, len(names))`` block,
    one column per name: a sample set for array ``se.evaluate``."""
    return dict(zip(names, rng.uniform(low, high, size=(count, len(names))).T))


def _count(points: dict[str, np.ndarray]) -> int:
    return len(next(iter(points.values())))


def point_at(points: dict[str, np.ndarray], k: int) -> dict[str, float]:
    """Point ``k`` of a sample set, as a witness names it."""
    return {n: float(v[k]) for n, v in points.items()}


class TimePhaseSpace(Immutable):
    """Cotangent coordinates of a space-time split into space and time.

    Positions ``q`` plus the time ``t``, momenta ``p`` plus the energy
    ``e`` conjugate to time.  The quotient along the energy direction is
    realized by dropping that coordinate.
    """

    __slots__ = ("q", "p")
    time = "t"
    energy = "e"

    def __init__(self, q: tuple[str, ...], p: tuple[str, ...]):
        fill_slots(self, q, p)
        if len(q) != len(p):
            raise PhaseError("need one momentum name per position name")

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.q + (self.time,), self.p + (self.energy,)))

    @property
    def names(self) -> tuple[str, ...]:
        return self.q + (self.time,) + self.p + (self.energy,)

    @property
    def base_names(self) -> tuple[str, ...]:
        """Coordinates of the quotient: everything but the energy."""
        return self.q + (self.time,) + self.p

    def section_function(self, sigma: Expression) -> Expression:
        """The function ``energy - sigma`` attached to a section of the
        quotient projection."""
        return se.sub(se.Var(self.energy), sigma)


def eq1_aff_poisson(space: TimePhaseSpace, sigma: Expression,
                    sigma2: Expression) -> Expression:
    """Bracket of two sections of the energy-quotient projection.

    Computes the canonical bracket of the attached functions upstairs and
    returns it at ``energy = 0``, its descended expression.  A section
    that uses the energy coordinate is refused.  For sections that do
    not, the upstairs bracket is constant along the energy direction;
    that is a claim about the library, so it is checked on samples by
    the caller (the CLI's ``eq1_fiber_constancy``), not here.
    """
    if space.energy in se.free_vars(sigma) | se.free_vars(sigma2):
        raise FiberConstancyError("a section uses the energy coordinate")
    upstairs = canonical_poisson(space.section_function(sigma),
                                 space.section_function(sigma2), space.pairs)
    return se.subst(upstairs, {space.energy: 0.0})


# ---------------------------------------------------------------------------
# Affine Poisson reduction


class AVMorphism(Immutable):
    """Fibration of AV-bundles in coordinates.

    ``base_map`` sends target base coordinates to expressions in the
    source base coordinates; ``fiber_expr`` gives the target fiber
    value as an expression in the source base coordinates and the
    source fiber variable ``fiber_var`` (affinely).
    """

    __slots__ = ("base_map", "fiber_expr", "fiber_var")

    def __init__(self, base_map: dict[str, Expression], fiber_expr: Expression, fiber_var: str):
        fill_slots(self, base_map, fiber_expr, fiber_var)

    def pullback(self, sigma: Expression) -> Expression:
        """Pull a target section back to a source section.

        Solves the fiber equation for the source fiber value; the fiber
        part of the morphism must be affine with constant nonzero slope.
        """
        slope = se.differentiate(self.fiber_expr, self.fiber_var)
        if se.free_vars(slope):
            raise PhaseError("fiber map is not affine in the fiber variable")
        slope_value = se.evaluate(slope, {})
        if slope_value == 0.0:
            raise PhaseError("fiber map does not move the fiber")
        offset = se.subst(self.fiber_expr, {self.fiber_var: 0.0})
        target_value = se.subst(sigma, self.base_map)
        return se.div(se.sub(target_value, offset), se.Const(slope_value))

    def pullback_function(self, f: Expression) -> Expression:
        """Pull a function on the target base back along the base map."""
        return se.subst(f, self.base_map)


def check_affine_reduction(rho: AVMorphism, bracket_z, bracket_y,
                           section_pairs, points) -> Report:
    """Residual of the reduction identity on the sample set ``points``.

    For every supplied pair of target sections, compares the source
    bracket of the pulled-back sections against the pullback of the
    target bracket, to 1e-9.
    """
    report = Report("affine-reduction")
    residuals = []
    for sigma, sigma2 in section_pairs:
        lhs = bracket_z(rho.pullback(sigma), rho.pullback(sigma2))
        rhs = rho.pullback_function(bracket_y(sigma, sigma2))
        residuals.append(per_point_max([se.evaluate(se.sub(lhs, rhs), points)],
                                       _count(points)))
    report.check("reduction_identity", residuals, 1e-9,
                 lambda at: {"pair": at[0], "point": point_at(points, at[1])})
    return report

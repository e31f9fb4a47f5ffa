"""Vector duals, vector hulls, special affine duals and the attached function.

Conventions used throughout (all stored in reference-chart coordinates):

* A dual element is the affine function ``phi(x) = <w, x> + c``; the
  distinguished element ``one(A)`` has ``w = 0, c = 1`` and the dual is
  a vector space of dimension ``n + 1``.
* A hull point is a pair ``(z, lam)``; points of the space embed with
  ``lam = 1``, model vectors with ``lam = 0``, and the pairing with a
  dual element is ``<w, z> + c*lam``.
* For a special space ``(A, v)`` the fundamental field of the
  translation flow is ``chi = -v`` (the generator of ``a -> a + t*v`` run
  with the group convention ``exp(-tY)``), and the adapted fiber
  coordinate satisfies ``d/ds = -chi = +v``, i.e. one unit of ``s`` moves
  a point by ``+v``.  This sign fixes every sign-sensitive identity
  downstream (``chi(F_sigma) = -1``, the bracket/Poisson correspondence,
  and the time-dependent dynamics).
"""

from __future__ import annotations

import numpy as np

from ._immutable import Immutable, fill_slots
from .affine import (AffineGeometryError, AffinePoint, AffineSpaceSpec, LevelSet, TangentVec,
                     _frozen, _matvec)
from . import symexpr as se
from .symexpr import Expression

__all__ = [
    "DualElement", "HullPoint", "SpecialAffineSpace", "FIBER",
    "one", "pair", "DoubleDualMaps", "F_of_section", "iota_sharp",
]

FIBER = "s"  # the adapted fiber coordinate of an AV presentation, oriented by d/ds = -chi


class DualElement(Immutable):
    """Affine function <w, x> + c on a space, in reference coordinates."""

    __slots__ = ("space", "w", "c")

    def __init__(self, space: AffineSpaceSpec, w: np.ndarray, c: float):
        fill_slots(self, space, _frozen(w), float(c))
        if self.w.shape != (self.space.dim,):
            raise AffineGeometryError("dual coefficient vector has wrong length")


def one(space: AffineSpaceSpec) -> DualElement:
    """The constant function 1, the distinguished element of the dual."""
    return DualElement(space, np.zeros(space.dim), 1.0)


class HullPoint(Immutable):
    """Element (z, lam) of the vector hull, the dual of the dual."""

    __slots__ = ("space", "z", "lam")

    def __init__(self, space: AffineSpaceSpec, z: np.ndarray, lam: float):
        fill_slots(self, space, _frozen(z), float(lam))
        if self.z.shape != (self.space.dim,):
            raise AffineGeometryError("hull vector has wrong length")

    @classmethod
    def embed_point(cls, p: AffinePoint) -> "HullPoint":
        return cls(p.space, p.in_reference(), 1.0)

    @classmethod
    def embed_vector(cls, v: TangentVec) -> "HullPoint":
        return cls(v.space, v.in_reference(), 0.0)


def pair(h: HullPoint, d: DualElement) -> float:
    """Canonical pairing of the hull with the dual: <w, z> + c*lam."""
    if h.space is not d.space:
        raise AffineGeometryError("hull point and dual element disagree on space")
    return float(d.w @ h.z + d.c * h.lam)


class SpecialAffineSpace:
    """Affine space with a distinguished nonzero model vector ``v``.

    Its special affine dual is the set of dual elements whose linear part is
    in ``level``, the set ``<w, v> = 1``; the kernel ``<w, v> = 0`` is the
    model (which also contains ``one(A)``).  Dropping the pivot component of
    ``w`` leaves the free ones, named after their original indices, as
    coordinates on the quotient by the ``one(A)`` direction.
    """

    def __init__(self, space: AffineSpaceSpec, v: np.ndarray):
        self.space = space
        if np.shape(v) != (space.dim,):
            raise AffineGeometryError("distinguished vector has wrong length")
        self.level = LevelSet(v, "distinguished vector", AffineGeometryError)
        self.v = self.level.a

    @property
    def dim(self) -> int:
        return self.space.dim

    def quotient_var_names(self) -> tuple[str, ...]:
        """Coordinates on the quotient of the special dual by the one(A) direction."""
        return tuple(f"w{j + 1}" for j in self.level.free)


class DoubleDualMaps:
    """The mutually inverse identifications of a space with its double dual.

    ``forward`` sends a point to the evaluation functional on the
    special dual, written in the coordinates (one per model basis
    direction, then the coefficient of evaluation at the origin);
    ``backward`` inverts it.  The linear part of ``forward`` sends the
    distinguished vector to the constant-function direction.  Each map
    takes one point or a stack ``(N, n)`` of them, row by row.
    """

    def __init__(self, special: SpecialAffineSpace):
        level = special.level  # the model basis, then the special dual's origin: invertible
        self._matrix = np.vstack([level.basis.T, level.solve(np.zeros(special.dim))])
        self._inverse = np.linalg.inv(self._matrix)

    def forward(self, p) -> np.ndarray:
        """The map is linear in reference coordinates, so it is also its
        own linear part: on a model vector it gives that vector's image."""
        return _matvec(self._matrix, np.asarray(p, float))

    def backward(self, coords) -> np.ndarray:
        return _matvec(self._inverse, np.asarray(coords, float))


def F_of_section(sigma: Expression) -> Expression:
    """The function ``F(x, s) = s - sigma(x)`` attached to a section,
    with ``s`` the fiber coordinate ``FIBER``.

    ``F`` satisfies ``dF/ds = 1`` (equivalently ``chi(F) = -1``) and
    vanishes on the graph of the section.
    """
    if FIBER in se.free_vars(sigma):
        raise AffineGeometryError(
            f"section must not depend on the fiber coordinate {FIBER!r}")
    return se.sub(se.Var(FIBER), sigma)


def iota_sharp(components, special: SpecialAffineSpace) -> Expression:
    """Affine function induced on the quotient of the special dual.

    ``components`` are the coefficients (numbers or expressions over
    the base) of a model section in reference coordinates.  Pairing
    with dual elements gives a linear function of ``(w, c)`` that never
    sees ``c``, hence is invariant along the constant-function
    direction and descends to the pivot-solved quotient coordinates.
    """
    v, level = special.v, special.level
    comps = [c if isinstance(c, Expression) else se.Const(float(c))
             for c in components]
    if len(comps) != special.dim:
        raise AffineGeometryError("wrong number of section components")
    names = special.quotient_var_names()
    # on the constraint set the pivot coordinate is (1 - sum_j v_j w_j) / v_k
    pivot_w: Expression = se.ONE
    for j, name in zip(level.free, names):
        pivot_w = se.sub(pivot_w, se.mul(se.Const(v[j]), se.Var(name)))
    pivot_w = se.div(pivot_w, se.Const(v[level.pivot]))
    result: Expression = se.mul(pivot_w, comps[level.pivot])
    for j, name in zip(level.free, names):
        result = se.add(result, se.mul(se.Var(name), comps[j]))
    return result

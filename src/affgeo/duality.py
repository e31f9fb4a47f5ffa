"""Vector duals, vector hulls, special affine duals and the attached function.

Conventions used throughout (all stored in reference-chart coordinates):

* A dual element is the affine function ``phi(x) = <w, x> + c``; the
  distinguished element ``one(A)`` has ``w = 0, c = 1`` and the dual is
  a vector space of dimension ``n + 1``.
* A hull point is a pair ``(z, lam)``; points of the space embed with
  ``lam = 1``, model vectors with ``lam = 0``, and the pairing with a
  dual element is ``<w, z> + c*lam``.
* For a special space ``(A, v)`` the fundamental field of the
  translation flow is ``chi = CHI_ORIENTATION * v`` (the generator of
  ``a -> a + t*v`` run with the group convention ``exp(-tY)``), and the
  adapted fiber coordinate satisfies ``d/ds = -chi``, i.e. one unit of
  ``s`` moves a point by ``+v``.  This single constant fixes every
  sign-sensitive identity downstream (``chi(F_sigma) = -1``, the
  bracket/Poisson correspondence, and the time-dependent dynamics).
"""

from __future__ import annotations

import numpy as np

from ._immutable import Immutable, fill_slots
from .affine import (AffineGeometryError, AffinePoint, AffineSpaceSpec, TangentVec, _frozen,
                     _matvec)
from . import symexpr as se
from .symexpr import Expression

__all__ = [
    "CHI_ORIENTATION", "DualElement", "HullPoint", "SpecialAffineSpace",
    "SpecialDualElement", "SpecialDualSpace", "FIBER",
    "one", "pair", "DoubleDualMaps", "F_of_section", "iota_sharp",
]

# chi = CHI_ORIENTATION * (translation direction v); d/ds = -chi = +v.
CHI_ORIENTATION = -1.0
FIBER = "s"  # the adapted fiber coordinate of an AV presentation, oriented by d/ds = -chi


class DualElement(Immutable):
    """Affine function <w, x> + c on a space, in reference coordinates."""

    __slots__ = ("space", "w", "c")

    def __init__(self, space: AffineSpaceSpec, w: np.ndarray, c: float):
        fill_slots(self, space, _frozen(w), float(c))
        if self.w.shape != (self.space.dim,):
            raise AffineGeometryError("dual coefficient vector has wrong length")

    def __call__(self, p: AffinePoint) -> float:
        return float(self.w @ p.in_reference() + self.c)

    def linear_part_on(self, v) -> float:
        v = v.in_reference() if isinstance(v, TangentVec) else np.asarray(v, float)
        return float(self.w @ v)


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
    """Affine space with a distinguished nonzero model vector."""

    def __init__(self, space: AffineSpaceSpec, v: np.ndarray):
        self.space = space
        self.v = _frozen(v)
        if self.v.shape != (space.dim,):
            raise AffineGeometryError("distinguished vector has wrong length")
        if np.linalg.norm(self.v) == 0.0:
            raise AffineGeometryError("distinguished vector must be nonzero")

    @property
    def dim(self) -> int:
        return self.space.dim


class SpecialDualElement(DualElement):
    """Dual element whose linear part sends the distinguished vector to 1."""

    def __init__(self, special: SpecialAffineSpace, w, c):
        super().__init__(special.space, w, c)
        object.__setattr__(self, "special", special)
        if abs(self.linear_part_on(special.v) - 1.0) > 1e-12:
            raise AffineGeometryError(
                "linear part does not send the distinguished vector to 1")


class SpecialDualSpace:
    """Description of the special affine dual as a subset of the dual.

    Membership is ``<w, v> = 1``.  The model is the hyperplane
    ``<w, v> = 0`` (which contains ``one(A)``).  The pivot-solved
    parametrization drops the pivot component of ``w`` and uses the
    remaining ones, named after their original indices, as coordinates
    on the quotient by the ``one(A)`` direction.
    """

    def __init__(self, special: SpecialAffineSpace):
        self.special = special
        space = special.space
        n = space.dim
        v = special.v
        self.pivot = int(np.argmax(np.abs(v)))
        k = self.pivot
        origin_w = np.zeros(n)
        origin_w[k] = 1.0 / v[k]
        self.origin = SpecialDualElement(special, origin_w, 0.0)
        basis = []
        for j in range(n):
            if j == k:
                continue
            e = np.zeros(n)
            e[j] = 1.0
            e[k] = -v[j] / v[k]
            basis.append(DualElement(space, e, 0.0))
        self.model_basis = tuple(basis)       # w-directions with <w, v> = 0
        self.one = one(space)                 # also in the model
        self.free_indices = tuple(j for j in range(n) if j != k)

    @property
    def dim(self) -> int:
        """Dimension as an affine space: same as the underlying space."""
        return self.special.dim

    def is_member(self, d: DualElement) -> bool:
        return abs(d.linear_part_on(self.special.v) - 1.0) <= 1e-12

    def element(self, free_w, c: float) -> SpecialDualElement:
        """Member with the given free w-components and constant term."""
        w = self.origin.w.copy()
        for basis_el, value in zip(self.model_basis, np.asarray(free_w, float)):
            w = w + value * basis_el.w
        return SpecialDualElement(self.special, w, c)

    def quotient_var_names(self) -> tuple[str, ...]:
        """Coordinates on the quotient of the dual by the one(A) direction."""
        return tuple(f"w{j + 1}" for j in self.free_indices)


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
        self.special = special
        self.dual = SpecialDualSpace(special)
        rows = [b.w for b in self.dual.model_basis] + [self.dual.origin.w]
        self._matrix = np.array(rows)      # invertible: basis plus origin span
        self._inverse = np.linalg.inv(self._matrix)

    def forward(self, p) -> np.ndarray:
        x = p.in_reference() if isinstance(p, AffinePoint) else np.asarray(p, float)
        return _matvec(self._matrix, x)

    def backward(self, coords) -> np.ndarray:
        return _matvec(self._inverse, np.asarray(coords, float))

    def forward_linear(self, v) -> np.ndarray:
        v = v.in_reference() if isinstance(v, TangentVec) else np.asarray(v, float)
        return _matvec(self._matrix, v)


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


def iota_sharp(components, sd: SpecialDualSpace) -> Expression:
    """Affine function induced on the quotient of the special dual.

    ``components`` are the coefficients (numbers or expressions over
    the base) of a model section in reference coordinates.  Pairing
    with dual elements gives a linear function of ``(w, c)`` that never
    sees ``c``, hence is invariant along the constant-function
    direction and descends to the pivot-solved quotient coordinates.
    """
    v = sd.special.v
    k = sd.pivot
    comps = [c if isinstance(c, Expression) else se.Const(float(c))
             for c in components]
    if len(comps) != sd.special.dim:
        raise AffineGeometryError("wrong number of section components")
    names = sd.quotient_var_names()
    # on the constraint set the pivot coordinate is (1 - sum_j v_j w_j) / v_k
    pivot_w: Expression = se.ONE
    for j, name in zip(sd.free_indices, names):
        pivot_w = se.sub(pivot_w, se.mul(se.Const(v[j]), se.Var(name)))
    pivot_w = se.div(pivot_w, se.Const(v[k]))
    result: Expression = se.mul(pivot_w, comps[k])
    for j, name in zip(sd.free_indices, names):
        result = se.add(result, se.mul(se.Var(name), comps[j]))
    return result

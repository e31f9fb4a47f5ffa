"""Finite-dimensional affine spaces, charts, affine and bi-affine maps.

A space is described by a dimension and a set of named charts; every
non-reference chart carries an invertible affine transition to the
reference chart.  The model vector space is implicitly ``R^n`` per
chart, and tangent vectors transform by the linear part of transitions
only.  Keeping the charts explicit makes frame-independence an
executable statement: compute in two charts, compare.

Coordinates may also be a stack ``(N, n)``: N points (or vectors) in one
chart.  Chart transitions, :class:`AffineMap` and :class:`BiAffineMap` then
act row by row, each row with the 1-D call's bits (one exception: BiAffineMap).
"""

from __future__ import annotations

import numpy as np

from ._immutable import Immutable, fill_slots

__all__ = [
    "AffineGeometryError", "AffineSpaceSpec", "AffinePoint", "TangentVec",
    "AffineMap", "BiAffineMap", "LevelSet", "difference",
]

# Construction-time identities use this tolerance; anything downstream
# of an ODE or a finite difference uses 1e-6 instead.
CONSTRUCTION_TOL = 1e-12

_MAX_CONDITION = 1e12


class AffineGeometryError(ValueError):
    """Raised for geometric data that does not make sense."""


def _frozen(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _matvec(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` row by row, with each row's own bits (``x @ matrix.T`` differs)."""
    return (matrix @ x[..., None])[..., 0]


class LevelSet:
    """The level-1 set ``<a, x> = 1`` of a covector ``a`` on ``R^n``, in one pivot chart.

    ``pivot`` is the first index ``k`` of the largest ``|a_k|``, and the other
    indices, in order, are ``free``.  The columns of ``basis``, the vectors
    ``e_j - (a_j / a_k) e_k`` for ``j`` free, span the kernel ``<a, x> = 0``;
    keeping the free entries reads their components back exactly.  ``a`` is
    refused by ``error``, naming it ``what``, when it is not finite, zero, or
    so small that 1 / its largest entry overflows (``e_k / a_k`` is not finite).
    """

    def __init__(self, a: np.ndarray, what: str, error: type[Exception]):
        a = self.a = _frozen(a)
        if not np.isfinite(a).all():
            raise error(f"{what} must be finite")
        if not a.any():  # its norm underflows to 0 below about 1e-162
            raise error(f"{what} must be nonzero")
        k = self.pivot = int(np.argmax(np.abs(a)))
        if np.isinf(1.0 / abs(float(a[k]))):
            raise error(f"{what} is too small: 1 / its largest entry overflows")
        self.free = tuple(j for j in range(len(a)) if j != k)
        self.basis = _frozen(np.insert(np.eye(len(a) - 1), k, 0.0 - np.delete(a, k) / a[k],
                                       axis=0))  # no -0.0

    def value(self, x):
        """``<a, x>`` of a vector, or of each row of a stack ``(N, n)``: a
        row reads as that vector does."""
        x = np.asarray(x, float)
        t = self.a[0] * x[..., 0]
        for j in range(1, len(self.a)):
            t = t + self.a[j] * x[..., j]
        return t

    def contains(self, x) -> bool:
        """Whether ``value(x)`` is 1 to 1e-12 plus ``4n 2^-52 sum_j |a_j x_j|``, the rounding
        bound of its sum (nan and inf are not 1); another length raises ``ValueError``."""
        terms = zip(self.a.tolist(), np.asarray(x, float).tolist(), strict=True)
        size = sum([abs(a * b) for a, b in terms])
        return size < np.inf and \
            abs(self.value(x) - 1.0) <= 1e-12 + 4 * len(self.a) * 2.0**-52 * size

    def solve(self, x) -> np.ndarray:
        """``x`` with its pivot entry set to ``(1 - sum_{j free} a_j x_j) / a_k``,
        so that it is a member however its other entries round."""
        x = np.array(x, float)
        x[self.pivot] = 0.0
        x[self.pivot] = (1.0 - self.value(x)) / self.a[self.pivot]
        return x


class _Transition(Immutable):
    """Affine map x -> A x + b into the reference chart."""

    __slots__ = ("matrix", "offset")

    def __init__(self, matrix: np.ndarray, offset: np.ndarray):
        fill_slots(self, matrix, offset)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _matvec(self.matrix, x) + self.offset

    def apply_vector(self, v: np.ndarray) -> np.ndarray:
        return _matvec(self.matrix, v)

    def invert(self, y: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, (y - self.offset)[..., None])[..., 0]


class AffineSpaceSpec:
    """Affine space of dimension ``n`` with named charts.

    :meth:`add_chart` names a chart by its affine transition
    ``(matrix, offset)`` to the reference chart ``"ref"``, which has the
    identity transition.
    """

    reference = "ref"

    def __init__(self, dim: int):
        if dim < 1:
            raise AffineGeometryError("dimension must be positive")
        self.dim = dim
        self._transitions: dict[str, _Transition] = {
            self.reference: _Transition(_frozen(np.eye(dim)), _frozen(np.zeros(dim)))
        }

    def add_chart(self, name: str, matrix, offset) -> None:
        if name in self._transitions:
            raise AffineGeometryError(f"chart {name!r} already defined")
        m = _frozen(matrix)
        b = _frozen(offset)
        if m.shape != (self.dim, self.dim) or b.shape != (self.dim,):
            raise AffineGeometryError(f"chart {name!r}: wrong transition shape")
        if not (np.isfinite(m).all() and np.isfinite(b).all()):
            raise AffineGeometryError(f"chart {name!r}: transition is not finite")
        if np.linalg.cond(m) > _MAX_CONDITION:
            raise AffineGeometryError(f"chart {name!r}: transition is singular")
        round_trip = m @ np.linalg.inv(m)
        if np.max(np.abs(round_trip - np.eye(self.dim))) > CONSTRUCTION_TOL:
            raise AffineGeometryError(f"chart {name!r}: inverse check failed")
        self._transitions[name] = _Transition(m, b)

    @property
    def charts(self) -> tuple[str, ...]:
        return tuple(self._transitions)

    def _transition(self, chart: str) -> _Transition:
        try:
            return self._transitions[chart]
        except KeyError:
            raise AffineGeometryError(f"unknown chart {chart!r}") from None

    def point(self, coords, chart: str | None = None) -> "AffinePoint":
        chart = chart or self.reference
        self._transition(chart)
        return AffinePoint(self, chart, _frozen(coords))

    def vector(self, components, chart: str | None = None) -> "TangentVec":
        chart = chart or self.reference
        self._transition(chart)
        return TangentVec(self, chart, _frozen(components))

    def convert_point(self, p: "AffinePoint", chart: str) -> "AffinePoint":
        ref = p.in_reference()
        return AffinePoint(self, chart, _frozen(self._transition(chart).invert(ref)))


class AffinePoint(Immutable):
    __slots__ = ("space", "chart", "coords")

    def __init__(self, space: AffineSpaceSpec, chart: str, coords: np.ndarray):
        fill_slots(self, space, chart, coords)

    def in_reference(self) -> np.ndarray:
        return self.space._transition(self.chart).apply(self.coords)


class TangentVec(Immutable):
    __slots__ = ("space", "chart", "components")

    def __init__(self, space: AffineSpaceSpec, chart: str, components: np.ndarray):
        fill_slots(self, space, chart, components)

    def in_reference(self) -> np.ndarray:
        return self.space._transition(self.chart).apply_vector(self.components)


def difference(p: AffinePoint, q: AffinePoint) -> TangentVec:
    """The model vector ``p - q``, in reference-chart components."""
    if p.space is not q.space:
        raise AffineGeometryError("points belong to different spaces")
    d = p.in_reference() - q.in_reference()
    return TangentVec(p.space, p.space.reference, _frozen(d))


class AffineMap:
    """x -> L x + b between reference charts of two specs."""

    def __init__(self, domain: AffineSpaceSpec, codomain: AffineSpaceSpec,
                 matrix, offset):
        self.domain = domain
        self.codomain = codomain
        self.matrix = _frozen(matrix)
        self.offset = _frozen(offset)
        if self.matrix.shape != (codomain.dim, domain.dim):
            raise AffineGeometryError("linear part has wrong shape")
        if self.offset.shape != (codomain.dim,):
            raise AffineGeometryError("offset has wrong shape")

    def apply(self, p: AffinePoint) -> AffinePoint:
        if p.space is not self.domain:
            raise AffineGeometryError("point is not in the domain space")
        return self.codomain.point(_matvec(self.matrix, p.in_reference()) + self.offset)


class BiAffineMap:
    """Phi(x, y) = C(x (x) y) + D x + E y + F, affine in each slot.

    Stored by tensor coefficients so the partial linear parts are exact
    slice extractions, no numerical differentiation involved.  Each slot
    takes a vector or a stack ``(N, dim)``; rows keep the 1-D bits unless
    C is of shape ``(1, 2, n)`` (numpy's einsum then sums in another order).
    """

    def __init__(self, C, D, E, F):
        self.C = _frozen(C)
        self.D = _frozen(D)
        self.E = _frozen(E)
        self.F = _frozen(F)
        k, n1, n2 = self.C.shape
        if self.D.shape != (k, n1) or self.E.shape != (k, n2) \
                or self.F.shape != (k,):
            raise AffineGeometryError("inconsistent coefficient shapes")

    def apply(self, x, y) -> np.ndarray:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return self.bilinear_part(x, y) + _matvec(self.D, x) + _matvec(self.E, y) + self.F

    def part_first(self, u, y) -> np.ndarray:
        """Linear part in the first slot: Phi(x+u, y) - Phi(x, y)."""
        u = np.asarray(u, dtype=float)
        return self.bilinear_part(u, y) + _matvec(self.D, u)

    def part_second(self, x, w) -> np.ndarray:
        """Linear part in the second slot: Phi(x, y+w) - Phi(x, y)."""
        w = np.asarray(w, dtype=float)
        return self.bilinear_part(x, w) + _matvec(self.E, w)

    def bilinear_part(self, u, w) -> np.ndarray:
        return np.einsum("kij,...i,...j->...k", self.C,
                         np.asarray(u, dtype=float), np.asarray(w, dtype=float))

#!/usr/bin/env python3
"""
================================
Affine spaces and chart changes
================================

Build a two-dimensional affine space with three charts, move points and
vectors between them, and watch the chart-independent identities hold:
the difference of two points in any charts against their conversion by
each chart's own matrix and offset, and the linear-part law of affine maps.
"""

import numpy as np

from affgeo.affine import (
    AffineMap, AffineSpaceSpec, BiAffineMap, difference,
)

theta = 0.7
charts = {  # chart: (matrix, offset) into the reference chart
    "ref": (np.eye(2), np.zeros(2)),
    "shift": (np.eye(2), np.array([1.0, 1.0])),
    "rot": (np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]),
            np.array([0.5, -2.0])),
}
spec = AffineSpaceSpec(2)
for name in ("shift", "rot"):
    spec.add_chart(name, *charts[name])

p = spec.point([0.0, 0.0], chart="shift")
q = spec.point([0.0, 0.0])
print("difference of the two chart origins:", difference(p, q).components)

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    pts = [spec.point(rng.uniform(-5, 5, 2), chart=c) for c in charts]
    # the same differences from each point converted by its own chart's matrix and offset
    refs = [charts[p.chart][0] @ p.coords + charts[p.chart][1] for p in pts]
    for i in range(3):
        deviation = difference(pts[i - 1], pts[i]).components - (refs[i - 1] - refs[i])
        worst = max(worst, np.max(np.abs(deviation)))
print(f"worst deviation of a difference across charts over 200 triples: {worst:.3e}")

phi = AffineMap(spec, spec, [[2.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
a = spec.point([0.3, -0.4], chart="rot")
u = np.array([1.0, 2.0])
shifted = spec.point(a.in_reference() + u)
lhs = phi.apply(shifted).coords - phi.apply(a).coords
print("linear-part law residual:", np.max(np.abs(lhs - phi.matrix @ u)))

bi = BiAffineMap(C=[[[1.0]]], D=[[1.0]], E=[[1.0]], F=[1.0])
print("parts of (x, y) -> xy + x + y + 1 at u=2, y=3:")
print("  slot-1 linear part:", bi.part_first([2.0], [3.0]))
print("  slot-2 linear part:", bi.part_second([2.0], [3.0]))
print("  bilinear part:    ", bi.bilinear_part([2.0], [3.0]))

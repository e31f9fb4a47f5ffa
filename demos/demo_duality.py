#!/usr/bin/env python3
"""
=====================================
Duals, hulls, and the double dual
=====================================

The dual of an affine space collects its affine functions; the space
embeds into the dual of that dual together with its model vectors.
With a distinguished model vector the constrained dual appears, and
applying the construction twice returns the original space.
"""

import numpy as np

from affgeo.affine import AffineSpaceSpec
from affgeo.duality import (
    FIBER, DoubleDualMaps, DualElement, F_of_section, HullPoint,
    SpecialAffineSpace, one, pair,
)
from affgeo import symexpr as se

space = AffineSpaceSpec(2)
# the hull basis (unit vectors, then the origin) against the dual basis
# (unit covectors, then the constant function): rank 3 for a plane
hull = [*(HullPoint.embed_vector(space.vector(e)) for e in np.eye(2)),
        HullPoint.embed_point(space.point([0.0, 0.0]))]
dual = [*(DualElement(space, e, 0.0) for e in np.eye(2)), one(space)]
print("rank of the hull-dual pairing of a plane:",
      np.linalg.matrix_rank([[pair(x, f) for f in dual] for x in hull]))

d = DualElement(space, [2.0, 3.0], 5.0)
h = HullPoint(space, [1.0, 0.0], 1.0)
print("pairing of ((1,0),1) with (w=(2,3), c=5):", pair(h, d))
print("embedded point against the constant function:",
      pair(HullPoint.embed_point(space.point([7.0, -1.0])), one(space)))
print("embedded vector against the constant function:",
      pair(HullPoint.embed_vector(space.vector([7.0, -1.0])), one(space)))

S = SpecialAffineSpace(space, [0.0, 1.0])
print("\nconstrained dual for v = (0, 1):")
print("  membership of the constant function:", S.level.contains(one(space).w))
print("  quotient coordinates:", S.quotient_var_names())

maps = DoubleDualMaps(S)
rng = np.random.default_rng(0)
x = rng.uniform(-3, 3, 2)
print("double-dual round trip of", x, "->", maps.backward(maps.forward(x)))
print("distinguished vector lands on the constant direction:",
      maps.forward(S.v))

sigma = se.parse("x^2", se.VarContext.make(base=("x",)))
F = F_of_section(sigma)
print("\nsection x -> x^2 has attached function:", F)
print("  fiber slope:", se.differentiate(F, FIBER))
print("  value on the graph:", se.subst(F, {FIBER: sigma}))

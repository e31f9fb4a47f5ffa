#!/usr/bin/env python3
"""
=========================================
Bracket verification and hull extension
=========================================

Exact axiom checking for brackets over a point (including a witness for
a broken structure), sampled verification for the jet-bundle bracket on
a plane fibred by time, and its extension to the vector hull.
"""

import numpy as np

from affgeo.brackets import (
    LieAffgebraData, jet_bundle_affgebroid, hull_extend, random_polynomial,
    verify_affgebra, verify_affgebroid,
)
from affgeo import symexpr as se

eps = np.zeros((3, 3, 3))
for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    eps[i, j, k], eps[j, i, k] = 1.0, -1.0

print("rotation-algebra constants, no mixed part:")
print(" ", [c.to_dict() for c in verify_affgebra(
    LieAffgebraData(np.zeros((3, 3)), eps)).checks])

print("cross product with identity mixed part (must fail):")
bad = verify_affgebra(LieAffgebraData(np.eye(3), eps))
print("  jacobi:", bad["jacobi"].to_dict())

data = jet_bundle_affgebroid()
print("\njet-bundle bracket of d/dt + sin(q)t d/dq and d/dt + (q^2 - t) d/dq:")
ctx = data.patch.context()
out = data.bracket([se.parse("sin(q)*t", ctx)], [se.parse("q^2 - t", ctx)])
print("  vertical coefficient:", se.to_text(out[0]))

report = verify_affgebroid(data, data.patch.grid(4))
print("axioms at a 4x4 grid:",
      {c.check: c.passed for c in report.checks})

hull = hull_extend(data)
rng = np.random.default_rng(0)
secs = [(random_polynomial(data.patch, rng), [random_polynomial(data.patch, rng)])
        for _ in range(3)]
total = se.Const(0.0)
for A, B, C in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    _, comps = hull.bracket(secs[A], hull.bracket(secs[B], secs[C]))
    total = se.add(total, comps[0])
worst = max(abs(se.evaluate(total, {"q": p[0], "t": p[1]}))
            for p in data.patch.grid(4))
print(f"hull cyclic-identity residual with random weights: {worst:.3e}")

#!/usr/bin/env python3
"""
==========================================
From the line-bundle algebroid to Poisson
==========================================

The invariant vector fields of a trivialized principal line bundle form
a bracket structure whose dual side carries cotangent coordinates.
Pushing two affine sections through the bracket and down to the
quotient reproduces the canonical Poisson bracket, and the two
aff-Poisson criteria (derivation property, centrality), one check each
in the report of ``is_aff_poisson``, agree.
"""

import numpy as np

from affgeo.brackets import (
    Patch, aff_jacobi_bracket, atiyah_algebroid, is_aff_poisson,
)
from affgeo.phase import canonical_poisson, sample_points
from affgeo import symexpr as se

patch = Patch.box(("x",))
data = atiyah_algebroid(patch)

print("bracket of (d/dx, 0) with (0, x):",
      [se.to_text(c) for c in data.bracket([1.0, 0.0], [0.0, se.Var("x")])])

ctx = se.VarContext.make(base=("x", "w1"))
sigma = se.parse("w1*x", ctx)
sigma2 = se.parse("w1 + x^2", ctx)
ours = aff_jacobi_bracket(data, sigma, sigma2)
oracle = canonical_poisson(sigma, sigma2, [("x", "w1")])
print("dual-side bracket:     ", se.to_text(ours))
print("canonical Poisson says:", se.to_text(oracle))

rng = np.random.default_rng(0)
points = sample_points(("x", "w1"), rng, 32)
worst = np.max(np.abs(se.evaluate(ours, points) - se.evaluate(oracle, points)))
print(f"max deviation at 32 random phase points: {worst:.3e}")

report = is_aff_poisson(data, rng=rng)
derivation, centrality = report["derivation"], report["centrality"]
print("derivation criterion:", derivation.passed,
      "| centrality criterion:", centrality.passed,
      "| agree:", derivation.passed == centrality.passed)

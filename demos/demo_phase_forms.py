#!/usr/bin/env python3
"""
=====================================
Phase bundle forms and trivializations
=====================================

Differentials of sections live in the phase bundle; re-expressing them
in another trivialization shifts by an exact form, so the canonical
two-form and the differential of any phase-bundle section are
trivialization independent.
"""

import numpy as np

from affgeo.brackets import Patch
from affgeo.phase import (
    AVBundle, bold_d, bold_d_oneform, omega_Z, sample_points, section_one_form,
)
from affgeo import symexpr as se

z = AVBundle(Patch.box(("x",)))
ctx = z.patch.context()
z.register("sq", se.parse("x^2", ctx))
z.register("wavy", se.parse("sin(x)", ctx))

pt = bold_d(z, "sq", [1.0])
print("differential of x^2 at x=1 (flat tag):", pt.p)
print("same point re-expressed in the sin(x) tag:", pt.retag("wavy").p)
print("and back:", pt.retag("wavy").retag("zero").p)

omega = omega_Z(z)
print("\ncanonical two-form in the flat tag:", omega)
axis = np.linspace(-2, 2, 5)
grid = {"x": np.repeat(axis, 5), "p1": np.tile(axis, 5)}  # a 5 x 5 sample set
for name in ("sq", "wavy"):
    dev = omega.max_difference(omega_Z(z, via=name), grid)
    print(f"deviation when computed through {name!r}: {dev:.3e}")

z2 = AVBundle(Patch.box(("x", "y")))
z2.register("bump", se.parse("x^2*y - y^3", z2.patch.context()))
two = bold_d_oneform(section_one_form(z2, "bump"))
rng = np.random.default_rng(0)
worst = np.max(np.abs(two.matrix(sample_points(("x", "y"), rng, 16))))
print(f"\nsquared differential of a section (should vanish): {worst:.3e}")

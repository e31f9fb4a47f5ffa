#!/usr/bin/env python3
"""
=====================================
Phase bundle forms and trivializations
=====================================

The differential of a section is an affine 1-form, a section of the
phase bundle; a phase point is that 1-form evaluated at a point.
Re-expressing either in another trivialization shifts it by an exact
form, so the canonical two-form and the differential of any
phase-bundle section are trivialization independent.
"""

import numpy as np

from affgeo.brackets import Patch
from affgeo.phase import bold_d_oneform, omega_Z, sample_points, section_one_form
from affgeo import symexpr as se

z = Patch.box(("x",))
sq, wavy = se.parse("x^2", z.context()), se.parse("sin(x)", z.context())


def at(alpha, m):
    """The phase point of a 1-form at ``m``: its components evaluated there."""
    return np.array([se.evaluate(c, z.env(m)) for c in alpha.components])


alpha = section_one_form(z, sq)
print("differential of x^2 at x=1 (flat tag):", at(alpha, [1.0]))
print("same point re-expressed in the sin(x) tag:", at(alpha.retag(wavy), [1.0]))
print("and back:", at(alpha.retag(wavy).retag(se.ZERO), [1.0]))

omega = omega_Z(z)
print("\ncanonical two-form in the flat tag:", omega)
axis = np.linspace(-2, 2, 5)
grid = {"x": np.repeat(axis, 5), "p1": np.tile(axis, 5)}  # a 5 x 5 sample set
for via in (sq, wavy):
    dev = np.max(np.abs(omega_Z(z, via=via).matrix(grid) - omega.matrix(grid)))
    print(f"deviation when computed through {se.to_text(via)!r}: {dev:.3e}")

z2 = Patch.box(("x", "y"))
bump = se.parse("x^2*y - y^3", z2.context())
two = bold_d_oneform(section_one_form(z2, bump))
rng = np.random.default_rng(0)
worst = np.max(np.abs(two.matrix(sample_points(("x", "y"), rng, 16))))
print(f"\nsquared differential of a section (should vanish): {worst:.3e}")

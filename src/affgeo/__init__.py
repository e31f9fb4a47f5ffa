"""Geometry of affine values.

A small numerical/symbolic toolkit for affine spaces and bundles,
their vector and special affine duals, bracket structures on affine
bundles and the induced aff-Jacobi and aff-Poisson brackets on the
dual side, phase bundles with their canonical two-forms, and two
mechanics engines built on top: time-dependent Hamiltonian dynamics
and frame-independent Newtonian dynamics.

Modules
-------
symexpr
    Expression language: parsing, exact differentiation, evaluation.
affine
    Affine spaces with charts, affine and bi-affine maps.
duality
    Vector duals and hulls, special affine duals, the function
    ``s - sigma`` attached to a section.
brackets
    Brackets over points and patches, verification, hull extension,
    dual-side brackets.
phase
    Affine 1-forms of sections (a phase point is one evaluated at a
    point), canonical two-form, quotient and reduction brackets.
mechanics
    Time-dependent and Newtonian dynamics, the fixed-step integrator.
cli
    Scenario runner (also exposed as the ``affgeo`` command).
"""

from . import affine, brackets, duality, mechanics, phase, symexpr  # noqa: F401
from .affine import (  # noqa: F401
    AffineMap, AffineSpaceSpec, BiAffineMap, difference,
)
from .brackets import (  # noqa: F401
    LieAffgebraData, LieAffgebroidData, Patch, aff_jacobi_bracket,
    atiyah_algebroid, jet_bundle_affgebroid, hull_extend, is_aff_poisson,
    verify_affgebra, verify_affgebroid,
)
from .duality import (  # noqa: F401
    FIBER, DoubleDualMaps, DualElement, F_of_section, HullPoint,
    SpecialAffineSpace, SpecialDualSpace, iota_sharp, pair,
)
from .mechanics import (  # noqa: F401
    InertialFrame, NewtonSpaceTime, ObservedPhase, Trajectory,
    compare_frames, energy_drift, gauge_transform, integrate, newton_dynamics,
    timedep_dynamics,
)
from .phase import (  # noqa: F401
    AVMorphism, TimePhaseSpace, bold_d_oneform, canonical_poisson,
    check_affine_reduction, eq1_aff_poisson, omega_Z, section_one_form,
)
from .symexpr import Expression, VarContext, parse  # noqa: F401

__version__ = "0.1.0"

"""Geometry of affine values.

A small numerical/symbolic toolkit for affine spaces and bundles,
their vector and special affine duals, bracket structures on affine
bundles and the induced aff-Jacobi and aff-Poisson brackets on the
dual side, phase bundles with their canonical two-forms, and two
mechanics engines built on top: time-dependent Hamiltonian dynamics
and frame-independent Newtonian dynamics.

Modules
-------
The package re-exports nothing: import a name from the module that
defines it (``from affgeo.brackets import Patch``).  The modules form
two stacks over one base, and importing a module loads only the
modules below it (``a <- b``: ``b`` imports ``a``).

base: ``_immutable``, ``symexpr``, ``reporting``
    Slotted immutable classes; expressions (parsing, exact
    differentiation, evaluation); check results and reports.
geometry: ``affine`` <- ``duality`` <- ``brackets``
    Affine spaces with charts, affine and bi-affine maps; vector duals
    and hulls, special affine duals, the function ``s - sigma``
    attached to a section; brackets over points and patches,
    verification, hull extension, dual-side brackets.
mechanics: ``phase`` <- ``mechanics``
    Affine 1-forms of sections, canonical two-form, quotient and
    reduction brackets; time-dependent and Newtonian dynamics, the
    fixed-step integrator.
``cli``, on both stacks
    Scenario runner (also exposed as the ``affgeo`` command).
"""

__version__ = "0.1.0"

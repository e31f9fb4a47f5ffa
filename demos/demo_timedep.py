#!/usr/bin/env python3
"""
==================================
Time-dependent dynamics recovery
==================================

A time-dependent Hamiltonian defines a section of the energy quotient;
generating the dynamics through the quotient bracket produces the
classical equations of motion with the unit time flow built in rather
than added by hand.
"""

import math

import numpy as np

from affgeo.mechanics import integrate, timedep_dynamics
from affgeo.phase import TimePhaseSpace
from affgeo import symexpr as se

ctx = se.VarContext.make(base=("q1", "p1"), time="t")
H = se.parse("p1^2/2 + q1^2/2", ctx)
section = se.neg(H)  # the energy along the section's graph
space = TimePhaseSpace(q=("q1",), p=("p1",))
print("section value (energy along the graph):", se.to_text(section))
print("attached function upstairs:", se.to_text(space.section_function(section)))

fld = timedep_dynamics(1, H)
print("\ndynamics on (q, p, t):",
      [f"{n}' = {se.to_text(c)}" for n, c in zip(fld.names, fld.components)])
print("bracket route agrees with the closed form to",
      f"{fld.cross_check_residuals.max():.3e}")

traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0)
worst = max(abs(traj.states[k, 0] - math.cos(traj.times[k]))
            for k in range(0, len(traj), 100))
print(f"distance to the closed-form solution over 10 time units: {worst:.3e}")

energy = se.compile_fn([H], fld.names)
drift = max(abs(energy(s)[0] - 0.5) for s in traj.states)
print(f"energy drift along the trajectory: {drift:.3e}")

free = timedep_dynamics(1, se.Const(0.0))
print("\nzero Hamiltonian still moves the clock:",
      free(np.array([0.0, 0.0, 0.0])))

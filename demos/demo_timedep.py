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

from affgeo.mechanics import TimeDepSystem, integrate, timedep_dynamics
from affgeo import symexpr as se

ctx = se.VarContext.make(base=("q1", "p1"), time="t")
sys = TimeDepSystem(1, se.parse("p1^2/2 + q1^2/2", ctx))
print("section value (energy along the graph):", se.to_text(sys.section))
print("attached function upstairs:", se.to_text(sys.F))

fld = timedep_dynamics(sys)
print("\ndynamics on (q, p, t):",
      [f"{n}' = {se.to_text(c)}" for n, c in zip(fld.names, fld.components)])
print("bracket route agrees with the closed form to",
      f"{fld.cross_check_residuals.max():.3e}")

traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0)
worst = max(abs(traj.states[k, 0] - math.cos(traj.times[k]))
            for k in range(0, len(traj), 100))
print(f"distance to the closed-form solution over 10 time units: {worst:.3e}")

H = se.compile_fn([sys.H], sys.state_names)
drift = max(abs(H(s)[0] - 0.5) for s in traj.states)
print(f"energy drift along the trajectory: {drift:.3e}")

free = timedep_dynamics(TimeDepSystem(1, se.Const(0.0)))
print("\nzero Hamiltonian still moves the clock:",
      free(np.array([0.0, 0.0, 0.0])))

#!/usr/bin/env python3
"""
======================================
Newtonian frames and gauge equivalence
======================================

Observed dynamics depends on the inertial frame, but the traced events
do not.  Boost the initial phase with the gauge rules, integrate in
both frames, and compare world-lines event by event.
"""


from affgeo.mechanics import (
    FRAME_TOL, NewtonSpaceTime, ObservedPhase, compare_frames, energy_drift,
    gauge_transform, integrate, newton_dynamics, tau_clock_residual,
)
from affgeo import symexpr as se

st = NewtonSpaceTime(3)
ctx = se.VarContext.make(base=("q1", "q2", "q3"), time="t")
phi = se.parse("(q1^2 + q2^2 + q3^2)/2", ctx)

initial = ObservedPhase([1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0], 0.0,
                        st.rest_frame())
boost = [0.3, 0.0, 0.0]

boosted = gauge_transform(initial, boost, m=1.0)
print("momentum seen from the boosted frame:", boosted.p)
print("action coordinate in the boosted frame:", boosted.s)
back = gauge_transform(boosted, [-b for b in boost], m=1.0)
print("round trip restores (p, s):", back.p, back.s)

_, _, (rest, moved) = compare_frames(st, 1.0, phi, initial, [boost], h=1e-3, T=10.0)
deviation = abs(rest.events - moved.events).max()
print(f"\nmax world-line deviation between the frames: {deviation:.3e}")
print("frame independence holds:", deviation < FRAME_TOL)

# the observed dynamics is a compiled VectorField on (event, momentum)
[fld] = newton_dynamics(st, [st.rest_frame()], 1.0, phi)
traj = integrate(fld, [*initial.x, *initial.p], h=1e-2, T=5.0)
print("state components:", ", ".join(fld.names))
print(f"clock-rate residual along the trajectory: "
      f"{tau_clock_residual(fld, traj).max():.3e}")
print(f"energy drift along the trajectory: {energy_drift(fld, traj).max():.3e}")

[free] = newton_dynamics(st, [st.frame([0.4, 0.0, -0.2, 1.0])], 1.0, se.Const(0.0))
track = integrate(free, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0], h=1e-2, T=2.0)
print("free particle at rest in a drifting frame ends at:",
      track.states[-1, :4])

import csv
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from affgeo import cli
from affgeo import symexpr as se
from affgeo.mechanics import (
    IntegrationError, MechanicsError, NewtonSpaceTime, ObservedPhase,
    ObserverSplit, VectorField, compare_frames, energy_drift,
    gauge_transform, integrate, newton_dynamics, observed_hamiltonian,
    tau_clock_residual, timedep_dynamics,
)
from affgeo.brackets import Patch, random_polynomial
from affgeo.phase import TimePhaseSpace
from affgeo.symexpr import Const, Var, VarContext, parse
from affgeo.mechanics import Trajectory
from test_symexpr import all_kinds


OSC_H = parse("p1^2/2 + q1^2/2", VarContext.make(base=("q1", "p1", "t")))


def osc_field():
    return timedep_dynamics(1, OSC_H)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_timedep_attached_function_identities(dim, seed):
    # a Hamiltonian H is the section -H of the energy quotient; its attached
    # function e + H has unit slope along the energy and vanishes on the section
    space = TimePhaseSpace(tuple(f"q{i + 1}" for i in range(dim)),
                           tuple(f"p{i + 1}" for i in range(dim)))
    H = random_polynomial(Patch.box(space.base_names), np.random.default_rng(seed))
    F = space.section_function(se.neg(H))
    assert se.differentiate(F, space.energy) == Const(1.0)
    assert se.subst(F, {space.energy: se.neg(H)}) == Const(0.0)


def test_timedep_dynamics_refuses_no_dimension_and_unknown_variables():
    with pytest.raises(MechanicsError, match="dimension must be positive"):
        timedep_dynamics(0, Const(0.0))
    for H in (se.mul(Var("e"), Var("q1")), se.add(Var("q2"), Var("p1"))):
        with pytest.raises(MechanicsError, match="unknown variables"):
            timedep_dynamics(1, H)


def test_timedep_dynamics_harmonic():
    fld = osc_field()
    assert fld.names == ("q1", "p1", "t")
    out = fld(np.array([0.3, -0.8, 2.0]))
    assert out == pytest.approx([-0.8, -0.3, 1.0])
    assert fld.cross_check_residuals.max() < 1e-12


def test_timedep_dynamics_free_clock():
    ctx = VarContext.make(base=("q1", "p1", "t"))
    fld = timedep_dynamics(1, parse("0", ctx))
    out = fld(np.array([1.0, 2.0, 3.0]))
    assert out == pytest.approx([0.0, 0.0, 1.0])  # the time flow survives


def test_timedep_dynamics_time_dependent_potential():
    ctx = VarContext.make(base=("q1", "p1", "t"))
    fld = timedep_dynamics(1, parse("q1*t", ctx))
    out = fld(np.array([0.5, 0.0, 4.0]))
    assert out == pytest.approx([0.0, -4.0, 1.0])


def test_timedep_reduction_route_agrees_for_random_hamiltonians():
    rng = np.random.default_rng(0)
    patch = Patch.box(("q1", "p1", "t"))
    for _ in range(5):
        H = random_polynomial(patch, rng)
        fld = timedep_dynamics(1, H, rng=rng)
        assert fld.cross_check_residuals.max() < 1e-12


def test_integrate_constant_field():
    fld = VectorField(("x",), (Const(0.0),))
    traj = integrate(fld, [1.5], h=0.1, T=1.0)
    assert np.allclose(traj.states, 1.5)
    assert len(traj) == 11


def test_integrate_exponential():
    fld = VectorField(("x",), (Var("x"),))
    traj = integrate(fld, [1.0], h=1e-3, T=1.0)
    assert traj.states[-1, 0] == pytest.approx(math.e, abs=1e-10)


def test_integrate_oscillator_period_return():
    fld = osc_field()
    n = 6283
    h = 2.0 * math.pi / n
    traj = integrate(fld, [1.0, 0.0, 0.0], h=h, T=2.0 * math.pi)
    assert np.max(np.abs(traj.states[-1, :2] - traj.states[0, :2])) < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_reports_nonfinite_step():
    fld = VectorField(("x",), (se.pow_(Var("x"), 2),))
    with pytest.raises(IntegrationError) as err:
        integrate(fld, [1.0], h=0.5, T=50.0)
    assert err.value.step > 0


def test_integrate_rejects_duration_off_the_step_grid():
    fld = VectorField(("x",), (Const(1.0),))
    with pytest.raises(MechanicsError, match="whole number of steps"):
        integrate(fld, [0.0], h=0.3, T=1.0)
    assert len(integrate(fld, [0.0], h=1e-3, T=0.1)) == 101


def test_integrate_rejects_wrong_state_length():
    fld = VectorField(("x", "y"), (Const(1.0), Var("x")))
    with pytest.raises(MechanicsError, match="components"):
        integrate(fld, [0.0], h=0.1, T=1.0)


def test_oscillator_matches_closed_form():
    fld = osc_field()
    q0, p0 = 1.0, 0.0
    traj = integrate(fld, [q0, p0, 0.0], h=1e-3, T=10.0)
    worst = 0.0
    for k in range(0, len(traj), 500):
        t = traj.times[k]
        worst = max(worst, abs(traj.states[k, 0]
                               - (q0 * math.cos(t) + p0 * math.sin(t))))
    assert worst < 1e-6


def test_timedep_energy_conservation():
    fld = osc_field()
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0)
    H = se.compile_fn([OSC_H], fld.names)
    values = [H(state)[0] for state in traj.states]
    assert max(abs(v - values[0]) for v in values) < 1e-6


def test_energy_drift_matches_direct_loop():
    fld = osc_field()
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-2, T=10.0)
    H = se.compile_fn([OSC_H], fld.names)
    values = [H(state)[0] for state in traj.states]
    assert energy_drift(fld, traj).max() == max(abs(v - values[0]) for v in values)


def test_trajectory_csv_rows(tmp_path):
    fld = osc_field()
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0)
    lines = traj.to_csv().split(b"\r\n")
    assert lines[0] == b"step,time,q1,p1,t,q1,t"
    assert len([ln for ln in lines if ln]) == 10002  # header + 10001 rows


# --- Newtonian space-time ---------------------------------------------------


def test_spacetime_validation():
    with pytest.raises(MechanicsError):
        NewtonSpaceTime(2, g=[[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(MechanicsError):
        NewtonSpaceTime(2, tau=[0.0, 0.0, 0.0])
    with pytest.raises(MechanicsError):
        NewtonSpaceTime(1).frame([1.0, 3.0])  # clock rate 3


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_spacetime_rejects_non_finite_data(bad):
    with pytest.raises(MechanicsError):
        NewtonSpaceTime(2, g=[[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(MechanicsError):
        NewtonSpaceTime(2, tau=[0.0, bad, 1.0])


def test_frame_level_set():
    st = NewtonSpaceTime(3)
    u = st.frame([0.2, -0.1, 0.0, 1.0])
    assert st.clock.value(u.u) == pytest.approx(1.0)


def test_velocity_split():
    st = NewtonSpaceTime(2)
    u = st.frame([0.5, 0.0, 1.0])
    v = np.array([1.5, 2.0, 2.0])
    dt = st.clock.value(v)
    spatial = v - dt * u.u
    assert dt == pytest.approx(2.0)
    assert spatial == pytest.approx([0.5, 2.0, 0.0])
    assert np.delete(spatial, st.clock.pivot) == pytest.approx([0.5, 2.0])


def test_a_near_canonical_clock_gets_a_basis_of_its_own_kernel():
    # within allclose of e_d, this clock was once given the basis of e_d,
    # which it reads as 5e-9, and no unit boost of its rest frame was accepted
    st = NewtonSpaceTime(2, tau=[5e-9, 0.0, 1.0])
    assert np.max(np.abs(st.tau @ st.clock.basis)) <= 1e-16
    frame = st.rest_frame().boosted([1.0, 0.0])
    assert abs(st.clock.value(frame.u) - 1.0) <= 1e-12


def test_a_clock_whose_square_underflows_is_nonzero():
    # the nonzero test took the norm of tau, and its square underflowed to 0
    for tau in ([0.0, 0.0, 1e-200], [1e-300, 0.0, 0.0], [0.0, -1e-170, 1e-171]):
        assert NewtonSpaceTime(2, tau=tau).tau.tolist() == tau
    with pytest.raises(MechanicsError, match="nonzero"):
        NewtonSpaceTime(2, tau=[0.0, -0.0, 0.0])


@pytest.mark.parametrize("tau", [[0.0, 0.0, 1e-160], [3e-170, 0.0, -4e-170],
                                 [0.0, 0.0, 1e-200], [1e160, 0.0, 2e160]])
def test_the_rest_frame_of_a_clock_whose_square_under_or_overflows(tau):
    # the rest frame divided tau by tau . tau, which underflowed (or overflowed),
    # so its velocity failed the unit clock rate
    st_ = NewtonSpaceTime(2, tau=tau)
    assert abs(st_.clock.value(st_.rest_frame().u) - 1.0) <= 1e-12


def test_the_rest_frame_of_a_clock_in_range_is_tau_over_its_square_bit_for_bit():
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e-100, 1e100):
        for _ in range(200):
            tau = rng.normal(size=rng.integers(2, 5)) * scale
            u = NewtonSpaceTime(len(tau) - 1, tau=tau).rest_frame().u
            assert np.array_equal(u, tau / float(tau @ tau))


@pytest.mark.parametrize("tau", [[0.0, 0.0, 1e-310], [5e-324, 0.0, 0.0], [0.0, -1e-309, 1e-310]])
def test_a_clock_without_a_finite_rest_frame_is_refused(tau):
    # 1 / tau_k overflowed: the rest frame's division warned and then failed
    # the unit clock rate, under a message that named the wrong fault
    with pytest.raises(MechanicsError, match="too small"):
        NewtonSpaceTime(2, tau=tau)


SCALES = (1e-150, 1e-100, 1e-8, 1.0, 1e4, 1e8, 1e100, 1e150)


@pytest.mark.parametrize("scale", SCALES)
def test_boosts_of_a_scaled_clock_are_frames(scale):
    # the unit clock rate was tested to an absolute 1e-12, and the rounding
    # of tau . u grows with |tau|: at 1e4 a quarter of these boosts were refused
    rng = np.random.default_rng(1)
    for d in range(1, 5):
        for boost in (1e-3, 1.0, 1e3):
            for _ in range(25):
                spacetime = NewtonSpaceTime(d, tau=rng.normal(size=d + 1) * scale)
                rest = spacetime.rest_frame()
                c = rng.normal(size=d) * boost
                assert rest.boosted(c).spacetime is spacetime
                phase = ObservedPhase(np.zeros(d + 1), rng.normal(size=d), 0.0, rest)
                gauge_transform(phase, c, 1.0)


@pytest.mark.parametrize("boost", [1.0, 1e3])
def test_a_boost_of_a_scaled_clock_can_be_undone(boost):
    # u + B v rounded off the level set, whose bound covers only the rounding
    # of tau . u: every draw was refused at boost 1e3, and 35 of 200 at 1
    rng = np.random.default_rng(1)
    for _ in range(200):
        spacetime = NewtonSpaceTime(3, tau=rng.normal(size=4) * 1e4)
        c = rng.normal(size=3) * boost
        rest = spacetime.rest_frame()
        back = rest.boosted(c).boosted(-c)
        assert np.allclose(back.u, rest.u, rtol=0.0, atol=1e-9 * boost)


def test_a_frame_velocity_off_the_level_set_or_not_finite_is_refused():
    spacetime = NewtonSpaceTime(2)
    for u in ([0.0, 0.0, 1.0 + 1e-11], [0.0, 0.0, math.nan], [math.inf, 0.0, 1.0]):
        with pytest.raises(MechanicsError, match="unit clock rate"):
            spacetime.frame(u)


def test_a_boost_is_its_spatial_components_only():
    # a spatial four-vector was a second spelling of the same boost
    spacetime = NewtonSpaceTime(2)
    phase = ObservedPhase(np.zeros(3), np.zeros(2), 0.0, spacetime.rest_frame())
    with pytest.raises(MechanicsError, match="boost velocity has wrong length"):
        gauge_transform(phase, [0.1, 0.0, 0.0], 1.0)


@pytest.mark.parametrize("g, boost, m", [
    (np.eye(3), [1e308, 1e308, 0.0], 1.0),   # g v . v overflows
    (np.eye(3), [1e200, 0.0, 0.0], 1e-300),  # so does it here, before m scales it
    ([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]], [1e308, 1e308, 0.0], 1.0),  # g v
])
def test_a_boost_that_overflows_the_gauge_transformation_is_refused(g, boost, m):
    spacetime = NewtonSpaceTime(3, g=g)
    phase = ObservedPhase(np.zeros(4), [0.1, 0.0, 0.0], 0.0, spacetime.rest_frame())
    with pytest.raises(MechanicsError, match=re.escape(
            f"boost {boost} overflows the gauge transformation")):
        gauge_transform(phase, boost, m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.floats(-1e3, 1e3, allow_subnormal=False), min_size=d + 1, max_size=d + 1)))
def test_the_spatial_projection_inverts_the_spatial_basis_exactly(tau):
    assume(any(tau))  # a nonzero clock, however small: its norm can underflow to 0
    spacetime = NewtonSpaceTime(len(tau) - 1, tau=tau)
    assert np.array_equal(np.delete(spacetime.clock.basis, spacetime.clock.pivot, axis=0),
                          np.eye(spacetime.d))
    assert np.max(np.abs(spacetime.tau @ spacetime.clock.basis)) \
        <= 1e-15 * np.max(np.abs(spacetime.tau))


def test_gauge_identity_at_zero_boost():
    st = NewtonSpaceTime(3)
    phase = ObservedPhase([0.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3], 1.0,
                          st.rest_frame())
    out = gauge_transform(phase, [0.0, 0.0, 0.0], m=2.0)
    assert out.p == pytest.approx(phase.p)
    assert out.s == pytest.approx(phase.s)
    assert out.frame.u == pytest.approx(phase.frame.u)


def test_gauge_round_trip_restores_phase():
    st = NewtonSpaceTime(3, g=[[2.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 0.5]])
    rng = np.random.default_rng(1)
    phase = ObservedPhase(rng.normal(size=4), rng.normal(size=3),
                          rng.normal(), st.rest_frame())
    v = rng.normal(size=3)
    back = gauge_transform(gauge_transform(phase, v, m=1.7), -v, m=1.7)
    assert np.max(np.abs(back.p - phase.p)) < 1e-12
    assert abs(back.s - phase.s) < 1e-12
    assert np.max(np.abs(back.frame.u - phase.frame.u)) < 1e-12


def test_gauge_boosts_compose_additively():
    st = NewtonSpaceTime(2)
    rng = np.random.default_rng(2)
    phase = ObservedPhase(rng.normal(size=3), rng.normal(size=2),
                          rng.normal(), st.rest_frame())
    v1, v2 = rng.normal(size=2), rng.normal(size=2)
    two_step = gauge_transform(gauge_transform(phase, v1, 1.3), v2, 1.3)
    direct = gauge_transform(phase, v1 + v2, 1.3)
    assert np.max(np.abs(two_step.p - direct.p)) < 1e-12
    assert abs(two_step.s - direct.s) < 1e-12
    assert np.max(np.abs(two_step.frame.u - direct.frame.u)) < 1e-12


def test_free_particle_at_rest_drifts_with_frame():
    st = NewtonSpaceTime(3)
    u = st.frame([0.4, 0.0, -0.2, 1.0])
    [fld] = newton_dynamics(st, [u], m=1.0, phi=Const(0.0))
    x0 = np.array([1.0, 2.0, 3.0, 0.0])
    traj = integrate(fld, np.concatenate([x0, np.zeros(3)]), h=0.01, T=2.0)
    expected = x0 + traj.times[-1] * u.u
    assert np.max(np.abs(traj.states[-1, :4] - expected)) < 1e-12


def test_newton_observer_split_dynamics():
    # with the rest-frame split the equations read qdot = p/m, tdot = 1
    st = NewtonSpaceTime(1)
    ctx = VarContext.make(base=("q1", "t"))
    [fld] = newton_dynamics(st, [st.rest_frame()], m=2.0, phi=parse("q1^2/2", ctx))
    state = np.array([0.5, 0.0, 1.2])  # (x_spatial, x_time, p)
    out = fld(state)
    assert out[0] == pytest.approx(1.2 / 2.0)   # qdot
    assert out[1] == pytest.approx(1.0)          # clock rate
    assert out[2] == pytest.approx(-0.5)         # force


def test_newton_harmonic_oscillator_with_drift_closed_form():
    st = NewtonSpaceTime(1)
    u = st.frame([0.3, 1.0])
    [fld] = newton_dynamics(st, [u], m=1.0,
                            phi=parse("q1^2/2", VarContext.make(base=("q1", "t"))))
    y0, p0 = 1.0, 0.25
    traj = integrate(fld, [y0, 0.0, p0], h=1e-3, T=10.0)
    ydot0 = p0 + 0.3
    worst = 0.0
    for k in range(0, len(traj), 250):
        t = traj.times[k]
        closed = y0 * math.cos(t) + ydot0 * math.sin(t)
        worst = max(worst, abs(traj.states[k, 0] - closed))
    assert worst < 1e-6


def test_tau_clock_along_trajectories():
    st = NewtonSpaceTime(2)
    u = st.frame([0.1, -0.5, 1.0])
    ctx = VarContext.make(base=("q1", "q2", "t"))
    [fld] = newton_dynamics(st, [u], m=1.5, phi=parse("q1^2/2 + q2^2/2", ctx))
    traj = integrate(fld, [1.0, 0.0, 0.0, 0.2, -0.1], h=1e-2, T=5.0)
    assert tau_clock_residual(fld, traj).max() < 1e-12


def test_newton_energy_conservation():
    st = NewtonSpaceTime(1)
    [fld] = newton_dynamics(st, [st.rest_frame()], m=1.0,
                            phi=parse("q1^2/2", VarContext.make(base=("q1", "t"))))
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0)
    H = observed_hamiltonian(fld)
    values = [H(s) for s in traj.states]
    assert max(abs(v - values[0]) for v in values) < 1e-6


def test_compare_frames_free_particle():
    st = NewtonSpaceTime(3)
    initial = ObservedPhase([0.0, 0.0, 0.0, 0.0], [0.1, -0.2, 0.0], 0.0,
                            st.rest_frame())
    _, _, (rest, boosted) = compare_frames(st, 1.0, Const(0.0), initial, [[0.3, 0.1, -0.4]],
                                           h=1e-2, T=10.0)
    assert np.max(np.abs(rest.events - boosted.events)) < 1e-12


def test_compare_frames_harmonic():
    st = NewtonSpaceTime(3)
    ctx = VarContext.make(base=("q1", "q2", "q3", "t"))
    phi = parse("(q1^2 + q2^2 + q3^2)/2", ctx)
    initial = ObservedPhase([1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0], 0.0,
                            st.rest_frame())
    _, _, (rest, boosted) = compare_frames(st, 1.0, phi, initial, [[0.3, 0.0, 0.0]],
                                           h=1e-3, T=10.0)
    assert np.max(np.abs(rest.events - boosted.events)) < 1e-6


def test_compare_frames_zero_boost_bitwise():
    st = NewtonSpaceTime(2)
    ctx = VarContext.make(base=("q1", "q2", "t"))
    phi = parse("q1 + 2*q2", ctx)
    initial = ObservedPhase([0.0, 1.0, 0.0], [0.2, 0.0], 0.0, st.rest_frame())
    _, _, (t1, t2) = compare_frames(st, 1.0, phi, initial, [[0.0, 0.0]], h=1e-2, T=1.0)
    assert np.array_equal(t1.states, t2.states)


def reference_newton_field(st, frame, m, phi, split):
    """The numpy formula of the observed dynamics, evaluated per state."""
    q_names = [f"q{i + 1}" for i in range(st.d)]
    grad = se.compile_fn([se.differentiate(phi, q) for q in q_names],
                         q_names + ["t"])
    phi_fn = se.compile_fn([phi], q_names + ["t"])

    def field(state):
        x, p = state[:st.d + 1], state[st.d + 1:]
        xdot = st.clock.basis @ (st.g_inv @ p) / m + frame.u
        q, t = split.coordinates(x)
        return np.concatenate([xdot, -np.array(grad([*q, t]))])

    def energy(state):
        p = state[st.d + 1:]
        q, t = split.coordinates(state[:st.d + 1])
        return float(p @ st.g_inv @ p) / (2.0 * m) + phi_fn([*q, t])[0]

    return field, energy


NEWTON_PHI = "q1^2/2 + q2*q3*t + sin(q1*t) - 0.3*q3"


def test_newton_field_matches_reference_off_canonical():
    st = NewtonSpaceTime(3, tau=[0.3, -0.2, 0.1, 1.1],
                         g=[[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
    split = ObserverSplit(st, [0.5, -1.0, 2.0, 0.3],
                          st.rest_frame().boosted([0.1, 0.2, -0.3]))
    frame = st.rest_frame().boosted([-0.2, 0.1, 0.05])
    phi = parse(NEWTON_PHI, VarContext.make(base=("q1", "q2", "q3"), time="t"))
    [fld] = newton_dynamics(st, [frame], 1.7, phi, split)
    field, energy = reference_newton_field(st, frame, 1.7, phi, split)
    H = observed_hamiltonian(fld)
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = rng.uniform(-1.0, 1.0, 7)
        assert np.max(np.abs(fld(state) - field(state))) < 1e-14
        assert abs(H(state) - energy(state)) < 1e-14


def test_newton_field_canonical_case_is_bit_identical():
    st = NewtonSpaceTime(3)
    split = ObserverSplit.default(st)
    frame = st.rest_frame().boosted([0.4, 0.0, -0.2])
    phi = parse(NEWTON_PHI, VarContext.make(base=("q1", "q2", "q3"), time="t"))
    [fld] = newton_dynamics(st, [frame], 2.0, phi)
    field, energy = reference_newton_field(st, frame, 2.0, phi, split)
    H = observed_hamiltonian(fld)
    rng = np.random.default_rng(6)
    for _ in range(50):
        state = rng.uniform(-3.0, 3.0, 7)
        assert fld(state).tobytes() == field(state).tobytes()
        # numpy's dot fuses multiply-adds; the compiled energy cannot
        assert H(state) == pytest.approx(energy(state), rel=1e-15, abs=0)


def test_compare_frames_first_world_line_is_the_plain_integration():
    st = NewtonSpaceTime(2)
    phi = parse("q1^2/2 + q2", VarContext.make(base=("q1", "q2"), time="t"))
    initial = ObservedPhase([1.0, 0.0, 0.0], [0.0, 0.5], 0.0, st.rest_frame())
    field, _, (first, _) = compare_frames(st, 1.0, phi, initial, [[0.3, 0.1]], h=1e-2, T=1.0)
    [fld] = newton_dynamics(st, [st.rest_frame()], 1.0, phi)
    traj = integrate(fld, [1.0, 0.0, 0.0, 0.0, 0.5], h=1e-2, T=1.0)
    assert np.array_equal(first.states, traj.states)
    assert field.components == fld.components


def test_compare_frames_of_several_boosts_equal_one_boost_calls():
    st = NewtonSpaceTime(3)
    phi = parse(NEWTON_PHI, VarContext.make(base=("q1", "q2", "q3"), time="t"))
    initial = ObservedPhase([1.0, 0.0, 0.0, 0.0], [0.0, 0.5, -0.2], 0.3,
                            st.rest_frame())
    boosts = [[0.3, 0.0, 0.0], [0.0, 0.2, -0.1], [0.15, 0.15, 0.15]]
    field, _, lines = compare_frames(st, 1.0, phi, initial, boosts, h=1e-2, T=2.0)
    assert len(lines) == 1 + len(boosts)  # the frame's own, then one per boost
    for v, line in zip(boosts, lines[1:]):
        alone_field, _, alone = compare_frames(st, 1.0, phi, initial, [v], h=1e-2, T=2.0)
        assert alone_field.components == field.components
        for mine, theirs in zip([lines[0], line], alone):
            assert mine.states.tobytes() == theirs.states.tobytes()
            assert mine.events.tobytes() == theirs.events.tobytes()
    assert field.components == newton_dynamics(
        st, [st.rest_frame()], 1.0, phi)[0].components


def test_newton_dynamics_of_several_frames_equal_one_frame_calls():
    st = NewtonSpaceTime(3, g=[[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    phi = parse(NEWTON_PHI, VarContext.make(base=("q1", "q2", "q3"), time="t"))
    rest = st.rest_frame()
    frames = [rest] + [rest.boosted(v) for v in
                       ([0.3, 0.0, 0.0], [0.1, 0.2, -0.1], [0.15, 0.15, 0.15])]
    split = ObserverSplit(st, [0.1, -0.2, 0.0, 0.3], frames[2])
    fields = newton_dynamics(st, frames, 1.7, phi, split)
    assert len(fields) == 4
    y0 = [1.0, 0.0, 0.0, 0.0, 0.0, 0.5, -0.2]
    for frame, fld in zip(frames, fields):
        [alone] = newton_dynamics(st, [frame], 1.7, phi, split)
        assert fld.components == alone.components
        assert fld.energy == alone.energy and fld.events == alone.events
        mine, theirs = integrate(fld, y0, 1e-2, 1.0), integrate(alone, y0, 1e-2, 1.0)
        assert mine.states.tobytes() == theirs.states.tobytes()
        assert mine.events.tobytes() == theirs.events.tobytes()
        # the frame-independent parts are built once and shared
        assert fld.energy is fields[0].energy
        assert all(a is b for a, b in zip(fld.components[4:], fields[0].components[4:]))
    # fields whose frame velocities have no zero component differ only in
    # constants, so they share one compiled shape; a zero term is dropped
    assert fields[2]._fn.__code__ is fields[3]._fn.__code__
    assert fields[1]._fn.__code__ is not fields[2]._fn.__code__
    assert newton_dynamics(st, [], 1.7, phi) == []


# --- covariance under an affine change of space-time chart ------------------


def _nonnegative_powers(e):
    """``e`` rebuilt node for node with every exponent made non-negative."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, se.Pow):
        return se.Pow(_nonnegative_powers(e.base), abs(e.exponent))
    return type(e)(*[_nonnegative_powers(v) if isinstance(v, se.Expression) else v
                     for v in (getattr(e, name) for name in type(e).__slots__)])


def _linear(coeffs, names):
    out = Const(0.0)
    for c, name in zip(coeffs, names):
        out = se.add(out, se.mul(Const(float(c)), Var(name)))
    return out


def _in_chart(st_, split, frame, phi, A, b):
    """The same system written in the chart ``x' = A x + b``.

    With ``S'`` the new spatial basis, ``M = P A^-1 S'`` maps new spatial
    components to old ones: the clock is ``tau A^-1``, the metric
    ``M^T g M``, the split and the frame are mapped by ``A`` and the
    potential is pulled back through ``q = M q'``.  Returns the new
    space-time, split, frame and potential, and ``M``."""
    d = st_.d
    A_inv = np.linalg.inv(A)
    tau = st_.tau @ A_inv
    M = np.delete(A_inv, st_.clock.pivot, axis=0) @ NewtonSpaceTime(d, tau).clock.basis
    g = M.T @ st_.g @ M
    new = NewtonSpaceTime(d, tau, (g + g.T) / 2.0)
    q_names = [f"q{i + 1}" for i in range(d)]
    phi_new = se.subst(phi, {q: _linear(row, q_names) for q, row in zip(q_names, M)})
    return (new, ObserverSplit(new, A @ split.x0 + b, new.frame(A @ split.frame.u)),
            new.frame(A @ frame.u), phi_new, M)


def _covariance_case(d, tree, seed):
    """A random Newton system with the potential ``tree`` and the same
    system in the random chart ``x' = A x + b``: the two fields, the
    initial event and momentum in the original chart, ``A``, ``b`` and
    the ``M`` of :func:`_in_chart`.  None if ``A`` has a condition
    number above 30 or the clock a time component below 0.3."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d + 1, d + 1)) + 2.0 * np.eye(d + 1)
    if np.linalg.cond(A) > 30.0:
        return None
    b = rng.normal(size=d + 1)
    tau = np.eye(d + 1)[d] + 0.4 * rng.normal(size=d + 1)
    if abs(tau[d]) < 0.3:
        return None
    L = rng.normal(size=(d, d))
    g = L @ L.T + 0.5 * np.eye(d)
    st_ = NewtonSpaceTime(d, tau, (g + g.T) / 2.0)
    rest = st_.rest_frame()
    split = ObserverSplit(st_, rng.normal(size=d + 1), rest.boosted(0.3 * rng.normal(size=d)))
    frame = rest.boosted(0.3 * rng.normal(size=d))
    q = [Var(f"q{i + 1}") for i in range(d)]
    phi = se.subst(tree, {"x": se.sub(q[0], se.mul(Const(0.3), q[-1])),
                          "y": se.add(q[-1], se.mul(Const(0.5), Var("t")))})
    m = float(rng.uniform(0.5, 2.0))
    x0, p0 = rng.uniform(-1.0, 1.0, d + 1), rng.uniform(-1.0, 1.0, d)

    [fld] = newton_dynamics(st_, [frame], m, phi, split)
    st_new, split_new, frame_new, phi_new, M = _in_chart(st_, split, frame, phi, A, b)
    [fld_new] = newton_dynamics(st_new, [frame_new], m, phi_new, split_new)
    return fld, fld_new, x0, p0, A, b, M


def _refinement(case, h, T=0.4):
    """The original chart's run at step ``h``, and the largest change of
    its events when the step is halved."""
    fld, _, x0, p0, *_ = case
    old = integrate(fld, [*x0, *p0], h, T)
    half = integrate(fld, [*x0, *p0], h / 2, T)
    return old, np.max(np.abs(half.events[::2] - old.events))


def _chart_deviation(case, old, h, T=0.4):
    """The largest deviation from ``old`` of the new chart's events at
    step ``h``, mapped back to the original chart."""
    _, fld_new, x0, p0, A, b, M = case
    new = integrate(fld_new, [*(A @ x0 + b), *(M.T @ p0)], h, T)
    back = np.linalg.solve(A, (new.events - b).T).T
    return np.max(np.abs(back - old.events))


# A run that halving the step moves by more than this, times its scale, is
# not resolved at its step, and its chart comparison says nothing.
RESOLVED = 1e-6


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), all_kinds(max_leaves=6).map(_nonnegative_powers),
       st.integers(0, 2**32 - 1))
def test_newton_world_lines_are_covariant_under_affine_charts(d, tree, seed):
    case = _covariance_case(d, tree, seed)
    assume(case is not None)
    try:
        old, refinement = _refinement(case, 1e-2)
    except IntegrationError:
        assume(False)
    scale = 1.0 + np.max(np.abs(old.states))
    assume(refinement <= RESOLVED * scale)  # measured on the original chart only
    assert _chart_deviation(case, old, 1e-2) <= 1e-10 * scale


def test_newton_world_lines_of_a_steep_potential_are_covariant_once_resolved():
    # at h = 1e-2 the run reaches |state| 11.7 (1.45 at h = 1e-3) and its
    # events, mapped back from the other chart, are off by 2.31; the
    # precondition of the property above excludes it, and at h = 1e-3 the
    # two charts agree
    tree = parse("cos(x + y^4)", VarContext.make(base=("x", "y")))
    case = _covariance_case(3, tree, 229262118)
    old, refinement = _refinement(case, 1e-2)
    assert refinement > RESOLVED * (1.0 + np.max(np.abs(old.states)))
    old = integrate(case[0], [*case[2], *case[3]], 1e-3, 0.4)
    assert _chart_deviation(case, old, 1e-3) <= 1e-10 * (1.0 + np.max(np.abs(old.states)))


# --- frame independence of the time-dependent engine ------------------------
#
# Seen from the frame q = A q' + b(t), p = A^-T p', the Hamiltonian is not
# only composed: H'(q', p', t) = H(A q' + b, A^-T p', t) - p'.A^-1 b'(t).
# Under a uniformly moving frame (b linear in t) the extended state (q, p, t)
# changes affinely, RK4 commutes with that change and the world-lines agree
# to rounding; under an accelerating one they agree to RK4's own O(h^4).


def _moving_frame(d, seed, accelerating, shifted=True):
    """``H = sum p_i^2/2 + sin(q1) + 0.3 t q_d`` and the same system seen
    from a random frame ``b(t) = b0 + b1 t + b2 t^2/2`` (``b2`` zero unless
    ``accelerating``), without the ``- p'.A^-1 b'`` term unless ``shifted``:
    the two Hamiltonians, ``A``, the rows ``b0, b1, b2`` and the initial
    ``q`` and ``p``.  None if ``A`` has a condition number above 30."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    if np.linalg.cond(A) > 30.0:
        return None
    b = rng.normal(size=(3, d)) * [[1.0], [1.0], [float(accelerating)]]
    q = [f"q{i + 1}" for i in range(d)]
    p = [f"p{i + 1}" for i in range(d)]
    t = Var("t")
    H = parse(" + ".join(f"{name}^2/2" for name in p) + f" + sin(q1) + 0.3*t*q{d}",
              VarContext.make(base=q + p, time="t"))
    moved = {name: se.add(_linear(row, q), se.add(Const(b0), se.mul(
        t, se.add(Const(b1), se.mul(Const(b2 / 2.0), t)))))
        for name, row, b0, b1, b2 in zip(q, A, *b)}
    moved.update({name: _linear(row, p) for name, row in zip(p, np.linalg.inv(A).T)})
    H_new = se.subst(H, moved)
    if shifted:
        for name, v1, v2 in zip(p, *np.linalg.solve(A, b[1:].T).T):  # A^-1 b'(t)
            H_new = se.sub(H_new, se.mul(Var(name), se.add(Const(v1), se.mul(Const(v2), t))))
    return H, H_new, A, b, rng.uniform(-1.0, 1.0, d), rng.uniform(-1.0, 1.0, d)


def _moving_frame_deviation(case, h, T=2.0):
    """The largest deviation of the moved frame's positions, mapped back,
    from the original frame's, relative to ``1 + max |state|``."""
    H, H_new, A, b, q0, p0 = case
    d = len(q0)
    old = integrate(timedep_dynamics(d, H), [*q0, *p0, 0.0], h, T)
    new = integrate(timedep_dynamics(d, H_new),
                    [*np.linalg.solve(A, q0 - b[0]), *(A.T @ p0), 0.0], h, T)
    powers = new.times[:, None] ** [0, 1, 2] / [1.0, 1.0, 2.0]  # 1, t, t^2/2
    back = new.states[:, :d] @ A.T + powers @ b
    return np.max(np.abs(back - old.states[:, :d])) / (1.0 + np.max(np.abs(old.states)))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_timedep_world_lines_agree_in_a_uniformly_moving_frame(d, seed):
    case = _moving_frame(d, seed, accelerating=False)
    assume(case is not None)
    assert _moving_frame_deviation(case, 1e-2) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_timedep_world_lines_in_an_accelerating_frame_converge_at_rk4_order(d):
    for seed in range(3):
        case = _moving_frame(d, seed, accelerating=True)
        coarse, fine = (_moving_frame_deviation(case, h) for h in (1e-2, 5e-3))
        assert fine * 10.0 <= coarse, (seed, coarse, fine)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_timedep_hamiltonian_only_composed_is_frame_dependent(d):
    # without - p'.A^-1 b' the Hamiltonian is treated as a function, not as
    # the section that it is, and a uniformly moving frame already sees
    # other world-lines
    case = _moving_frame(d, 0, accelerating=False, shifted=False)
    assert _moving_frame_deviation(case, 1e-2) > 1e-3


# --- error paths of the integrator ------------------------------------------
#
# The field used to run on np.float64, where a zero division or a power
# overflow quietly gives inf or nan while math.exp and math.sqrt raise; each
# case pins the exact outcome of that arithmetic.

X, T_ = Var("x"), Var("t")


def _integration_error(components, names, y0, h, T):
    fld = VectorField(names, components)
    with pytest.raises(IntegrationError) as err:
        integrate(fld, y0, h=h, T=T)
    return str(err.value), err.value.step


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("component, y0, h, message", [
    (se.pow_(X, 2), 1.0, 0.5, "non-finite state at step 5"),
    (se.mul(se.mul(X, X), X), 1.0, 0.5, "non-finite state at step 3"),
    (se.call("exp", X), 1.0, 0.5, "domain error (math range error) at step 2"),
    (se.pow_(se.call("exp", X), 2), 1.0, 0.5, "domain error (math range error) at step 1"),
    (se.neg(se.call("sqrt", X)), 0.5, 0.25, "domain error (math domain error) at step 6"),
])
def test_integrate_error_outcomes(component, y0, h, message):
    text, step = _integration_error((component,), ("x",), [y0], h, 50.0)
    assert text == message
    assert step == int(message.rsplit(" ", 1)[1])


def test_integrate_passes_through_a_division_by_zero_as_numpy_did():
    # at step 2 the stage time hits t = 0.5: -1/0 = -inf and exp(-inf) = 0
    bump = se.call("exp", se.div(Const(-1.0), se.pow_(se.sub(T_, Const(0.5)), 2)))
    fld = VectorField(("x", "t"), (bump, Const(1.0)))
    traj = integrate(fld, [0.0, 0.0], h=0.25, T=1.0)
    assert traj.states[-1, 0] == 0.0017983179416143507
    assert traj.states[-1, 1] == 1.0


# --- the numpy integrator and CSV writer, kept as references ----------------


def _reference_code(e, index):
    """The nested expression the field used to compile to."""
    if isinstance(e, se.Const):
        return f"({e.value!r})"
    if isinstance(e, se.Var):
        return f"_y[{index[e.name]}]"
    if isinstance(e, se.Pow):
        return f"({_reference_code(e.base, index)} ** {e.exponent})"
    if isinstance(e, se.Neg):
        return f"(-{_reference_code(e.operand, index)})"
    if isinstance(e, se.Call):
        return f"_m.{e.func}({_reference_code(e.arg, index)})"
    op = {se.Add: "+", se.Sub: "-", se.Mul: "*", se.Div: "/"}[type(e)]
    return (f"({_reference_code(e.left, index)} {op} "
            f"{_reference_code(e.right, index)})")


def reference_field(fld):
    index = {n: i for i, n in enumerate(fld.names)}
    body = ", ".join(_reference_code(c, index) for c in fld.components)
    fn = eval(f"lambda _y: [{body}]",
              {"_m": math, "inf": math.inf, "nan": math.nan})
    return lambda y: np.array(fn(y))


def reference_integrate(fld, y0, h, T):
    """The RK4 loop on numpy arrays that ``integrate`` replaced."""
    field = reference_field(fld)
    n_steps = round(T / h)
    y = np.array(y0, dtype=float)
    states = np.empty((n_steps + 1, len(y)))
    states[0] = y
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(n_steps):
            try:
                k1 = field(y)
                k2 = field(y + 0.5 * h * k1)
                k3 = field(y + 0.5 * h * k2)
                k4 = field(y + h * k3)
            except (ZeroDivisionError, OverflowError, ValueError) as err:
                raise IntegrationError(f"domain error ({err})", k + 1) from None
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise IntegrationError("non-finite state", k + 1)
            states[k + 1] = y
    return states


def reference_csv(traj, path):
    """The csv.writer rows with one f-string per value that ``to_csv``
    replaced."""
    def fmt(x):
        return f"{float(x):.17g}"

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "time", *traj.names, *traj.event_names])
        for k in range(len(traj.times)):
            row = [str(k), fmt(traj.times[k])]
            row += [fmt(v) for v in traj.states[k]]
            if traj.events is not None:
                row += [fmt(v) for v in traj.events[k]]
            writer.writerow(row)


def _outcome(run):
    try:
        return run().tobytes()
    except IntegrationError as err:
        return type(err), err.step, str(err)


_field_trees = st.one_of(
    all_kinds(),
    # unguarded divisors, exponentials and roots reach the error paths
    all_kinds().map(lambda e: se.Div(Const(1.0), e)),
    all_kinds().map(lambda e: se.Call("exp", se.Mul(Const(40.0), e))),
    all_kinds().map(lambda e: se.Call("sqrt", e)),
    # a power overflow is inf on np.float64: a non-finite state
    all_kinds().map(lambda e: se.Pow(se.Mul(Const(1e80), e), 4)),
    # -1/(+-0) is -inf or +inf there, and exp of it 0 or an overflow
    all_kinds().map(lambda e: se.Call("exp", se.Div(Const(-1.0),
                                                    se.Mul(e, Const(0.0))))),
)


def _without_y(e):
    """``e`` with y set to 0.25, rebuilt node for node (no simplifier)."""
    if isinstance(e, (Const, Var)):
        return Const(0.25) if e == Var("y") else e
    return type(e)(*[_without_y(v) if isinstance(v, se.Expression) else v
                     for v in (getattr(e, name) for name in type(e).__slots__)])


@settings(max_examples=200, deadline=None)
@given(st.lists(_field_trees, min_size=1, max_size=2),
       st.floats(1e-3, 1.0), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_integrate_matches_the_numpy_loop_bit_for_bit(components, h, steps, seed):
    names = ("x", "y")[:len(components)]
    if len(components) == 1:
        components = [_without_y(components[0])]
    fld = VectorField(names, components)
    y0 = np.random.default_rng(seed).uniform(-2.0, 2.0, len(names))
    T = steps * h
    if abs(T / h - steps) > 1e-9 * steps:
        return
    expected = _outcome(lambda: reference_integrate(fld, y0, h, T))
    assert _outcome(lambda: integrate(fld, y0, h, T).states) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(_field_trees, min_size=2, max_size=2), st.integers(0, 2**32 - 1))
def test_field_call_matches_the_nested_code_bit_for_bit(components, seed):
    fld = VectorField(("x", "y"), components)
    y = np.random.default_rng(seed).uniform(-2.0, 2.0, 2)
    with np.errstate(all="ignore"):
        try:
            expected = reference_field(fld)(y).tobytes()
        except (ZeroDivisionError, OverflowError, ValueError) as err:
            expected = type(err), str(err)
        try:
            got = fld(y).tobytes()
        except (ZeroDivisionError, OverflowError, ValueError) as err:
            got = type(err), str(err)
    assert got == expected


_special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e22,
                            -1e22, 1e-7, 3.0, -2.0, 1e16, 123456789.0, 0.1])
_values = st.one_of(_special, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 6), n=st.integers(1, 3), data=st.data())
def test_csv_bytes_match_the_csv_writer(tmp_path_factory, rows, n, data):
    width = 1 + n
    table = np.array(data.draw(st.lists(_values, min_size=rows * width,
                                        max_size=rows * width))).reshape(rows, width)
    names = tuple(f"v{i}" for i in range(n))
    events = data.draw(st.lists(st.sampled_from(names), max_size=n, unique=True))
    traj = Trajectory(names, table[:, 0], table[:, 1:], tuple(events))
    out = tmp_path_factory.mktemp("csv")
    reference_csv(traj, out / "old.csv")
    assert traj.to_csv() == (out / "old.csv").read_bytes()


def test_csv_formats_copied_columns_once_and_near_copies_apart(tmp_path):
    states = np.array([[0.0, 1.5, 0.1], [-2.0, 0.0, 1e-300], [0.25, -0.0, 7.0]])
    states = np.column_stack([
        states,
        np.where(states[:, 1] == 0.0, -states[:, 1], states[:, 1]),  # zeros flipped
        np.nextafter(states[:, 2], np.inf),                   # 1 ulp above
    ])
    traj = Trajectory(("a", "b", "c", "b~", "c~"), np.array([0.0, 0.5, 1.0]), states,
                      ("a", "b~", "c~", "c"))
    reference_csv(traj, tmp_path / "old.csv")
    assert traj.to_csv() == (tmp_path / "old.csv").read_bytes()
    rows = traj.to_csv().decode().splitlines()
    assert rows[0] == "step,time,a,b,c,b~,c~,a,b~,c~,c"
    assert rows[2] == ("1,0.5,-2,0,1e-300,-0,1.0000000000000002e-300,"
                       "-2,-0,1.0000000000000002e-300,1e-300")


def test_timedep_trajectory_csv_matches_the_csv_writer(tmp_path):
    traj = integrate(osc_field(), [1.0, 0.0, 0.0], h=1e-2, T=10.0)
    # the events are picked from the columns at once, as from each state
    assert traj.event_names == ("q1", "t")
    assert np.array_equal(traj.events, [[s[0], s[-1]] for s in traj.states])
    reference_csv(traj, tmp_path / "old.csv")
    assert traj.to_csv() == (tmp_path / "old.csv").read_bytes()


# --- each CSV value is its "%.17g" text --------------------------------------


def _csv_texts(values):
    """The texts ``to_csv`` writes for ``values``, as the time column and, in
    reverse order, as the one state column."""
    values = np.asarray(values, dtype=float)
    csv_bytes = Trajectory(("v",), values, values[::-1, None].copy()).to_csv()
    header, body = csv_bytes.split(b"\r\n", 1)
    assert header == b"step,time,v" and body.endswith(b"\r\n")
    cells = body[:-2].decode("ascii").replace("\r\n", ",").split(",")
    assert cells[0::3] == [str(k) for k in range(len(values))]
    return cells[1::3], cells[2::3][::-1]


def _assert_texts_are_printf(values):
    values = np.asarray(values, dtype=float)
    expected = ["%.17g" % v for v in values.tolist()]
    times, states = _csv_texts(values)
    bad = [(v, got, want) for v, got, want in zip(values.tolist(), times, expected)
           if got != want]
    assert bad == []
    assert states == expected


# raw 64-bit patterns, and the patterns of values of either sign whose
# magnitude is in [1e-7, 2e17]
_bits = st.one_of(st.integers(0, 2**64 - 1),
                  st.tuples(st.integers(0, 1),
                            st.integers(int(np.float64(1e-7).view(np.uint64)),
                                        int(np.float64(2e17).view(np.uint64))))
                  .map(lambda sb: sb[0] << 63 | sb[1]))


@settings(max_examples=75, deadline=None)
@given(st.lists(_bits, min_size=1, max_size=40))
def test_csv_text_of_any_bit_pattern_is_its_printf_text(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    _assert_texts_are_printf(values)


def _steps(x, n):
    """``x`` and the ``n`` doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def _sweep():
    rng = np.random.default_rng(20051)
    parts = [
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan],
        # subnormals and the smallest normals
        rng.integers(1, 2**52, 2000, dtype=np.uint64).view(np.float64),
        _steps(5e-324, 100), _steps(2.2250738585072014e-308, 100),
        # every power of ten near the kernel's range, and its neighbours
        *(_steps(float(f"1e{k}"), 200) for k in range(-9, 20)),
        *(_steps(x, 2000) for x in (1e-6, 1e16, 1e17)),
        # values that round up to the next power of ten, and just below them
        *(_steps(float("9" * 25 + f"e{k - 24}"), 50) for k in range(-9, 20)),
        [9.9999999999999999e16, 99999999999999992.0, 9.9999999999999995e-07],
        # raw 64-bit patterns, log-uniform magnitudes and both signs
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
        10.0 ** rng.uniform(-9.0, 19.0, 100000) * rng.choice([-1.0, 1.0], 100000),
        rng.uniform(-3.0, 3.0, 20000),
        rng.integers(-10**6, 10**6, 5000) / 1000.0,
    ]
    # odd multiples of 2^-j: exact binary values, many of them decimal ties
    # at the 17th significant digit
    for j in range(0, 70, 3):
        odd = 2 * rng.integers(1, 2**52, 1500, dtype=np.int64) + 1
        parts.append(odd.astype(float) * 2.0 ** -j)
    return np.concatenate([np.asarray(part, dtype=float) for part in parts])


def _is_tie(x):
    """True when the exact value of ``x`` is halfway between two 17-digit
    decimals, so that ``%.17g`` rounds it half to even."""
    digits = Decimal(x).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_csv_texts_of_a_sweep_of_hard_values_are_their_printf_texts():
    values = _sweep()
    assert len(values) >= 200_000
    finite = values[np.isfinite(values) & (values != 0.0)]
    assert sum(map(_is_tie, finite[-24 * 1500:][::10].tolist())) >= 100
    assert np.any((1e-6 <= np.abs(finite)) & (np.abs(finite) < 1e-4))
    _assert_texts_are_printf(values)


@pytest.mark.parametrize("name", ["oscillator_timedep", "newton_free"])
def test_bundled_csvs_match_the_csv_writer(tmp_path, monkeypatch, capsys, name):
    written = []
    to_csv = Trajectory.to_csv

    def record(traj):
        written.append(traj)
        return to_csv(traj)

    monkeypatch.setattr(Trajectory, "to_csv", record)
    assert cli.main(["run", name, "--out", str(tmp_path / "out")]) == 0
    [traj] = written
    [path] = (tmp_path / "out").glob("*.csv")
    reference_csv(traj, tmp_path / "reference.csv")
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_fields_name_their_event_columns():
    ctx = VarContext.make(base=("q1", "q2", "p1", "p2"), time="t")
    timedep = timedep_dynamics(2, parse("p1^2/2 + p2^2/2 + q1*q2*t", ctx))
    st = NewtonSpaceTime(2)
    [newton] = newton_dynamics(st, [st.rest_frame()], 1.0, Const(0.0))
    for fld, y0, events in [(timedep, [1.0, 0.5, 0.0, 0.2, 0.0], ("q1", "q2", "t")),
                            (newton, [1.0, 0.0, 0.0, 0.3, -0.1], ("x1", "x2", "x3"))]:
        assert fld.events == events
        traj = integrate(fld, y0, h=0.1, T=1.0)
        assert traj.event_names == events
        columns = [traj.states[:, fld.names.index(e)] for e in events]
        assert traj.events.tobytes() == np.column_stack(columns).tobytes()


def test_a_field_without_events_gives_a_trajectory_without_events(tmp_path):
    fld = VectorField(("x", "v"), (Var("v"), se.neg(Var("x"))))
    assert fld.events == ()
    traj = integrate(fld, [1.0, 0.0], h=0.1, T=1.0)
    assert traj.events is None and traj.event_names == ()
    lines = traj.to_csv().decode().splitlines()
    assert lines[0] == "step,time,x,v"
    assert all(len(line.split(",")) == 4 for line in lines)


# --- energy and clock checks over the whole trajectory at once --------------


def _reference_drift(fld, traj):
    energy = reference_field(VectorField(fld.names, [fld.energy] * len(fld.names)))
    values = np.array([energy(s)[0] for s in traj.states])
    return float(np.max(np.abs(values - values[0])))


def _reference_clock(fld, traj):
    field = reference_field(fld)
    st_ = fld.spacetime
    return max(abs(st_.clock.value(field(state)[:st_.d + 1]) - 1.0)
               for state in traj.states)


@settings(max_examples=100, deadline=None)
@given(all_kinds(), st.integers(0, 2**32 - 1))
def test_energy_drift_matches_the_loop_over_states(energy, seed):
    fld = VectorField(("x", "y"), (Const(0.0), Const(0.0)))
    fld.energy = energy
    states = np.random.default_rng(seed).uniform(-2.0, 2.0, (20, 2))
    traj = Trajectory(fld.names, np.arange(20.0), states)
    with np.errstate(all="ignore"):
        try:
            expected = _reference_drift(fld, traj)
        except (ValueError, OverflowError, ZeroDivisionError):
            # a raw exception used to escape; evaluate names the error
            with pytest.raises((se.DomainError, ValueError)):
                energy_drift(fld, traj)
            return
    try:
        got = energy_drift(fld, traj).max()
    except se.DomainError:
        assert not math.isfinite(expected)
        return
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


# seeds of _covariance_case: random clocks, on each of which the clock
# residual over columns once differed from the loop over states
CLOCK_SEEDS = range(4)


def _clock_run(clock):
    """A Newton field and a run of it: of the canonical clock for True, of
    one fixed other clock for False, of the random system that
    :func:`_covariance_case` draws for a seed."""
    if type(clock) is int:
        tree = parse("x^2/2 + sin(x*y) - 0.3*y", VarContext.make(base=("x", "y")))
        fld, _, x0, p0, *_ = _covariance_case(3, tree, clock)
        return fld, integrate(fld, [*x0, *p0], h=1e-2, T=2.0)
    if clock:
        st_ = NewtonSpaceTime(3)
        split = ObserverSplit.default(st_)
    else:
        st_ = NewtonSpaceTime(3, tau=[0.3, -0.2, 0.1, 1.1],
                              g=[[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        split = ObserverSplit(st_, [0.5, -1.0, 2.0, 0.3],
                              st_.rest_frame().boosted([0.1, 0.2, -0.3]))
    frame = st_.rest_frame().boosted([-0.2, 0.1, 0.05])
    phi = parse(NEWTON_PHI, VarContext.make(base=("q1", "q2", "q3"), time="t"))
    [fld] = newton_dynamics(st_, [frame], 1.7, phi, split)
    return fld, integrate(fld, [0.1, 0.2, -0.3, 0.0, 0.5, -0.1, 0.2], h=1e-2, T=2.0)


@pytest.mark.parametrize("clock", [True, False, *(
    pytest.param(seed, id=f"clock_seed{seed}") for seed in CLOCK_SEEDS)])
def test_checks_over_columns_match_the_loops_over_states(clock):
    fld, traj = _clock_run(clock)
    assert energy_drift(fld, traj).max() == _reference_drift(fld, traj)
    assert tau_clock_residual(fld, traj).max() == _reference_clock(fld, traj)

import math

import numpy as np
import pytest

from affgeo import symexpr as se
from affgeo.mechanics import (
    IntegrationError, MechanicsError, NewtonSpaceTime, ObservedPhase,
    ObserverSplit, TimeDepSystem, VectorField, compare_frames, energy_drift,
    gauge_transform, integrate, newton_dynamics, observed_hamiltonian,
    tau_clock_residual, timedep_dynamics, timedep_event_fn,
)
from affgeo.symexpr import Const, Var, VarContext, parse


def osc_system():
    ctx = VarContext.make(base=("q1", "p1", "t"))
    return TimeDepSystem(1, parse("p1^2/2 + q1^2/2", ctx))


def test_timedep_attached_function_identities():
    sys = osc_system()
    assert se.differentiate(sys.F, "e") == Const(1.0)
    assert se.subst(sys.F, {"e": sys.section}) == Const(0.0)


def test_timedep_dynamics_harmonic():
    fld = timedep_dynamics(osc_system())
    assert fld.names == ("q1", "p1", "t")
    out = fld(np.array([0.3, -0.8, 2.0]))
    assert out == pytest.approx([-0.8, -0.3, 1.0])
    assert fld.cross_check_residual < 1e-12


def test_timedep_dynamics_free_clock():
    ctx = VarContext.make(base=("q1", "p1", "t"))
    fld = timedep_dynamics(TimeDepSystem(1, parse("0", ctx)))
    out = fld(np.array([1.0, 2.0, 3.0]))
    assert out == pytest.approx([0.0, 0.0, 1.0])  # the time flow survives


def test_timedep_dynamics_time_dependent_potential():
    ctx = VarContext.make(base=("q1", "p1", "t"))
    fld = timedep_dynamics(TimeDepSystem(1, parse("q1*t", ctx)))
    out = fld(np.array([0.5, 0.0, 4.0]))
    assert out == pytest.approx([0.0, -4.0, 1.0])


def test_timedep_reduction_route_agrees_for_random_hamiltonians():
    from affgeo.brackets import Patch, random_polynomial
    rng = np.random.default_rng(0)
    patch = Patch.box(("q1", "p1", "t"))
    for _ in range(5):
        H = random_polynomial(patch, rng, degree=2)
        fld = timedep_dynamics(TimeDepSystem(1, H), rng=rng)
        assert fld.cross_check_residual < 1e-12


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
    fld = timedep_dynamics(osc_system())
    n = 6283
    h = 2.0 * math.pi / n
    traj = integrate(fld, [1.0, 0.0, 0.0], h=h, T=2.0 * math.pi)
    assert np.max(np.abs(traj.states[-1, :2] - traj.states[0, :2])) < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_reports_nonfinite_step():
    fld = VectorField(("x",), (Var("x") ** 2,))
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
    fld = timedep_dynamics(osc_system())
    q0, p0 = 1.0, 0.0
    traj = integrate(fld, [q0, p0, 0.0], h=1e-3, T=10.0)
    worst = 0.0
    for k in range(0, len(traj), 500):
        t = traj.times[k]
        worst = max(worst, abs(traj.states[k, 0]
                               - (q0 * math.cos(t) + p0 * math.sin(t))))
    assert worst < 1e-6


def test_timedep_energy_conservation():
    sys = osc_system()
    fld = timedep_dynamics(sys)
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0)
    H = se.compile_fn([sys.H], sys.state_names)
    values = [H(state)[0] for state in traj.states]
    assert max(abs(v - values[0]) for v in values) < 1e-6


def test_energy_drift_matches_direct_loop():
    sys = osc_system()
    fld = timedep_dynamics(sys)
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-2, T=10.0)
    H = se.compile_fn([sys.H], sys.state_names)
    values = [H(state)[0] for state in traj.states]
    assert energy_drift(fld, traj) == max(abs(v - values[0]) for v in values)


def test_trajectory_csv_rows(tmp_path):
    fld = timedep_dynamics(osc_system())
    sys = osc_system()
    event_fn, event_names = timedep_event_fn(sys)
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0,
                     event_fn=event_fn, event_names=event_names)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_bytes().split(b"\r\n")
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


def test_frame_level_set():
    st = NewtonSpaceTime(3)
    u = st.frame([0.2, -0.1, 0.0, 1.0])
    assert st.time_of(u.u) == pytest.approx(1.0)


def test_velocity_split():
    st = NewtonSpaceTime(2)
    u = st.frame([0.5, 0.0, 1.0])
    spatial, dt = st.split_velocity([1.5, 2.0, 2.0], u)
    assert dt == pytest.approx(2.0)
    assert st.time_of(spatial) == pytest.approx(0.0)
    assert spatial == pytest.approx([0.5, 2.0, 0.0])


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
    fld = newton_dynamics(st, u, m=1.0, phi=Const(0.0))
    x0 = np.array([1.0, 2.0, 3.0, 0.0])
    traj = integrate(fld, np.concatenate([x0, np.zeros(3)]), h=0.01, T=2.0)
    expected = x0 + traj.times[-1] * u.u
    assert np.max(np.abs(traj.states[-1, :4] - expected)) < 1e-12


def test_newton_observer_split_dynamics():
    # with the rest-frame split the equations read qdot = p/m, tdot = 1
    st = NewtonSpaceTime(1)
    ctx = VarContext.make(base=("q1", "t"))
    fld = newton_dynamics(st, st.rest_frame(), m=2.0, phi=parse("q1^2/2", ctx))
    state = np.array([0.5, 0.0, 1.2])  # (x_spatial, x_time, p)
    out = fld(state)
    assert out[0] == pytest.approx(1.2 / 2.0)   # qdot
    assert out[1] == pytest.approx(1.0)          # clock rate
    assert out[2] == pytest.approx(-0.5)         # force


def test_newton_harmonic_oscillator_with_drift_closed_form():
    st = NewtonSpaceTime(1)
    u = st.frame([0.3, 1.0])
    fld = newton_dynamics(st, u, m=1.0,
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
    fld = newton_dynamics(st, u, m=1.5, phi=parse("q1^2/2 + q2^2/2", ctx))
    traj = integrate(fld, [1.0, 0.0, 0.0, 0.2, -0.1], h=1e-2, T=5.0)
    assert tau_clock_residual(fld, traj) < 1e-12


def test_newton_energy_conservation():
    st = NewtonSpaceTime(1)
    fld = newton_dynamics(st, st.rest_frame(), m=1.0,
                          phi=parse("q1^2/2", VarContext.make(base=("q1", "t"))))
    traj = integrate(fld, [1.0, 0.0, 0.0], h=1e-3, T=10.0)
    H = observed_hamiltonian(fld)
    values = [H(s) for s in traj.states]
    assert max(abs(v - values[0]) for v in values) < 1e-6


def test_compare_frames_free_particle():
    st = NewtonSpaceTime(3)
    initial = ObservedPhase([0.0, 0.0, 0.0, 0.0], [0.1, -0.2, 0.0], 0.0,
                            st.rest_frame())
    cmp = compare_frames(st, 1.0, Const(0.0), initial, [0.3, 0.1, -0.4],
                         h=1e-2, T=10.0)
    assert cmp.max_deviation < 1e-12


def test_compare_frames_harmonic():
    st = NewtonSpaceTime(3)
    ctx = VarContext.make(base=("q1", "q2", "q3", "t"))
    phi = parse("(q1^2 + q2^2 + q3^2)/2", ctx)
    initial = ObservedPhase([1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0], 0.0,
                            st.rest_frame())
    cmp = compare_frames(st, 1.0, phi, initial, [0.3, 0.0, 0.0],
                         h=1e-3, T=10.0)
    assert cmp.passed
    assert cmp.max_deviation < 1e-6


def test_compare_frames_zero_boost_bitwise():
    st = NewtonSpaceTime(2)
    ctx = VarContext.make(base=("q1", "q2", "t"))
    phi = parse("q1 + 2*q2", ctx)
    initial = ObservedPhase([0.0, 1.0, 0.0], [0.2, 0.0], 0.0, st.rest_frame())
    cmp = compare_frames(st, 1.0, phi, initial, [0.0, 0.0], h=1e-2, T=1.0)
    t1, t2 = cmp.trajectories
    assert np.array_equal(t1.states, t2.states)


def reference_newton_field(st, frame, m, phi, split):
    """The numpy formula of the observed dynamics, evaluated per state."""
    q_names = [f"q{i + 1}" for i in range(st.d)]
    grad = se.compile_fn([se.differentiate(phi, q) for q in q_names],
                         q_names + ["t"])
    phi_fn = se.compile_fn([phi], q_names + ["t"])

    def field(state):
        x, p = state[:st.d + 1], state[st.d + 1:]
        xdot = st.spatial_basis @ (st.g_inv @ p) / m + frame.u
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
    fld = newton_dynamics(st, frame, 1.7, phi, split)
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
    fld = newton_dynamics(st, frame, 2.0, phi)
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
    cmp = compare_frames(st, 1.0, phi, initial, [0.3, 0.1], h=1e-2, T=1.0)
    fld = newton_dynamics(st, st.rest_frame(), 1.0, phi)
    traj = integrate(fld, [1.0, 0.0, 0.0, 0.0, 0.5], h=1e-2, T=1.0)
    assert np.array_equal(cmp.trajectories[0].states, traj.states)

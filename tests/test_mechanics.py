import csv
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgeo import symexpr as se
from affgeo.mechanics import (
    IntegrationError, MechanicsError, NewtonSpaceTime, ObservedPhase,
    ObserverSplit, TimeDepSystem, VectorField, compare_frames, energy_drift,
    gauge_transform, integrate, newton_dynamics, observed_hamiltonian,
    tau_clock_residual, timedep_dynamics, timedep_event_fn,
)
from affgeo.symexpr import Const, Var, VarContext, parse
from affgeo.mechanics import Trajectory
from test_symexpr import all_kinds


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
    (X ** 2, 1.0, 0.5, "non-finite state at step 5"),
    (X * X * X, 1.0, 0.5, "non-finite state at step 3"),
    (se.call("exp", X), 1.0, 0.5, "domain error (math range error) at step 2"),
    (se.call("exp", X) ** 2, 1.0, 0.5, "domain error (math range error) at step 1"),
    (-se.call("sqrt", X), 0.5, 0.25, "domain error (math domain error) at step 6"),
])
def test_integrate_error_outcomes(component, y0, h, message):
    text, step = _integration_error((component,), ("x",), [y0], h, 50.0)
    assert text == message
    assert step == int(message.rsplit(" ", 1)[1])


def test_integrate_passes_through_a_division_by_zero_as_numpy_did():
    # at step 2 the stage time hits t = 0.5: -1/0 = -inf and exp(-inf) = 0
    bump = se.call("exp", se.div(Const(-1.0), (T_ - 0.5) ** 2))
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
                     for v in (getattr(e, f.name) for f in fields(e))])


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
@given(rows=st.integers(1, 6), n=st.integers(1, 3), n_events=st.integers(0, 2),
       data=st.data())
def test_csv_bytes_match_the_csv_writer(tmp_path_factory, rows, n, n_events, data):
    width = 1 + n + n_events
    table = np.array(data.draw(st.lists(_values, min_size=rows * width,
                                        max_size=rows * width))).reshape(rows, width)
    traj = Trajectory(tuple(f"v{i}" for i in range(n)), table[:, 0], table[:, 1:1 + n])
    if n_events:
        traj.events = table[:, 1 + n:]
        traj.event_names = tuple(f"e{i}" for i in range(n_events))
    out = tmp_path_factory.mktemp("csv")
    traj.to_csv(out / "new.csv")
    reference_csv(traj, out / "old.csv")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_timedep_trajectory_csv_matches_the_csv_writer(tmp_path):
    sys = osc_system()
    event_fn, event_names = timedep_event_fn(sys)
    traj = integrate(timedep_dynamics(sys), [1.0, 0.0, 0.0], h=1e-2, T=10.0,
                     event_fn=event_fn, event_names=event_names)
    # the events are picked from the columns at once, as from each state
    assert np.array_equal(traj.events, [event_fn(s) for s in traj.states])
    traj.to_csv(tmp_path / "new.csv")
    reference_csv(traj, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# --- energy and clock checks over the whole trajectory at once --------------


def _reference_drift(fld, traj):
    energy = reference_field(VectorField(fld.names, [fld.energy] * len(fld.names)))
    values = np.array([energy(s)[0] for s in traj.states])
    return float(np.max(np.abs(values - values[0])))


def _reference_clock(fld, traj):
    field = reference_field(fld)
    st_ = fld.spacetime
    return max(abs(st_.time_of(field(state)[:st_.d + 1]) - 1.0)
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
        got = energy_drift(fld, traj)
    except se.DomainError:
        assert not math.isfinite(expected)
        return
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("canonical", [True, False])
def test_checks_over_columns_match_the_loops_over_states(canonical):
    if canonical:
        st_ = NewtonSpaceTime(3)
        split = ObserverSplit.default(st_)
    else:
        st_ = NewtonSpaceTime(3, tau=[0.3, -0.2, 0.1, 1.1],
                              g=[[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        split = ObserverSplit(st_, [0.5, -1.0, 2.0, 0.3],
                              st_.rest_frame().boosted([0.1, 0.2, -0.3]))
    frame = st_.rest_frame().boosted([-0.2, 0.1, 0.05])
    phi = parse(NEWTON_PHI, VarContext.make(base=("q1", "q2", "q3"), time="t"))
    fld = newton_dynamics(st_, frame, 1.7, phi, split)
    traj = integrate(fld, [0.1, 0.2, -0.3, 0.0, 0.5, -0.1, 0.2], h=1e-2, T=2.0)
    assert energy_drift(fld, traj) == _reference_drift(fld, traj)
    assert tau_clock_residual(fld, traj) == _reference_clock(fld, traj)

"""Time-dependent and Newtonian mechanics engines.

Two independent dynamics constructions backed by the phase machinery:

* time-dependent systems on a space-time split into space and time,
  where the dynamics is generated from the section attached to the
  Hamiltonian through the energy-quotient bracket and must coincide
  with the textbook field plus the unit time component;
* Newtonian space-time with a clock covector, a spatial metric, and
  inertial frames, where observed trajectories in different frames must
  trace the same events.

Both engines build a :class:`VectorField` (expressions compiled once)
carrying its ``energy``, and both run through the one RK4 :func:`integrate`.

Gauge convention.  Boosting an observed phase by a spatial velocity
``v`` keeps the event, and maps momentum and the action-like coordinate
kinematically:

    p -> p - m g(v),   s -> s - <p, v> + (m/2) <g(v), v>

This is the unique convention compatible with the observed dynamics
``dx/dt = g^{-1}(p)/m + u`` under which boost round trips restore the
phase exactly and world-lines are frame-independent; the transformation
rules printed with the opposite momentum sign fail both properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import symexpr as se
from .phase import TimePhaseSpace, canonical_poisson, sample_points
from .reporting import worst_abs
from .symexpr import Expression

__all__ = [
    "MechanicsError", "IntegrationError", "VectorField", "Trajectory",
    "integrate", "TimeDepSystem", "timedep_dynamics", "NewtonSpaceTime",
    "InertialFrame", "ObservedPhase", "ObserverSplit", "gauge_transform",
    "newton_dynamics", "observed_hamiltonian", "energy_drift",
    "compare_frames", "tau_clock_residual",
]


class MechanicsError(ValueError):
    pass


class IntegrationError(RuntimeError):
    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at step {step}")
        self.step = step


# ---------------------------------------------------------------------------
# Fields and the fixed-step integrator


class VectorField:
    """First-order field with named state components.

    Components are expressions in the state names, compiled once by
    :func:`symexpr.compile_field` into one function of the state values,
    so fields are cheap inside integration loops while the expressions
    stay inspectable.  Calling the field on an array evaluates it on
    ``np.float64`` values: a zero divisor or a power overflow gives inf
    or nan there, as numpy does.
    """

    def __init__(self, names, components):
        self.names = tuple(names)
        self.components = tuple(
            c if isinstance(c, Expression) else se.Const(float(c))
            for c in components)
        if len(self.components) != len(self.names):
            raise MechanicsError("one component per state variable required")
        self._fn = se.compile_field(self.components, self.names)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.array(self._fn(*np.asarray(y, dtype=float)))

    def evaluate_at(self, env: dict[str, float]) -> np.ndarray:
        return np.array([se.evaluate(c, env) for c in self.components])


@dataclass
class Trajectory:
    """Uniformly sampled solution curve with optional event columns."""

    names: tuple[str, ...]
    times: np.ndarray
    states: np.ndarray
    event_names: tuple[str, ...] = ()
    events: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self, path) -> None:
        """Header, then ``step,time,states...,events...`` with each value
        as ``%.17g`` (round-trips), lines ended by CRLF."""
        import csv
        columns = [self.times[:, None], self.states]
        if self.events is not None:
            columns.append(self.events)
        table = np.hstack(columns)
        row = "%d" + ",%.17g" * table.shape[1] + "\r\n"
        with open(path, "w", newline="") as handle:
            csv.writer(handle).writerow(
                ["step", "time", *self.names, *self.event_names])
            handle.writelines(row % (k, *values)
                              for k, values in enumerate(table.tolist()))


_RK4_KERNELS = {}


def _rk4_kernel(n: int):
    """The RK4 loop for states of ``n`` components, generated on first use.

    ``kernel(f, h, steps, append, *y)`` takes up to ``steps`` steps of
    ``f(*y) -> tuple`` from ``y`` and appends each new state as a tuple.
    It returns False, without appending, at the first state that is not
    finite, and True after the last step.  The stages and the update are
    the array formulas ``y + (0.5*h)*k1``, ``y + h*k3`` and
    ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, component by component,
    so the states are bit for bit those of the same loop on arrays.
    """
    kernel = _RK4_KERNELS.get(n)
    if kernel is None:
        def each(term, sep=", "):
            return sep.join(term.format(i=i) for i in range(n))

        def tup(term):  # "(x0, x1, )" unpacks or builds any length
            return f"({each(term)}{', ' if n else ''})"

        y, finite = each("y{i}"), each("-_inf < y{i} < _inf", " and ") or "True"
        stage_b, stage_c = each("y{i} + hh*a{i}"), each("y{i} + hh*b{i}")
        stage_d = each("y{i} + h*c{i}")
        update = tup("y{i} + h6*(((a{i} + 2.0*b{i}) + 2.0*c{i}) + d{i})")
        source = f"""def rk4(f, h, steps, append, {y}):
    hh = 0.5 * h
    h6 = h / 6.0
    for _ in range(steps):
        {tup("a{i}")} = f({y})
        {tup("b{i}")} = f({stage_b})
        {tup("c{i}")} = f({stage_c})
        {tup("d{i}")} = f({stage_d})
        {tup("y{i}")} = {update}
        if not ({finite}):
            return False
        append({tup("y{i}")})
    return True
"""
        namespace = {"_inf": math.inf}
        exec(source, namespace)  # noqa: S102 - generated from fixed text
        kernel = _RK4_KERNELS[n] = namespace["rk4"]
    return kernel


def integrate(fld: VectorField, y0, h: float, T: float,
              event_fn=None, event_names=()) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta, recording every step.

    Both mechanics engines come through here with a :class:`VectorField`.
    The duration must be a whole number of steps (to a relative 1e-9).
    The steps run on Python floats through the field's compiled function
    and the generated loop of :func:`_rk4_kernel`.  Where Python floats
    raise on a zero divisor or a power overflow, that one step is taken
    again on ``np.float64`` values, which give inf or nan as numpy does,
    so the states are those of the same RK4 loop on numpy arrays.
    Deterministic by construction; raises :class:`IntegrationError` with
    the offending step index if the state stops being finite or the
    field hits a domain error (``exp`` overflow, ``sqrt`` of a negative).

    ``event_fn`` maps state components to event components and is
    applied once, to the columns of the states: an ``itemgetter`` of
    component indices (as :func:`timedep_event_fn` and a Newtonian
    field's ``event_of`` are) or any map that works component-wise.
    """
    if not h > 0:
        raise MechanicsError("step size must be positive")
    if not h <= T < math.inf:
        raise MechanicsError("duration must be finite and cover one step")
    n_steps = round(T / h)
    if abs(T / h - n_steps) > 1e-9 * n_steps:
        raise MechanicsError(
            f"duration {T!r} is not a whole number of steps of {h!r}")
    y = np.array(y0, dtype=float)
    if y.shape != (len(fld.names),):
        raise MechanicsError(f"initial state needs {len(fld.names)} components")
    kernel = _rk4_kernel(len(y))
    rows = [tuple(y.tolist())]
    try:
        while len(rows) <= n_steps:
            try:
                finite = kernel(fld._fn, h, n_steps + 1 - len(rows),
                                rows.append, *rows[-1])
            except (ZeroDivisionError, OverflowError):
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    finite = kernel(fld._fn, h, 1, rows.append, *np.array(rows[-1]))
                if finite:
                    rows[-1] = tuple(map(float, rows[-1]))
            if not finite:
                raise IntegrationError("non-finite state", len(rows))
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        raise IntegrationError(f"domain error ({err})", len(rows)) from None
    states = np.array(rows, dtype=float).reshape(n_steps + 1, len(y))
    times = h * np.arange(n_steps + 1)
    traj = Trajectory(fld.names, times, states)
    if event_fn is not None:
        traj.events = np.array(event_fn(states.T)).T
        traj.event_names = tuple(event_names)
    return traj


# ---------------------------------------------------------------------------
# Time-dependent systems


class TimeDepSystem:
    """Hamiltonian system on positions x time, driven through the quotient.

    The Hamiltonian is an expression in the position names, momentum
    names, and time.  The section it defines on the energy quotient
    assigns minus the Hamiltonian, and the attached function upstairs is
    ``energy + H``; both defining identities of that function are checked
    exactly at construction.
    """

    def __init__(self, dim: int, hamiltonian: Expression,
                 q_names=None, p_names=None, time: str = "t",
                 energy: str = "e"):
        if dim < 1:
            raise MechanicsError("dimension must be positive")
        self.dim = dim
        self.q_names = tuple(q_names or (f"q{i + 1}" for i in range(dim)))
        self.p_names = tuple(p_names or (f"p{i + 1}" for i in range(dim)))
        self.time = time
        self.space = TimePhaseSpace(self.q_names, self.p_names, time, energy)
        self.H = hamiltonian
        allowed = set(self.space.base_names)
        extraneous = se.free_vars(hamiltonian) - allowed
        if extraneous:
            raise MechanicsError(
                f"Hamiltonian uses unknown variables {sorted(extraneous)}")
        self.section = se.neg(self.H)           # energy value along the section
        self.F = se.add(se.Var(energy), self.H)  # the attached function
        if se.differentiate(self.F, energy) != se.Const(1.0):
            raise MechanicsError("attached function must have unit fiber slope")
        if se.subst(self.F, {energy: self.section}) != se.Const(0.0):
            raise MechanicsError("attached function must vanish on the section")

    @property
    def state_names(self) -> tuple[str, ...]:
        return self.q_names + self.p_names + (self.time,)


def timedep_dynamics(sys: TimeDepSystem,
                     rng: np.random.Generator | None = None,
                     n_check: int = 40, tol: float = 1e-12) -> VectorField:
    """Dynamics of a time-dependent system on ``(q, p, t)``.

    Computed twice: through the bracket of the attached function on the
    full cotangent space pushed down along the quotient, and in closed
    form (Hamilton's equations plus the unit time component).  The two
    routes are compared on random states before the closed form is
    returned; the bracket route stays available on the result for
    inspection, and the Hamiltonian rides along as ``energy``.
    """
    rng = rng or np.random.default_rng(0)
    space = sys.space
    closed = [se.differentiate(sys.H, p) for p in sys.p_names]
    closed += [se.neg(se.differentiate(sys.H, q)) for q in sys.q_names]
    closed += [se.Const(1.0)]

    reduced = []
    for name in sys.state_names:
        out = canonical_poisson(sys.F, se.Var(name), space.pairs)
        reduced.append(se.subst(out, {space.energy: 0.0}))

    point = sample_points(sys.state_names, rng, n_check, -2.0, 2.0)
    worst = worst_abs([se.evaluate(a, point) - se.evaluate(b, point)
                       for a, b in zip(closed, reduced)], n_check)
    if not worst < tol:
        raise MechanicsError(
            f"bracket-generated dynamics deviates from the closed form "
            f"({worst:.3e})")

    order = sys.q_names + sys.p_names + (sys.time,)
    fld = VectorField(order, closed)
    fld.reduction_components = tuple(reduced)
    fld.cross_check_residual = worst
    fld.energy = sys.H
    return fld


def timedep_event_fn(sys: TimeDepSystem):
    """Extractor of the space-time event (q, t) from the components of a
    dynamics state, with the event names."""
    return itemgetter([*range(sys.dim), -1]), sys.q_names + (sys.time,)


# ---------------------------------------------------------------------------
# Newtonian space-time


def _nullspace_basis(tau: np.ndarray) -> np.ndarray:
    _, _, vt = np.linalg.svd(tau.reshape(1, -1))
    basis = vt[1:].T  # columns span the kernel
    # deterministic signs: first nonzero entry of each column positive
    for j in range(basis.shape[1]):
        col = basis[:, j]
        nz = np.nonzero(np.abs(col) > 1e-13)[0]
        if len(nz) and col[nz[0]] < 0:
            basis[:, j] = -col
    return basis


class NewtonSpaceTime:
    """Affine space-time with a clock covector and a spatial metric.

    Events live in an affine space of dimension ``d + 1``; the covector
    ``tau`` measures time intervals between events, the symmetric
    positive-definite metric ``g`` measures distances on the spatial
    subspace (the kernel of ``tau``), and velocities of observers and
    particles sit on the level-1 set of ``tau``.
    """

    def __init__(self, d: int = 3, tau=None, g=None):
        if d < 1:
            raise MechanicsError("space dimension must be positive")
        self.d = d
        self.tau = np.array(tau if tau is not None
                            else np.eye(d + 1)[d], dtype=float)
        if self.tau.shape != (d + 1,):
            raise MechanicsError("clock covector has wrong length")
        if np.linalg.norm(self.tau) == 0.0:
            raise MechanicsError("clock covector must be nonzero")
        self.g = np.array(g if g is not None else np.eye(d), dtype=float)
        if self.g.shape != (d, d) or np.max(np.abs(self.g - self.g.T)) > 1e-12:
            raise MechanicsError("metric must be a symmetric d x d matrix")
        try:
            np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            raise MechanicsError("metric must be positive definite") from None
        self.g_inv = np.linalg.inv(self.g)
        canonical = np.allclose(self.tau, np.eye(d + 1)[d])
        if canonical:
            self.spatial_basis = np.eye(d + 1)[:, :d]
        else:
            self.spatial_basis = _nullspace_basis(self.tau)
        self._spatial_proj = np.linalg.pinv(self.spatial_basis)

    def time_of(self, v) -> float:
        return float(self.tau @ np.asarray(v, float))

    def spatial_vector(self, components) -> np.ndarray:
        return self.spatial_basis @ np.asarray(components, float)

    def spatial_components(self, v) -> np.ndarray:
        v = np.asarray(v, float)
        if abs(self.time_of(v)) > 1e-9:
            raise MechanicsError("vector is not spatial")
        return self._spatial_proj @ v

    def frame(self, u) -> "InertialFrame":
        return InertialFrame(self, np.asarray(u, float))

    def rest_frame(self) -> "InertialFrame":
        """The frame defined by the clock covector itself."""
        u = self.tau / float(self.tau @ self.tau)
        return InertialFrame(self, u)

    def split_velocity(self, v, frame: "InertialFrame"):
        """Split a model vector into (spatial part, time component)."""
        v = np.asarray(v, float)
        dt = self.time_of(v)
        return v - dt * frame.u, dt


@dataclass(frozen=True)
class InertialFrame:
    spacetime: NewtonSpaceTime
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, float)
        object.__setattr__(self, "u", u)
        if u.shape != (self.spacetime.d + 1,):
            raise MechanicsError("frame velocity has wrong length")
        if abs(self.spacetime.time_of(u) - 1.0) > 1e-12:
            raise MechanicsError("frame velocity must have unit clock rate")

    def boosted(self, v_components) -> "InertialFrame":
        shift = self.spacetime.spatial_vector(v_components)
        return InertialFrame(self.spacetime, self.u + shift)


@dataclass(frozen=True)
class ObservedPhase:
    """Event, spatial momentum, action coordinate, and the frame tag."""

    x: np.ndarray
    p: np.ndarray
    s: float
    frame: InertialFrame

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        object.__setattr__(self, "p", np.asarray(self.p, float))
        object.__setattr__(self, "s", float(self.s))
        d = self.frame.spacetime.d
        if self.x.shape != (d + 1,) or self.p.shape != (d,):
            raise MechanicsError("event or momentum has wrong length")


def _spatial_comps(st: NewtonSpaceTime, v) -> np.ndarray:
    v = np.asarray(v, float)
    if v.shape == (st.d,):
        return v
    if v.shape == (st.d + 1,):
        return st.spatial_components(v)
    raise MechanicsError("boost velocity has wrong length")


def gauge_transform(phase: ObservedPhase, v, m: float) -> ObservedPhase:
    """Re-express an observed phase in the frame boosted by ``v``.

    The event is untouched; momentum and the action coordinate follow
    the kinematic convention stated in the module docstring, under
    which boosting by ``v`` and back by ``-v`` restores the phase and
    boosts compose additively.
    """
    if not 0 < m < math.inf:
        raise MechanicsError("mass must be positive and finite")
    st = phase.frame.spacetime
    c = _spatial_comps(st, v)
    gv = st.g @ c
    p_new = phase.p - m * gv
    s_new = phase.s - float(phase.p @ c) + 0.5 * m * float(gv @ c)
    return ObservedPhase(phase.x, p_new, s_new, phase.frame.boosted(c))


@dataclass(frozen=True)
class ObserverSplit:
    """Origin event plus a frame, splitting space-time into space x time."""

    spacetime: NewtonSpaceTime
    x0: np.ndarray
    frame: InertialFrame

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, float))

    @classmethod
    def default(cls, st: NewtonSpaceTime) -> "ObserverSplit":
        return cls(st, np.zeros(st.d + 1), st.rest_frame())

    def coordinates(self, x) -> tuple[np.ndarray, float]:
        """Observer coordinates (q, t) of an event."""
        rel = np.asarray(x, float) - self.x0
        t = self.spacetime.time_of(rel)
        q = self.spacetime._spatial_proj @ (rel - t * self.frame.u)
        return q, t


def _affine(coeffs, names, offset: float = 0.0) -> Expression:
    """``sum_j coeffs[j] * names[j] + offset`` without its zero terms."""
    out: Expression = se.Const(0.0)
    for c, name in zip(coeffs, names):
        if c != 0.0:
            out = se.add(out, se.mul(se.Const(float(c)), se.Var(name)))
    return se.add(out, se.Const(float(offset)))


def newton_dynamics(st: NewtonSpaceTime, frame: InertialFrame, m: float,
                    phi: Expression,
                    split: ObserverSplit | None = None) -> VectorField:
    """Observed dynamics in event form on the state (event, momentum).

    The event velocity is ``g^{-1}(p)/m + u`` (so its clock rate is one
    identically) and the force is minus the spatial gradient of the
    potential, read through a fixed observer split that belongs to the
    system, not to the integration frame.  The split's coordinates
    ``(q, t)`` are affine in the event coordinates, so both parts are
    expressions in the state and the field compiles like any other.
    The observed energy ``p.g^{-1}p/2m + phi(q, t)`` rides along as
    ``energy``; ``event_of`` and ``event_names`` pick the event columns.
    """
    if not 0 < m < math.inf:
        raise MechanicsError("mass must be positive and finite")
    split = split or ObserverSplit.default(st)
    d = st.d
    q_names = tuple(f"q{i + 1}" for i in range(d))
    extraneous = se.free_vars(phi) - set(q_names) - {"t"}
    if extraneous:
        raise MechanicsError(
            f"potential uses unknown variables {sorted(extraneous)}")
    x_names = tuple(f"x{i + 1}" for i in range(d + 1))
    p_names = tuple(f"p{i + 1}" for i in range(d))

    velocity = st.spatial_basis @ st.g_inv
    xdot = [se.add(se.div(_affine(row, p_names), se.Const(float(m))),
                   se.Const(float(u))) for row, u in zip(velocity, frame.u)]
    # q = P (x - x0 - t u) with t = tau.(x - x0), P the spatial projection
    to_q = st._spatial_proj @ (np.eye(d + 1) - np.outer(split.frame.u, st.tau))
    coords = {q: _affine(row, x_names, -(row @ split.x0))
              for q, row in zip(q_names, to_q)}
    coords["t"] = _affine(st.tau, x_names, -(st.tau @ split.x0))
    pdot = [se.neg(se.subst(se.differentiate(phi, q), coords)) for q in q_names]

    fld = VectorField(x_names + p_names, xdot + pdot)
    kinetic: Expression = se.Const(0.0)
    for col, p in zip(st.g_inv.T, p_names):  # (p g^{-1}) . p
        kinetic = se.add(kinetic, se.mul(_affine(col, p_names), se.Var(p)))
    fld.energy = se.add(se.div(kinetic, se.Const(2.0 * m)),
                        se.subst(phi, coords))
    fld.spacetime = st
    fld.event_names = x_names
    fld.event_of = itemgetter(slice(0, d + 1))
    return fld


def observed_hamiltonian(fld: VectorField):
    """The field's ``energy`` as a state callable: the observed energy of
    a Newtonian field, the Hamiltonian of a time-dependent one."""
    fn = se.compile_fn([fld.energy], fld.names)
    return lambda state: fn(state)[0]


def _columns(fld: VectorField, traj: Trajectory) -> dict[str, np.ndarray]:
    return dict(zip(fld.names, traj.states.T))


def energy_drift(fld: VectorField, traj: Trajectory) -> float:
    """Largest change of the field's energy along a trajectory, from one
    evaluation of ``energy`` over all the states."""
    values = np.broadcast_to(se.evaluate(fld.energy, _columns(fld, traj)),
                             traj.times.shape)
    return float(np.max(np.abs(values - values[0])))


def tau_clock_residual(fld: VectorField, traj: Trajectory) -> float:
    """Worst deviation of the clock rate of the event velocity from one."""
    st = fld.spacetime
    point = _columns(fld, traj)
    velocity = np.empty((len(traj), st.d + 1))
    for i, component in enumerate(fld.components[:st.d + 1]):
        velocity[:, i] = se.evaluate(component, point)
    return float(np.max(np.abs(velocity @ st.tau - 1.0)))


@dataclass
class FrameComparison:
    scenario: str
    frames: tuple[list[float], list[float]]
    max_deviation: float
    passed: bool
    trajectories: tuple[Trajectory, Trajectory]

    def to_dict(self) -> dict:
        return {"scenario": self.scenario, "frames": list(self.frames),
                "max_deviation": self.max_deviation, "pass": self.passed}


def compare_frames(st: NewtonSpaceTime, m: float, phi: Expression,
                   initial: ObservedPhase, v, h: float, T: float,
                   split: ObserverSplit | None = None,
                   tol: float = 1e-6, scenario: str = "") -> FrameComparison:
    """Integrate the same initial phase in a frame and its boost.

    The initial data for the second frame comes from the gauge
    transformation; world-lines are compared event by event in
    space-time coordinates, never in frame components, which is the
    form in which frame independence is literally true.
    """
    def world_line(phase: ObservedPhase) -> Trajectory:
        fld = newton_dynamics(st, phase.frame, m, phi, split)
        return integrate(fld, np.concatenate([phase.x, phase.p]), h, T,
                         event_fn=fld.event_of, event_names=fld.event_names)

    boosted = gauge_transform(initial, v, m)
    t1, t2 = world_line(initial), world_line(boosted)
    deviation = float(np.max(np.abs(t1.events - t2.events)))
    frames = ([float(x) for x in initial.frame.u],
              [float(x) for x in boosted.frame.u])
    return FrameComparison(scenario or "compare-frames", frames, deviation,
                           deviation < tol, (t1, t2))

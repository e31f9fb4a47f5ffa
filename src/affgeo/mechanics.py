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
carrying its ``energy`` and naming its ``events``, and both run through
the one RK4 :func:`integrate`.

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

import io
import itertools
import math

import numpy as np

from . import symexpr as se
from ._immutable import Immutable, fill_slots
from .affine import LevelSet
from .phase import TimePhaseSpace, canonical_poisson, sample_points
from .reporting import per_point_max
from .symexpr import Expression

__all__ = [
    "MechanicsError", "IntegrationError", "VectorField", "Trajectory",
    "integrate", "timedep_dynamics", "NewtonSpaceTime",
    "InertialFrame", "ObservedPhase", "ObserverSplit", "gauge_transform",
    "newton_dynamics", "observed_hamiltonian", "energy_drift",
    "compare_frames", "tau_clock_residual", "FRAME_TOL",
]

FRAME_TOL = 1e-6  # the largest event deviation between frames that counts as agreement
MAX_STEPS = 10**6  # RK4 steps in one run, all its world-lines together; every state is kept


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
    or nan there, as numpy does.  ``events`` names the state components
    that locate the event; :func:`integrate` hands the names on to the
    trajectory.
    """

    def __init__(self, names, components, events=()):
        self.names = tuple(names)
        self.events = tuple(events)
        self.components = tuple(components)
        if len(self.components) != len(self.names):
            raise MechanicsError("one component per state variable required")
        self._fn = se.compile_field(self.components, self.names)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.array(self._fn(*np.asarray(y, dtype=float)))


class Trajectory:
    """Uniformly sampled solution curve; ``event_names`` name the event's states."""

    __slots__ = ("names", "times", "states", "event_names")

    def __init__(self, names: tuple[str, ...], times: np.ndarray, states: np.ndarray,
                 event_names: tuple[str, ...] = ()):
        fill_slots(self, names, times, states, event_names)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def events(self) -> np.ndarray | None:
        """The state columns named by ``event_names``, None if it is empty."""
        return self.states[:, [self.names.index(e) for e in self.event_names]] \
            if self.event_names else None

    def to_csv(self) -> bytes:
        """The CSV text as bytes: the header ``step,time,names...,event_names...``
        as :class:`csv.writer` writes it, then one row per sample: the step
        index, then the time, the states and the events, each value as
        ``"%.17g" % value`` (it round-trips), lines ended by CRLF.

        The texts are computed a block of rows at a time by
        :func:`_printf_texts`: by exact numpy arithmetic where
        1e-6 <= |value| < 1e17, by ``"%.17g"`` one value at a time for
        zeros, non-finite values and all other magnitudes.  An event column
        is a state column: its texts are those of the state it names,
        formatted once.
        """
        import csv
        distinct = (self.times, *self.states.T)
        # the formatted column each written column shows: time, states, events
        where = [*range(len(distinct)), *(1 + self.names.index(e) for e in self.event_names)]
        n_rows = len(self.times)
        step_w = len(str(max(n_rows - 1, 0)))
        shown = 10 ** np.arange(step_w - 1, 0, -1)[:, None]  # leading step digits
        per = max(1, _BLOCK // len(distinct))
        header = io.StringIO()
        csv.writer(header).writerow(["step", "time", *self.names, *self.event_names])
        out = io.BytesIO()  # getvalue() hands over its buffer without a copy
        out.write(header.getvalue().encode())
        for start in range(0, n_rows, per):
            stop = min(start + per, n_rows)
            texts = _printf_texts(
                np.concatenate([c[start:stop] for c in distinct], dtype=float))
            width = len(texts)
            texts = texts.reshape(width, len(distinct), stop - start)
            # one column per row of the block, one byte of its text per row
            # of the table: the step, then "," and a value's text per column
            table = np.empty((step_w + len(where) * (width + 1) + 2, stop - start),
                             np.uint8)
            step = np.arange(start, stop, dtype=np.uint32)
            _digits(step, table[:step_w])
            table[:step_w] += _ZERO
            table[:step_w - 1] *= step >= shown
            cells = table[step_w:-2].reshape(len(where), width + 1, -1)
            cells[:, 0] = ord(",")
            for c, u in enumerate(where):
                cells[c, 1:] = texts[:, u]
            table[-2:] = np.array([[13], [10]], np.uint8)  # CRLF
            out.write(table.T.tobytes().translate(None, b"\0"))
        return out.getvalue()


# ---------------------------------------------------------------------------
# "%.17g" texts of a block of values at once

_E_MIN = -6  # the lowest decimal exponent the kernel formats: 10^(16 - E) is exact
_BLOCK = 4096  # values formatted at once by Trajectory.to_csv


def _halves(a):
    """Veltkamp's split ``a == hi + lo``, each half of 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** k) for k in range(17 - _E_MIN)])
_POW10_HI, _POW10_LO = _halves(_POW10)
_K = np.arange(17, dtype=np.int8)[:, None]
_ZERO, _DOT, _MINUS = np.uint8(ord("0")), np.uint8(ord(".")), np.uint8(ord("-"))
_EXP = np.frombuffer(b"e-0", np.uint8)[:, None]


def _scaled(ax, e):
    """``ax * 10^(16 - e)`` as ``hi + lo`` exactly: Dekker's product, whose
    error terms numpy evaluates without fused multiply-adds."""
    k = 16 - e
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
    hi = ax * _POW10.take(k)
    a_hi, a_lo = _halves(ax)
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits(v, out):
    """The decimal digits of the uint32 array ``v`` along the next-to-last
    axis of ``out``, the units last."""
    for j in range(out.shape[-2] - 1, -1, -1):
        q = v // np.uint32(10)
        out[..., j, :] = v - q * np.uint32(10)
        v = q


def _printf_texts(values: np.ndarray) -> np.ndarray:
    """The ``"%.17g"`` text of each of ``values`` (1-D float64), as the
    columns of a ``(width, n)`` uint8 array padded with NUL bytes.

    For 1e-6 <= |x| < 1e17 the digits come from exact arithmetic on the
    whole array.  ``E = floor(log10 |x|)`` is estimated, then corrected so
    that ``10^16 <= |x| 10^(16 - E) < 10^17`` holds exactly; that product is
    an exact ``hi + lo`` (see :func:`_scaled`).  There ``hi`` is an even
    integer, so ``hi`` plus ``lo`` rounded half to even is the product
    rounded half to even: the 17 significant digits printf prints.  The
    text is then laid out as printf does: fixed notation for
    ``-4 <= E <= 16``, else ``d.ddde-0E``, trailing zeros and a bare point
    dropped.  Zeros, non-finite values and all other magnitudes are
    formatted by ``"%.17g"`` one by one.
    """
    n = len(values)
    ax = np.abs(values)
    ok = (ax >= 10.0 ** _E_MIN) & (ax < 1e17)
    ax[~ok] = 1.0
    e = np.clip(np.floor(np.log10(ax)).astype(np.intp), _E_MIN, 16)
    hi, lo = _scaled(ax, e)
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    moved = np.flatnonzero(up | down)
    if len(moved):  # the estimate is one off next to a power of ten
        e[moved] += np.where(up[moved], 1, -1)
        hi[moved], lo[moved] = _scaled(ax[moved], np.clip(e[moved], _E_MIN, 16))
    # d < 10^17: no product in range rounds up to it (the largest, for the
    # double just below 0.1, is 99999999999999991.67)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    del ax, hi, lo, up, down  # bounds the block's peak memory
    ok &= (_E_MIN <= e) & (e <= 16)  # the double 1e-6 has E = -7
    e[~ok] = 0
    halves = np.empty((2, n), np.uint32)
    halves[0], halves[1] = np.divmod(d, 10 ** 9)
    del d
    digits = np.empty((18, n), np.uint8)
    _digits(halves, digits.reshape(2, 9, n))
    digits = digits[1:]  # the upper half has 8 digits
    last = np.max(_K * (digits != 0), axis=0)  # the last nonzero digit
    fixed = e >= -4
    point = np.where(fixed, e, 0).astype(np.int8)  # digits up to here precede it
    expo = ~fixed
    int_w = 1 + max(int(point.max()), 0)
    exp_w = 4 if expo.any() else 0
    fallback = np.flatnonzero(~ok)
    fallback_texts = [b"%.17g" % values[i] for i in fallback]
    digits += _ZERO
    # rows: sign, integer digits, point, the zeros of 0.000ddd, fraction
    # digits, exponent
    p = 1 + int_w
    texts = np.zeros((max([p + 21 + exp_w, *map(len, fallback_texts)]), n), np.uint8)
    texts[0] = (values < 0) * _MINUS
    np.multiply(digits[:int_w], _K[:int_w] <= point, out=texts[1:p])
    texts[1] += ((e < 0) & fixed) * _ZERO
    texts[p] = (last > point) * _DOT
    texts[p + 1:p + 4] = ((_K[:3] < -1 - e) & fixed) * _ZERO
    np.multiply(digits, (_K > point) & (_K <= last), out=texts[p + 4:p + 21])
    if exp_w:
        texts[p + 21:p + 24] = expo * _EXP
        texts[p + 24] = expo * (ord("0") - e)
    if fallback_texts:
        padded = b"".join(text.ljust(len(texts), b"\0") for text in fallback_texts)
        texts[:, fallback] = np.frombuffer(padded, np.uint8).reshape(-1, len(texts)).T
    return texts


_RK4_KERNELS = {}


def _rk4_kernel(n: int):
    """The RK4 loop for states of ``n`` components, generated on first use.

    ``kernel(f, h, steps, append, *y)`` takes up to ``steps`` steps of
    ``f(*y) -> tuple`` from ``y`` and appends each new state as a tuple.
    It returns False, without appending, at the first state that is not
    finite (where ``0.0*y0 + 0.0*y1 + ...`` is nan, not a signed zero),
    and True after the last step.  The stages and the update are
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

        y, finite = each("y{i}"), each("0.0*y{i}", " + ") or "0.0"
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
        if not {finite} == 0.0:
            return False
        append({tup("y{i}")})
    return True
"""
        namespace = {}
        exec(source, namespace)  # noqa: S102 - generated from fixed text
        kernel = _RK4_KERNELS[n] = namespace["rk4"]
    return kernel


def integrate(fld: VectorField, y0, h: float, T: float) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta, recording every step.

    Both mechanics engines come through here with a :class:`VectorField`.
    The duration must be a whole number of steps (to a relative 1e-9),
    and at most :data:`MAX_STEPS` of them.
    The steps run on Python floats through the field's compiled function
    and the generated loop of :func:`_rk4_kernel`.  Where Python floats
    raise on a zero divisor or a power overflow, that one step is taken
    again on ``np.float64`` values, which give inf or nan as numpy does,
    so the states are those of the same RK4 loop on numpy arrays.
    Deterministic by construction; raises :class:`IntegrationError` with
    the offending step index if the state stops being finite or the
    field hits a domain error (``exp`` overflow, ``sqrt`` of a negative).
    The field's ``events`` become the trajectory's ``event_names``; its
    ``events`` are read from the states, not copied.
    """
    if not h > 0:
        raise MechanicsError("step size must be positive")
    if not h <= T < math.inf:
        raise MechanicsError("duration must be finite and cover one step")
    steps = T / h
    if not steps <= MAX_STEPS:
        raise MechanicsError(f"duration {T!r} is {steps:.3g} steps of {h!r}, "
                             f"more than the bound of {MAX_STEPS} steps")
    n_steps = round(steps)
    if abs(steps - n_steps) > 1e-9 * n_steps:
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
    states = np.fromiter(itertools.chain.from_iterable(rows), float,
                         len(rows) * len(y)).reshape(n_steps + 1, len(y))
    return Trajectory(fld.names, h * np.arange(n_steps + 1), states, fld.events)


# ---------------------------------------------------------------------------
# Time-dependent systems


def timedep_dynamics(dim: int, hamiltonian: Expression,
                     rng: np.random.Generator | None = None) -> VectorField:
    """Dynamics on ``(q, p, t)`` of a Hamiltonian in the positions
    ``q1..qn``, the momenta ``p1..pn`` and the time ``t``.

    The Hamiltonian defines the section ``-H`` of the energy quotient,
    whose attached function upstairs is ``e + H``.  The dynamics is
    computed twice: through the bracket of the attached function on the
    full cotangent space pushed down along the quotient, and in closed
    form (Hamilton's equations plus the unit time component).  The closed
    form is returned.  The two routes are compared on 40 random states:
    the result carries the states as ``cross_check_states`` (one array per
    state name) and the largest deviation at each as
    ``cross_check_residuals``, for the caller to check.  The bracket route
    stays available for inspection, the Hamiltonian rides along as
    ``energy``, and the events are ``(q, t)``.
    """
    if dim < 1:
        raise MechanicsError("dimension must be positive")
    space = TimePhaseSpace(tuple(f"q{i + 1}" for i in range(dim)),
                           tuple(f"p{i + 1}" for i in range(dim)))
    extraneous = se.free_vars(hamiltonian) - set(space.base_names)
    if extraneous:
        raise MechanicsError(f"Hamiltonian uses unknown variables {sorted(extraneous)}")
    rng = rng or np.random.default_rng(0)
    names, n_check = space.q + space.p + (space.time,), 40
    closed = [se.differentiate(hamiltonian, p) for p in space.p]
    closed += [se.neg(se.differentiate(hamiltonian, q)) for q in space.q]
    closed += [se.ONE]

    F = space.section_function(se.neg(hamiltonian))
    reduced = []
    for name in names:
        out = canonical_poisson(F, se.Var(name), space.pairs)
        reduced.append(se.subst(out, {space.energy: 0.0}))

    point = sample_points(names, rng, n_check, -2.0, 2.0)
    fld = VectorField(names, closed, events=space.q + (space.time,))
    fld.reduction_components = tuple(reduced)
    fld.cross_check_states = point
    values = se.evaluate([*closed, *reduced], point)
    fld.cross_check_residuals = per_point_max(
        [a - b for a, b in zip(values[:len(closed)], values[len(closed):])], n_check)
    fld.energy = hamiltonian
    return fld


# ---------------------------------------------------------------------------
# Newtonian space-time


class NewtonSpaceTime:
    """Affine space-time with a clock covector and a spatial metric.

    Events live in an affine space of dimension ``d + 1``; the covector
    ``tau`` measures time intervals between events, the symmetric
    positive-definite metric ``g`` measures distances on the spatial
    subspace (the kernel of ``tau``), and velocities of observers and
    particles sit on the level-1 set of ``tau``, the :class:`affine.LevelSet`
    ``clock``.  Its kernel basis is the spatial basis of every clock, and
    ``g`` is the metric in that basis: for the canonical clock ``e_d``, the
    metric of the first ``d`` coordinates.
    """

    def __init__(self, d: int = 3, tau=None, g=None):
        if d < 1:
            raise MechanicsError("space dimension must be positive")
        self.d = d
        tau = np.eye(d + 1)[d] if tau is None else tau
        if np.shape(tau) != (d + 1,):
            raise MechanicsError("clock covector must be finite, of length d + 1")
        self.clock = LevelSet(tau, "clock covector", MechanicsError)
        self.tau = self.clock.a
        self.g = np.array(g if g is not None else np.eye(d), dtype=float)
        if self.g.shape != (d, d) or not np.isfinite(self.g).all() \
                or np.max(np.abs(self.g - self.g.T)) > 1e-12:
            raise MechanicsError("metric must be a finite symmetric d x d matrix")
        try:
            np.linalg.cholesky(self.g)
        except np.linalg.LinAlgError:
            raise MechanicsError("metric must be positive definite") from None
        self.g_inv = np.linalg.inv(self.g)

    def frame(self, u) -> "InertialFrame":
        return InertialFrame(self, np.asarray(u, float))

    def rest_frame(self) -> "InertialFrame":
        """The frame defined by the clock covector itself: ``tau / (tau . tau)``."""
        s = math.ldexp(1.0, math.frexp(max(map(abs, self.tau.tolist())))[1] - 1)
        t = self.tau / s  # exactly, max |t_k| in [1, 2): t . t neither under- nor overflows
        u = t / float(t @ t) / s
        return InertialFrame(self, u)


class InertialFrame(Immutable):
    __slots__ = ("spacetime", "u")

    def __init__(self, spacetime: NewtonSpaceTime, u: np.ndarray):
        fill_slots(self, spacetime, np.asarray(u, float))
        if self.u.shape != spacetime.tau.shape:
            raise MechanicsError("frame velocity has wrong length")
        if not spacetime.clock.contains(self.u):
            raise MechanicsError("frame velocity must have unit clock rate")

    def boosted(self, v_components) -> "InertialFrame":
        """The frame moving at spatial components ``v_components`` relative to this
        one: ``u + B v``, ``B`` the spatial basis, with its pivot entry solved by the clock."""
        clock = self.spacetime.clock
        return InertialFrame(self.spacetime, clock.solve(
            self.u + clock.basis @ np.asarray(v_components, float)))


class ObservedPhase(Immutable):
    """Event, spatial momentum, action coordinate, and the frame tag."""

    __slots__ = ("x", "p", "s", "frame")

    def __init__(self, x: np.ndarray, p: np.ndarray, s: float, frame: InertialFrame):
        fill_slots(self, np.asarray(x, float), np.asarray(p, float), float(s), frame)
        d = frame.spacetime.d
        if self.x.shape != (d + 1,) or self.p.shape != (d,):
            raise MechanicsError("event or momentum has wrong length")


def gauge_transform(phase: ObservedPhase, v, m: float) -> ObservedPhase:
    """Re-express an observed phase in the frame boosted by the spatial components ``v``.

    The event is untouched; momentum and the action coordinate follow
    the kinematic convention stated in the module docstring, under
    which boosting by ``v`` and back by ``-v`` restores the phase and
    boosts compose additively.
    """
    if not 0 < m < math.inf:
        raise MechanicsError("mass must be positive and finite")
    st = phase.frame.spacetime
    c = np.asarray(v, float)
    if c.shape != (st.d,):
        raise MechanicsError("boost velocity has wrong length")
    gv = st.g @ c
    p_new = phase.p - m * gv
    s_new = phase.s - float(phase.p @ c) + 0.5 * m * float(gv @ c)
    return ObservedPhase(phase.x, p_new, s_new, phase.frame.boosted(c))


class ObserverSplit(Immutable):
    """Origin event plus a frame, splitting space-time into space x time."""

    __slots__ = ("spacetime", "x0", "frame")

    def __init__(self, spacetime: NewtonSpaceTime, x0: np.ndarray, frame: InertialFrame):
        fill_slots(self, spacetime, np.asarray(x0, float), frame)

    @classmethod
    def default(cls, st: NewtonSpaceTime) -> "ObserverSplit":
        return cls(st, np.zeros(st.d + 1), st.rest_frame())

    def coordinates(self, x) -> tuple[np.ndarray, float]:
        """Observer coordinates (q, t) of an event."""
        rel = np.asarray(x, float) - self.x0
        t = self.spacetime.clock.value(rel)
        return np.delete(rel - t * self.frame.u, self.spacetime.clock.pivot), t


def _affine(coeffs, names, offset: float = 0.0) -> Expression:
    """``sum_j coeffs[j] * names[j] + offset`` without its zero terms."""
    out: Expression = se.ZERO
    for c, name in zip(coeffs, names):
        if c != 0.0:
            out = se.add(out, se.mul(se.Const(float(c)), se.Var(name)))
    return se.add(out, se.Const(float(offset)))


def newton_dynamics(st: NewtonSpaceTime, frames, m: float, phi: Expression,
                    split: ObserverSplit | None = None) -> list[VectorField]:
    """Observed dynamics in event form on the state (event, momentum), one
    field for each of ``frames``.

    The event velocity is ``g^{-1}(p)/m + u`` (so its clock rate is one
    identically) and the force is minus the spatial gradient of the
    potential, read through a fixed observer split that belongs to the
    system, not to the integration frame.  The split's coordinates
    ``(q, t)`` are affine in the event coordinates, so both parts are
    expressions in the state and the field compiles like any other.
    The observed energy ``p.g^{-1}p/2m + phi(q, t)`` rides along as
    ``energy``, and the events are the ``x`` components.  Only the frame
    velocity ``u`` differs from frame to frame, so the velocity rows
    ``g^{-1}(p)/m``, the force and the energy are built once and shared
    by every field returned.
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

    rows = [se.div(_affine(row, p_names), se.Const(float(m)))
            for row in st.clock.basis @ st.g_inv]
    # q = the free entries of x - x0 - t u, with t = tau.(x - x0)
    to_q = np.delete(np.eye(d + 1) - np.outer(split.frame.u, st.tau), st.clock.pivot, axis=0)
    coords = {q: _affine(row, x_names, -(row @ split.x0))
              for q, row in zip(q_names, to_q)}
    coords["t"] = _affine(st.tau, x_names, -(st.tau @ split.x0))
    pdot = [se.neg(se.subst(se.differentiate(phi, q), coords)) for q in q_names]
    kinetic: Expression = se.ZERO
    for col, p in zip(st.g_inv.T, p_names):  # (p g^{-1}) . p
        kinetic = se.add(kinetic, se.mul(_affine(col, p_names), se.Var(p)))
    energy = se.add(se.div(kinetic, se.Const(2.0 * m)), se.subst(phi, coords))

    fields = []
    for frame in frames:
        xdot = [se.add(row, se.Const(float(u))) for row, u in zip(rows, frame.u)]
        fld = VectorField(x_names + p_names, xdot + pdot, events=x_names)
        fld.energy = energy
        fld.spacetime = st
        fields.append(fld)
    return fields


def observed_hamiltonian(fld: VectorField):
    """The field's ``energy`` as a state callable: the observed energy of
    a Newtonian field, the Hamiltonian of a time-dependent one."""
    fn = se.compile_fn([fld.energy], fld.names)
    return lambda state: fn(state)[0]


def _columns(fld: VectorField, traj: Trajectory) -> dict[str, np.ndarray]:
    return dict(zip(fld.names, traj.states.T))


def energy_drift(fld: VectorField, traj: Trajectory) -> np.ndarray:
    """The change of the field's energy from the first state, one per state
    of a trajectory, from one evaluation of ``energy`` over all the states."""
    values = np.broadcast_to(se.evaluate(fld.energy, _columns(fld, traj)),
                             traj.times.shape)
    return np.abs(values - values[0])


def tau_clock_residual(fld: VectorField, traj: Trajectory) -> np.ndarray:
    """The deviation of the clock rate of the event velocity from one, one
    per state of a trajectory."""
    st = fld.spacetime
    velocity = np.empty((len(traj), st.d + 1))
    for i, value in enumerate(se.evaluate(fld.components[:st.d + 1], _columns(fld, traj))):
        velocity[:, i] = value
    return np.abs(st.clock.value(velocity) - 1.0)


def compare_frames(
        st: NewtonSpaceTime, m: float, phi: Expression, initial: ObservedPhase, boosts,
        h: float, T: float) -> tuple[VectorField, list[ObservedPhase], list[Trajectory]]:
    """Integrate the same initial phase in a frame and in each of its boosts.

    The initial data for each boost comes from one gauge transformation.
    One :func:`newton_dynamics` call builds the field of the frame and of
    every boost, which share the default observer split and all but the
    frame velocity; fields whose velocities have their zero components in
    the same places compile to one shape.  Returns the frame's own field,
    the initial phases and the world-lines started from them: the frame's
    own first, then one per boost.  Frame independence holds of their
    events in space-time coordinates, not of frame components; the caller
    compares them and decides.  The world-lines together take at most
    :data:`MAX_STEPS` steps, refused before any is integrated.
    """
    lines = 1 + len(boosts)
    if h > 0 and T < math.inf and lines * (T / h) > MAX_STEPS:
        raise MechanicsError(f"{lines} world-lines of {T / h:.3g} steps are "
                             f"more than the bound of {MAX_STEPS} steps in all")
    phases = [initial, *(gauge_transform(initial, v, m) for v in boosts)]
    fields = newton_dynamics(st, [phase.frame for phase in phases], m, phi)
    return fields[0], phases, [integrate(fld, np.concatenate([phase.x, phase.p]), h, T)
                               for fld, phase in zip(fields, phases)]

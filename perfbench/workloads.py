"""Seeded scenario generators for the three benchmark workloads.

Each generator turns a seed into a list of :class:`Case` objects: the
INI text the program runs, the verdict it must reach, and an
independent oracle for any trajectory CSV it writes.  The program only
ever sees the INI files.

The shape of every workload (scenario kinds, dimensions, step counts)
is fixed; the seed draws coefficients, initial data, boosts and the
per-scenario ``seed`` the program uses for its own sampling.  That
keeps the cost of a pass nearly the same across seeds, so run-to-run
spread reflects the program and the host, not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

# Why each workload exists; printed with every run.
WHY = {
    "frames": "Newton RK4 hot path: compare-frames world-lines under three "
              "boosts plus one newton CSV; symexpr and brackets stay idle",
    "verify": "every verification kind with no RK4 step: symexpr tree-walk "
              "evaluation, brackets, phase and CLI glue",
    "timedep_csv": "compiled VectorField RK4 path plus the trajectory CSV "
                   "writer, 1000-step trajectories with 1-3 degrees of freedom",
}

FRAMES_STEP = 1e-3
# Short scenarios: the fastest of many short runs is a steadier figure on
# a noisy host than the fastest of a few long ones (see run.end_to_end).
FRAMES_DURATION = 0.1     # 100 steps per world-line, 7 integrations per scenario
NEWTON_DURATION = 0.25    # 250 steps, CSV with 251 rows
TIMEDEP_STEP = 1e-3
TIMEDEP_DURATION = 1.0    # 1000 steps, CSV with 1001 rows


@dataclass
class Case:
    name: str
    kind: str
    ini: str
    expect_exit: int
    expect_checks: list[tuple[str, bool]]
    nominal_steps: int = 0
    # (outdir, report) -> list of problems; None when the report says it all
    oracle: Callable | None = None
    outputs: tuple[str, ...] = ()


def _num(x: float) -> str:
    return repr(float(x))


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in items.items()]
        lines.append("")
    return "\n".join(lines)


def _header(kind: str, name: str, rng: random.Random) -> dict[str, object]:
    return {"kind": kind, "name": name, "seed": rng.randrange(1 << 30)}


def _vec(values) -> str:
    return ", ".join(_num(v) for v in values)


def _round(x: float) -> float:
    return round(x, 6)


# ---------------------------------------------------------------------------
# frames


def _boost(rng: random.Random) -> list[float]:
    """A random velocity with 0 < |v| <= 0.3."""
    while True:
        v = [_round(rng.uniform(-0.3, 0.3)) for _ in range(3)]
        if 0.0 < math.sqrt(sum(x * x for x in v)) <= 0.3:
            return v


def _potential(kind: str, rng: random.Random):
    """Potential text plus its closed-form description for the oracle."""
    if kind == "free":
        return "0", ("free", None)
    if kind == "gravity":
        a = [_round(rng.uniform(-2, 2)) for _ in range(3)]
        text = " + ".join(f"{_num(c)}*q{i + 1}" for i, c in enumerate(a))
        return text, ("gravity", a)
    if kind == "harmonic":
        k = _round(rng.uniform(0.5, 4.0))
        return f"{_num(k)}*(q1^2 + q2^2 + q3^2)/2", ("harmonic", [k] * 3)
    if kind == "anisotropic":
        k = [_round(rng.uniform(0.5, 4.0)) for _ in range(3)]
        text = "(" + " + ".join(f"{_num(c)}*q{i + 1}^2" for i, c in enumerate(k)) + ")/2"
        return text, ("harmonic", k)
    raise ValueError(kind)


def frames(seed: int) -> list[Case]:
    rng = random.Random(f"frames/{seed}")
    cases = []
    steps = round(FRAMES_DURATION / FRAMES_STEP)
    frame_checks = [(f"frame_independence_boost{i}", True) for i in (1, 2, 3)]
    frame_checks += [("gauge_round_trip", True), ("tau_clock", True),
                     ("energy_drift", True)]
    for idx, pot in enumerate(("free", "gravity", "harmonic", "anisotropic")):
        name = f"frames_{idx:02d}_{pot}"
        text, _ = _potential(pot, rng)
        event = [_round(rng.uniform(-1, 1)) for _ in range(4)]
        momentum = [_round(rng.uniform(-0.5, 0.5)) for _ in range(3)]
        boosts = [_boost(rng) for _ in range(3)]
        ini = _ini({
            "scenario": _header("compare-frames", name, rng),
            "spacetime": {"dim": 3},
            "system": {"mass": _num(_round(rng.uniform(0.5, 2.0))),
                       "potential": f'"{text}"'},
            "initial": {"event": _vec(event), "momentum": _vec(momentum),
                        "s": _num(_round(rng.uniform(-1, 1)))},
            "frames": {"boosts": "; ".join(" ".join(_num(x) for x in b)
                                           for b in boosts)},
            "integration": {"step": _num(FRAMES_STEP),
                            "duration": _num(FRAMES_DURATION)},
        })
        cases.append(Case(
            name, "compare-frames", ini, 0, frame_checks,
            nominal_steps=steps * 2 * len(boosts),
            oracle=oracle.comparisons_oracle(name, len(boosts)),
            outputs=(f"{name}_report.json", f"{name}_comparisons.json")))

    # Energy is conserved only when the potential is at rest in the
    # integration frame, so the free particle drifts and the oscillator
    # stays in the rest frame.
    pot = "anisotropic" if seed % 2 == 0 else "free"
    name = f"frames_{len(cases):02d}_newton_{pot}"
    text, closed = _potential(pot, rng)
    mass = _round(rng.uniform(0.5, 2.0))
    v = _boost(rng) if pot == "free" else [0.0, 0.0, 0.0]
    event = [_round(rng.uniform(-1, 1)) for _ in range(4)]
    momentum = [_round(rng.uniform(-0.5, 0.5)) for _ in range(3)]
    csv_name = f"{name}.csv"
    ini = _ini({
        "scenario": _header("newton", name, rng),
        "spacetime": {"dim": 3},
        "system": {"mass": _num(mass), "potential": f'"{text}"',
                   "frame": _vec([*v, 1.0])},
        "initial": {"event": _vec(event), "momentum": _vec(momentum)},
        "integration": {"step": _num(FRAMES_STEP),
                        "duration": _num(NEWTON_DURATION)},
        "output": {"trajectory": csv_name},
    })
    cases.append(Case(
        name, "newton", ini, 0, [("tau_clock", True), ("energy_drift", True)],
        nominal_steps=round(NEWTON_DURATION / FRAMES_STEP),
        oracle=oracle.newton_oracle(csv_name, closed, mass, v, event, momentum,
                                    FRAMES_STEP, round(NEWTON_DURATION / FRAMES_STEP)),
        outputs=(f"{name}_report.json", csv_name)))
    return cases


# ---------------------------------------------------------------------------
# verify


def _rotation_rows(n: int, rng: random.Random) -> list[list[float]]:
    """Orthonormal rows by Gram-Schmidt, so every chart is well conditioned."""
    rows: list[list[float]] = []
    while len(rows) < n:
        v = [rng.gauss(0, 1) for _ in range(n)]
        for r in rows:
            dot = sum(a * b for a, b in zip(v, r))
            v = [a - dot * b for a, b in zip(v, r)]
        norm = math.sqrt(sum(a * a for a in v))
        if norm > 0.3:
            rows.append([a / norm for a in v])
    return rows


def verify(seed: int) -> list[Case]:
    rng = random.Random(f"verify/{seed}")
    cases: list[Case] = []

    def add(label, kind, sections, expect_exit, checks):
        name = f"verify_{len(cases):02d}_{label}"
        sections = {"scenario": _header(kind, name, rng), **sections}
        cases.append(Case(name, kind, _ini(sections), expect_exit, checks,
                          outputs=(f"{name}_report.json",)))
        return cases[-1]

    for dim in (2, 3, 4):
        charts = {}
        for c in range(3):
            rows = _rotation_rows(dim, rng)
            scale = [rng.uniform(0.5, 2.0) for _ in range(dim)]
            mat = "; ".join(" ".join(_num(x * s) for x in row)
                            for row, s in zip(rows, scale))
            offset = " ".join(_num(_round(rng.uniform(-3, 3))) for _ in range(dim))
            charts[f"c{c + 1}"] = f"{mat} | {offset}"
        add(f"affine_dim{dim}", "affine-verify",
            {"space": {"dim": dim}, "charts": charts, "params": {"samples": 64}},
            0, [("cocycle_across_charts", True), ("biaffine_part_identities", True),
                ("map_chart_invariance", True)])

    add("duality", "duality-verify", {"params": {"dims": "1, 2, 3, 4", "points": 100}},
        0, [("dual_dimension", True), ("double_dual_round_trip", True),
            ("F_section_identities", True), ("pairing_vertical_invariance", True)])

    dim = 2 + seed % 3
    D = "; ".join(" ".join(_num(_round(rng.uniform(-2, 2))) for _ in range(dim))
                  for _ in range(dim))
    add(f"affgebra_abelian_dim{dim}", "affgebra-verify",
        {"structure": {"dim": dim, "D": D, "c": "zero"}},
        0, [("skew", True), ("jacobi", True)])
    add("affgebra_so3", "affgebra-verify",
        {"structure": {"dim": 3, "D": "zero", "c": "cross3"}},
        0, [("skew", True), ("jacobi", True)])
    bad = add("affgebra_cross_identity", "affgebra-verify",
              {"structure": {"dim": 3, "D": "identity", "c": "cross3"}},
              1, [("skew", True), ("jacobi", False)])
    bad.oracle = oracle.affgebra_witness_oracle(bad.name)

    for grid in (4, 5, 6, 7, 8):
        add(f"jet_grid{grid}", "affgebroid-verify", {
            "base": {"coords": "q, t", "low": -1, "high": 1,
                     "samples": f"grid:{grid}"},
            "structure": {"rank": 1, "beta1": '"0"', "anchor_ref": '"0", "1"',
                          "anchor1": '"1", "0"'},
            "checks": {"hull": "true"},
        }, 0, [("skew", True), ("jacobi", True), ("leibniz", True),
               ("anchor_morphism", True), ("hull_restriction", True),
               ("hull_jacobi", True), ("hull_unit_cocycle_closed", True)])
    for dim in (1, 2, 3):
        add(f"atiyah_dim{dim}", "affgebroid-verify",
            {"structure": {"atiyah": "true", "dims": str(dim)}},
            0, [(f"dual_bracket_matches_poisson_dim{dim}", True),
                (f"aff_poisson_criteria_agree_dim{dim}", True)])

    a, b, c, d = (_num(_round(rng.uniform(0.2, 3.0))) for _ in range(4))
    sections = f'"{a}*x^2 + {b}*x", "{c}*sin(x)", "x^2 - {d}*x + cos(x)"'
    add("omega", "reduction-check",
        {"checks": {"omega": "true"}, "forms": {"coords": "x", "sections": sections}},
        0, [("omega_trivialization_invariance", True), ("bold_d_squared_zero", True)])
    a, b, c, d = (_num(_round(rng.uniform(0.2, 3.0))) for _ in range(4))
    add("eq1", "reduction-check", {
        "checks": {"eq1": "true"},
        "sections": {"sigma1": f'"-({a}*p^2/2 + {b}*q*t)"',
                     "sigma2": f'"-({c}*q*p - {d}*t)"'},
    }, 0, [("eq1_descends_to_cotangent_bracket", True), ("eq1_fiber_constancy", True)])
    add("reduction_standard", "reduction-check",
        {"checks": {"reduction": "standard"}}, 0, [("reduction_identity", True)])
    add("reduction_flipped", "reduction-check",
        {"checks": {"reduction": "flipped"}}, 1, [("reduction_identity", False)])
    return cases


# ---------------------------------------------------------------------------
# timedep


def _linear_hamiltonian(K, quartic, drive) -> str:
    """``sum p^2/2 + q.K.q/2 [+ lam sum q^4/4] [- f q1 sin(t)]`` as text."""
    n = len(K)
    terms = [f"p{i + 1}^2/2" for i in range(n)]
    for i in range(n):
        terms.append(f"{_num(K[i][i])}*q{i + 1}^2/2")
        for j in range(i + 1, n):
            if K[i][j]:
                terms.append(f"{_num(K[i][j])}*q{i + 1}*q{j + 1}")
    if quartic:
        terms += [f"{_num(quartic)}*q{i + 1}^4/4" for i in range(n)]
    text = " + ".join(terms)
    if drive:
        text += f" - {_num(drive)}*q1*sin(t)"
    return text


def timedep(seed: int) -> list[Case]:
    rng = random.Random(f"timedep/{seed}")
    cases = []
    steps = round(TIMEDEP_DURATION / TIMEDEP_STEP)
    plan = [("harmonic", 1), ("harmonic", 3), ("anharmonic", 1), ("anharmonic", 2),
            ("coupled", 2), ("coupled", 3), ("driven", 1)]
    for idx, (label, n) in enumerate(plan):
        name = f"timedep_{idx:02d}_{label}_dof{n}"
        K = [[0.0] * n for _ in range(n)]
        for i in range(n):
            K[i][i] = _round(rng.uniform(0.25, 4.0))
        quartic = drive = None
        if label == "coupled":
            for i in range(n - 1):
                # |coupling| <= 0.1 keeps K positive definite (Gershgorin)
                K[i][i + 1] = K[i + 1][i] = _round(rng.uniform(-0.1, 0.1))
        elif label == "anharmonic":
            quartic = _round(rng.uniform(0.1, 1.0))
        elif label == "driven":
            K[0][0] = _round(rng.uniform(2.25, 6.25))  # keeps omega away from 1
            drive = _round(rng.uniform(0.2, 1.5))
        q0 = [_round(rng.uniform(-1, 1)) for _ in range(n)]
        p0 = [_round(rng.uniform(-1, 1)) for _ in range(n)]
        csv_name = f"{name}.csv"
        ini = _ini({
            "scenario": _header("timedep", name, rng),
            "system": {"dim": n,
                       "hamiltonian": f'"{_linear_hamiltonian(K, quartic, drive)}"'},
            "integration": {"step": _num(TIMEDEP_STEP),
                            "duration": _num(TIMEDEP_DURATION),
                            "initial": _vec([*q0, *p0, 0.0])},
            "output": {"trajectory": csv_name},
        })
        checks = [("dynamics_agreement", True), ("finite_trajectory", True)]
        if not drive:
            checks.append(("energy_drift", True))
        cases.append(Case(
            name, "timedep", ini, 0, checks, nominal_steps=steps,
            oracle=oracle.timedep_oracle(csv_name, K, q0, p0, TIMEDEP_STEP, steps,
                                         quartic=quartic, drive=drive),
            outputs=(f"{name}_report.json", csv_name)))
    return cases


GENERATORS = {"frames": frames, "verify": verify, "timedep_csv": timedep}


def write(cases: list[Case], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        path = directory / f"{case.name}.ini"
        path.write_text(case.ini)
        paths.append(path)
    return paths

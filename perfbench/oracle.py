"""Known answers and independent oracles for the generated scenarios.

Nothing here calls affgeo.  Verdicts are compared against the answer the
generator fixed in advance; trajectory CSVs are compared row by row
against closed-form solutions computed with numpy; the by-design
affgebra failure has its witness recomputed from the structure
constants.  Every function returns a list of problems, empty when the
output agrees.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

CSV_TOL = 1e-7          # RK4 at h = 1e-3 is ~1e-10 off these closed forms
ENERGY_TOL = 1e-6       # the program's own drift bound
CLOCK_TOL = 1e-9        # integrated time component vs step * h
DEVIATION_TOL = 1e-6    # frame-independence bound of compare_frames


def check_report(case, outdir: Path, exit_code: int) -> list[str]:
    """Exit code, verdict, per-check flags, residuals and witnesses."""
    problems = []
    if exit_code != case.expect_exit:
        problems.append(f"exit code {exit_code}, expected {case.expect_exit}")
    for name in case.outputs:
        if not (outdir / name).is_file():
            problems.append(f"missing output {name}")
    report_path = outdir / f"{case.name}_report.json"
    if not report_path.is_file():
        return problems
    try:
        report = json.loads(report_path.read_text())
    except ValueError as err:
        return problems + [f"unreadable report: {err}"]
    got = [(c.get("check_name"), c.get("pass")) for c in report.get("checks", [])]
    if got != case.expect_checks:
        problems.append(f"checks {got}, expected {case.expect_checks}")
    expect_pass = all(ok for _, ok in case.expect_checks)
    if report.get("pass") is not expect_pass:
        problems.append(f"verdict {report.get('pass')}, expected {expect_pass}")
    if report.get("scenario") != case.name or report.get("kind") != case.kind:
        problems.append("report names the wrong scenario or kind")
    for c in report.get("checks", []):
        residual = c.get("max_residual")
        if not isinstance(residual, (int, float)) or not math.isfinite(residual):
            problems.append(f"{c.get('check_name')}: non-finite residual {residual!r}")
        if c.get("pass") is False and not c.get("witness"):
            problems.append(f"{c.get('check_name')}: failed without a witness")
    if case.oracle is not None and not problems:
        problems += case.oracle(outdir, report)
    return problems


def _read_csv(path: Path, header: list[str]) -> tuple[np.ndarray, list[str]]:
    problems = []
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        problems.append(f"{path.name}: header {rows[:1]}, expected {header}")
        return np.zeros((0, len(header))), problems
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as err:
        return np.zeros((0, len(header))), problems + [f"{path.name}: {err}"]
    if data.ndim != 2 or data.shape[1] != len(header):
        return np.zeros((0, len(header))), problems + [f"{path.name}: ragged rows"]
    return data, problems


def _compare(path: Path, label: str, got: np.ndarray, want: np.ndarray,
             tol: float) -> list[str]:
    err = np.abs(got - want)
    bad = ~(err <= tol)  # also catches NaN
    if not bad.any():
        return []
    row = int(np.argwhere(bad)[0][0])
    return [f"{path.name}: {label} off by {float(np.nanmax(err)):.3e} "
            f"(first at row {row})"]


def _time_columns(path, data, h, n_steps, time_col) -> list[str]:
    if len(data) != n_steps + 1:
        return [f"{path.name}: {len(data)} rows, expected {n_steps + 1}"]
    steps = np.arange(len(data))
    problems = []
    if not np.array_equal(data[:, 0], steps):
        problems.append(f"{path.name}: step column is not 0..{len(data) - 1}")
    problems += _compare(path, "time column", data[:, 1], steps * h, 1e-12)
    problems += _compare(path, "integrated time", data[:, time_col],
                         data[:, 1] - data[0, 1] + data[0, time_col], CLOCK_TOL)
    return problems


# ---------------------------------------------------------------------------
# timedep: H = p.p/2 + q.K.q/2 [+ lam sum q^4/4] [- f q1 sin t]


def linear_solution(K, q0, p0, t):
    """Closed form of q'' = -K q through the eigenbasis of K."""
    w2, V = np.linalg.eigh(np.asarray(K, float))
    w = np.sqrt(w2)
    a = V.T @ np.asarray(q0, float)
    b = V.T @ np.asarray(p0, float)
    t = np.asarray(t, float)[:, None]
    q = (np.cos(w * t) * a + np.sin(w * t) / w * b) @ V.T
    p = (-w * np.sin(w * t) * a + np.cos(w * t) * b) @ V.T
    return q, p


def timedep_oracle(csv_name, K, q0, p0, h, n_steps, quartic, drive):
    n = len(q0)
    header = (["step", "time"] + [f"q{i + 1}" for i in range(n)]
              + [f"p{i + 1}" for i in range(n)] + ["t"]
              + [f"q{i + 1}" for i in range(n)] + ["t"])

    def check(outdir: Path, report) -> list[str]:
        path = outdir / csv_name
        data, problems = _read_csv(path, header)
        if problems:
            return problems
        q, p, t = data[:, 2:2 + n], data[:, 2 + n:2 + 2 * n], data[:, 2 + 2 * n]
        problems += _time_columns(path, data, h, n_steps, 2 + 2 * n)
        if problems:
            return problems
        events = data[:, 3 + 2 * n:]
        if not np.array_equal(events, np.column_stack([q, t])):
            problems.append(f"{path.name}: event columns differ from (q, t)")
        if quartic:
            Kq = q @ np.asarray(K, float)
            energy = (0.5 * np.sum(p * p, axis=1) + 0.5 * np.sum(q * Kq, axis=1)
                      + 0.25 * quartic * np.sum(q ** 4, axis=1))
            problems += _compare(path, "energy", energy,
                                 np.full_like(energy, energy[0]), ENERGY_TOL)
            return problems
        if drive:
            w = math.sqrt(K[0][0])
            c = drive / (w * w - 1.0)
            b = (p0[0] - c) / w
            t = data[:, 1]
            want_q = q0[0] * np.cos(w * t) + b * np.sin(w * t) + c * np.sin(t)
            want_p = -q0[0] * w * np.sin(w * t) + b * w * np.cos(w * t) + c * np.cos(t)
            want_q, want_p = want_q[:, None], want_p[:, None]
        else:
            want_q, want_p = linear_solution(K, q0, p0, data[:, 1])
        problems += _compare(path, "q", q, want_q, CSV_TOL)
        problems += _compare(path, "p", p, want_p, CSV_TOL)
        return problems

    return check


# ---------------------------------------------------------------------------
# newton: event form in a frame drifting with spatial velocity v, g = identity


def newton_solution(closed, m, v, event, momentum, tau):
    """World-line and momentum after elapsed time ``tau`` (a column)."""
    kind, coeff = closed
    q0 = np.asarray(event[:3], float)
    p0 = np.asarray(momentum, float)
    v = np.asarray(v, float)
    qdot0 = p0 / m + v
    if kind == "free":
        q, p = q0 + qdot0 * tau, p0 + 0.0 * tau
    elif kind == "gravity":
        a = np.asarray(coeff, float)
        q = q0 + qdot0 * tau - a / (2.0 * m) * tau ** 2
        p = p0 - a * tau
    else:  # harmonic, one spring constant per axis
        w = np.sqrt(np.asarray(coeff, float) / m)
        q = q0 * np.cos(w * tau) + qdot0 / w * np.sin(w * tau)
        p = m * (-q0 * w * np.sin(w * tau) + qdot0 * np.cos(w * tau) - v)
    return q, p


def newton_oracle(csv_name, closed, m, v, event, momentum, h, n_steps):
    xs = [f"x{i + 1}" for i in range(4)]
    header = ["step", "time"] + xs + ["p1", "p2", "p3"] + xs

    def check(outdir: Path, report) -> list[str]:
        path = outdir / csv_name
        data, problems = _read_csv(path, header)
        if problems:
            return problems
        problems += _time_columns(path, data, h, n_steps, 5)
        if problems:
            return problems
        tau = data[:, 1:2]
        want_q, want_p = newton_solution(closed, m, v, event, momentum, tau)
        problems += _compare(path, "x", data[:, 2:5], want_q, CSV_TOL)
        problems += _compare(path, "p", data[:, 6:9], want_p, CSV_TOL)
        if not np.array_equal(data[:, 9:], data[:, 2:6]):
            problems.append(f"{path.name}: event columns differ from the state")
        return problems

    return check


# ---------------------------------------------------------------------------
# compare-frames side file and the by-design affgebra failure


def comparisons_oracle(name, n_boosts):
    def check(outdir: Path, report) -> list[str]:
        path = outdir / f"{name}_comparisons.json"
        items = json.loads(path.read_text())
        if len(items) != n_boosts:
            return [f"{path.name}: {len(items)} comparisons, expected {n_boosts}"]
        problems = []
        for i, item in enumerate(items):
            dev = item.get("max_deviation")
            if not (isinstance(dev, float) and dev < DEVIATION_TOL) or item.get("pass") is not True:
                problems.append(f"{path.name}: boost {i + 1} deviation {dev!r}")
        return problems

    return check


def cross3_jacobi(triple: list[str]) -> float:
    """Jacobi residual of D = identity, c = cross product at basis points."""
    def point(label):
        return np.zeros(3) if label == "o" else np.eye(3)[int(label[3:]) - 1]

    def bracket(u, w):
        return (w - u) + np.cross(u, w)

    def second_linear(u, W):
        return W + np.cross(u, W)

    u1, u2, u3 = (point(x) for x in triple)
    total = (second_linear(u1, bracket(u2, u3)) + second_linear(u2, bracket(u3, u1))
             + second_linear(u3, bracket(u1, u2)))
    return float(np.max(np.abs(total)))


def affgebra_witness_oracle(name):
    labels = {"o", "o+e1", "o+e2", "o+e3"}

    def check(outdir: Path, report) -> list[str]:
        jacobi = [c for c in report["checks"] if c["check_name"] == "jacobi"][0]
        witness = jacobi["witness"]
        triple = witness.get("triple", [])
        if len(triple) != 3 or not set(triple) <= labels:
            return [f"{name}: malformed witness {witness!r}"]
        worst = max(cross3_jacobi([a, b, c]) for a in sorted(labels)
                    for b in sorted(labels) for c in sorted(labels))
        at_witness = cross3_jacobi(triple)
        if not (abs(at_witness - witness["residual"]) <= 1e-12
                and abs(jacobi["max_residual"] - worst) <= 1e-12):
            return [f"{name}: witness residual {witness['residual']!r} at {triple}, "
                    f"recomputed {at_witness!r}; worst {worst!r}"]
        return []

    return check

"""Check results and reports shared by the verifiers and the CLI.

The library returns residuals; one rule decides every thresholded check,
in :meth:`Report.check`: the residuals are reduced with
:func:`first_worst`, which ranks NaN above every value, and the check
passes iff that worst residual is below the tolerance.  So a non-finite
residual never passes, nor does an empty residual set.  Every check names
a witness builder, so a failing one says where its first worst residual
sits, in the caller's terms, and its value.  :meth:`Report.add` records
a verdict given from outside, for the two CLI rows that have one:
``finite_trajectory``, and ``aff_poisson_criteria_agree_dim<d>``, which
folds the two checks of :func:`brackets.is_aff_poisson` into one row.
"""

from __future__ import annotations

import math

import numpy as np

from ._immutable import fill_slots


class CheckResult:
    __slots__ = ("check", "passed", "residual", "witness")

    def __init__(self, check: str, passed: bool, residual: float, witness: dict | None = None):
        fill_slots(self, check, passed, residual, witness)

    def to_dict(self) -> dict:
        out = {"check_name": self.check, "pass": self.passed,
               "max_residual": self.residual}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Report:
    __slots__ = ("scenario", "checks")

    def __init__(self, scenario: str):
        fill_slots(self, scenario, [])

    def add(self, check: str, passed: bool, residual: float,
            witness: dict | None = None) -> CheckResult:
        """Record a check whose verdict the caller gives, as when it folds
        checks that :meth:`check` decided into one; a non-finite residual
        fails it.  A passing check carries no witness, and a failing one
        ``witness`` or else ``{"residual": residual}``."""
        residual = float(residual)
        passed = bool(passed) and math.isfinite(residual)
        result = CheckResult(check, passed, residual,
                             None if passed else witness or {"residual": residual})
        self.checks.append(result)
        return result

    def check(self, name: str, residuals, tol: float, witness) -> CheckResult:
        """Record the check "worst of ``residuals`` < ``tol``".

        On failure the witness is ``witness(index)`` of the first worst
        residual (an index tuple as :func:`first_worst` gives it), with
        ``"residual"`` added.  No residuals at all fail the check, with
        the witness ``{"samples": 0}``."""
        residuals = np.asarray(residuals, float)
        if residuals.size == 0:
            return self.add(name, False, 0.0, {"samples": 0})
        worst, at = first_worst(residuals)
        if worst < tol:
            return self.add(name, True, worst)
        return self.add(name, False, worst, {**witness(at), "residual": worst})

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.check == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"scenario": self.scenario,
                "checks": [c.to_dict() for c in self.checks],
                "pass": self.passed}


def per_point_max(values, count: int) -> np.ndarray:
    """Largest ``|value|`` at each of ``count`` sample points, NaN
    propagating; ``values`` are arrays of length ``count`` or floats."""
    out = np.zeros(count)
    for v in values:
        out = np.maximum(out, np.abs(v))
    return out


def first_worst(residuals) -> tuple[float, tuple[int, ...]]:
    """The largest residual (NaN above all) and the index of its first
    occurrence in C order: with one row per case, the first case, then
    the first point, that reaches it."""
    r = np.asarray(residuals, float)
    at = int(np.argmax(r))
    return float(r.flat[at]), tuple(int(i) for i in np.unravel_index(at, r.shape))

"""Each check can fail: a defect planted in the library fails the named check.

Every row plants one defect with ``monkeypatch`` (a sign flip, a
perturbation, an ignored argument or a lost name) and runs a bundled scenario
in-process through ``cli.main``.  The run must exit 1, with the named
check failing and carrying a witness that locates the failure.  Every
check of the bundled reports has a row, or a reason in ``NO_ROW``.
"""

import itertools
import json

import numpy as np
import pytest

from affgeo import affine, brackets, cli, duality, mechanics, phase
from affgeo import symexpr as se


def _raw_difference(original):
    # subtracts chart coordinates without converting them to one chart
    return lambda p, q: affine.TangentVec(p.space, p.space.reference, p.coords - q.coords)


def _d_term_sign_flipped(original):
    # D (w - u) becomes D (w + u); flipping the whole D term would keep the
    # bracket skew and satisfy the Jacobi identity, so it fails no check
    def bracket(self, u, w):
        u, w = np.asarray(u, float), np.asarray(w, float)
        return (affine._matvec(self.D, w + u)
                + np.einsum("ijk,...i,...j->...k", self.c, u, w))
    return bracket


def _sum_for_difference(covector):
    """The two-form with d_i a_j + d_j a_i in place of d_i a_j - d_j a_i:
    2 d_j a_i added to each i < j term of the original's form, where
    ``covector`` gives the components a and their coordinates from the
    original's arguments."""
    def defect(original):
        def planted(*args, **kwargs):
            form = original(*args, **kwargs)
            a, names = covector(*args, **kwargs)
            for i, j in itertools.combinations(range(len(names)), 2):
                twice = se.mul(se.Const(2.0), se.differentiate(a[i], names[j]))
                form.terms[i, j] = se.add(form.terms[i, j], twice)
            return form
        return planted
    return defect


def _translation_covector(patch, via=se.ZERO):
    # d psi for the fibre translation of omega_Z through the section via
    psi = se.sub(se.ZERO, via)
    return [se.differentiate(psi, name) for name in patch.names], patch.names


def _hull_bracket_shifted(weight, comps):
    """The hull bracket with ``weight`` added to its weight and ``comps`` to
    each of its components."""
    def defect(original):
        def bracket(self, X, Y):
            w, cs = original(self, X, Y)
            return se.add(w, se.Const(weight)), [se.add(c, se.Const(comps)) for c in cs]
        return bracket
    return defect


def _hull_weight_scaled(original):
    # the hull bracket's weight 1.001 times too large: still 0 where both
    # weights are constant, as in hull_restriction, but no longer Jacobi
    def bracket(self, X, Y):
        weight, comps = original(self, X, Y)
        return se.mul(se.Const(1.001), weight), comps
    return bracket


def _scaled(factor):
    # a method whose expressions all come out ``factor`` times too large
    def defect(original):
        return lambda *args: [se.mul(se.Const(factor), e) for e in original(*args)]
    return defect


def _one_name_dropped(original):
    # a count of two or more names that loses the last one: differentiate
    # and subst then skip a subtree that holds it
    def free_vars(e):
        names = original(e)
        return names - {max(names)} if len(names) > 1 else names
    return free_vars


def _energy_squared(original):
    # the attached function e^2 - sigma: its bracket varies along the energy
    return lambda self, sigma: se.sub(se.pow_(se.Var(self.energy), 2), sigma)


def _energy_weighted(original):
    # the canonical bracket times 1 + 1e-3 e
    weight = se.add(se.Const(1.0), se.mul(se.Const(1e-3), se.Var("e")))
    return lambda *args: se.mul(original(*args), weight)


def _action_shifted(original):
    # +1e-9 |v|^2 on the action: even in v, so it does not cancel on the way back
    def gauge_transform(phase_, v, m):
        out = original(phase_, v, m)
        s = out.s + 1e-9 * float(np.dot(v, v))
        return mechanics.ObservedPhase(out.x, out.p, s, out.frame)
    return gauge_transform


def _force_scaled(original):
    # the force times 1.01, the energy left that of the honest potential
    def newton_dynamics(st, frames, m, phi, split=None):
        honest = original(st, frames, m, phi, split)
        fields = original(st, frames, m, se.mul(se.Const(1.01), phi), split)
        for fld, same in zip(fields, honest):
            fld.energy = same.energy
        return fields
    return newton_dynamics


def _rule_scaled(rule, applies):
    # the derivative of each node that ``applies`` holds, times 1.01: differentiate
    # reaches every node through the module global, so each is planted
    def defect(original):
        def differentiate(e, v):
            d = original(e, v)
            return se.mul(se.Const(1.01), d) if applies(e) else d
        return differentiate
    defect.__name__ = rule
    return defect


def _momentum_shift_flipped(original):
    # p - m g v becomes p + m g v: the boosted world-line starts off the frame's
    def gauge_transform(phase_, v, m):
        out = original(phase_, v, m)
        return mechanics.ObservedPhase(out.x, 2.0 * phase_.p - out.p, out.s, out.frame)
    return gauge_transform


DEFECTS = [
    # check, bundled scenario, owner, attribute, the defect made from the original
    ("cocycle_across_charts", "affine_axioms", affine, "difference", _raw_difference),
    ("biaffine_part_identities", "affine_axioms", affine.BiAffineMap, "part_first",
     lambda original: lambda self, u, y: -original(self, u, y)),
    ("map_chart_invariance", "affine_axioms", affine.AffineSpaceSpec, "convert_point",
     lambda original: lambda self, p, chart: affine.AffinePoint(self, chart, p.coords)),
    ("double_dual_round_trip", "duality_suite", duality.DoubleDualMaps, "backward",
     lambda original: lambda self, coords: original(self, coords) + 1e-9),
    ("dual_dimension", "duality_suite", duality, "pair",
     lambda original: lambda h, d: float(d.w @ h.z)),  # c*lam dropped
    ("F_section_identities", "duality_suite", duality, "F_of_section",
     lambda original: lambda sigma: se.add(se.Var(duality.FIBER), sigma)),
    ("skew", "abelian_affgebra", brackets.LieAffgebraData, "bracket", _d_term_sign_flipped),
    # a mixed part D = 1e-3 I beside the cross product: skew, but not Jacobi
    ("jacobi", "so3_affgebra", brackets.LieAffgebraData, "bracket",
     lambda original: lambda self, u, w: original(self, u, w) + 1e-3 * (
         np.asarray(w, float) - np.asarray(u, float))),
    ("dual_bracket_matches_poisson_dim1", "atiyah_poisson", phase, "canonical_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("dual_bracket_matches_poisson_dim2", "atiyah_poisson", phase, "canonical_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("bold_d_squared_zero", "phase_forms", phase, "bold_d_oneform",
     _sum_for_difference(lambda alpha: (alpha.components, alpha.patch.names))),
    ("omega_trivialization_invariance", "phase_forms", phase, "omega_Z",
     _sum_for_difference(_translation_covector)),
    ("dynamics_agreement", "oscillator_timedep", phase, "canonical_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("eq1_descends_to_cotangent_bracket", "reduction_eq1", phase, "eq1_aff_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("eq1_fiber_constancy", "reduction_eq1", phase.TimePhaseSpace, "section_function",
     _energy_squared),
    ("eq1_fiber_constancy", "reduction_eq1", phase, "canonical_poisson", _energy_weighted),
    # the transposed outer product in newton_dynamics is no row: every bundled
    # Newton scenario uses the canonical clock, where it passes; the covariance
    # property in tests/test_mechanics.py catches it
    ("frame_independence_boost1", "frames_free", mechanics, "gauge_transform",
     _momentum_shift_flipped),
    ("frame_independence_boost2", "frames_free", mechanics, "gauge_transform",
     _momentum_shift_flipped),
    ("frame_independence_boost3", "frames_free", mechanics, "gauge_transform",
     _momentum_shift_flipped),
    # the hull bracket's weight off by 1e-3: the distinguished section is then
    # not central, while the dual bracket is still a derivation
    ("aff_poisson_criteria_agree_dim1", "atiyah_poisson", brackets.HullAlgebroidData,
     "bracket", _hull_bracket_shifted(1e-3, 0.0)),
    ("aff_poisson_criteria_agree_dim2", "atiyah_poisson", brackets.HullAlgebroidData,
     "bracket", _hull_bracket_shifted(1e-3, 0.0)),
    # a canary for the walkers that skip what does not hold their variable
    ("dual_bracket_matches_poisson_dim1", "atiyah_poisson", se, "free_vars",
     _one_name_dropped),
    ("anchor_morphism", "jet_bundle_hull", brackets.LieAffgebroidData, "anchor", _scaled(1.001)),
    ("leibniz", "jet_bundle_hull", brackets.LieAffgebroidData, "anchor", _scaled(1.001)),
    ("hull_restriction", "jet_bundle_hull", brackets.HullAlgebroidData, "bracket",
     _hull_bracket_shifted(0.0, 1e-6)),
    ("hull_jacobi", "jet_bundle_hull", brackets.HullAlgebroidData, "bracket",
     _hull_weight_scaled),
    # planted in the bracket, not in the check's own residual method, which
    # folds to the constant 0 on honest code before any sample
    ("hull_unit_cocycle_closed", "jet_bundle_hull", brackets.HullAlgebroidData, "bracket",
     _hull_weight_scaled),
    ("gauge_round_trip", "frames_free", mechanics, "gauge_transform", _action_shifted),
    ("energy_drift", "frames_harmonic", mechanics, "newton_dynamics", _force_scaled),
    # one derivative rule each, of those that only grammar_timedep's Hamiltonian runs:
    # the field is then not the Hamiltonian field of the energy it carries
    *(("energy_drift", "grammar_timedep", se, "differentiate",
       _rule_scaled(func, lambda e, func=func: type(e) is se.Call and e.func == func))
      for func in se.FUNCTIONS),
    ("energy_drift", "grammar_timedep", se, "differentiate",
     _rule_scaled("quotient", lambda e: type(e) is se.Div and type(e.right) is not se.Const)),
    ("tau_clock", "newton_free", mechanics, "_affine",
     lambda original: lambda *args: se.add(original(*args), se.Const(1e-3))),
    ("reduction_identity", "reduction_eq1", phase.AVMorphism, "pullback_function",
     lambda original: lambda *args: se.mul(se.Const(1.001), original(*args))),
    ("pairing_vertical_invariance", "duality_suite", duality.HullPoint, "embed_vector",
     lambda original: staticmethod(lambda v: duality.HullPoint(v.space, original(v).z, 1e-3))),
]


# the keys that locate the failure in the witness of a check, where a row asserts them
LOCATION = {
    "anchor_morphism": {"point"},
    "leibniz": {"point", "frame"},
    "hull_restriction": {"point"},
    "hull_unit_cocycle_closed": {"point"},
    "hull_jacobi": {"point"},
    "jacobi": {"triple"},
    "reduction_identity": {"pair", "point"},
    "gauge_round_trip": {"boost"},
    "energy_drift": {"step", "time"},
    "tau_clock": {"step", "time"},
    "pairing_vertical_invariance": {"dim", "sample"},
    "dual_dimension": {"dim"},
    "F_section_identities": {"section", "x"},
    "eq1_descends_to_cotangent_bracket": {"point"},
    "eq1_fiber_constancy": {"point"},
    "frame_independence_boost1": {"boost", "step", "time"},
    "frame_independence_boost2": {"boost", "step", "time"},
    "frame_independence_boost3": {"boost", "step", "time"},
    "biaffine_part_identities": {"slot", "sample"},
    "map_chart_invariance": {"chart", "point"},
    "double_dual_round_trip": {"dim", "point"},
    "dual_bracket_matches_poisson_dim1": {"case", "point"},
    "dual_bracket_matches_poisson_dim2": {"case", "point"},
    "bold_d_squared_zero": {"section", "point"},
    "omega_trivialization_invariance": {"section", "point"},
}

# the checks of the bundled reports that no row fails, each with the reason
NO_ROW = {
    "finite_trajectory": "blind by construction: integrate raises on a non-finite state "
                         "before the check sees one, and the run exits 3 with no report",
}


def _row_id(row):
    """The check's name; a later row of the same check adds the defect's target, and
    each of the rows of one check and target the defect's name."""
    first = next(r for r in DEFECTS if r[0] == row[0])
    if row is first:
        return row[0]
    twins = [r for r in DEFECTS if r[0] == row[0] and r[3] == row[3]]
    return f"{row[0]}-{row[3]}" + (f"-{row[4].__name__}" if len(twins) > 1 else "")


@pytest.mark.parametrize("check, scenario, owner, name, defect", DEFECTS,
                         ids=[_row_id(row) for row in DEFECTS])
def test_a_planted_defect_fails_its_check(check, scenario, owner, name, defect,
                                          monkeypatch, tmp_path, capsys):
    original = getattr(owner, name)
    planted = defect(original)
    monkeypatch.setattr(owner, name, planted)
    for module in (cli, mechanics):
        if getattr(module, name, None) is original:  # imported there by name
            monkeypatch.setattr(module, name, planted)
    assert cli.main(["run", scenario, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / f"{scenario}_report.json").read_text())
    [result] = [c for c in report["checks"] if c["check_name"] == check]
    assert result["pass"] is False
    # the witness says where, not only how much: an empty index does not
    location = {k: v for k, v in result["witness"].items() if k != "residual"}
    assert location and all(v not in ([], {}, None) for v in location.values())
    assert set(location) >= LOCATION.get(check, set())
    if check.startswith("eq1_"):
        assert set(result["witness"]["point"]) == {"q", "t", "p", "e"}
    assert result["witness"]["residual"] == result["max_residual"]


def test_every_check_of_the_bundled_reports_has_a_row(tmp_path, capsys):
    for path in cli.bundled_scenarios():
        cli.main(["run", path.stem, "--out", str(tmp_path)])
    names = {c["check_name"] for report in tmp_path.glob("*_report.json")
             for c in json.loads(report.read_text())["checks"]}
    rows = {row[0] for row in DEFECTS}
    assert names - rows == set(NO_ROW)
    assert rows <= names


@pytest.mark.parametrize("planted", [False, True], ids=["honest", "momentum_shift_flipped"])
@pytest.mark.parametrize("scenario", ["frames_free", "frames_gravity", "frames_harmonic"])
def test_each_frame_comparison_is_its_checks_verdict(scenario, planted, monkeypatch,
                                                     tmp_path, capsys):
    if planted:
        transform = _momentum_shift_flipped(mechanics.gauge_transform)
        for module in (cli, mechanics):
            monkeypatch.setattr(module, "gauge_transform", transform)
    assert cli.main(["run", scenario, "--out", str(tmp_path)]) == int(planted)
    checks = {c["check_name"]: c for c in json.loads(
        (tmp_path / f"{scenario}_report.json").read_text())["checks"]}
    comparisons = json.loads((tmp_path / f"{scenario}_comparisons.json").read_text())
    assert len(comparisons) == 3
    for i, entry in enumerate(comparisons, 1):
        check = checks[f"frame_independence_boost{i}"]
        assert entry["scenario"] == f"{scenario}/boost{i}"
        assert (entry["max_deviation"], entry["pass"]) == (check["max_residual"],
                                                           check["pass"])
        assert entry["pass"] is not planted

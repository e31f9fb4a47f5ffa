"""Each check can fail: a defect planted in the library fails the named check.

Every row plants one defect with ``monkeypatch`` (a sign flip, a
perturbation, an ignored argument or a lost name) and runs a bundled scenario
in-process through ``cli.main``.  The run must exit 1, with the named
check failing and carrying a witness that locates the failure.
"""

import dataclasses
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


def _translation_covector(bundle, via=None):
    # d psi for the fibre translation of omega_Z through the section via
    psi = se.sub(bundle.section(bundle.reference), bundle.section(via or bundle.reference))
    names = bundle.patch.names
    return [se.differentiate(psi, name) for name in names], names


def _weight_shifted(original):
    # the hull bracket's weight off by 1e-3: the distinguished section is
    # then not central, while the dual bracket is still a derivation
    def bracket(self, X, Y):
        weight, comps = original(self, X, Y)
        return se.add(weight, se.Const(1e-3)), comps
    return bracket


def _one_name_dropped(original):
    # a count of two or more names that loses the last one: differentiate
    # and subst then skip a subtree that holds it
    def free_vars(e):
        names = original(e)
        return names - {max(names)} if len(names) > 1 else names
    return free_vars


def _energy_squared(original):
    # the attached function e^2 - sigma: its bracket varies along the energy
    return lambda self, sigma: se.sub(se.Var(self.energy) ** 2, sigma)


def _energy_weighted(original):
    # the canonical bracket times 1 + 1e-3 e
    weight = se.add(se.Const(1.0), se.mul(se.Const(1e-3), se.Var("e")))
    return lambda *args: se.mul(original(*args), weight)


def _momentum_shift_flipped(original):
    # p - m g v becomes p + m g v: the boosted world-line starts off the frame's
    def gauge_transform(phase_, v, m):
        out = original(phase_, v, m)
        return dataclasses.replace(out, p=2.0 * phase_.p - out.p)
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
     lambda original: lambda sigma, av: se.add(se.Var(av.s), sigma)),
    ("skew", "abelian_affgebra", brackets.LieAffgebraData, "bracket", _d_term_sign_flipped),
    ("dual_bracket_matches_poisson_dim1", "atiyah_poisson", phase, "canonical_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("dual_bracket_matches_poisson_dim2", "atiyah_poisson", phase, "canonical_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("bold_d_squared_zero", "phase_forms", phase, "bold_d_oneform",
     _sum_for_difference(lambda alpha: (alpha.components, alpha.bundle.patch.names))),
    ("omega_trivialization_invariance", "phase_forms", phase, "omega_Z",
     _sum_for_difference(_translation_covector)),
    ("dynamics_agreement", "oscillator_timedep", phase, "canonical_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("eq1_descends_to_cotangent_bracket", "reduction_eq1", phase, "eq1_aff_poisson",
     lambda original: lambda *args: se.neg(original(*args))),
    ("eq1_fiber_constancy", "reduction_eq1", phase.TimePhaseSpace, "section_function",
     _energy_squared),
    ("eq1_fiber_constancy", "reduction_eq1", phase, "canonical_poisson", _energy_weighted),
    ("frame_independence_boost1", "frames_free", mechanics, "gauge_transform",
     _momentum_shift_flipped),
    ("aff_poisson_criteria_agree_dim1", "atiyah_poisson", brackets.HullAlgebroidData,
     "bracket", _weight_shifted),
    # a canary for the walkers that skip what does not hold their variable
    ("dual_bracket_matches_poisson_dim1", "atiyah_poisson", se, "free_vars",
     _one_name_dropped),
]


# the keys that locate the failure in the witness of a check, where a row asserts them
LOCATION = {
    "dual_dimension": {"dim"},
    "F_section_identities": {"section", "x"},
    "eq1_descends_to_cotangent_bracket": {"point"},
    "eq1_fiber_constancy": {"point"},
    "frame_independence_boost1": {"boost", "step", "time"},
}


def _row_id(row):
    """The check's name; a later row of the same check adds the defect's target."""
    first = next(r for r in DEFECTS if r[0] == row[0])
    return row[0] if row is first else f"{row[0]}-{row[3]}"


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
    # the witness says where, not only how much
    assert set(result["witness"]) > {"residual"}
    assert set(result["witness"]) >= LOCATION.get(check, set())
    if check.startswith("eq1_"):
        assert set(result["witness"]["point"]) == {"q", "t", "p", "e"}
    assert result["witness"]["residual"] == result["max_residual"]

import itertools
import json
import math
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest


from affgeo import cli


def run(args):
    return cli.main(args)


def test_list_has_enough_scenarios(capsys):
    assert run(["list"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) >= 8


def test_list_json_and_kind_filter(capsys):
    assert run(["list", "--json", "--kind", "newton"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows and all(r["kind"] == "newton" for r in rows)


def test_list_unknown_kind_exits_2_and_names_the_kinds(capsys):
    with pytest.raises(SystemExit) as done:
        run(["list", "--kind", "bogus"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and all(kind in err for kind in cli.KINDS)


def test_missing_scenario_exits_2(tmp_path, capsys):
    assert run(["run", str(tmp_path / "nope.ini")]) == 2


def test_malformed_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nkind = timedep\nname = bad\n")
    assert run(["run", str(bad), "--out", str(tmp_path)]) == 2


def test_unparseable_expression_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[scenario]\nkind = timedep\nname = bad\n"
        "[system]\ndim = 1\nhamiltonian = \"sin(q1)*\"\n"
        "[integration]\nstep = 0.1\nduration = 1\ninitial = 0, 0\n")
    assert run(["run", str(bad), "--out", str(tmp_path)]) == 2


def test_passing_scenario_exits_0(tmp_path, capsys):
    assert run(["run", "so3_affgebra", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "so3_affgebra_report.json").read_text())
    assert report["pass"] is True
    assert report["seed"] == 0


def test_failing_scenario_exits_1_with_witness(tmp_path, capsys):
    assert run(["run", "cross_product_affgebra_bad", "--out", str(tmp_path)]) == 1
    report = json.loads(
        (tmp_path / "cross_product_affgebra_bad_report.json").read_text())
    jacobi = [c for c in report["checks"] if c["check_name"] == "jacobi"][0]
    assert jacobi["pass"] is False
    assert "witness" in jacobi and "triple" in jacobi["witness"]


def test_flipped_reduction_scenario_fails(tmp_path, capsys):
    assert run(["run", "reduction_flipped", "--out", str(tmp_path)]) == 1


def test_nan_gauge_parameter_fails_the_round_trip_with_a_witness(tmp_path, capsys):
    # Python's max used to drop the NaN and report a pass with residual 0
    path = tmp_path / "nan.ini"
    path.write_text(
        "[scenario]\nkind = compare-frames\nname = nan\n"
        "[system]\npotential = \"0\"\n"
        "[initial]\nevent = 0, 0, 0, 0\nmomentum = 0.1, 0, 0\ns = nan\n"
        "[integration]\nstep = 0.1\nduration = 1\n"
        "[frames]\nboosts = 0.1 0 0; 0 0.2 0\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "nan_report.json").read_text())
    check = [c for c in report["checks"] if c["check_name"] == "gauge_round_trip"][0]
    assert check["pass"] is False and math.isnan(check["max_residual"])
    assert check["witness"]["boost"] == [0.1, 0.0, 0.0]
    assert math.isnan(check["witness"]["residual"])
    assert "witness:" in capsys.readouterr().out


def test_compare_frames_builds_and_integrates_each_world_line_once(
        tmp_path, capsys, monkeypatch):
    from affgeo import mechanics
    calls = {"integrate": [], "newton_dynamics": [], "gauge_transform": []}  # the results
    for name in calls:
        def counted(*args, _name=name, _original=getattr(mechanics, name), **kwargs):
            calls[_name].append(_original(*args, **kwargs))
            return calls[_name][-1]
        for module in (mechanics, cli):
            monkeypatch.setattr(module, name, counted)
    path = tmp_path / "frames.ini"
    path.write_text(
        "[scenario]\nkind = compare-frames\nname = frames\n"
        "[system]\npotential = \"(q1^2 + q2^2 + q3^2)/2\"\n"
        "[initial]\nevent = 1, 0, 0, 0\nmomentum = 0, 0.5, -0.2\ns = 0.3\n"
        "[integration]\nstep = 0.01\nduration = 1\n"
        "[frames]\nboosts = 0.3 0 0; 0 0.2 -0.1; 0.15 0.15 0.15\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 0
    # one call builds the fields of the rest frame and the three boosts,
    # each world-line is integrated once, and each boost transforms the
    # initial phase once, then back once for the round trip
    assert {name: len(results) for name, results in calls.items()} == {
        "integrate": 4, "newton_dynamics": 1, "gauge_transform": 6}
    boosted, lines = calls["gauge_transform"][:3], calls["integrate"][1:]
    for phase, line in zip(boosted, lines):
        assert line.states[0].tolist() == [*phase.x, *phase.p]
    comparisons = json.loads((tmp_path / "frames_comparisons.json").read_text())
    assert [c["scenario"] for c in comparisons] == [
        "frames/boost1", "frames/boost2", "frames/boost3"]
    # each boosted frame is that of the phase its world-line started from
    assert [c["frames"][1] for c in comparisons] == [p.frame.u.tolist() for p in boosted]


def test_a_failing_frame_check_names_the_boost_and_the_worst_step(
        tmp_path, capsys, monkeypatch):
    from affgeo import mechanics
    from affgeo.mechanics import ObservedPhase

    transform = mechanics.gauge_transform

    def unboosted_momentum(phase, v, m):  # a planted defect: p is not boosted
        good = transform(phase, v, m)
        return ObservedPhase(good.x, phase.p, good.s, good.frame)
    monkeypatch.setattr(mechanics, "gauge_transform", unboosted_momentum)
    path = tmp_path / "frames.ini"
    path.write_text(
        "[scenario]\nkind = compare-frames\nname = frames\n"
        "[system]\npotential = \"(q1^2 + q2^2 + q3^2)/2\"\n"
        "[initial]\nevent = 1, 0, 0, 0\nmomentum = 0, 0.5, -0.2\ns = 0.3\n"
        "[integration]\nstep = 0.01\nduration = 1\n"
        "[frames]\nboosts = 0.3 0 0; 0 0.2 -0.1\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "frames_report.json").read_text())
    checks = {c["check_name"]: c for c in report["checks"]}
    for name, boost in [("frame_independence_boost1", [0.3, 0.0, 0.0]),
                        ("frame_independence_boost2", [0.0, 0.2, -0.1])]:
        check = checks[name]
        witness = check["witness"]
        assert check["pass"] is False and check["max_residual"] > 1e-6
        assert witness["boost"] == boost
        assert witness["residual"] == check["max_residual"]
        # momentum left unboosted drifts the world-line apart: worst at the end
        assert witness["step"] == 100 and witness["time"] == pytest.approx(1.0)
    # the round trip starts from the boosted phases that were integrated
    assert checks["gauge_round_trip"]["pass"] is False
    assert "witness:" in capsys.readouterr().out


def test_a_scenario_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"\xff\xfe[scenario]\nkind = newton\n")
    out = tmp_path / "out"
    assert run(["run", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load") and "Traceback" not in err
    assert not out.exists()


def test_a_scenario_file_that_starts_with_a_byte_order_mark_loads(tmp_path, capsys):
    # a UTF-8 BOM is UTF-8 text: the file runs as the one without it
    source = cli.resolve_scenario("so3_affgebra")
    bom = tmp_path / "so3_affgebra.ini"
    bom.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    for path, out in ((source, tmp_path / "plain"), (bom, tmp_path / "bom")):
        assert run(["run", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "bom" / "so3_affgebra_report.json").read_bytes() == \
        (tmp_path / "plain" / "so3_affgebra_report.json").read_bytes()


def test_a_scenario_refused_by_its_runner_leaves_no_output_directory(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nkind = affgebra-verify\nname = bad\n"
                   "[structure]\ndim = 2\nD = zero\nc = cross3\n")
    fresh = tmp_path / "fresh"
    assert run(["run", str(bad), "--out", str(fresh / "out")]) == 2
    assert capsys.readouterr().err == "error: cross3 structure constants need dim = 3\n"
    assert not fresh.exists()


def test_an_output_path_that_is_a_file_exits_2(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    assert run(["run", "newton_free", "--out", str(afile)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory")
    assert afile.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("output", ["newton_free.csv", "newton_free_report.json"])
def test_an_output_file_name_that_is_a_directory_exits_2(tmp_path, capsys, output):
    (tmp_path / output).mkdir()
    assert run(["run", "newton_free", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and output in err and "Traceback" not in err


def test_a_report_that_cannot_be_written_leaves_no_output(tmp_path, capsys):
    # the CSV comes before the report; a directory in the report's place
    # must take the CSV and every temporary file back with it
    (tmp_path / "newton_free_report.json").mkdir()
    assert run(["run", "newton_free", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["newton_free_report.json"]
    assert list((tmp_path / "newton_free_report.json").iterdir()) == []


def test_outputs_replace_the_files_of_an_earlier_run(tmp_path, capsys):
    for name in ("newton_free.csv", "newton_free_report.json"):
        (tmp_path / name).write_text("earlier\n")
    assert run(["run", "newton_free", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "newton_free.csv", "newton_free_report.json"]
    assert json.loads((tmp_path / "newton_free_report.json").read_text())["pass"]
    assert (tmp_path / "newton_free.csv").read_text().startswith("step,")


def test_a_hull_scenario_verifies_its_structure_once(tmp_path, capsys, monkeypatch):
    from affgeo import brackets
    calls = []

    def counted(*args, _original=brackets.verify_affgebroid, **kwargs):
        calls.append(1)
        return _original(*args, **kwargs)
    for module in (brackets, cli):
        monkeypatch.setattr(module, "verify_affgebroid", counted)
    assert run(["run", "jet_bundle_hull", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "jet_bundle_hull_report.json").read_text())
    assert {"hull_restriction", "hull_jacobi", "hull_unit_cocycle_closed"} <= {
        c["check_name"] for c in report["checks"]}
    assert len(calls) == 1


def atiyah_poisson_row(monkeypatch, beta, anchor):
    """The aff-Poisson report of the dim-1 Atiyah structure with the
    vertical frame section's beta and anchor set to the given constants,
    and the CLI row that folds it."""
    import numpy as np

    from affgeo import brackets, symexpr as se
    from affgeo.reporting import Report

    def perturbed(patch):
        a = brackets.atiyah_algebroid(patch)
        return brackets.LieAffgebroidData(
            a.patch, a.rank, [a.beta[0], [se.ZERO, se.Const(beta)]], a.c, a.anchor_ref,
            [a.anchor_lin[0], [se.Const(anchor)]], v=a.v)
    reports = []

    def recorded(data, rng):
        reports.append(brackets.is_aff_poisson(data, rng=rng))
        return reports[-1]
    monkeypatch.setattr(cli, "atiyah_algebroid", perturbed)
    monkeypatch.setattr(cli, "is_aff_poisson", recorded)
    report = Report("atiyah")
    cli._check_atiyah_poisson(1, np.random.default_rng(0), report)
    (result,) = reports
    return result, report["aff_poisson_criteria_agree_dim1"]


def test_the_aff_poisson_check_records_the_failing_criterions_residual(monkeypatch):
    # a vertical beta of 1e-10 fails centrality (tolerance 1e-12), while the
    # larger derivation residual stays under its own tolerance of 1e-9
    result, check = atiyah_poisson_row(monkeypatch, 1e-10, 0.0)
    derivation, centrality = result["derivation"], result["centrality"]
    assert derivation.passed and not centrality.passed
    assert derivation.residual > centrality.residual
    assert not check.passed and check.witness == centrality.witness
    assert check.witness["criterion"] == "centrality"
    assert check.residual == check.witness["residual"] == centrality.residual


# at a vertical beta of 1e-6 both criteria fail, derivation the worse,
# until a vertical anchor of 1e-3 makes centrality the worse
@pytest.mark.parametrize("anchor, worse, better", [
    (0.0, "derivation", "centrality"), (1e-3, "centrality", "derivation")])
def test_the_aff_poisson_check_of_two_failing_criteria_records_the_worse(
        monkeypatch, anchor, worse, better):
    result, check = atiyah_poisson_row(monkeypatch, 1e-6, anchor)
    assert not result[worse].passed and not result[better].passed
    assert result[worse].residual > result[better].residual
    assert not check.passed and check.witness == result[worse].witness
    assert check.witness["criterion"] == worse
    assert check.residual == check.witness["residual"] == result[worse].residual


# perturbations under both tolerances: derivation the larger residual, then centrality
@pytest.mark.parametrize("beta, anchor, larger, smaller", [
    (1e-13, 0.0, "derivation", "centrality"), (1e-14, 5e-13, "centrality", "derivation")])
def test_the_aff_poisson_check_of_two_passing_criteria_records_the_larger_residual(
        monkeypatch, beta, anchor, larger, smaller):
    result, check = atiyah_poisson_row(monkeypatch, beta, anchor)
    assert result.passed
    assert result[larger].residual > result[smaller].residual > 0
    assert check.passed and check.witness is None
    assert check.residual == result[larger].residual


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_timedep_without_degrees_of_freedom_exits_2(tmp_path, capsys, dim):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[scenario]\nkind = timedep\nname = bad\n"
        f"[system]\ndim = {dim}\nhamiltonian = \"0\"\n"
        "[integration]\nstep = 0.1\nduration = 1\ninitial = 0\n")
    assert run(["run", str(bad), "--out", str(tmp_path)]) == 2


def test_domain_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "blowup.ini"
    bad.write_text(
        "[scenario]\nkind = timedep\nname = blowup\nseed = 0\n"
        "[system]\ndim = 1\nhamiltonian = \"q1^2*p1^2\"\n"
        "[integration]\nstep = 0.5\nduration = 400\ninitial = 1.0, 1.0\n")
    assert run(["run", str(bad), "--out", str(tmp_path)]) == 3


def test_a_trajectory_that_blows_up_exits_3_at_its_first_non_finite_step(tmp_path, capsys):
    text = (resources.files("affgeo") / "scenarios" / "oscillator_timedep.ini").read_text()
    for old, new in [("p1^2/2 + q1^2/2", "p1^2/2 - q1^4"), ("step = 1e-3", "step = 0.01"),
                     ("duration = 10", "duration = 20"), ("initial = 1.0, 0.0, 0.0", "initial = 1, 3")]:
        assert old in text
        text = text.replace(old, new)
    path, out = tmp_path / "blowup.ini", tmp_path / "out"
    path.write_text(text)
    out.mkdir()
    assert run(["run", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "runtime error: non-finite state at step 62\n"
    assert list(out.iterdir()) == []
    assert run(["run", str(path), "--out", str(out / "fresh")]) == 3
    assert list(out.iterdir()) == []


def test_env_var_sets_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFFGEO_OUT", str(tmp_path))
    assert run(["run", "abelian_affgebra"]) == 0
    assert (tmp_path / "abelian_affgebra_report.json").exists()


def test_json_flag_prints_report(tmp_path, capsys):
    assert run(["run", "duality_suite", "--out", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "duality_suite"
    assert payload["pass"] is True


def test_seed_recorded_in_report(tmp_path, capsys):
    assert run(["run", "abelian_affgebra", "--seed", "7",
                "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "abelian_affgebra_report.json").read_text())
    assert report["seed"] == 7


def test_bundled_oscillator_writes_expected_rows(tmp_path, capsys):
    assert run(["run", "oscillator_timedep", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "oscillator_timedep.csv").read_bytes().split(b"\r\n")
    rows = [ln for ln in lines if ln]
    assert len(rows) == 10002  # header plus duration/step + 1 states
    assert rows[0].startswith(b"step,time,q1,p1,t")


NEWTON = (
    "[scenario]\nkind = newton\nname = bad\nseed = {seed}\n"
    "[spacetime]\ndim = {dim}\nmetric = {metric}\n"
    "[system]\nmass = {mass}\npotential = \"0\"\n"
    "[initial]\nevent = 0, 0, 0, 0\nmomentum = {momentum}\n"
    "[integration]\nstep = {step}\nduration = 1\n")


def run_newton_text(tmp_path, capsys, **fields):
    values = {"seed": 0, "dim": 3, "metric": "identity", "mass": 1.0,
              "step": 0.1, "momentum": "0.1, 0, 0", **fields}
    path = tmp_path / "bad.ini"
    path.write_text(NEWTON.format(**values))
    code = run(["run", str(path), "--out", str(tmp_path)])
    return code, capsys.readouterr().err


def test_newton_template_runs(tmp_path, capsys):
    assert run_newton_text(tmp_path, capsys)[0] == 0


@pytest.mark.parametrize("fields", [
    {"mass": -1},
    {"mass": "nan"},
    {"mass": "inf"},
    {"seed": -1},
    {"seed": "abc"},
    {"dim": "two"},
    {"dim": 0},
    {"step": "fast"},
    {"metric": "1 0 0; 0 1 0; 0"},
    {"metric": "1 0 0; 0 -1 0; 0 0 1"},
    {"step": 0.3},
    {"step": "nan"},
    {"momentum": "0.1, 0"},
    {"metric": "inf 0 0; 0 1 0; 0 0 1"},
    {"metric": "nan 0 0; 0 1 0; 0 0 1"},
])
def test_bad_newton_field_exits_2(tmp_path, capsys, fields):
    code, err = run_newton_text(tmp_path, capsys, **fields)
    assert code == 2
    assert err.startswith("error:")


def test_negative_seed_option_exits_2(tmp_path, capsys):
    assert run(["run", "so3_affgebra", "--seed", "-3", "--out", str(tmp_path)]) == 2


def test_duration_not_whole_steps_writes_no_csv(tmp_path, capsys):
    code, err = run_newton_text(tmp_path, capsys, step=0.3)
    assert code == 2 and "whole number of steps" in err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("key", ["1 x 2", "1 2 9", "1 2", "0 1 2"])
def test_bad_structure_constant_key_exits_2(tmp_path, capsys, key):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nkind = affgebra-verify\nname = bad\n"
                    "[structure]\ndim = 3\nc = entries\n"
                    f"[c]\n{key} = 1.0\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


AFFGEBROID = (
    "[scenario]\nkind = affgebroid-verify\nname = bad\n"
    "[base]\ncoords = q, t\n"
    "[structure]\nrank = 1\nanchor_ref = \"0\", \"1\"\nanchor1 = \"1\", \"0\"\n")


@pytest.mark.parametrize("section", [
    "betax = \"0\"\n",
    "beta2 = \"0\"\n",
    "beta0 = \"0\"\n",
    "[c]\n1 = \"0\"\n",
    "[c]\n1 1 3 = \"0\"\n",
    "[c]\n1 2 = \"0\"\n",
])
def test_bad_affgebroid_index_key_exits_2(tmp_path, capsys, section):
    path = tmp_path / "bad.ini"
    path.write_text(AFFGEBROID + section)
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("samples", ["grid:x", "grid:0", "random:0", "mesh:4"])
def test_bad_sampling_exits_2(tmp_path, capsys, samples):
    # no sample points would make every sampled check pass vacuously
    path = tmp_path / "bad.ini"
    path.write_text(AFFGEBROID.replace(
        "coords = q, t\n", f"coords = q, t\nsamples = {samples}\n"))
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("momentum, boosts", [
    ("0.1, 0, 0", ";"), ("0.1, 0", "0.1, 0, 0"), ("0.1, 0, 0", "0.1, 0")])
def test_bad_compare_frames_exits_2(tmp_path, capsys, momentum, boosts):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[scenario]\nkind = compare-frames\nname = bad\n"
        "[system]\npotential = \"0\"\n"
        f"[initial]\nevent = 0, 0, 0, 0\nmomentum = {momentum}\n"
        "[integration]\nstep = 0.1\nduration = 1\n"
        f"[frames]\nboosts = {boosts}\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


def test_a_boost_of_dim_plus_1_entries_exits_2(tmp_path, capsys):
    # a spatial four-vector was a second spelling of the boost of its first dim entries
    code, err, out = run_text(tmp_path, capsys, FRAMES_RUN.replace(
        "boosts = 0.1 0 0; 0 0.2 0", "boosts = 0.1 0 0 0"))
    assert (code, err) == (2, "error: boost velocity has wrong length\n")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "kind = duality-verify\n[params]\ndims = 1, inf\n",
    "kind = duality-verify\n[params]\ndims = 1, 1.5\n",
    "kind = duality-verify\n[params]\ndims = 0\n",
    "kind = affgebroid-verify\n[structure]\natiyah = true\ndims = 0\n",
])
def test_bad_dimension_list_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nname = bad\n" + text)
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", [
    "kind = affine-verify\n[space]\ndim = 2\n[params]\nsamples = 0\n",
    "kind = affine-verify\n[space]\ndim = 2\n[params]\nsamples = -3\n",
    "kind = duality-verify\n[params]\npoints = 0\n",
    "kind = duality-verify\n[params]\npoints = -1\n",
])
def test_sample_count_below_one_exits_2(tmp_path, capsys, text):
    # no samples would make the sampled checks pass vacuously
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nname = bad\n" + text)
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


def test_newton_frame_of_wrong_length_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(NEWTON.format(seed=0, dim=3, metric="identity", mass=1.0,
                                  step=0.1, momentum="0.1, 0, 0")
                    .replace("[initial]", "frame = 0.4, 1.0\n[initial]"))
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("chart", ["nan 0; 0 1 | 0 0", "inf 0; 0 1 | 0 0",
                                   "1 0; 0 1 | nan 0"])
def test_non_finite_chart_exits_2(tmp_path, capsys, chart):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nkind = affine-verify\nname = bad\n"
                    f"[space]\ndim = 2\n[charts]\nc = {chart}\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: chart 'c'")


def test_ragged_chart_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nkind = affine-verify\nname = bad\n"
                    "[space]\ndim = 2\n[charts]\nc = 1 0; 0 | 0 0\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("potential", ["1e400*q1", "1e200*1e200*q1"])
def test_non_finite_constant_in_a_scenario_exits_2(tmp_path, capsys, potential):
    path = tmp_path / "bad.ini"
    path.write_text(NEWTON.format(seed=0, dim=3, metric="identity", mass=1.0,
                                  step=0.1, momentum="0.1, 0, 0").replace(
        "potential = \"0\"", f"potential = \"{potential}\""))
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad expression")


def test_power_overflow_in_a_sampled_check_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(AFFGEBROID.replace("coords = q, t\n", "coords = q, t\nhigh = 10\n")
                    + "beta1 = \"q^400\"\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 3
    assert "power overflow" in capsys.readouterr().err


def test_nan_structure_matrix_fails_the_check(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text("[scenario]\nkind = affgebra-verify\nname = nan\n"
                    "[structure]\ndim = 2\nD = 1 0; nan 1\n")
    assert run(["run", str(path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "nan_report.json").read_text())
    assert [c["pass"] for c in report["checks"]] == [False, False]
    assert all("witness" in c for c in report["checks"])


@pytest.mark.parametrize("value", ["nan", "1"])
def test_a_distinguished_section_on_a_non_atiyah_structure_exits_2(tmp_path, capsys, value):
    # no check reads [structure] v of a non-Atiyah structure, so it is no key
    text = (resources.files("affgeo") / "scenarios" / "jet_bundle_hull.ini").read_text()
    path = tmp_path / "v.ini"
    path.write_text(text.replace("[structure]\n", f"[structure]\nv = {value}\n"))
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "unknown key [structure] v" in capsys.readouterr().err


TIMEDEP = (
    "[scenario]\nkind = timedep\nname = deep\n"
    "[system]\ndim = 1\nhamiltonian = \"p1^2/2 + {expr}\"\n"
    "[integration]\nstep = 0.1\nduration = 1\ninitial = 1.0, 0.0, 0.0\n")


def run_deep(tmp_path, capsys, engine, expr):
    path = tmp_path / "deep.ini"
    if engine == "newton":
        path.write_text(NEWTON.format(seed=0, dim=3, metric="identity", mass=1.0,
                                      step=0.1, momentum="0.1, 0, 0").replace(
            "potential = \"0\"", f"potential = \"{expr}\""))
    else:
        path.write_text(TIMEDEP.format(expr=expr))
    code = run(["run", str(path), "--out", str(tmp_path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("expr", ["1.2.3*q1^2", "1..*q1", "q1*\u00b2", "q1^\u00b2"])
def test_malformed_number_in_a_scenario_exits_2(tmp_path, capsys, expr):
    code, err = run_deep(tmp_path, capsys, "timedep", expr)
    assert code == 2
    assert err.startswith("error: bad expression") and "at offset" in err


@pytest.mark.parametrize("exponent", ["1" + "0" * 400, "1" + "0" * 4999],
                         ids=["401-digits", "5000-digits"])
def test_an_exponent_past_the_float_range_exits_2(tmp_path, capsys, exponent):
    # the power rule's Const(exponent) overflowed a float, and int() refuses 5000 digits
    code, err, out = run_text(tmp_path, capsys, TIMEDEP.format(expr=f"q1^{exponent}"))
    assert code == 2
    assert err.startswith("error: bad expression") and "exponent out of the float range" in err
    assert not out.exists()


def test_a_step_too_small_to_count_exits_2(tmp_path, capsys):
    # duration / step overflowed to inf, which round() cannot convert
    text = TIMEDEP.format(expr="q1^2/2").replace("step = 0.1", "step = 1e-320")
    code, err, out = run_text(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error: ") and "step" in err
    assert not out.exists()


def test_hamiltonian_with_a_variable_divisor_runs(tmp_path, capsys):
    # differentiate once left 0/(1 + q1^2)^2, which failed the unit-slope test
    code, err = run_deep(tmp_path, capsys, "timedep", "1/(1 + q1^2)")
    assert (code, err) == (0, "")
    report = json.loads((tmp_path / "deep_report.json").read_text())
    drift = [c for c in report["checks"] if c["check_name"] == "energy_drift"][0]
    assert drift["pass"] is True


@pytest.mark.parametrize("engine", ["newton", "timedep"])
def test_sum_of_300_terms_runs(tmp_path, capsys, engine):
    # the nested generated code used to hit Python's limit of 200 parentheses
    code, err = run_deep(tmp_path, capsys, engine, "+".join(["0.001*q1"] * 300))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("engine", ["newton", "timedep"])
@pytest.mark.parametrize("expr", [
    "+".join(["0.001*q1"] * 3000),
    "*".join(["q1"] * 3000),
    "(" * 2000 + "q1" + ")" * 2000,
    "sin(" * 2000 + "q1" + ")" * 2000,
    "-" * 2000 + "q1",
])
def test_expression_past_the_depth_limit_exits_2(tmp_path, capsys, engine, expr):
    code, err = run_deep(tmp_path, capsys, engine, expr)
    assert code == 2
    assert err.startswith("error: bad expression") and "deeper than" in err


def test_recursion_past_the_symbolic_layer_exits_2(tmp_path, capsys, monkeypatch):
    # a derivative can be deeper than the tree parse admitted
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(cli, "run_scenario", too_deep)
    assert run(["run", "newton_free", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: expressions too deep")


@pytest.mark.parametrize("expr", [
    "q1" + "/q1" * 399,
    "(" + "+".join(["q1"] * 399) + ")-(" + "+".join(["q1"] * 399) + ")",
])
def test_deep_derived_expressions_never_end_in_a_traceback(tmp_path, capsys, expr):
    code, err = run_deep(tmp_path, capsys, "newton", expr)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# --- the scenario schema: every key is read, typed and in range -------------

AFFINE = "[scenario]\nkind = affine-verify\nname = bad\n[space]\ndim = 2\n"
AFFGEBRA = "[scenario]\nkind = affgebra-verify\nname = bad\n[structure]\ndim = 3\n"
ATIYAH = "[scenario]\nkind = affgebroid-verify\nname = bad\n[structure]\natiyah = true\n"
OMEGA = ("[scenario]\nkind = reduction-check\nname = bad\n"
         "[checks]\nomega = true\n[forms]\ncoords = x\nsections = \"x^2\"\n")


def run_text(tmp_path, capsys, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    out = tmp_path / "out"
    code = run(["run", str(path), "--out", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("text", [
    AFFINE + "[params]\nsamplez = 3\n",
    AFFINE + "[parms]\nsamples = 3\n",
    AFFGEBROID + "[checks]\nhull = ture\n",
    AFFGEBRA.replace("dim = 3\n", "dim = 3\nc = cross3\n") + "[c]\n1 2 3 = 1.0\n",
    AFFGEBRA.replace("dim = 3\n", "dim = 3\nc = zero\n") + "[c]\n1 2 3 = 1.0\n",
    ATIYAH + "[base]\ncoords = x\n",
    ATIYAH + "rank = 1\n",
    AFFGEBROID.replace("coords = q, t\n", "coords = q, t\nlow = 1\nhigh = -1\n"),
    AFFGEBROID.replace("coords = q, t\n", "coords = q, t\nlow = nan\n"),
    AFFGEBROID.replace("rank = 1\n", "rank = 0\n"),
    OMEGA.replace("sections = \"x^2\"\n", "sections =\n"),
    AFFINE.replace("[space]\ndim = 2\n", "[DEFAULT]\ndim = 2\n"),
    AFFGEBRA.replace("[structure]\n", "[structure]\nd = identity\n"),
    "[scenario]\nkind = reduction-check\nname = bad\n",
    OMEGA.replace("omega = true", "omega = false").split("[forms]")[0],
    OMEGA.replace("x", "x\u03b8"),
], ids=["misspelled-key", "misspelled-section", "non-bool", "cross3-with-entries",
        "zero-with-entries", "atiyah-with-base", "atiyah-with-rank", "empty-box",
        "nan-bound", "rank-0", "no-sections", "default-section", "key-case",
        "reduction-runs-no-check", "reduction-checks-all-off", "non-ascii-name"])
def test_misread_input_exits_2(tmp_path, capsys, text):
    code, err, out = run_text(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    AFFGEBRA.replace("dim = 3", "dim = 0"),
    AFFGEBRA.replace("dim = 3", "dim = -1"),
    AFFGEBROID.replace("coords = q, t", "coords = q, q"),
    OMEGA.replace("coords = x", "coords = x, x"),
    OMEGA.replace("coords = x", "coords = p1").replace("x^2", "p1^2"),
], ids=["affgebra-dim-0", "affgebra-dim-neg", "duplicate-base-coords",
        "duplicate-form-coords", "coords-collide-with-momenta"])
def test_input_that_raised_a_traceback_exits_2(tmp_path, capsys, text):
    code, err, _ = run_text(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("text, message", [
    (AFFINE + "[charts]\nbad = 1, 2; 2, 4 | 0, 0\n", "chart 'bad': transition is singular"),
    (AFFGEBRA.replace("dim = 3", "dim = 2") + "[c]\n1 1 1 = 1\n",
     "structure constants are not antisymmetric"),
    ("[scenario]\nkind = affgebroid-verify\nname = bad\n[base]\ncoords = q\n"
     "[structure]\nrank = 1\nanchor_ref = \"1\"\nanchor1 = \"1\"\n[c]\n1 1 = \"q\"\n",
     "structure functions not antisymmetric at (i=0, j=0, k=0)"),
], ids=["singular-chart", "affgebra-not-antisymmetric", "affgebroid-not-antisymmetric"])
def test_a_value_the_library_refuses_exits_2(tmp_path, capsys, text, message):
    # the library's own error, not a re-raised copy, decides the exit code
    code, err, out = run_text(tmp_path, capsys, text)
    assert (code, err) == (2, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("text, keys", [
    (AFFGEBRA + "[c]\n1 2 3 = 1.0\n2 1 3 = 1.0\n2 3 1 = 1.0\n3 1 2 = 1.0\n",
     ("1 2 3", "2 1 3")),
    (AFFGEBROID.replace("rank = 1\n", "rank = 2\nanchor2 = \"0\", \"0\"\n")
     + "[c]\n1 2 = \"q\", \"0\"\n2 1 = \"q\", \"0\"\n", ("1 2", "2 1")),
], ids=["affgebra", "affgebroid"])
def test_an_entry_given_with_its_antisymmetric_partner_exits_2(tmp_path, capsys, text, keys):
    # each [c] entry also sets its partner, so the later of the two would win silently
    code, err, out = run_text(tmp_path, capsys, text)
    assert code == 2 and err.startswith("error: ")
    assert all(f"[c] {key}" in err for key in keys)
    assert not out.exists()


def test_equal_deep_sections_bracket_to_zero(tmp_path, capsys):
    # F == G compared the two parsed trees recursively, past Python's stack
    sigma = "+".join(["q*p"] * 398)
    code, err, out = run_text(tmp_path, capsys, (
        "[scenario]\nkind = reduction-check\nname = deep\n[checks]\neq1 = true\n"
        f"[sections]\nsigma1 = \"{sigma}\"\nsigma2 = \"{sigma}\"\n"))
    assert (code, err) == (0, "")
    report = json.loads((out / "deep_report.json").read_text())
    assert [c["check_name"] for c in report["checks"] if c["pass"]] == [
        "eq1_descends_to_cotangent_bracket", "eq1_fiber_constancy"]


TIMEDEP_OUT = (
    "[scenario]\nkind = timedep\nname = {name}\n"
    "[system]\ndim = 1\nhamiltonian = \"p1^2/2\"\n"
    "[integration]\nstep = 0.1\nduration = 1\ninitial = 1.0, 0.0\n"
    "[output]\ntrajectory = {trajectory}\n")


NEWTON_RUN = NEWTON.format(seed=0, dim=3, metric="identity", mass=1.0, step=0.1,
                           momentum="0.1, 0, 0")
FRAMES_RUN = NEWTON_RUN.replace("kind = newton", "kind = compare-frames") + \
    "[frames]\nboosts = 0.1 0 0; 0 0.2 0\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("text", [
    NEWTON_RUN.replace("event = 0, 0, 0, 0", "event = VALUE, 0, 0, 0"),
    NEWTON_RUN.replace("momentum = 0.1, 0, 0", "momentum = VALUE, 0, 0"),
    NEWTON_RUN.replace("[initial]", "frame = VALUE, 0, 0, 1\n[initial]"),
    FRAMES_RUN.replace("boosts = 0.1 0 0", "boosts = VALUE 0 0"),
    TIMEDEP_OUT.format(name="bad", trajectory="x.csv").replace("1.0, 0.0", "VALUE, 0"),
], ids=["event", "momentum", "frame", "boosts", "initial"])
def test_non_finite_integration_state_exits_2(tmp_path, capsys, text, value):
    # these keys become integration states: a NaN or inf there used to
    # pass the loader and stop the integrator with exit 3
    code, err, out = run_text(tmp_path, capsys, text.replace("VALUE", value))
    assert code == 2
    assert err.startswith("error:") and "want a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize("name, trajectory", [
    ("../escaped", "x.csv"),
    ("ok", "{absolute}"),
    ("ok", "sub/x.csv"),
    ("ok", ".."),
])
def test_outputs_stay_inside_the_output_directory(tmp_path, capsys, name, trajectory):
    work = tmp_path / "work"
    work.mkdir()
    absolute = tmp_path / "elsewhere.csv"
    text = TIMEDEP_OUT.format(name=name, trajectory=trajectory.format(absolute=absolute))
    code, err, out = run_text(work, capsys, text)
    assert code == 2
    assert err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
    assert sorted(p.name for p in work.iterdir()) == ["scenario.ini"]


def test_a_trajectory_named_like_the_report_exits_2(tmp_path, capsys):
    text = TIMEDEP_OUT.format(name="osc", trajectory="osc_report.json")
    code, err, out = run_text(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error:") and "osc_report.json" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["frames_free", "newton_free", "oscillator_timedep"])
def test_a_run_interrupted_by_a_domain_error_writes_no_file(tmp_path, capsys,
                                                            monkeypatch, name):
    def planted(fld, traj):
        raise cli.se.DomainError("planted")
    monkeypatch.setattr(cli, "energy_drift", planted)
    assert run(["run", name, "--out", str(tmp_path)]) == 3
    assert list(tmp_path.iterdir()) == []


# --- many runs in one process, and the one-shot entry point --------------------


def test_an_earlier_runs_options_do_not_carry_over(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("AFFGEO_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "abelian_affgebra_report.json"
    assert run(["run", "abelian_affgebra", "--seed", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    assert run(["run", "abelian_affgebra"]) == 0
    out = capsys.readouterr().out
    assert json.loads(report.read_text())["seed"] == 0
    assert "{" not in out and out.endswith("scenario abelian_affgebra: PASS\n")


def test_the_output_directory_is_read_again_on_every_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for out, env in [("a", None), (None, "b"), (None, "c"), ("d", "c"), (None, None)]:
        if env:
            monkeypatch.setenv("AFFGEO_OUT", str(tmp_path / env))
        else:
            monkeypatch.delenv("AFFGEO_OUT", raising=False)
        assert run(["run", "abelian_affgebra"] + (["--out", out] if out else [])) == 0
        where = tmp_path / (out or env or ".")
        assert (where / "abelian_affgebra_report.json").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a", "abelian_affgebra_report.json", "b", "c", "d"]


def test_a_usage_error_leaves_the_next_run_alone(tmp_path, capsys):
    for bad in (["run"], ["run", "abelian_affgebra", "--seed", "x"], ["list", "--kind", "bogus"]):
        with pytest.raises(SystemExit) as done:
            run(bad)
        assert done.value.code == 2
    assert "bogus" in capsys.readouterr().err
    assert run(["run", "abelian_affgebra", "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit):
        run(["list", "--kind", "bogus"])
    err = capsys.readouterr().err
    assert all(kind in err for kind in cli.KINDS)


def test_every_run_reuses_the_one_parser(tmp_path, capsys):
    parser = cli._parser()
    assert run(["list", "--json"]) == 0
    assert run(["run", "abelian_affgebra", "--out", str(tmp_path)]) == 0
    assert cli._parser() is parser


def _module(*args, **options):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "affgeo", *args], env=env,
                          capture_output=True, text=True, timeout=120, **options)


def test_the_module_entry_point_prints_help():
    done = _module("--help")
    assert done.returncode == 0
    assert "run" in done.stdout and "list" in done.stdout


def test_the_module_entry_point_without_a_scenario_prints_usage():
    done = _module("run")
    assert done.returncode == 2
    assert done.stderr.startswith("usage: affgeo run") and done.stdout == ""


def _run_in_1_5_gb(tmp_path, text):
    """``affgeo run`` of ``text`` in a process that may map at most 1.5 GB,
    so that no host grants an oversize input what it asks for."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
    path = tmp_path / "big.ini"
    path.write_text(text)
    done = _module("run", str(path), "--out", str(tmp_path / "out"), preexec_fn=limit)
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()
    return done.stderr


@pytest.mark.parametrize("text", [
    AFFINE + "[params]\nsamples = 1000000000000\n",
], ids=["affine-samples"])
def test_an_input_too_large_for_memory_exits_2(tmp_path, text):
    # rng.uniform raised numpy's MemoryError, which ended in a traceback and exit 1
    assert _run_in_1_5_gb(tmp_path, text).startswith("error: out of memory (Unable to allocate")


DUALITY = "[scenario]\nkind = duality-verify\nname = big\n[params]\n"


@pytest.mark.parametrize("dims", ["316", "1, 2, 1000000"], ids=["past-the-bound", "past-memory"])
def test_a_duality_dim_above_the_bound_exits_2_before_it_is_built(tmp_path, dims):
    # dual_dimension pairs (dim + 1)^2 elements one Python call each: dims = 1500 took
    # 5.6 s and 335 MB, and dims = 1000000 ended in numpy's MemoryError from np.eye
    from affgeo.cli import MAX_DUALITY_DIM
    assert MAX_DUALITY_DIM == 315 and 316 ** 2 <= 10 ** 5 < 317 ** 2
    err = _run_in_1_5_gb(tmp_path, DUALITY + f"dims = {dims}\n")
    assert err == f"error: [params] dims = {dims!r}: want an integer in 1..{MAX_DUALITY_DIM}\n"


def test_the_largest_duality_dim_runs(tmp_path, capsys):
    from affgeo.cli import MAX_DUALITY_DIM
    code, err, out = run_text(tmp_path, capsys, DUALITY + f"dims = {MAX_DUALITY_DIM}\npoints = 4\n")
    assert (code, err) == (0, "")
    assert json.loads((out / "big_report.json").read_text())["pass"] is True


def test_a_run_of_more_steps_than_the_bound_exits_2_before_it_integrates(tmp_path):
    # a whole number of tiny steps passed every check, then filled memory one state at a time
    from affgeo.mechanics import MAX_STEPS
    text = TIMEDEP.format(expr="q1^2/2").replace("step = 0.1", "step = 1e-300")
    err = _run_in_1_5_gb(tmp_path, text)
    assert f"more than the bound of {MAX_STEPS} steps" in err


@pytest.mark.parametrize("boosts, code", [("0.1 0 0; 0 0.2 0; 0 0 0.3", 2),
                                          ("0.1 0 0; 0 0.2 0", 0)], ids=["400", "300"])
def test_a_frames_run_is_held_to_the_step_bound_in_all(tmp_path, capsys, monkeypatch,
                                                       boosts, code):
    # the bound held each world-line alone, so a run of 1 + boosts world-lines of
    # MAX_STEPS steps each kept 1 + boosts times the states it allows
    from affgeo import mechanics
    monkeypatch.setattr(mechanics, "MAX_STEPS", 300)
    text = FRAMES_RUN.replace("step = 0.1", "step = 0.01").replace(
        "boosts = 0.1 0 0; 0 0.2 0", f"boosts = {boosts}")
    done, err, out = run_text(tmp_path, capsys, text)
    assert done == code
    if code:
        assert err == ("error: 4 world-lines of 100 steps are "
                       "more than the bound of 300 steps in all\n")
        assert not out.exists()
    else:
        assert err == "" and json.loads((out / "bad_report.json").read_text())["pass"]


def test_a_rank_above_the_bound_exits_2_before_its_tables_are_built(tmp_path):
    # rank^2 beta and rank^3 c slots were built as lists before anything counted the anchors
    from affgeo.cli import MAX_RANK
    err = _run_in_1_5_gb(tmp_path, AFFGEBROID.replace("rank = 1", "rank = 100000"))
    assert err == f"error: [structure] rank = '100000': want an integer in 1..{MAX_RANK}\n"


@pytest.mark.parametrize("dims, why", [
    ("1, 1", "want a non-empty list of distinct items"),
    ("11", "want an integer in 1..10"),
    ("3000", "want an integer in 1..10"),
], ids=["repeated", "grid-past-the-bound", "slots-past-memory"])
def test_atiyah_dims_are_distinct_and_at_most_10(tmp_path, capsys, dims, why):
    # a repeated dim wrote its rows twice into one report; dim 11 failed on the
    # 3^11-point antisymmetry grid the file never asked for; dim 3000 built
    # (dim + 1)^3 list slots before any check
    from affgeo.brackets import MAX_GRID_POINTS
    from affgeo.cli import MAX_ATIYAH_DIM
    assert MAX_ATIYAH_DIM == 10 and 3 ** 10 <= MAX_GRID_POINTS < 3 ** 11
    code, err, out = run_text(tmp_path, capsys, ATIYAH + f"dims = {dims}\n")
    assert (code, err) == (2, f"error: [structure] dims = {dims!r}: {why}\n")
    assert not out.exists()


def test_the_largest_atiyah_dim_runs(tmp_path, capsys):
    code, err, out = run_text(tmp_path, capsys, ATIYAH + "dims = 10\n")
    assert (code, err) == (0, "")
    assert (out / "bad_report.json").exists()


def test_an_affgebra_dim_above_the_bound_exits_2(tmp_path, capsys):
    # the Jacobi check takes (dim + 1)^3 cases of a dim^3 sum each: dim 40 ran for 35 s
    from affgeo.cli import MAX_AFFGEBRA_DIM
    assert MAX_AFFGEBRA_DIM == 21 and 22 ** 3 * 21 ** 3 <= 10 ** 8 < 23 ** 3 * 22 ** 3
    code, err, out = run_text(tmp_path, capsys, AFFGEBRA.replace("dim = 3", "dim = 22"))
    assert (code, err) == (2, "error: [structure] dim = '22': want an integer in 1..21\n")
    assert not out.exists()


def test_the_largest_affgebra_dim_runs(tmp_path, capsys):
    code, err, out = run_text(tmp_path, capsys, AFFGEBRA.replace("dim = 3", "dim = 21"))
    assert (code, err) == (0, "")
    assert (out / "bad_report.json").exists()


def so5_in_a_random_basis():
    """The structure constants of so(5) in the basis ``B P`` for the standard basis ``B``
    (``E_ab`` for a < b) and ``P`` a normal 10 x 10 draw from ``default_rng(0)``."""
    pairs = list(itertools.combinations(range(5), 2))
    unit = np.eye(5)
    basis = [np.outer(unit[a], unit[b]) - np.outer(unit[b], unit[a]) for a, b in pairs]
    c = np.array([[[(x @ y - y @ x)[a, b] for a, b in pairs] for y in basis] for x in basis])
    P = np.random.default_rng(0).normal(size=(10, 10))
    return np.einsum("ai,bj,abc,kc->ijk", P, P, c, np.linalg.inv(P))


def test_an_affgebra_is_judged_at_the_scale_of_its_constants(tmp_path, capsys):
    # so(5) in a random basis has |c| up to 52, and its Jacobi residual, a sum of
    # 110-term sums, failed the absolute 1e-12 at 1.65e-12; 1e-6 off one constant fails
    c = so5_in_a_random_basis()
    for shift, want in ((0.0, [True, True]), (1e-6, [True, False])):
        c[0, 1, 0] += shift  # the [c] entry 1 2 1
        entries = "".join(f"{i + 1} {j + 1} {k + 1} = {float(c[i, j, k])!r}\n"
                          for i, j in itertools.combinations(range(10), 2) for k in range(10))
        code, err, out = run_text(tmp_path, capsys,
                                  AFFGEBRA.replace("dim = 3", "dim = 10") + "[c]\n" + entries)
        report = json.loads((out / "bad_report.json").read_text())
        assert [check["pass"] for check in report["checks"]] == want
        assert (code, err) == (1 - all(want), "")


@pytest.mark.parametrize("dim", [40, 50])
def test_the_biaffine_identities_hold_at_a_large_dim(tmp_path, capsys, dim):
    # the residuals are sums of dim^2 terms, judged to an absolute 1e-12:
    # at seed 0, dim 40 failed at 1.03e-12 and dim 50 at 1.28e-12
    code, err, out = run_text(tmp_path, capsys, AFFINE.replace("dim = 2", f"dim = {dim}"))
    assert (code, err) == (0, "")
    report = json.loads((out / "bad_report.json").read_text())
    assert report["seed"] == 0 and report["pass"] is True


def test_a_grid_of_more_points_than_the_bound_exits_2_before_it_is_built(tmp_path):
    # 10^10 points on q, t were built as a list of tuples until memory ran out
    from affgeo.brackets import MAX_GRID_POINTS
    text = AFFGEBROID.replace("coords = q, t\n", "coords = q, t\nsamples = grid:100000\n")
    err = _run_in_1_5_gb(tmp_path, text)
    assert err == (f"error: a grid of 100000 points on each of 2 axes has 10000000000 "
                   f"points, more than the bound of {MAX_GRID_POINTS}\n")

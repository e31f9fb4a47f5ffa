import json

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
    "[beta]\nx = \"0\"\n",
    "[beta]\n2 = \"0\"\n",
    "[beta]\n0 = \"0\"\n",
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


def test_newton_frame_of_wrong_length_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(NEWTON.format(seed=0, dim=3, metric="identity", mass=1.0,
                                  step=0.1, momentum="0.1, 0, 0")
                    .replace("[initial]", "frame = 0.4, 1.0\n[initial]"))
    assert run(["run", str(path), "--out", str(tmp_path)]) == 2


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
                    + "[beta]\n1 = \"q^400\"\n")
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

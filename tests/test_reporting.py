import math

import numpy as np
import pytest

from affgeo.reporting import Report, first_worst, per_point_max


def index_witness(at):
    """The witness that names the first worst residual by its index."""
    return {"index": list(at)}


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
def test_non_finite_residual_never_passes(residual):
    report = Report("x")
    check = report.add("x", True, residual)
    assert not check.passed
    assert not report.passed


def test_each_report_starts_with_its_own_empty_check_list():
    first, second = Report("a"), Report("b")
    first.add("c", True, 0.0)
    assert [c.check for c in first.checks] == ["c"] and second.checks == []


def test_finite_residual_keeps_the_verdict():
    report = Report("x")
    assert report.add("a", True, 0.5).passed
    assert not report.add("b", False, 0.0).passed


def test_first_worst_takes_the_first_case_then_the_first_point():
    residuals = [[0.0, 2.0, 1.0], [2.0, 0.0, 2.0]]
    assert first_worst(residuals) == (2.0, (0, 1))


def test_first_worst_ranks_nan_above_everything():
    worst, at = first_worst([[1.0, math.inf], [math.nan, 3.0], [math.nan, 0.0]])
    assert math.isnan(worst) and at == (1, 0)


def test_first_worst_of_nothing_is_zero():
    assert first_worst([]) == (0.0, ())


@pytest.mark.parametrize("residuals", [[], np.zeros((3, 0))])
def test_check_of_no_residuals_fails(residuals):
    report = Report("x")
    check = report.check("x", residuals, 1e-9, index_witness)
    assert not check.passed and not report.passed
    assert check.witness == {"samples": 0}


def test_per_point_max_broadcasts_constants_and_propagates_nan():
    out = per_point_max([np.array([1.0, -3.0, 0.5]), -2.0,
                         np.array([0.0, math.nan, 0.0])], 3)
    assert out[0] == 2.0 and math.isnan(out[1]) and out[2] == 2.0
    assert per_point_max([], 2).tolist() == [0.0, 0.0]


def test_check_passes_iff_the_worst_residual_is_below_tol():
    report = Report("x")
    ok = report.check("ok", [[0.1, 0.4], [0.2, 0.0]], 0.5, index_witness)
    assert ok.passed and ok.residual == 0.4 and ok.witness is None
    edge = report.check("edge", [0.1, 0.5], 0.5, index_witness)
    assert not edge.passed and edge.witness == {"index": [1], "residual": 0.5}
    assert not report.passed


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_check_fails_a_non_finite_residual_with_its_witness(bad):
    check = Report("x").check("c", [[0.0, 1e300], [bad, 2.0]], math.inf, index_witness)
    assert not check.passed
    assert check.witness["index"] == [1, 0]
    assert math.isnan(check.residual) == math.isnan(bad)


def test_check_witness_builder_sees_the_first_worst_index():
    points = ["a", "b", "c"]
    check = Report("x").check("c", [[0.0, 3.0, 3.0], [3.0, 0.0, 0.0]], 1.0,
                              lambda at: {"case": at[0], "point": points[at[1]]})
    assert check.witness == {"case": 0, "point": "b", "residual": 3.0}


def test_check_of_one_number():
    check = Report("x").check("c", 2.0, 1.0, index_witness)
    assert not check.passed and check.witness == {"index": [], "residual": 2.0}


def test_failing_add_always_carries_a_witness():
    report = Report("x")
    assert report.add("a", False, 0.25).witness == {"residual": 0.25}
    assert report.add("b", True, 0.0, {"point": 1}).witness is None
    assert report.add("c", False, 1.0, {"point": 1}).witness == {"point": 1}

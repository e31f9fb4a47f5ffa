import math

import numpy as np
import pytest

from affgeo.reporting import Report, first_worst, per_point_max


@pytest.mark.parametrize("residual", [math.nan, math.inf, -math.inf])
def test_non_finite_residual_never_passes(residual):
    report = Report("x")
    check = report.add("x", True, residual)
    assert not check.passed
    assert not report.passed


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


def test_per_point_max_broadcasts_constants_and_propagates_nan():
    out = per_point_max([np.array([1.0, -3.0, 0.5]), -2.0,
                         np.array([0.0, math.nan, 0.0])], 3)
    assert out[0] == 2.0 and math.isnan(out[1]) and out[2] == 2.0
    assert per_point_max([], 2).tolist() == [0.0, 0.0]

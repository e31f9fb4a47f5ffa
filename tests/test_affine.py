import numpy as np
import pytest

from affgeo.affine import (
    AffineGeometryError, AffineMap, AffineSpaceSpec, BiAffineMap, difference,
)


THETA = 0.7
THREE_CHARTS = {  # chart: (matrix, offset) into the reference chart
    "ref": (np.eye(2), np.zeros(2)),
    "shift": (np.eye(2), np.array([1.0, 1.0])),
    "rot": (np.array([[np.cos(THETA), -np.sin(THETA)], [np.sin(THETA), np.cos(THETA)]]),
            np.array([0.5, -2.0])),
    "scale": (np.diag([2.0, 0.5]), np.array([0.0, 3.0])),
}


def three_chart_space():
    spec = AffineSpaceSpec(2)
    for name in ("shift", "rot", "scale"):
        spec.add_chart(name, *THREE_CHARTS[name])
    return spec


def test_difference_same_chart():
    spec = AffineSpaceSpec(2)
    p = spec.point([1.0, 2.0])
    q = spec.point([0.0, 0.0])
    assert np.allclose(difference(p, q).components, [1.0, 2.0])
    assert np.allclose(difference(p, p).components, 0.0)


def test_difference_across_charts():
    spec = AffineSpaceSpec(2)
    spec.add_chart("B", np.eye(2), [1.0, 1.0])
    p = spec.point([0.0, 0.0], chart="B")
    q = spec.point([0.0, 0.0])
    assert np.allclose(difference(p, q).components, [1.0, 1.0])


def test_difference_rejects_mixed_spaces():
    s1, s2 = AffineSpaceSpec(2), AffineSpaceSpec(2)
    with pytest.raises(AffineGeometryError):
        difference(s1.point([0, 0]), s2.point([0, 0]))


def _chart_free_deviation(points, transitions):
    """Largest deviation of ``difference`` over all pairs of ``points`` from
    the points converted to the reference chart by numpy, each from its own
    chart's matrix and offset."""
    refs = [transitions[p.chart][0] @ p.coords + transitions[p.chart][1] for p in points]
    return max(np.max(np.abs(difference(p, q).components - (rp - rq)))
               for p, rp in zip(points, refs) for q, rq in zip(points, refs))


def test_cocycle_residual_across_charts():
    spec = three_chart_space()
    rng = np.random.default_rng(3)
    for _ in range(16):
        pts = [spec.point(rng.uniform(-5, 5, 2), chart=c)
               for c in ("ref", "rot", "scale")]
        assert _chart_free_deviation(pts, THREE_CHARTS) < 1e-12


def test_cocycle_single_chart_exact():
    # scaling by powers of two is exact, so the chart-free value is too
    spec = AffineSpaceSpec(3)
    scale = np.diag([2.0, 0.5, 4.0])
    spec.add_chart("scale", scale, np.zeros(3))
    rng = np.random.default_rng(4)
    pts = [spec.point(rng.uniform(-1, 1, 3), chart="scale") for _ in range(3)]
    assert _chart_free_deviation(pts, {"scale": (scale, np.zeros(3))}) == 0.0


def test_chart_invariance_of_difference():
    spec = three_chart_space()
    rng = np.random.default_rng(5)
    p_ref = rng.uniform(-2, 2, 2)
    q_ref = rng.uniform(-2, 2, 2)
    base = difference(spec.point(p_ref), spec.point(q_ref)).components
    for chart in ("shift", "rot", "scale"):
        p = spec.convert_point(spec.point(p_ref), chart)
        q = spec.convert_point(spec.point(q_ref), chart)
        assert np.max(np.abs(difference(p, q).components - base)) < 1e-12


def test_vector_transforms_by_linear_part_only():
    spec = three_chart_space()
    v = spec.vector([1.0, 0.0], chart="shift")
    # the shift chart translates points but not vectors
    assert np.allclose(v.in_reference(), [1.0, 0.0])


def test_singular_transition_rejected():
    spec = AffineSpaceSpec(2)
    with pytest.raises(AffineGeometryError):
        spec.add_chart("bad", [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])


@pytest.mark.parametrize("matrix, offset", [
    ([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    ([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0]),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, -np.inf]),
])
def test_non_finite_transition_rejected(matrix, offset):
    spec = AffineSpaceSpec(2)
    with pytest.raises(AffineGeometryError, match="not finite"):
        spec.add_chart("bad", matrix, offset)
    assert spec.charts == ("ref",)


def test_linear_part_examples():
    spec1 = AffineSpaceSpec(1)
    translation = AffineMap(spec1, spec1, [[1.0]], [5.0])
    assert np.allclose(translation.matrix, [[1.0]])
    constant = AffineMap(spec1, spec1, [[0.0]], [2.0])
    assert np.allclose(constant.matrix, [[0.0]])
    double_shift = AffineMap(spec1, spec1, [[2.0]], [1.0])
    assert np.allclose(double_shift.matrix, [[2.0]])


def test_affine_map_defining_identity():
    spec = three_chart_space()
    target = AffineSpaceSpec(3)
    rng = np.random.default_rng(6)
    phi = AffineMap(spec, target, rng.normal(size=(3, 2)), rng.normal(size=3))
    for _ in range(16):
        a = spec.point(rng.uniform(-1, 1, 2), chart="rot")
        u = rng.uniform(-1, 1, 2)
        shifted = spec.point(a.in_reference() + u)
        lhs = phi.apply(shifted).coords - phi.apply(a).coords
        assert np.max(np.abs(lhs - phi.matrix @ u)) < 1e-12


def test_biaffine_quadratic_example():
    # Phi(x, y) = xy + x + y + 1 on R x R
    phi = BiAffineMap(C=[[[1.0]]], D=[[1.0]], E=[[1.0]], F=[1.0])
    assert phi.bilinear_part([2.0], [3.0]) == pytest.approx([6.0])
    assert phi.part_first([2.0], [3.0]) == pytest.approx([2.0 * 3.0 + 2.0])
    assert phi.part_second([2.0], [3.0]) == pytest.approx([2.0 * 3.0 + 3.0])


def test_biaffine_constant_has_zero_parts():
    phi = BiAffineMap(C=np.zeros((1, 1, 1)), D=np.zeros((1, 1)),
                      E=np.zeros((1, 1)), F=[4.0])
    assert phi.part_first([1.0], [1.0]) == pytest.approx([0.0])
    assert phi.part_second([1.0], [1.0]) == pytest.approx([0.0])
    assert phi.bilinear_part([1.0], [1.0]) == pytest.approx([0.0])


def test_biaffine_parts_by_finite_differences():
    # Phi(x, y) = 3xy in one dimension; parts recovered by differencing
    phi = BiAffineMap(C=[[[3.0]]], D=[[0.0]], E=[[0.0]], F=[0.0])
    x, y, u, w = 0.7, -1.3, 0.4, 2.1
    d1 = phi.apply([x + u], [y]) - phi.apply([x], [y])
    assert d1 == pytest.approx(phi.part_first([u], [y]))
    d2 = phi.apply([x], [y + w]) - phi.apply([x], [y])
    assert d2 == pytest.approx(phi.part_second([x], [w]))
    assert phi.bilinear_part([u], [w]) == pytest.approx([3.0 * u * w])


def test_biaffine_difference_identities_random():
    rng = np.random.default_rng(8)
    phi = BiAffineMap(C=rng.normal(size=(2, 3, 2)), D=rng.normal(size=(2, 3)),
                      E=rng.normal(size=(2, 2)), F=rng.normal(size=2))
    for _ in range(64):
        x = rng.uniform(-2, 2, 3)
        y = rng.uniform(-2, 2, 2)
        u = rng.uniform(-2, 2, 3)
        w = rng.uniform(-2, 2, 2)
        r1 = phi.apply(x + u, y) - phi.apply(x, y) - phi.part_first(u, y)
        r2 = phi.apply(x, y + w) - phi.apply(x, y) - phi.part_second(x, w)
        assert np.max(np.abs(r1)) < 1e-12
        assert np.max(np.abs(r2)) < 1e-12

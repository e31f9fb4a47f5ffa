"""Stacked calls match the per-vector loop bit for bit, and the bracket
expansions that skip zero coefficients build the same trees.

The numeric verifiers evaluate each check once, on an ``(N, dim)`` stack
of sample points, and their reports must stay byte-identical to the
per-vector evaluation.  Only forms that keep each row's bits are used
(``(M @ X[..., None])[..., 0]``, a non-optimised ``einsum`` with an
ellipsis, ``solve`` against ``Y[..., None]``); these properties catch a
numpy or BLAS build where one of them stops doing so.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affgeo import symexpr as se
from affgeo.affine import AffineMap, AffineSpaceSpec, BiAffineMap
from affgeo.brackets import (
    HullAlgebroidData, LieAffgebraData, LieAffgebroidData, Patch, atiyah_algebroid,
    random_polynomial,
)
from affgeo.duality import DoubleDualMaps, SpecialAffineSpace


def _same_as_loop(stacked, per_vector, count):
    looped = np.array([per_vector(i) for i in range(count)])
    assert stacked.shape == looped.shape
    assert stacked.tobytes() == looped.tobytes()


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 4), count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_stacked_calls_match_the_per_vector_loop_bit_for_bit(dim, count, seed):
    rng = np.random.default_rng(seed)
    # strided views, as the verifiers unpack one block of draws
    x, y, u, w = rng.uniform(-2, 2, (count, 4, dim)).transpose(1, 0, 2)

    # square, as the affine verifier draws it: with C of shape (1, 2, n) the
    # stacked einsum sums in another order and can differ in the last bit
    phi = BiAffineMap(rng.normal(size=(dim, dim, dim)), rng.normal(size=(dim, dim)),
                      rng.normal(size=(dim, dim)), rng.normal(size=dim))
    for f, a, b in [(phi.apply, x + u, y), (phi.apply, x, y), (phi.part_first, u, y),
                    (phi.part_second, x, w), (phi.bilinear_part, u, w)]:
        _same_as_loop(f(a, b), lambda i: f(a[i], b[i]), count)

    spec = AffineSpaceSpec(dim)
    spec.add_chart("c", rng.normal(size=(dim, dim)) + 3 * np.eye(dim), rng.normal(size=dim))
    t = spec._transition("c")
    for f in (t.apply, t.apply_vector, t.invert):
        _same_as_loop(f(x), lambda i: f(x[i]), count)
    amap = AffineMap(spec, spec, rng.normal(size=(dim, dim)), rng.normal(size=dim))
    _same_as_loop(amap.apply(spec.point(x, "c")).coords,
                  lambda i: amap.apply(spec.point(x[i], "c")).coords, count)
    _same_as_loop(spec.convert_point(spec.point(x), "c").coords,
                  lambda i: spec.convert_point(spec.point(x[i]), "c").coords, count)

    maps = DoubleDualMaps(SpecialAffineSpace(spec, rng.normal(size=dim) + 0.5))
    for f in (maps.forward, maps.backward):
        _same_as_loop(f(x), lambda i: f(x[i]), count)

    c = rng.normal(size=(dim, dim, dim))
    data = LieAffgebraData(rng.normal(size=(dim, dim)), c - c.transpose(1, 0, 2))
    for f in (data.bracket, data.second_linear):
        _same_as_loop(f(u, w), lambda i: f(u[i], w[i]), count)


# ---------------------------------------------------------------------------
# The expansions as they were before zero coefficients were skipped


def _apply_field_unskipped(data, field, func):
    out = se.Const(0.0)
    for comp, name in zip(field, data.patch.names):
        out = se.add(out, se.mul(comp, se.differentiate(func, name)))
    return out


def _expansion_unskipped(data, f, g, d):
    n, out = data.rank, []
    for k in range(n):
        term = se.Const(0.0)
        for j in range(n):
            term = se.add(term, se.mul(d[j], data.beta[j][k]))
        term = se.add(term, _apply_field_unskipped(data, data.anchor_ref, d[k]))
        for i in range(n):
            for j in range(n):
                term = se.add(term, se.mul(se.mul(f[i], g[j]), data.c[i][j][k]))
        for i in range(n):
            term = se.add(term, se.mul(
                f[i], _apply_field_unskipped(data, data.anchor_lin[i], g[k])))
        for j in range(n):
            term = se.sub(term, se.mul(
                g[j], _apply_field_unskipped(data, data.anchor_lin[j], f[k])))
        out.append(term)
    return out


def _hull_bracket_unskipped(hull, X, Y):
    (h, f), (h2, g), data = X, Y, hull.data
    rho_X, rho_Y = data.anchor(h, f), data.anchor(h2, g)
    weight = se.sub(_apply_field_unskipped(data, rho_X, h2),
                    _apply_field_unskipped(data, rho_Y, h))
    comps = []
    for k in range(data.rank):
        term = se.Const(0.0)
        for j in range(data.rank):
            term = se.add(term, se.mul(se.sub(se.mul(h, g[j]), se.mul(h2, f[j])),
                                       data.beta[j][k]))
        for i in range(data.rank):
            for j in range(data.rank):
                term = se.add(term, se.mul(se.mul(f[i], g[j]), data.c[i][j][k]))
        term = se.add(term, _apply_field_unskipped(data, rho_X, g[k]))
        term = se.sub(term, _apply_field_unskipped(data, rho_Y, f[k]))
        comps.append(term)
    return weight, comps


def _sparse_structure(rng, rank, base_dim, zeros):
    """Bundle data whose coefficients are each the constant 0 with
    probability ``zeros``, else a random polynomial."""
    patch = Patch.box([f"x{i + 1}" for i in range(base_dim)])

    def coeff():
        return se.Const(0.0) if rng.uniform() < zeros else random_polynomial(patch, rng)
    beta = [[coeff() for _ in range(rank)] for _ in range(rank)]
    c = [[[se.Const(0.0)] * rank for _ in range(rank)] for _ in range(rank)]
    for i, j in itertools.combinations(range(rank), 2):
        c[i][j] = [coeff() for _ in range(rank)]
        c[j][i] = [se.neg(e) for e in c[i][j]]
    return LieAffgebroidData(patch, rank, beta, c, [coeff() for _ in range(base_dim)],
                             [[coeff() for _ in range(base_dim)] for _ in range(rank)])


def _counting(monkeypatch):
    calls = []

    def counted(e, v, _original=se.differentiate):
        calls.append(1)
        return _original(e, v)
    monkeypatch.setattr(se, "differentiate", counted)
    return calls


def _expansions(data, rng, expand, hull_bracket):
    """The bracket, a second-slot part and a hull bracket of fresh random
    sections (so no derivative is cached from an earlier call)."""
    patch, n = data.patch, data.rank
    f, g = ([random_polynomial(patch, rng) for _ in range(n)] for _ in range(2))
    X = (random_polynomial(patch, rng), f)
    Y = (random_polynomial(patch, rng), g)
    return [expand(f, g, [se.sub(b, a) for a, b in zip(f, g)]), expand(f, g, g),
            hull_bracket(HullAlgebroidData(data), X, Y)]


def _skipped_and_unskipped(data, seed, monkeypatch):
    calls = _counting(monkeypatch)
    skipped = _expansions(data, np.random.default_rng(seed), data._expansion,
                          HullAlgebroidData.bracket)
    n_skipped = len(calls)
    unskipped = _expansions(data, np.random.default_rng(seed),
                            lambda f, g, d: _expansion_unskipped(data, f, g, d),
                            _hull_bracket_unskipped)
    return skipped, unskipped, n_skipped, len(calls) - n_skipped


@settings(max_examples=40, deadline=None)
@given(rank=st.integers(1, 3), base_dim=st.integers(1, 2),
       zeros=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_skipping_zero_coefficients_builds_the_same_trees(rank, base_dim, zeros, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        data = _sparse_structure(np.random.default_rng(seed), rank, base_dim, zeros)
        skipped, unskipped, n_skipped, n_unskipped = _skipped_and_unskipped(
            data, seed, monkeypatch)
    assert skipped == unskipped
    assert n_skipped <= n_unskipped
    if zeros == 1.0:  # every anchor component is 0: nothing is differentiated
        assert n_skipped == 0 < n_unskipped


def test_the_line_bundle_algebroid_expands_with_fewer_derivatives(monkeypatch):
    data = atiyah_algebroid(Patch.box(("x1", "x2")))
    skipped, unskipped, n_skipped, n_unskipped = _skipped_and_unskipped(data, 3, monkeypatch)
    assert skipped == unskipped
    assert n_skipped < n_unskipped

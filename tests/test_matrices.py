"""Constrained matrix space: centering, the Householder restriction, the
Gaussian law, and the projection, switching-direction and dense
finite-difference oracles of ``conftest``.

Oracles: closed-form traces for centered adjacency matrices, the exact
entry covariance of the constrained Gaussian ensemble, and polynomial
observables whose directional derivatives are known in closed form
(central differences are exact on cubics up to roundoff).
"""

import math

import numpy as np
import pytest

from conftest import (BLOCK_SIZES, constrained_goe_covariance,
                      cycle_adjacency, dense_center_rescale,
                      dense_embed_in_offspace, dense_householder_conjugate,
                      dense_sample_constrained_goe, directional_derivative,
                      h_switch_component, inner_product, project_constrained,
                      switch_direction)
from rrglab.graphs import sample_regular_graph
from rrglab.matrices import (_householder_conjugate, center_rescale,
                             embed_in_offspace, restrict_to_offspace,
                             sample_constrained_goe, uniform_unit)
from rrglab.streams import rng_stream


def test_uniform_unit_is_normalized():
    e = uniform_unit(7)
    assert abs(e @ e - 1.0) < 1e-14
    assert (e > 0).all()


def test_switch_direction_shape_and_row_sums():
    xi = switch_direction(9, 1, 4, 6, 2)
    assert np.array_equal(xi, xi.T)
    assert np.abs(xi.sum(axis=1)).max() == 0.0
    # coincident indices keep zero row sums via the doubling rule
    xi2 = switch_direction(9, 1, 1, 6, 2)
    assert np.abs(xi2.sum(axis=1)).max() == 0.0


def test_switch_direction_norm_is_four_n():
    n = 12
    xi = switch_direction(n, 0, 3, 5, 8)
    assert inner_product(xi, xi) == 4.0 * n  # 8 unit entries, <X,X> = (N/2) tr X^2


def test_inner_product_matches_trace():
    rng = rng_stream(0)
    x, y = rng.normal(size=(2, 6, 6))
    x, y = x + x.T, y + y.T
    assert abs(inner_product(x, y) - 3.0 * np.trace(x @ y)) < 1e-10


def test_h_switch_component_is_trace_against_direction():
    rng = rng_stream(1)
    h = rng.normal(size=(10, 10))
    h = h + h.T
    for i, j, k, l in ((0, 3, 5, 8), (2, 2, 4, 7), (1, 5, 1, 6)):
        xi = switch_direction(10, i, j, k, l)
        assert abs(h_switch_component(h, i, j, k, l)
                   - np.trace(xi @ h)) < 1e-12


def test_project_constrained_properties():
    rng = rng_stream(2)
    mat = rng.normal(size=(8, 8))
    p = project_constrained(mat)
    assert np.abs(p - p.T).max() < 1e-14
    assert np.abs(p.sum(axis=1)).max() < 1e-12
    assert np.abs(project_constrained(p) - p).max() < 1e-13  # idempotent
    w = sample_constrained_goe(8, rng=rng)
    assert np.abs(project_constrained(w) - w).max() < 1e-13  # fixes the space


def test_center_rescale_null_vector_and_trace():
    n, d = 40, 5
    graph = sample_regular_graph(n, d, rng=rng_stream(4))
    h = center_rescale(graph)
    assert np.abs(h.sum(axis=1)).max() < 1e-12
    assert np.abs(h - h.T).max() == 0.0
    # entry census gives the exact squared Frobenius norm
    expected = (n * d * (1 - d / n) ** 2 + (n * n - n * d) * (d / n) ** 2) \
        / (d - 1)
    assert abs((h * h).sum() - expected) < 1e-10
    assert abs(h[0, 0] + (d / n) / math.sqrt(d - 1)) < 1e-15


def test_center_rescale_needs_degree_two():
    graph = sample_regular_graph(10, 1, rng=rng_stream(5))
    with pytest.raises(ValueError):
        center_rescale(graph)


def test_constrained_goe_matches_exact_covariance():
    n, reps = 6, 20000
    rng = rng_stream(6)
    draws = np.empty((reps, n * n))
    for r in range(reps):
        draws[r] = sample_constrained_goe(n, rng=rng).ravel()
    emp = np.cov(draws, rowvar=False, bias=True)
    exact = np.empty((n * n, n * n))
    for a in range(n * n):
        for b in range(n * n):
            i, j = divmod(a, n)
            k, l = divmod(b, n)
            exact[a, b] = constrained_goe_covariance(n, i, j, k, l)
    assert np.abs(draws.mean(axis=0)).max() < 0.02
    assert np.abs(emp - exact).max() < 0.02


def test_constrained_goe_satisfies_constraint():
    w = sample_constrained_goe(30, rng=rng_stream(17))
    assert np.abs(w.sum(axis=1)).max() < 1e-12
    assert np.abs(w - w.T).max() < 1e-15
    assert np.array_equal(w, sample_constrained_goe(30, rng=rng_stream(17)))


def test_restriction_intertwines_with_embedding():
    n = 11
    w = sample_constrained_goe(n, rng=rng_stream(7))
    core = restrict_to_offspace(w.copy())
    # spectra agree after re-inserting the trivial zero
    full = np.sort(np.linalg.eigvalsh(w))
    reduced = np.sort(np.append(np.linalg.eigvalsh(core), 0.0))
    assert np.abs(full - reduced).max() < 1e-12
    # W (embed x) = embed (core x): restriction is orthogonal conjugation
    x = rng_stream(8).normal(size=(n - 1, 3))
    lifted = embed_in_offspace(x)
    assert np.abs(uniform_unit(n) @ lifted).max() < 1e-13
    assert np.abs(np.linalg.norm(lifted, axis=0)
                  - np.linalg.norm(x, axis=0)).max() < 1e-13
    assert np.abs(w @ lifted - embed_in_offspace(core @ x)).max() < 1e-12


def test_directional_derivative_exact_on_cubic():
    rng = rng_stream(9)
    h0 = sample_constrained_goe(9, rng=rng)
    x = project_constrained(rng.normal(size=(9, 9)))
    y = project_constrained(rng.normal(size=(9, 9)))
    z = project_constrained(rng.normal(size=(9, 9)))

    def f(m):
        return float(np.trace(m @ m @ m))

    # at H scaled by 1e3 the third difference at an unscaled step would
    # drown in rounding; the step grows with max|H|, so the same relative
    # tolerances hold
    for h in (h0, 1e3 * h0):
        first = directional_derivative(f, h, [x])
        assert abs(first - 3 * np.trace(h @ h @ x)) < 1e-6 * abs(first)
        second = directional_derivative(f, h, [x, y])
        assert abs(second - 6 * np.trace(h @ x @ y)) < 1e-5 * abs(second)
        third = directional_derivative(f, h, [x, y, z])
        assert abs(third - 6 * np.trace(x @ y @ z)) < 1e-4 * abs(third)


# ---------------------------------------------------------------------------
# The row-blocked, in-place layer against the dense formulas, bit for bit


def _symmetric(n, seed):
    raw = rng_stream(seed).normal(size=(n, n))
    return raw + raw.T


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_householder_conjugate_is_bitwise_the_dense_formula(n):
    for seed in (0, 1, 2):
        mat = _symmetric(n, seed)
        kept = mat.copy()
        want = dense_householder_conjugate(mat)
        assert np.array_equal(_householder_conjugate(mat, np.empty((n, n))),
                              want)
        assert np.array_equal(mat, kept)
        assert _householder_conjugate(mat, mat) is mat  # in place
        assert np.array_equal(mat, want)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_restrict_to_offspace_is_bitwise_in_place(n):
    for seed in (0, 1, 2):
        w = sample_constrained_goe(n, rng=rng_stream(seed))
        want = dense_householder_conjugate(w)
        core = restrict_to_offspace(w)
        assert np.array_equal(core, want[:-1, :-1])
        # the core is a view of the conjugated input: no N x N copy
        assert np.shares_memory(core, w)
        assert np.array_equal(w, want)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_sample_constrained_goe_is_bitwise_the_dense_formula(n):
    for seed in (0, 1, 2):
        rng, ref = rng_stream(seed), rng_stream(seed)
        got = sample_constrained_goe(n, rng=rng)
        want = dense_sample_constrained_goe(n, rng=ref)
        assert np.array_equal(got, want)
        # the draw is taken in blocks of rows but leaves the stream where
        # one (N-1) x (N-1) draw does
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)


@pytest.mark.parametrize("n", BLOCK_SIZES[1:])  # a 2-cycle has degree 1
def test_center_rescale_is_bitwise_the_dense_formula(n):
    graphs = [cycle_adjacency(n)]
    if n > 4:
        graphs += [sample_regular_graph(n, 4, rng=rng_stream(seed))
                   for seed in (0, 1)]
    for graph in graphs:
        assert np.array_equal(center_rescale(graph),
                              dense_center_rescale(graph))


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_embed_in_offspace_is_bitwise_and_leaves_its_input(n):
    for seed, k in ((0, 1), (1, 3), (2, n - 1)):
        x = rng_stream(seed).normal(size=(n - 1, k))
        kept = x.copy()
        # the reversed column view that eigenpairs passes
        for vectors in (x, x[:, ::-1]):
            assert np.array_equal(embed_in_offspace(vectors),
                                  dense_embed_in_offspace(vectors))
        assert np.array_equal(x, kept)

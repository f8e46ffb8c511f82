"""Shared fixtures: small graphs and matrices reused across test modules,
and the oracles that several test modules check the library against."""

from itertools import product

import numpy as np
import pytest

from rrglab.graphs import sample_regular_graph
from rrglab.matrices import (center_rescale, sample_constrained_goe,
                             uniform_unit)
from rrglab.streams import rng_stream


@pytest.fixture(scope="session")
def graph_24_4():
    return sample_regular_graph(24, 4, rng=rng_stream(101))


@pytest.fixture(scope="session")
def h_24_4(graph_24_4):
    return center_rescale(graph_24_4)


@pytest.fixture()
def constrained_matrix_10():
    return sample_constrained_goe(10, rng=rng_stream(103))


@pytest.fixture()
def rng():
    return rng_stream(104)


class ZeroNoise:
    """Generator stand-in whose normal draws are all zero.

    Passed as ``rng`` to an SDE solver, it leaves only the drift: the
    noiseless limit that the zero-noise tests compare with closed forms.
    """

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.full(size, float(loc))


def cycle_adjacency(n):
    adj = np.zeros((n, n), dtype=np.uint8)
    for u in range(n):
        adj[u, (u + 1) % n] = adj[(u + 1) % n, u] = 1
    return adj


def constraint_violation(h):
    """max |(H e)_i| / (N * max|H|), plus symmetry defect on the same scale."""
    n = h.shape[0]
    scale = n * max(abs(h).max(), 1e-300)
    row_sums = abs(h.sum(axis=1)).max()
    asym = abs(h - h.T).max()
    return max(row_sums, asym) / scale


def constrained_goe_covariance(n, i, j, k, l):
    """Exact second moment E[W_ij W_kl] of the constrained Gaussian ensemble."""
    def delta(a, b):
        return 1.0 if a == b else 0.0

    return (delta(i, k) - 1.0 / n) * (delta(j, l) - 1.0 / n) / n \
        + (delta(i, l) - 1.0 / n) * (delta(j, k) - 1.0 / n) / n


def validate_eigenpairs(eigenvalues, eigenvectors, h=None, orth_tol=1e-8,
                        overlap_tol=1e-6, residual_tol=1e-8):
    """Check the invariants of deflated eigenpairs; raises AssertionError."""
    v = eigenvectors
    n, m = v.shape
    gram = v.T @ v - np.eye(m)
    if abs(gram).max() > orth_tol:
        raise AssertionError(f"eigenvectors not orthonormal: {abs(gram).max():.2e}")
    overlaps = abs(uniform_unit(n) @ v)
    if overlaps.max() > overlap_tol:
        raise AssertionError(f"eigenvector not orthogonal to e: {overlaps.max():.2e}")
    if h is not None:
        residual = h @ v - v * eigenvalues
        bound = residual_tol * (1.0 + abs(eigenvalues))
        worst = (np.sqrt((residual ** 2).sum(axis=0)) / bound).max()
        if worst > 1.0:
            raise AssertionError(f"eigenpair residual exceeds tolerance ({worst:.2e}x)")


def stieltjes_observable(z):
    """F(H) = Im s(H; z), s = (1/M) tr G(z) on the nontrivial spectrum.

    The dense observable the generator and seminorm oracles differentiate.
    Works for any N x N H in M without eigenvector deflation: the trivial
    eigenvalue sits exactly at 0, so M s(z) = tr (H - z)^{-1} + 1/z with
    M = N - 1.
    """
    def func(h):
        lam = np.linalg.eigvalsh(h)
        value = (np.sum(1.0 / (lam - z)) + 1.0 / z) / (h.shape[0] - 1)
        return float(value.imag)

    return func


def directional_derivative(func, h, directions):
    """Mixed central-difference derivative of F along matrix directions.

    The dense-stencil oracle: for dense matrix directions X_1, ..., X_n
    (n >= 1), estimates the n-th mixed derivative d^n/dt_1...dt_n
    F(H + sum_a t_a X_a) at t = 0 by the 2^n-corner stencil

        sum_{s in {-1,+1}^n} (prod_a s_a) F(H + step * sum_a s_a X_a)
            / (2 * step)^n,

    with step = base * (1 + max|H|), base 1e-5 for n <= 2 and 1e-3 above,
    the step rule of ``flow.estimate_seminorm``.  Every corner is a full
    evaluation of F, so F's rounding is divided by (2 * step)^n.
    """
    n = len(directions)
    base = 1e-5 if n <= 2 else 1e-3
    step = base * (1.0 + float(abs(h).max()))
    total = 0.0
    for signs in product((1.0, -1.0), repeat=n):
        point = h + step * sum(s * x for s, x in zip(signs, directions))
        total += float(np.prod(signs)) * func(point)
    return total / (2.0 * step) ** n

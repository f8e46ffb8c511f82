"""Shared fixtures: small graphs and matrices reused across test modules,
and the oracles that several test modules check the library against."""

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


def validate_decomposition(decomp, h=None, orth_tol=1e-8, overlap_tol=1e-6,
                           residual_tol=1e-8):
    """Check the decomposition invariants; raises AssertionError on failure."""
    v = decomp.eigenvectors
    gram = v.T @ v - np.eye(decomp.m)
    if abs(gram).max() > orth_tol:
        raise AssertionError(f"eigenvectors not orthonormal: {abs(gram).max():.2e}")
    overlaps = abs(uniform_unit(decomp.n) @ v)
    if overlaps.max() > overlap_tol:
        raise AssertionError(f"eigenvector not orthogonal to e: {overlaps.max():.2e}")
    if h is not None:
        residual = h @ v - v * decomp.eigenvalues
        bound = residual_tol * (1.0 + abs(decomp.eigenvalues))
        worst = (np.sqrt((residual ** 2).sum(axis=0)) / bound).max()
        if worst > 1.0:
            raise AssertionError(f"eigenpair residual exceeds tolerance ({worst:.2e}x)")

"""Spectral layer: decomposition, semicircle functions, gap statistics.

Closed-form oracles: complete graphs and cycles have explicit adjacency
spectra; the semicircle transform satisfies m^2 + z m + 1 = 0; classical
locations invert the tail integral; the Green matrix is the dense resolvent
on e-perp.  Estimators with nontrivial bookkeeping (correlation integrals)
are checked against naive reimplementations evaluated in this file.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import cycle_adjacency, validate_decomposition
from rrglab.graphs import RegularGraph, sample_regular_graph
from rrglab.matrices import center_rescale, sample_constrained_goe
from rrglab.spectra import (DeflationError, SpectralDecomposition,
                            bulk_range, bump, bump_product,
                            bump_test_function, classical_locations,
                            correlation_estimator, decompose,
                            delocalization_stat, gamma_stat, gap_ensemble,
                            gap_statistic, green_matrix, ks_distance,
                            level_repulsion_q, level_repulsion_q_resolvent,
                            rigidity_stat, semicircle_cdf, semicircle_density,
                            semicircle_m, stieltjes_empirical)
from rrglab.streams import rng_stream


def synthetic_decomposition(n, eigenvalues, seed=0):
    """A decomposition-shaped record with prescribed eigenvalues."""
    lam = np.sort(np.asarray(eigenvalues, dtype=np.float64))[::-1]
    raw = rng_stream(seed).normal(size=(n, n - 1))
    vectors, _ = np.linalg.qr(raw)
    return SpectralDecomposition(n=n, eigenvalues=lam, eigenvectors=vectors,
                                 constraint_residual=0.0)


# ---------------------------------------------------------------------------
# Decomposition


def test_complete_graph_spectrum_is_flat():
    n = 8
    adj = np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8)
    decomp = decompose(center_rescale(RegularGraph(adj)))
    expected = -1.0 / math.sqrt(n - 2)
    assert decomp.eigenvalues.shape == (n - 1,)
    assert np.abs(decomp.eigenvalues - expected).max() < 1e-12


def test_cycle_spectrum_matches_cosines():
    n = 12
    decomp = decompose(center_rescale(RegularGraph(cycle_adjacency(n))))
    expected = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(1, n) / n))[::-1]
    assert np.abs(decomp.eigenvalues - expected).max() < 1e-10


def test_decompose_survives_exact_zero_degeneracy():
    # the square's nontrivial adjacency eigenvalues are {0, 0, -2}: two of
    # them coincide exactly with the deflated trivial eigenvalue
    decomp = decompose(center_rescale(RegularGraph(cycle_adjacency(4))),
                       with_vectors=True)
    assert np.abs(decomp.eigenvalues - np.array([0.0, 0.0, -2.0])).max() < 1e-14
    assert decomp.constraint_residual < 1e-14
    validate_decomposition(decomp)


def test_decompose_reconstructs_matrix(h_24_4):
    decomp = decompose(h_24_4, with_vectors=True)
    v = decomp.eigenvectors
    assert np.abs(v @ np.diag(decomp.eigenvalues) @ v.T - h_24_4).max() < 1e-10
    assert (np.diff(decomp.eigenvalues) <= 0).all()
    validate_decomposition(decomp, h=h_24_4)


def test_decompose_rejects_unconstrained_input():
    with pytest.raises(DeflationError):
        decompose(np.ones((6, 6)))


def test_decompose_eigenvalues_match_dense_solver(h_24_4):
    dense = np.sort(np.linalg.eigvalsh(h_24_4))
    # drop the trivial zero from the dense spectrum
    trivial = int(np.argmin(np.abs(dense)))
    kept = np.delete(dense, trivial)
    assert np.abs(np.sort(decompose(h_24_4).eigenvalues) - kept).max() < 1e-10


# ---------------------------------------------------------------------------
# Semicircle functions


def test_semicircle_density_normalization_and_support():
    mass, _ = integrate.quad(semicircle_density, -2, 2)
    assert abs(mass - 1.0) < 1e-10
    assert semicircle_density(2.5) == 0.0
    assert abs(semicircle_density(0.0) - 1.0 / math.pi) < 1e-14


def test_semicircle_cdf_matches_density():
    assert semicircle_cdf(-2.0) == 0.0
    assert semicircle_cdf(2.0) == 1.0
    assert abs(semicircle_cdf(0.0) - 0.5) < 1e-14
    for x in (-1.3, -0.2, 0.7, 1.8):
        h = 1e-6
        fd = (semicircle_cdf(x + h) - semicircle_cdf(x - h)) / (2 * h)
        assert abs(fd - semicircle_density(x)) < 1e-7


def test_semicircle_m_solves_quadratic_and_is_herglotz():
    for z in (0.3 + 0.05j, -1.4 + 0.2j, 1.9 + 1e-3j, 2.5 + 0.4j):
        m = semicircle_m(z)
        assert abs(m * m + z * m + 1.0) < 1e-12
        assert m.imag > 0


def test_semicircle_m_matches_quadrature():
    z = 0.4 + 0.3j

    def integrand_re(x):
        return (semicircle_density(x) / (x - z)).real

    def integrand_im(x):
        return (semicircle_density(x) / (x - z)).imag

    re, _ = integrate.quad(integrand_re, -2, 2, limit=200)
    im, _ = integrate.quad(integrand_im, -2, 2, limit=200)
    assert abs(semicircle_m(z) - (re + 1j * im)) < 1e-8


def test_classical_locations_invert_tail_integral():
    n = 500
    gamma = classical_locations(n)
    assert (np.diff(gamma) < 0).all()
    assert gamma[-1] == -2.0
    assert gamma[n // 2 - 1] == 0.0
    residual = (1.0 - semicircle_cdf(gamma)) - np.arange(1, n + 1) / n
    assert np.abs(residual).max() < 1e-10


def test_stieltjes_empirical_is_mean_resolvent_trace():
    lam = np.array([1.5, 0.2, -0.9])
    z = 0.1 + 0.3j
    expected = np.mean(1.0 / (lam - z))
    assert abs(stieltjes_empirical(lam, z) - expected) < 1e-15


# ---------------------------------------------------------------------------
# Green functions


def test_green_matrix_is_resolvent_on_offspace(h_24_4):
    decomp = decompose(h_24_4, with_vectors=True)
    z = 0.2 + 0.4j
    n = decomp.n
    dense = np.linalg.inv(h_24_4 - z * np.eye(n))
    # the dense resolvent carries the trivial eigenvalue's -1/z on e
    reduced = dense + np.ones((n, n)) / (n * z)
    assert np.abs(green_matrix(decomp, z) - reduced).max() < 1e-10


def test_gamma_stat_is_floored_max_entry(h_24_4):
    decomp = decompose(h_24_4, with_vectors=True)
    z = 0.1 + 2.0j  # far from the spectrum: all entries tiny, floor binds
    assert gamma_stat(decomp, z) == 1.0
    z = 0.1 + 0.05j
    expected = np.abs(green_matrix(decomp, z)).max()
    assert gamma_stat(decomp, z) == max(1.0, expected)


# ---------------------------------------------------------------------------
# Gap statistics


def test_bulk_range_bounds():
    assert bulk_range(1000, 0.1) == (100, 900)
    assert bulk_range(10, 0.1) == (1, 8)
    with pytest.raises(ValueError):
        bulk_range(100, 0.6)


def test_gap_ensemble_of_classical_locations_is_near_one():
    n = 2000
    decomp = SpectralDecomposition(
        n=n, eigenvalues=classical_locations(n)[:n - 1], eigenvectors=None,
        constraint_residual=0.0)
    gaps = gap_ensemble([decomp, decomp], kappa=0.1)
    lo, hi = bulk_range(n, 0.1)
    assert gaps.entries.shape == (2 * (hi - lo + 1),)
    assert (gaps.entries > 0).all()
    assert abs(gaps.entries.mean() - 1.0) < 5e-3
    assert np.abs(gaps.entries - 1.0).max() < 0.05


def test_gap_statistic_matches_naive_average():
    lam_a = np.array([1.2, 0.8, 0.5, -0.1, -0.9])
    lam_b = np.array([1.1, 0.9, 0.3, -0.2, -0.8])
    decomps = [synthetic_decomposition(6, lam) for lam in (lam_a, lam_b)]
    scale = 6 * semicircle_density(classical_locations(6)[1])
    expected = 0.5 * (scale * (lam_a[1] - lam_a[2])
                      + scale * (lam_b[1] - lam_b[2]))
    got = gap_statistic(decomps, 2, 1, lambda g: g)
    assert abs(got - expected) < 1e-12
    with pytest.raises(IndexError):
        gap_statistic(decomps, 5, 1, lambda g: g)


def test_correlation_estimator_matches_naive_sum():
    rng = rng_stream(20)
    n = 30
    decomps = [synthetic_decomposition(n, np.sort(rng.uniform(-1.9, 1.9, n - 1)),
                                       seed=k) for k in range(2)]
    energy, radius = 0.1, 2.0
    pair_phi = bump_product(bump_test_function(0.0, radius),
                            bump_test_function(0.0, radius))
    got = correlation_estimator(decomps, 2, energy, pair_phi, n_nodes=16,
                                support_radius=radius)

    rho = semicircle_density(energy)
    scale = n * rho
    bandwidth = float(n) ** (-1 + 0.3)
    nodes = np.linspace(energy - bandwidth, energy + bandwidth, 16)
    m = n - 1
    total = 0.0
    for decomp in decomps:
        lam = decomp.eigenvalues
        per_node = []
        for node in nodes:
            acc = 0.0
            for a in range(m):
                for b in range(m):
                    if a != b:
                        acc += pair_phi(scale * (lam[a] - node),
                                        scale * (lam[b] - node))
            per_node.append(acc)
        total += np.mean(per_node)
    naive = n ** 2 / (m * (m - 1)) * total / len(decomps)
    assert abs(got - naive) < 1e-10 * max(1.0, abs(naive))
    assert got != 0.0  # the probe actually caught eigenvalue pairs


def test_correlation_estimator_one_point_matches_naive_sum():
    n = 40
    lam = np.linspace(-1.5, 1.5, n - 1)
    decomp = synthetic_decomposition(n, lam)
    radius = 3.0
    phi = bump_test_function(0.0, radius)
    got = correlation_estimator([decomp], 1, 0.0, phi, n_nodes=8,
                                support_radius=radius)
    scale = n * semicircle_density(0.0)
    nodes = np.linspace(-float(n) ** (-0.7), float(n) ** (-0.7), 8)
    naive = n / (n - 1) * np.mean(
        [phi(scale * (lam - node)).sum() for node in nodes])
    assert abs(got - naive) < 1e-10
    with pytest.raises(ValueError):
        correlation_estimator([decomp], 3, 0.0, phi)
    with pytest.raises(ValueError):
        correlation_estimator([decomp], 1, 2.5, phi)


# ---------------------------------------------------------------------------
# Repulsion, delocalization, rigidity


def test_level_repulsion_identity_holds():
    rng = rng_stream(21)
    for trial in range(5):
        n = 20
        lam = np.sort(rng.normal(size=n - 1))[::-1]
        decomp = synthetic_decomposition(n, lam, seed=trial)
        for i in (1, 7, 19):
            q_spec = level_repulsion_q(decomp.eigenvalues, i)
            q_res = level_repulsion_q_resolvent(decomp.eigenvalues,
                                                decomp.eigenvectors, i)
            assert abs(q_spec - q_res) < 1e-12 * q_spec


def test_level_repulsion_q_is_inverse_square_sum():
    lam = np.array([2.0, 1.0, -0.5])
    got = level_repulsion_q(lam, 2, n_ambient=4)
    expected = (1.0 + 1.0 / 1.5 ** 2) / 16.0
    assert abs(got - expected) < 1e-15


def test_level_repulsion_guards_degenerate_gaps():
    lam = np.array([1.0, 1.0, 0.0])
    assert level_repulsion_q(lam, 1) == math.inf


def test_delocalization_stat_is_scaled_max_entry(h_24_4):
    decomp = decompose(h_24_4, with_vectors=True)
    expected = math.sqrt(24) * np.abs(decomp.eigenvectors).max()
    assert delocalization_stat(decomp) == expected
    assert expected >= 1.0  # a unit vector has an entry >= 1/sqrt(N)


def test_rigidity_stat_vanishes_on_classical_locations():
    n = 300
    decomp = SpectralDecomposition(
        n=n, eigenvalues=classical_locations(n)[:n - 1], eigenvectors=None,
        constraint_residual=0.0)
    assert rigidity_stat(decomp) == 0.0
    shifted = SpectralDecomposition(
        n=n, eigenvalues=decomp.eigenvalues + 0.01, eigenvectors=None,
        constraint_residual=0.0)
    assert abs(rigidity_stat(shifted) - 0.01) < 1e-12


# ---------------------------------------------------------------------------
# KS distance


def test_ks_distance_matches_scipy():
    rng = rng_stream(22)
    a, b = rng.normal(size=300), rng.normal(size=200) + 0.1
    scipy_stat = stats.ks_2samp(a, b, method="asymp").statistic
    assert abs(ks_distance(a, b) - scipy_stat) < 1e-12
    assert ks_distance(a, a) == 0.0


def test_bump_functions_support_and_smoothness():
    assert bump(0.0) == 1.0
    assert bump(1.0) == 0.0 and bump(-1.0) == 0.0 and bump(5.0) == 0.0
    assert bump(np.array([0.5])) > 0
    phi = bump_test_function(1.0, 0.5)
    assert phi(1.0) == 1.0 and phi(1.5) == 0.0 and phi(0.4) == 0.0
    pair = bump_product(bump_test_function(0.0, 1.0),
                        bump_test_function(0.0, 2.0))
    assert pair(0.0, 0.0) == 1.0
    assert pair(0.5, 1.5) == bump(0.5) * bump(0.75)
    assert pair(1.5, 0.0) == 0.0

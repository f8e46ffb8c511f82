"""Spectral layer: eigensolves, semicircle functions, gap statistics.

Closed-form oracles: complete graphs and cycles have explicit adjacency
spectra; the semicircle transform satisfies m^2 + z m + 1 = 0; classical
locations invert the tail integral.  Estimators with nontrivial
bookkeeping (correlation integrals) are checked against naive
reimplementations evaluated in this file.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import cycle_adjacency, validate_eigenpairs
from rrglab.matrices import center_rescale, sample_constrained_goe
from rrglab.spectra import (DeflationError, bulk_range, bump, bump_product,
                            bump_test_function, classical_locations,
                            correlation_estimator, decompose,
                            delocalization_stat, eigenpairs, gap_ensemble,
                            ks_distance, rigidity_stat, semicircle_cdf,
                            semicircle_density, semicircle_m,
                            stieltjes_empirical)
from rrglab.streams import rng_stream


# ---------------------------------------------------------------------------
# Eigensolves


def test_complete_graph_spectrum_is_flat():
    n = 8
    adj = np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8)
    lam = decompose(center_rescale(adj))
    expected = -1.0 / math.sqrt(n - 2)
    assert lam.shape == (n - 1,) and lam.dtype == np.float64
    assert np.abs(lam - expected).max() < 1e-12


def test_cycle_spectrum_matches_cosines():
    n = 12
    lam = decompose(center_rescale(cycle_adjacency(n)))
    expected = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(1, n) / n))[::-1]
    assert np.abs(lam - expected).max() < 1e-10


def test_decompose_survives_exact_zero_degeneracy():
    # the square's nontrivial adjacency eigenvalues are {0, 0, -2}: two of
    # them coincide exactly with the deflated trivial eigenvalue
    h = center_rescale(cycle_adjacency(4))
    lam, vectors = eigenpairs(h.copy())
    assert np.abs(lam - np.array([0.0, 0.0, -2.0])).max() < 1e-14
    assert np.abs(decompose(h) - lam).max() < 1e-14
    validate_eigenpairs(lam, vectors)


def test_decompose_reconstructs_matrix(h_24_4):
    lam, v = eigenpairs(h_24_4.copy())
    assert v.shape == (24, 23)
    assert np.abs(v @ np.diag(lam) @ v.T - h_24_4).max() < 1e-10
    assert (np.diff(lam) <= 0).all()
    validate_eigenpairs(lam, v, h=h_24_4)


def test_decompose_rejects_unconstrained_input():
    # the constraint is checked before the in-place deflation writes
    ones = np.ones((6, 6))
    with pytest.raises(DeflationError):
        decompose(ones)
    with pytest.raises(DeflationError):
        eigenpairs(ones)
    assert np.array_equal(ones, np.ones((6, 6)))


def test_decompose_raises_on_a_read_only_matrix(h_24_4):
    # the fixture is read-only, so deflating it in place must raise
    kept = h_24_4.copy()
    with pytest.raises(ValueError, match="read-only"):
        decompose(h_24_4)
    assert np.array_equal(h_24_4, kept)


def test_decompose_traces_no_n_by_n_array():
    # the core is deflated in H itself, and LAPACK's copy of it is not
    # traced: what remains are vectors (a separate N x N core traced
    # 1.10 N^2 here)
    n = 600
    h = sample_constrained_goe(n, rng=rng_stream(23))
    tracemalloc.start()
    try:
        decompose(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 0.25 * n * n, peak / (8 * n * n)


def test_decompose_eigenvalues_match_dense_solver(h_24_4):
    dense = np.sort(np.linalg.eigvalsh(h_24_4))
    # drop the trivial zero from the dense spectrum
    trivial = int(np.argmin(np.abs(dense)))
    kept = np.delete(dense, trivial)
    assert np.abs(np.sort(decompose(h_24_4.copy())) - kept).max() < 1e-10
    assert np.abs(decompose(h_24_4.copy())
                  - eigenpairs(h_24_4.copy())[0]).max() < 1e-12


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
# Gap statistics


def test_bulk_range_bounds():
    assert bulk_range(1000, 0.1) == (100, 900)
    assert bulk_range(10, 0.1) == (1, 8)
    with pytest.raises(ValueError):
        bulk_range(100, 0.6)


def test_gap_ensemble_of_classical_locations_is_near_one():
    n = 2000
    lam = classical_locations(n)[:n - 1]
    gaps = gap_ensemble([lam, lam], kappa=0.1)
    lo, hi = bulk_range(n, 0.1)
    assert gaps.shape == (2 * (hi - lo + 1),)
    assert (gaps > 0).all()
    assert abs(gaps.mean() - 1.0) < 5e-3
    assert np.abs(gaps - 1.0).max() < 0.05


def test_gap_ensemble_refuses_mixed_lengths():
    with pytest.raises(ValueError, match="mixed dimensions"):
        gap_ensemble([classical_locations(100)[:99],
                      classical_locations(101)[:100]], 0.1)
    with pytest.raises(ValueError, match="empty ensemble"):
        gap_ensemble([], 0.1)


def test_correlation_estimator_matches_naive_sum():
    rng = rng_stream(20)
    n = 30
    spectra = [np.sort(rng.uniform(-1.9, 1.9, n - 1))[::-1] for _ in range(2)]
    energy, radius = 0.1, 2.0
    pair_phi = bump_product(bump_test_function(0.0, radius),
                            bump_test_function(0.0, radius))
    got = correlation_estimator(spectra, energy, pair_phi, radius)

    rho = semicircle_density(energy)
    scale = n * rho
    bandwidth = float(n) ** (-1 + 0.3)
    # the estimator's fixed 64-node quadrature grid
    nodes = np.linspace(energy - bandwidth, energy + bandwidth, 64)
    m = n - 1
    total = 0.0
    for lam in spectra:
        per_node = np.zeros(len(nodes))
        for a in range(m):
            for b in range(m):
                if a != b:
                    per_node += pair_phi(scale * (lam[a] - nodes),
                                         scale * (lam[b] - nodes))
        total += np.mean(per_node)
    naive = n ** 2 / (m * (m - 1)) * total / len(spectra)
    assert abs(got - naive) < 1e-10 * max(1.0, abs(naive))
    assert got != 0.0  # the probe actually caught eigenvalue pairs
    with pytest.raises(ValueError):
        correlation_estimator(spectra, 2.5, pair_phi, radius)
    with pytest.raises(ValueError, match="empty ensemble"):
        correlation_estimator([], energy, pair_phi, radius)


# ---------------------------------------------------------------------------
# Delocalization and rigidity


def test_delocalization_stat_is_scaled_max_entry(h_24_4):
    _, vectors = eigenpairs(h_24_4.copy())
    expected = math.sqrt(24) * np.abs(vectors).max()
    assert delocalization_stat(vectors) == expected
    assert expected >= 1.0  # a unit vector has an entry >= 1/sqrt(N)


def test_rigidity_stat_vanishes_on_classical_locations():
    n = 300
    lam = classical_locations(n)[:n - 1]
    assert rigidity_stat(lam, 0.1) == 0.0
    assert abs(rigidity_stat(lam + 0.01, 0.1) - 0.01) < 1e-12


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

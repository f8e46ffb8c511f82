"""Spectral layer: eigensolves, semicircle functions, gap statistics.

Closed-form oracles: complete graphs and cycles have explicit adjacency
spectra; the semicircle transform satisfies m^2 + z m + 1 = 0; classical
locations invert the tail integral.  Statistics with nontrivial
bookkeeping (close pair counts) are checked against naive
reimplementations evaluated in this file.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import cycle_adjacency, validate_eigenpairs
from rrglab.matrices import center_rescale, sample_constrained_goe
from rrglab.spectra import (DeflationError, bulk_range, classical_locations,
                            close_pair_counts, decompose,
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


def _naive_close_pair_count(lam, window, reach):
    """Double loop over the unfolded levels of one spectrum."""
    inside = [v for v in lam if abs(v) < window]
    x = [v * (len(inside) / (2.0 * window)) for v in lam]
    total = 0
    for i, xi in enumerate(x):
        if abs(lam[i]) < window:
            total += sum(abs(xj - xi) < reach
                         for j, xj in enumerate(x) if j != i)
    return total / len(inside)


def test_close_pair_counts_match_double_loop():
    # five levels in |lambda| < 2.5, so x = lambda; -2.25 and -1.75 lie
    # exactly one reach apart, which the strict < leaves out, and 2.625
    # counts as 2.25's partner from outside the window
    lam = np.array([2.625, 2.25, 0.25, 0.0, -1.75, -2.25, -3.0])
    assert _naive_close_pair_count(lam, 2.5, 0.5) == 0.6
    assert close_pair_counts([lam], 2.5, 0.5).tolist() == [0.6]

    rng = rng_stream(20)
    spectra = [np.sort(rng.uniform(-2.0, 2.0, m))[::-1] for m in (5, 30, 61)]
    for window, reach in ((0.5, 0.5), (1.0, 1.7), (1.9, 0.2)):
        got = close_pair_counts(spectra, window, reach)
        naive = [_naive_close_pair_count(lam, window, reach)
                 for lam in spectra]
        assert got.shape == (3,)
        assert np.abs(got - naive).max() < 1e-12
    assert got.max() > 0  # the probe actually caught level pairs


def test_close_pair_counts_refuse_an_empty_window():
    with pytest.raises(ValueError, match="no level"):
        close_pair_counts([np.array([0.1, -0.2]), np.array([-1.0, -1.0])],
                          0.5, 0.5)


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


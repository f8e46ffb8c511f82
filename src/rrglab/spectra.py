"""Spectral observables of constrained matrices.

A constrained matrix H (symmetric, H e = 0) has the trivial eigenpair
(0, e); everything of interest lives in the M = N-1 dimensional complement.
This module computes deflated eigendecompositions and the statistics built
on them: the semicircle density/CDF and its Stieltjes transform m(z), the
classical eigenvalue locations gamma_i, empirical Stieltjes transforms and
Green-function entries, normalized bulk gap ensembles, locally averaged
correlation estimators, the level-repulsion statistic Q_i, delocalization
and rigidity diagnostics, the two-sample Kolmogorov-Smirnov distance, and
smooth compactly supported test functions.

Normalization conventions, fixed throughout: the semicircle density is
rho(x) = sqrt((4 - x^2)_+) / (2 pi) on [-2, 2]; m(z) is the root of
m^2 + z m + 1 = 0 mapping the upper half plane to itself; gamma_i solves
i/N = integral_{gamma_i}^2 rho; bulk gaps are N rho(gamma_i) (lambda_i -
lambda_{i+1}) with eigenvalues sorted descending and ranks 1-based.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrices import embed_in_offspace, restrict_to_offspace


class DeflationError(ValueError):
    """The matrix does not annihilate the uniform vector."""


@dataclass
class SpectralDecomposition:
    """Deflated eigendecomposition of a constrained matrix.

    ``eigenvalues`` are the M = N-1 nontrivial eigenvalues sorted
    descending; ``eigenvectors`` (optional) stacks the matching unit
    eigenvectors as columns of an N x M array, each orthogonal to e;
    ``constraint_residual`` records max|H e|/(1 + max|H|) of the input.
    """

    n: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = None
    constraint_residual: float = 0.0

    @property
    def m(self):
        return self.n - 1


def decompose(h, constraint_tol=1e-8, with_vectors=True):
    """Full symmetric eigendecomposition with the trivial direction removed.

    The trivial eigenpair e (eigenvalue 0) is deflated exactly, before any
    eigensolve, by restricting H to the orthogonal complement of e; this is
    immune to the 0 eigenvalue colliding with bulk values (a rotation inside
    a degenerate eigh cluster could otherwise smear e across eigenvectors).
    Remaining pairs are sorted descending.
    """
    n = h.shape[0]
    residual = float(np.abs(h @ np.ones(n)).max()) / (1.0 + float(np.abs(h).max()))
    if residual > constraint_tol:
        raise DeflationError(
            f"matrix does not annihilate the uniform vector "
            f"(residual {residual:.3e} > {constraint_tol:g})")
    core = restrict_to_offspace(h)
    if with_vectors:
        eigenvalues, core_vectors = np.linalg.eigh(core)
        vectors = embed_in_offspace(core_vectors[:, ::-1])
    else:
        eigenvalues = np.linalg.eigvalsh(core)
        vectors = None
    return SpectralDecomposition(
        n=n,
        eigenvalues=eigenvalues[::-1].copy(),
        eigenvectors=vectors,
        constraint_residual=residual)


# ---------------------------------------------------------------------------
# Semicircle quantities


def semicircle_m(z):
    """Stieltjes transform of the semicircle law: the Herglotz root of
    m^2 + z m + 1 = 0, with real z in (-2, 2) taken as limits from above."""
    z = np.asarray(z, dtype=np.complex128)
    on_cut = (z.imag == 0) & (np.abs(z.real) < 2)
    safe = np.where(on_cut, 1j, z)  # placeholder off the cut, fixed below
    root = np.sqrt(safe * safe - 4.0)
    m = 0.5 * (-safe + root)
    alt = 0.5 * (-safe - root)
    # exactly one root lies in the closed unit disk (the roots multiply to 1)
    m = np.where(np.abs(alt) < np.abs(m), alt, m)
    # Herglotz: flip to the root whose imaginary part matches sign(Im z)
    flip = (np.sign(m.imag) * np.sign(safe.imag)) < 0
    m = np.where(flip, 1.0 / m, m)
    x = z.real
    m_cut = 0.5 * (-x + 1j * np.sqrt(np.maximum(4.0 - x * x, 0.0)))
    m = np.where(on_cut, m_cut, m)
    return m if m.ndim else complex(m)


def semicircle_density(x):
    """rho(x) = sqrt((4 - x^2)_+) / (2 pi)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.sqrt(np.maximum(4.0 - x * x, 0.0)) / (2.0 * np.pi)
    return out if out.ndim else float(out)


def semicircle_cdf(x):
    """integral_{-2}^x rho, clamped outside [-2, 2]; closed form."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.clip(x, -2.0, 2.0)
    out = 0.5 + xc * np.sqrt(4.0 - xc * xc) / (4.0 * np.pi) \
        + np.arcsin(xc / 2.0) / np.pi
    return out if out.ndim else float(out)


def classical_locations(n):
    """gamma_1 > ... > gamma_n solving i/n = integral_{gamma_i}^2 rho.

    Bisection on the closed-form tail integral; residuals below 1e-10.
    gamma_n = -2 exactly (full mass) and gamma_{n/2} = 0 for even n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    targets = np.arange(1, n + 1) / n
    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        # tail(mid) decreases in mid; keep tail(lo) >= target >= tail(hi)
        too_low = (1.0 - semicircle_cdf(mid)) >= targets
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    gamma = 0.5 * (lo + hi)
    gamma[-1] = -2.0
    if n % 2 == 0:
        gamma[n // 2 - 1] = 0.0
    return gamma


# ---------------------------------------------------------------------------
# Empirical transforms and Green functions


def stieltjes_empirical(eigenvalues, z):
    """s(z) = (1/M) sum_k 1/(lambda_k - z) over the nontrivial spectrum."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    return complex(np.mean(1.0 / (lam - z)))


def green_matrix(decomp, z):
    """G(z) = sum_k v_k v_k^T / (lambda_k - z), the resolvent on e-perp."""
    v = decomp.eigenvectors
    return (v / (decomp.eigenvalues - z)) @ v.T


def gamma_stat(decomp, z):
    """Gamma(z) = max_ij |G_ij(z)|, floored at 1."""
    return max(1.0, float(np.abs(green_matrix(decomp, z)).max()))


# ---------------------------------------------------------------------------
# Gap statistics


@dataclass
class GapEnsemble:
    """Pooled normalized bulk gaps N rho(gamma_i) (lambda_i - lambda_{i+1})."""

    entries: np.ndarray
    kappa: float


def bulk_range(n, kappa):
    """1-based eigenvalue ranks i with kappa*N <= i <= (1-kappa)*N, i+1 <= M."""
    if not 0 < kappa < 0.5:
        raise ValueError("kappa must lie in (0, 1/2)")
    lo = max(1, math.ceil(kappa * n))
    hi = min(n - 2, math.floor((1 - kappa) * n))  # need rank i+1 <= M = N-1
    return lo, hi


def gap_ensemble(decomps, kappa=0.1):
    """Pool normalized consecutive bulk gaps over an ensemble of decompositions."""
    decomps = list(decomps)
    if not decomps:
        raise ValueError("empty ensemble")
    n = decomps[0].n
    lo, hi = bulk_range(n, kappa)
    gamma = classical_locations(n)
    scale = n * semicircle_density(gamma[lo - 1:hi])
    entries = []
    for decomp in decomps:
        if decomp.n != n:
            raise ValueError("mixed dimensions in ensemble")
        lam = decomp.eigenvalues
        entries.append(scale * (lam[lo - 1:hi] - lam[lo:hi + 1]))
    return GapEnsemble(entries=np.concatenate(entries), kappa=kappa)


def gap_statistic(decomps, i, n_gaps, phi):
    """Monte Carlo average of phi over normalized gap vectors at rank i.

    For each sample, forms (N rho(gamma_i) (lambda_{i+k} - lambda_{i+k+1}))
    for k = 0..n_gaps-1 (ranks 1-based) and applies phi to the vector.
    """
    decomps = list(decomps)
    if not decomps:
        raise ValueError("empty ensemble")
    n = decomps[0].n
    if i < 1 or i + n_gaps > n - 1:
        raise IndexError(f"gap window [{i}, {i + n_gaps}] outside 1..{n - 1}")
    scale = n * semicircle_density(classical_locations(n)[i - 1])
    total = 0.0
    for decomp in decomps:
        lam = decomp.eigenvalues
        gaps = scale * (lam[i - 1:i + n_gaps - 1] - lam[i:i + n_gaps])
        total += float(phi(*gaps))
    return total / len(decomps)


# ---------------------------------------------------------------------------
# Correlation estimator


def correlation_estimator(decomps, n_point, energy, phi, bandwidth=None,
                          n_nodes=64, support_radius=1.0):
    """Locally averaged n-point correlation integral around ``energy``.

    Estimates the average over E' in [E - b, E + b] of

        N^n (M-n)!/M! sum_{distinct ordered n-tuples}
            phi((lambda_{t_1} - E') N rho(E), ..., (lambda_{t_n} - E') N rho(E)),

    with b = N^(-1+0.3) by default and a uniform 64-node quadrature grid.
    ``phi`` must vanish outside max|x_a| <= support_radius, which bounds the
    eigenvalues that can contribute.
    """
    if n_point not in (1, 2):
        raise ValueError("n_point must be 1 or 2")
    decomps = list(decomps)
    if not decomps:
        raise ValueError("empty ensemble")
    n = decomps[0].n
    m = n - 1
    if bandwidth is None:
        bandwidth = float(n) ** (-1 + 0.3)
    rho = semicircle_density(energy)
    if rho <= 0:
        raise ValueError("energy must lie inside (-2, 2)")
    scale = n * rho
    nodes = np.linspace(energy - bandwidth, energy + bandwidth, n_nodes)
    falling = math.prod(range(m, m - n_point, -1))  # M!/(M-n)!
    norm = float(n) ** n_point / falling
    window = bandwidth + support_radius / scale

    total = 0.0
    for decomp in decomps:
        lam = decomp.eigenvalues
        local = lam[np.abs(lam - energy) <= window]
        if len(local) == 0:
            continue
        x = scale * (local[None, :] - nodes[:, None])  # (nodes, local)
        if n_point == 1:
            values = phi(x).sum(axis=1)
        else:
            pair = phi(x[:, :, None], x[:, None, :])
            pair[:, np.arange(len(local)), np.arange(len(local))] = 0.0
            values = pair.sum(axis=(1, 2))
        total += values.mean()
    return norm * total / len(decomps)


# ---------------------------------------------------------------------------
# Level repulsion, delocalization, rigidity


def level_repulsion_q(eigenvalues, i, n_ambient=None, min_gap=1e-12):
    """Q_i = (1/N^2) sum_{j != i} 1/(lambda_j - lambda_i)^2 (1-based rank i).

    Returns +inf when some gap to lambda_i falls below ``min_gap`` (a
    degenerate eigenvalue), never raises.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if n_ambient is None:
        n_ambient = len(lam) + 1
    diffs = np.delete(lam, i - 1) - lam[i - 1]
    if len(diffs) and np.abs(diffs).min() <= min_gap:
        return math.inf
    return float((1.0 / diffs ** 2).sum()) / n_ambient ** 2


def level_repulsion_q_resolvent(eigenvalues, eigenvectors, i, n_ambient=None,
                                min_gap=1e-12):
    """Q_i computed as tr(R_i^2)/N^2 with R_i = sum_{j != i} v_j v_j^T /
    (lambda_i - lambda_j); the dense cross-check of the spectral sum."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if n_ambient is None:
        n_ambient = len(lam) + 1
    keep = np.arange(len(lam)) != (i - 1)
    diffs = lam[i - 1] - lam[keep]
    if len(diffs) and np.abs(diffs).min() <= min_gap:
        return math.inf
    v = np.asarray(eigenvectors, dtype=np.float64)[:, keep]
    resolvent = (v / diffs) @ v.T
    return float(np.trace(resolvent @ resolvent)) / n_ambient ** 2


def delocalization_stat(decomp):
    """sqrt(N) * max_{k,i} |v_k(i)| over all nontrivial eigenvectors."""
    return math.sqrt(decomp.n) * float(np.abs(decomp.eigenvectors).max())


def rigidity_stat(decomp, kappa=0.1):
    """max over bulk ranks of |lambda_i - gamma_i|."""
    lo, hi = bulk_range(decomp.n, kappa)
    gamma = classical_locations(decomp.n)
    return float(np.abs(decomp.eigenvalues[lo - 1:hi] - gamma[lo - 1:hi]).max())


# ---------------------------------------------------------------------------
# Two-sample KS


def ks_distance(sample_a, sample_b):
    """Two-sample Kolmogorov-Smirnov statistic.

    The sup-distance of the two empirical CDFs, computed by a sorted merge.
    """
    a = np.sort(np.asarray(getattr(sample_a, "entries", sample_a), dtype=np.float64))
    b = np.sort(np.asarray(getattr(sample_b, "entries", sample_b), dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


# ---------------------------------------------------------------------------
# Smooth compactly supported test functions


def bump(x):
    """C-infinity bump exp(1 - 1/(1 - x^2)) on |x| < 1, zero outside."""
    x = np.asarray(x, dtype=np.float64)
    inside = np.abs(x) < 1.0
    xs = np.where(inside, x, 0.0)
    out = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - xs * xs)), 0.0)
    return out if out.ndim else float(out)


def bump_test_function(center=0.0, width=1.0):
    """A shifted/scaled bump x -> bump((x - center)/width); support radius
    ``width`` around ``center``."""
    def phi(x):
        return bump((np.asarray(x, dtype=np.float64) - center) / width)

    return phi


def bump_product(*factors):
    """Tensor product of 1-d test functions: phi(x_1, ..., x_n) = prod f_a(x_a)."""
    def phi(*coords):
        if len(coords) != len(factors):
            raise ValueError(f"expected {len(factors)} coordinates")
        out = factors[0](coords[0])
        for f, x in zip(factors[1:], coords[1:]):
            out = out * f(x)
        return out

    return phi

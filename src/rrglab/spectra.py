"""Spectral observables of constrained matrices.

A constrained matrix H (symmetric, H e = 0) has the trivial eigenpair
(0, e); everything of interest lives in the M = N-1 dimensional complement.
A spectrum is a float64 array of the M nontrivial eigenvalues, descending,
so N is its length plus one: ``decompose`` computes it and ``eigenpairs``
adds the eigenvectors, both in the array of H, which they consume.  Built
on spectra: the semicircle density/CDF and its Stieltjes transform m(z),
the classical eigenvalue locations gamma_i, the empirical Stieltjes
transform, normalized bulk gap ensembles (1-D arrays of pooled gaps),
close level pair counts, delocalization and rigidity diagnostics, and the
two-sample Kolmogorov-Smirnov distance.

Normalization conventions, fixed throughout: the semicircle density is
rho(x) = sqrt((4 - x^2)_+) / (2 pi) on [-2, 2]; m(z) is the root of
m^2 + z m + 1 = 0 mapping the upper half plane to itself; gamma_i solves
i/N = integral_{gamma_i}^2 rho; bulk gaps are N rho(gamma_i) (lambda_i -
lambda_{i+1}) with eigenvalues sorted descending and ranks 1-based.
"""

import math

import numpy as np

from .matrices import embed_in_offspace, restrict_to_offspace

# Largest max|H e| / (1 + max|H|) accepted as H e = 0.
_CONSTRAINT_TOL = 1e-8


class DeflationError(ValueError):
    """The matrix does not annihilate the uniform vector."""


def _deflated_core(h):
    """The (N-1) x (N-1) core of H on the complement of e, built in H.

    Deflating e (eigenvalue 0) before any eigensolve is immune to the 0
    eigenvalue colliding with bulk values, which could otherwise smear e
    across the eigenvectors of a degenerate eigh cluster.  The constraint
    is checked before anything is written, so a rejected H is left as it
    is.
    """
    n = h.shape[0]
    # max|H| as max(max H, -min H): no N x N array of absolute values
    scale = 1.0 + max(float(h.max()), -float(h.min()))
    residual = float(np.abs(h @ np.ones(n)).max()) / scale
    if residual > _CONSTRAINT_TOL:
        raise DeflationError(
            f"matrix does not annihilate the uniform vector "
            f"(residual {residual:.3e} > {_CONSTRAINT_TOL:g})")
    return restrict_to_offspace(h)


def decompose(h):
    """The M = N-1 nontrivial eigenvalues of a constrained H, descending.

    Consumes H: it is deflated in place, so only the core and LAPACK's
    private copy of it are N x N during the eigensolve.  A caller that
    needs H afterwards passes a copy, or keeps H somewhere else, as
    ``recipe_evolve`` keeps the flow's state in its snapshot file.
    """
    return np.linalg.eigvalsh(_deflated_core(h))[::-1].copy()


def eigenpairs(h):
    """The eigenvalues of ``decompose`` and their eigenvectors.

    Returns ``(eigenvalues, vectors)``; column k of the N x M ``vectors``
    is the unit eigenvector of eigenvalue k, orthogonal to e.  Consumes H,
    as ``decompose`` does.
    """
    eigenvalues, vectors = np.linalg.eigh(_deflated_core(h))
    return eigenvalues[::-1].copy(), embed_in_offspace(vectors[:, ::-1])


# ---------------------------------------------------------------------------
# Semicircle quantities


def semicircle_m(z):
    """Stieltjes transform of the semicircle law at Im z > 0: the Herglotz
    root of m^2 + z m + 1 = 0."""
    z = np.asarray(z, dtype=np.complex128)
    root = np.sqrt(z * z - 4.0)
    m = 0.5 * (-z + root)
    alt = 0.5 * (-z - root)
    # exactly one root lies in the closed unit disk (the roots multiply to 1)
    m = np.where(np.abs(alt) < np.abs(m), alt, m)
    # Herglotz: flip to the root whose imaginary part matches sign(Im z)
    flip = (np.sign(m.imag) * np.sign(z.imag)) < 0
    m = np.where(flip, 1.0 / m, m)
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
# Empirical Stieltjes transform


def stieltjes_empirical(eigenvalues, z):
    """s(z) = (1/M) sum_k 1/(lambda_k - z) over the nontrivial spectrum."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    return complex(np.mean(1.0 / (lam - z)))


# ---------------------------------------------------------------------------
# Gap statistics


def bulk_range(n, kappa):
    """1-based eigenvalue ranks i with kappa*N <= i <= (1-kappa)*N, i+1 <= M."""
    if not 0 < kappa < 0.5:
        raise ValueError("kappa must lie in (0, 1/2)")
    lo = max(1, math.ceil(kappa * n))
    hi = min(n - 2, math.floor((1 - kappa) * n))  # need rank i+1 <= M = N-1
    return lo, hi


def gap_ensemble(spectra, kappa):
    """Pooled normalized bulk gaps N rho(gamma_i) (lambda_i - lambda_{i+1}).

    Concatenates, spectrum by spectrum, the gaps at the ranks
    ``bulk_range(N, kappa)``; every spectrum must have the same length.
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("empty ensemble")
    n = len(spectra[0]) + 1
    lo, hi = bulk_range(n, kappa)
    gamma = classical_locations(n)
    scale = n * semicircle_density(gamma[lo - 1:hi])
    gaps = []
    for lam in spectra:
        if len(lam) + 1 != n:
            raise ValueError("mixed dimensions in ensemble")
        gaps.append(scale * (lam[lo - 1:hi] - lam[lo:hi + 1]))
    return np.concatenate(gaps)


# ---------------------------------------------------------------------------
# Close level pairs


def close_pair_counts(spectra, window, reach):
    """Mean number of other levels within ``reach`` of a level in the window.

    Each spectrum is unfolded by its own mean density in the window
    |lambda| < ``window``: x = lambda K / (2 window), with K the number of
    levels inside.  Its count is the mean over those K levels of
    #{j != i : |x_j - x_i| < reach}, and partners outside the window count,
    so no pair is lost at its edge.  GOE levels give the integral of the
    two-point function R_2 = 1 - Y_2 over (-reach, reach); uncorrelated
    levels give 2 reach.  Returns one count per spectrum.
    """
    counts = []
    for lam in spectra:
        lam = np.sort(lam)
        inside = np.abs(lam) < window
        k = np.count_nonzero(inside)
        if k == 0:
            raise ValueError(f"a spectrum has no level in "
                             f"|lambda| < {window:g}")
        x = lam * (k / (2.0 * window))
        centers = x[inside]
        close = (np.searchsorted(x, centers + reach, side="left")
                 - np.searchsorted(x, centers - reach, side="right"))
        # each center lies within reach of itself
        counts.append((close.sum() - k) / k)
    return np.array(counts)


# ---------------------------------------------------------------------------
# Delocalization and rigidity


def delocalization_stat(eigenvectors):
    """sqrt(N) * max_{k,i} |v_k(i)| over the N x M nontrivial eigenvectors."""
    return math.sqrt(eigenvectors.shape[0]) * float(np.abs(eigenvectors).max())


def rigidity_stat(eigenvalues, kappa):
    """max over the ranks ``bulk_range(N, kappa)`` of |lambda_i - gamma_i|."""
    n = len(eigenvalues) + 1
    lo, hi = bulk_range(n, kappa)
    gamma = classical_locations(n)
    return float(np.abs(eigenvalues[lo - 1:hi] - gamma[lo - 1:hi]).max())


# ---------------------------------------------------------------------------
# Two-sample KS


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic.

    The sup-distance of the two empirical CDFs, computed by a sorted merge.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())

"""The constrained matrix space: symmetric N x N matrices annihilating e.

Centered, rescaled adjacency matrices live in

    M = { H : H = H^T, H e = 0 },    e = (1, ..., 1)/sqrt(N).

This module houses the centering map A -> (A - (d/N) J) / sqrt(d-1), the
Householder reflection that restricts a constrained matrix to the
complement of e and embeds vectors back, and the Gaussian stationary
ensemble of the constrained matrix flow.

Matrices are plain float64 numpy arrays, not a wrapper type.
"""

from functools import lru_cache

import numpy as np


def uniform_unit(n):
    """The unit vector e = (1, ..., 1)/sqrt(n)."""
    return np.full(n, 1.0 / np.sqrt(n))


def center_rescale(graph):
    """Centered, rescaled adjacency matrix H = (A - (d/N) J) / sqrt(d-1).

    The all-ones direction is an exact null vector of H, and the nontrivial
    spectrum is asymptotically supported on [-2, 2].
    """
    n, d = len(graph), int(graph[0].sum())
    if d < 2:
        raise ValueError(f"degree must be >= 2 to center and rescale, got {d}")
    return (graph - d / n) / np.sqrt(d - 1.0)


@lru_cache(maxsize=None)
def _householder(n):
    """(u, tau) with R = I - tau u u^T orthogonal, symmetric, R e_N = e."""
    if n == 1:
        return np.zeros(1), 0.0
    u = -uniform_unit(n)
    u[-1] += 1.0
    u.flags.writeable = False
    return u, 2.0 / float(u @ u)


def embed_in_offspace(vectors):
    """Map columns from R^{N-1} into the orthogonal complement of e in R^N.

    Appends a zero coordinate and applies the Householder reflection taking
    e_N to e; the image of any x in R^{N-1} is orthogonal to e.  Takes a
    (N-1) x k column stack.
    """
    vec = np.asarray(vectors, dtype=np.float64)
    m, k = vec.shape
    u, tau = _householder(m + 1)
    padded = np.vstack([vec, np.zeros((1, k))])
    return padded - tau * np.outer(u, u @ padded)


def restrict_to_offspace(mat):
    """Represent a constrained matrix on the orthogonal complement of e.

    Conjugates by the Householder reflection sending e to e_N and drops the
    last row and column; for symmetric H with H e = 0 the result is the
    (N-1) x (N-1) core whose spectrum is exactly the nontrivial spectrum of
    H, and ``embed_in_offspace`` maps its eigenvectors back.
    """
    return _householder_conjugate(mat)[:-1, :-1]


def _householder_conjugate(mat):
    """R M R for symmetric M, with R the reflection of ``_householder``.

    Expands R M R = M - tau u (Mu)^T - tau (Mu) u^T + tau^2 (u^T M u) u u^T
    and computes M u as u @ M, which equals it for symmetric M.
    """
    u, tau = _householder(mat.shape[0])
    um = u @ mat
    out = mat - tau * np.outer(u, um)
    out -= tau * np.outer(um, u)
    out += tau * tau * float(um @ u) * np.outer(u, u)
    return out


def sample_constrained_goe(n, *, rng):
    """Sample the Gaussian stationary law of the constrained matrix flow.

    Draws a symmetric (N-1) x (N-1) Gaussian core with off-diagonal variance
    1/N and diagonal variance 2/N, pads it with a zero row/column, and
    conjugates by the Householder reflection sending e_N to e.  The result W
    is symmetric with W e = 0 and entry covariance

        E[W_ij W_kl] = (1/N) (d_ik - 1/N)(d_jl - 1/N)
                     + (1/N) (d_il - 1/N)(d_jk - 1/N).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = n - 1
    raw = rng.normal(size=(m, m))
    core = (raw + raw.T) / np.sqrt(2.0 * n)
    block = np.zeros((n, n))
    block[:m, :m] = core
    w = _householder_conjugate(block)
    return 0.5 * (w + w.T)

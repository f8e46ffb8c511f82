"""The constrained matrix space: symmetric N x N matrices annihilating e.

Centered, rescaled adjacency matrices live in

    M = { H : H = H^T, H e = 0 },    e = (1, ..., 1)/sqrt(N).

This module houses the centering map A -> (A - (d/N) J) / sqrt(d-1), the
Householder reflection that restricts a constrained matrix to the
complement of e and embeds vectors back, and the Gaussian stationary
ensemble of the constrained matrix flow.

Matrices are plain float64 numpy arrays, not a wrapper type.  The layer
makes no N x N temporaries: the Gaussian draw, the reflection and the
symmetrization work on fixed blocks of rows, in place where the caller
allows it, and every result is built in the array that is returned.  The
restriction to the complement of e works in the matrix it is given, so a
caller that needs H after deflating it keeps its own copy.  Each entry
still takes the operations of the dense formula in the same order, so the
results are bitwise those of the dense formulas.
"""

from functools import lru_cache

import numpy as np

# Rows per block of the draw, the reflection and the symmetrization; their
# temporaries are _ROW_BLOCK x N.
_ROW_BLOCK = 32


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
    h = graph - d / n
    h /= np.sqrt(d - 1.0)
    return h


@lru_cache(maxsize=None)
def _householder(n):
    """(u, tau) with R = I - tau u u^T orthogonal, symmetric, R e_N = e."""
    if n == 1:
        return np.zeros(1), 0.0
    u = -uniform_unit(n)
    u[-1] += 1.0
    u.flags.writeable = False
    return u, 2.0 / float(u @ u)


def _add_outers(mat, terms):
    """mat += scale * outer(left, right) in place, one term after another.

    ``terms`` holds (left, right, scale) triples.  Works on blocks of
    ``_ROW_BLOCK`` rows; entry (i, j) becomes mat_ij + (left_i right_j)
    scale for each term in turn, exactly as in the dense expression.
    """
    rows, cols = mat.shape
    buf = np.empty((min(rows, _ROW_BLOCK), cols))
    for start in range(0, rows, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, rows)
        block, update = mat[start:stop], buf[:stop - start]
        for left, right, scale in terms:
            np.multiply.outer(left[start:stop], right, out=update)
            update *= scale
            block += update
    return mat


def embed_in_offspace(vectors):
    """Map columns from R^{N-1} into the orthogonal complement of e in R^N.

    Appends a zero coordinate and applies the Householder reflection taking
    e_N to e; the image of any x in R^{N-1} is orthogonal to e.  Takes a
    (N-1) x k column stack.
    """
    vec = np.asarray(vectors, dtype=np.float64)
    m, k = vec.shape
    u, tau = _householder(m + 1)
    out = np.zeros((m + 1, k))
    out[:m] = vec
    return _add_outers(out, ((u, u @ out, -tau),))


def restrict_to_offspace(mat):
    """Represent a constrained matrix on the orthogonal complement of e.

    Conjugates by the Householder reflection sending e to e_N and drops the
    last row and column; for symmetric H with H e = 0 the result is the
    (N-1) x (N-1) core whose spectrum is exactly the nontrivial spectrum of
    H, and ``embed_in_offspace`` maps its eigenvectors back.  Consumes
    ``mat``: the conjugation overwrites it, and the core is a view of it.
    """
    return _householder_conjugate(mat)[:-1, :-1]


def _householder_conjugate(mat):
    """R M R in place for symmetric M, R the reflection of ``_householder``.

    Expands R M R = M - tau u (Mu)^T - tau (Mu) u^T + tau^2 (u^T M u) u u^T
    and computes M u as u @ M, which equals it for symmetric M.  Overwrites
    ``mat`` and returns it.
    """
    u, tau = _householder(mat.shape[0])
    um = u @ mat
    return _add_outers(mat, ((u, um, -tau), (um, u, -tau),
                             (u, u, tau * tau * float(um @ u))))


def _symmetrize(mat, op, value):
    """mat <- op(mat + mat^T, value) in place, one strip of rows at a time."""
    n = mat.shape[0]
    buf = np.empty((min(n, _ROW_BLOCK), n))
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        strip = np.add(mat[start:stop, start:], mat[start:, start:stop].T,
                       out=buf[:stop - start, :n - start])
        op(strip, value, out=strip)
        mat[start:stop, start:] = strip
        mat[start:, start:stop] = strip.T
    return mat


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
    # the (N-1) x (N-1) normal draw, a block of rows at a time, in the padded
    # block itself; the core is (raw + raw^T) / sqrt(2N)
    w = np.zeros((n, n))
    for start in range(0, m, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, m)
        w[start:stop, :m] = rng.normal(size=(stop - start, m))
    _symmetrize(w[:m, :m], np.true_divide, np.sqrt(2.0 * n))
    return _symmetrize(_householder_conjugate(w), np.multiply, 0.5)

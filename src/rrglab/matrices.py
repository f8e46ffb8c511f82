"""The constrained matrix space: symmetric N x N matrices annihilating e.

Centered, rescaled adjacency matrices live in

    M = { H : H = H^T, H e = 0 },    e = (1, ..., 1)/sqrt(N),

equipped with the inner product <X, Y> = (N/2) tr(XY).  This module houses
the projection onto that space, the centering map A -> (A - (d/N) J) /
sqrt(d-1), the switching directions xi_ijkl = Delta_ij + Delta_kl -
Delta_ik - Delta_jl (the tangent moves of the jump chain), the Gaussian
stationary ensemble of the constrained matrix flow, and finite-difference
directional derivatives of matrix observables.

Matrices are plain float64 numpy arrays, not a wrapper type.
"""

from functools import lru_cache
from itertools import product

import numpy as np


def uniform_unit(n):
    """The unit vector e = (1, ..., 1)/sqrt(n)."""
    return np.full(n, 1.0 / np.sqrt(n))


def project_constrained(mat):
    """Orthogonally project a square matrix onto the constrained space.

    Computes (1/2) P (M + M^T) P with P = I - e e^T; this is the map through
    which observables on the space are extended to all of R^{N x N}, so
    entrywise derivatives of observables are derivatives along the projected
    coordinate directions (see ``rrglab.flow``).
    """
    sym = 0.5 * (mat + mat.T)
    col_means = sym.mean(axis=0, keepdims=True)
    return sym - col_means - col_means.T + sym.mean()


def center_rescale(graph):
    """Centered, rescaled adjacency matrix H = (A - (d/N) J) / sqrt(d-1).

    The all-ones direction is an exact null vector of H, and the nontrivial
    spectrum is asymptotically supported on [-2, 2].
    """
    d = graph.degree
    if d < 2:
        raise ValueError(f"degree must be >= 2 to center and rescale, got {d}")
    n = graph.n_vertices
    return (graph.adjacency - d / n) / np.sqrt(d - 1.0)


def inner_product(x, y):
    """<X, Y> = (N/2) tr(XY) for square matrices of matching size."""
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return 0.5 * x.shape[0] * float((x * y.T).sum())


def switch_direction(n, i, j, k, l):
    """Dense switching direction xi = Delta_ij + Delta_kl - Delta_ik - Delta_jl.

    Delta_ab places 1 at (a,b) and (b,a) (so 2 at (a,a) when a = b);
    coincident indices are handled exactly by that rule, no special cases.
    The result is symmetric with zero row sums for any index choice.
    """
    xi = np.zeros((n, n))
    for a, b, sign in ((i, j, 1.0), (k, l, 1.0), (i, k, -1.0), (j, l, -1.0)):
        xi[a, b] += sign
        xi[b, a] += sign
    return xi


def h_switch_component(h, i, j, k, l):
    """tr(xi_ijkl H) = 2 (H_ij + H_kl - H_ik - H_jl); valid with coincidences."""
    return 2.0 * (h[i, j] + h[k, l] - h[i, k] - h[j, l])


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
    e_N to e; the image of any x in R^{N-1} is orthogonal to e.  Accepts a
    vector or a (N-1) x k column stack.
    """
    vec = np.atleast_2d(np.asarray(vectors, dtype=np.float64).T).T
    m, k = vec.shape
    u, tau = _householder(m + 1)
    padded = np.vstack([vec, np.zeros((1, k))])
    out = padded - tau * np.outer(u, u @ padded)
    return out[:, 0] if np.ndim(vectors) == 1 else out


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


def directional_derivative(func, h, directions):
    """Mixed central-difference derivative of F along matrix directions.

    For dense matrix directions X_1, ..., X_n, estimates the n-th mixed
    derivative d^n/dt_1...dt_n F(H + sum_a t_a X_a) at t = 0 by the
    2^n-corner stencil

        sum_{s in {-1,+1}^n} (prod_a s_a) F(H + step * sum_a s_a X_a)
            / (2 * step)^n,

    with step = base * (1 + max|H|), base 1e-5 for n <= 2 and 1e-3 above:
    each balances truncation against 64-bit rounding at its orders.
    Repeated directions give pure higher-order derivatives; n = 0 returns
    F(H).  Non-finite F values propagate to the caller.
    """
    n = len(directions)
    if n == 0:
        return func(h)
    base = 1e-5 if n <= 2 else 1e-3
    step = base * (1.0 + float(abs(h).max()))
    total = 0.0
    for signs in product((1.0, -1.0), repeat=n):
        point = h + step * sum(s * x for s, x in zip(signs, directions))
        total += float(np.prod(signs)) * func(point)
    return total / (2.0 * step) ** n

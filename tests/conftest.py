"""Shared fixtures: small graphs and matrices reused across test modules,
and the oracles that several test modules check the library against."""

import math
from itertools import permutations, product

import numpy as np
import pytest

from rrglab.graphs import _MAX_ATTEMPTS, SamplingError, sample_regular_graph
from rrglab.matrices import (_ROW_BLOCK, _householder, center_rescale,
                             sample_constrained_goe, uniform_unit)
from rrglab.spectra import semicircle_m
from rrglab.streams import rng_stream


@pytest.fixture(scope="session")
def graph_24_4():
    return sample_regular_graph(24, 4, rng=rng_stream(101))


@pytest.fixture(scope="session")
def h_24_4(graph_24_4):
    # read-only, like the graph: a call that consumes its input (decompose,
    # eigenpairs) raises on it instead of leaving R H R for later tests
    h = center_rescale(graph_24_4)
    h.flags.writeable = False
    return h


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


def directional_derivative(func, h, directions, step=None):
    """Mixed central-difference derivative of F along matrix directions.

    The dense-stencil oracle: for dense matrix directions X_1, ..., X_n
    (n >= 1), estimates the n-th mixed derivative d^n/dt_1...dt_n
    F(H + sum_a t_a X_a) at t = 0 by the 2^n-corner stencil

        sum_{s in {-1,+1}^n} (prod_a s_a) F(H + step * sum_a s_a X_a)
            / (2 * step)^n,

    whose truncation error is O(step^2).  By default step = base *
    (1 + max|H|), base 1e-5 for n <= 2 and 1e-3 above, which balances that
    truncation against F's rounding.  Every corner is a full evaluation of
    F, so F's rounding is divided by (2 * step)^n.
    """
    n = len(directions)
    if step is None:
        step = (1e-5 if n <= 2 else 1e-3) * (1.0 + float(abs(h).max()))
    total = 0.0
    for signs in product((1.0, -1.0), repeat=n):
        point = h + step * sum(s * x for s, x in zip(signs, directions))
        total += float(np.prod(signs)) * func(point)
    return total / (2.0 * step) ** n


def stieltjes_derivative(z, h, directions):
    """Exact mixed derivative of F = Im s(H; z) along matrix directions.

    The dense resolvent oracle: with G = (H - z)^{-1} and d_X G = -G X G,

        d_{X_1}...d_{X_n} tr G
            = (-1)^n sum_{sigma in S_n} tr(G X_sigma(1) G ... X_sigma(n) G),

    every permutation formed with dense N x N products.  For directions in
    the constrained space (X e = 0) the trivial eigenvalue stays at 0, so
    the derivative of F is Im(.)/(N - 1).
    """
    g = np.linalg.inv(h - z * np.eye(len(h)))
    total = 0.0
    for sigma in permutations(range(len(directions))):
        term = g
        for a in sigma:
            term = term @ directions[a] @ g
        total += np.trace(term)
    return float(((-1) ** len(directions) * total).imag) / (len(h) - 1)


# ---------------------------------------------------------------------------
# The constrained matrix space and the switching directions


def project_constrained(mat):
    """Orthogonally project a square matrix onto the constrained space.

    Computes (1/2) P (M + M^T) P with P = I - e e^T; this is the map through
    which observables on the space are extended to all of R^{N x N}, so
    entrywise derivatives of observables are derivatives along the projected
    coordinate directions (see ``flow_generator_entrywise``).
    """
    sym = 0.5 * (mat + mat.T)
    col_means = sym.mean(axis=0, keepdims=True)
    return sym - col_means - col_means.T + sym.mean()


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


def switchable_tuples(graph):
    """All tuples (i, j, m, n) accepted by the jump chain, as an (K, 4) array.

    The support oracle, which names each move in all four of its spellings.
    The support is ordered pairs of directed edges whose four cross pairs
    are non-adjacent; coincident vertices never appear because each edge's
    far endpoint would make a cross pair adjacent.  Rows are sorted in the
    lexicographic tuple order of the dense N^4 scan.  The (N*d)^2 indicator
    scan runs in fixed-size row blocks to bound peak memory.
    """
    a = graph.astype(bool)
    src, dst = np.nonzero(graph)
    m, n = src[None, :], dst[None, :]
    blocks = []
    block = max(1, (1 << 22) // max(1, src.size))
    for start in range(0, src.size, block):
        i = src[start:start + block, None]
        j = dst[start:start + block, None]
        ok = ~(a[i, m] | a[i, n] | a[j, m] | a[j, n])
        p, q = np.nonzero(ok)
        blocks.append(np.stack([src[start + p], dst[start + p],
                                src[q], dst[q]], axis=1))
    return np.concatenate(blocks).astype(np.int64)


def switched_graph(graph, i, j, m, n):
    """The result of the accepted switching (i,j),(m,n) -> (i,m),(j,n).

    The reversed tuple (i,m,j,n) is accepted on the result and undoes it.
    """
    adj = graph.copy()
    adj[i, j] = adj[j, i] = adj[m, n] = adj[n, m] = 0
    adj[i, m] = adj[m, i] = adj[j, n] = adj[n, j] = 1
    return adj


# ---------------------------------------------------------------------------
# Dense flow generator: switching-direction and entrywise forms


def flow_generator(func, h, step):
    """Finite-difference evaluation of the flow generator L F(H).

    Uses the switching-direction form

        L = (1/(16 N^3)) sum_{ijkl} (d_xi)^2
          - (1/(32 N^2)) sum_{ijkl} tr(xi H) d_xi:

    the dense sum over all N^4 vertex 4-tuples (i,j,k,l) of second
    differences along xi_ijkl, at distance ``step``, weighted 1/(16 N^3)
    minus tr(xi H) times first differences weighted 1/(32 N^2).  It costs
    O(N^4) observable evaluations, so callers keep N small.
    """
    n = h.shape[0]
    f0 = func(h)
    diffusion_w = 1.0 / (16.0 * n ** 3)
    drift_w = 1.0 / (32.0 * n ** 2)
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if i == j == k == l:
                        continue  # xi vanishes identically
                    xi = switch_direction(n, i, j, k, l)
                    f_plus = func(h + step * xi)
                    f_minus = func(h - step * xi)
                    second = (f_plus - 2.0 * f0 + f_minus) / step ** 2
                    first = (f_plus - f_minus) / (2.0 * step)
                    total += (diffusion_w * second - drift_w
                              * h_switch_component(h, i, j, k, l) * first)
    return total


def _entry_direction(n, i, j):
    """The projected coordinate direction (1/2) P Delta_ij P."""
    delta = np.zeros((n, n))
    delta[i, j] += 1.0
    delta[j, i] += 1.0
    return 0.5 * project_constrained(delta)


def flow_generator_entrywise(func, h, step):
    """The entrywise form L F = (1/N) sum_ij d_ij^2 F - (1/2) d_H F.

    Derivatives are central differences at distance ``step`` along the
    projected coordinate directions (1/2) P Delta_ij P (for the diffusion)
    and along H itself (for the drift); evaluation points differ from
    ``flow_generator``'s, making the agreement of the two forms a genuine
    numerical identity check.
    """
    n = h.shape[0]
    f0 = func(h)
    diffusion = 0.0
    for i in range(n):
        for j in range(i, n):
            direction = _entry_direction(n, i, j)
            f_plus = func(h + step * direction)
            f_minus = func(h - step * direction)
            second = (f_plus - 2.0 * f0 + f_minus) / step ** 2
            diffusion += second if i == j else 2.0 * second
    drift = (func(h + step * h) - func(h - step * h)) / (2.0 * step)
    return diffusion / n - 0.5 * drift


def semicircle_semigroup_residual(z, t):
    """|m(z) - e^{t/2} m(e^{t/2} (z + theta_t m(z)))| with theta_t = 1 - e^{-t}.

    The semicircle Stieltjes transform satisfies this identity exactly; the
    residual is pure floating-point noise on any (z, t) grid with Im z > 0.
    """
    m = semicircle_m(z)
    theta = 1.0 - math.exp(-t)
    lift = math.exp(t / 2.0)
    return abs(m - lift * semicircle_m(lift * (z + theta * m)))


# ---------------------------------------------------------------------------
# Dense constrained-matrix formulas: the bitwise oracles of the row-blocked,
# in-place library versions, one N x N temporary per operation

# sizes around the library's row block
BLOCK_SIZES = (2, 3, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
               2 * _ROW_BLOCK + 5)


def rejection_pairing_reference(n, d, rng):
    """Rejection pairing, one stub pair at a time: the loop that the
    sampler's vectorized rejection test must reproduce draw for draw."""
    stubs = np.repeat(np.arange(n), d)
    for _ in range(_MAX_ATTEMPTS):
        perm = rng.permutation(stubs)
        adj = np.zeros((n, n), dtype=np.uint8)
        ok = True
        for u, v in zip(perm[0::2], perm[1::2]):
            if u == v or adj[u, v]:
                ok = False
                break
            adj[u, v] = adj[v, u] = 1
        if ok:
            return adj
    raise SamplingError(
        f"rejection pairing failed after {_MAX_ATTEMPTS} restarts (n={n}, d={d})")


def dense_center_rescale(graph):
    n, d = len(graph), int(graph[0].sum())
    return (graph - d / n) / np.sqrt(d - 1.0)


def dense_householder_conjugate(mat):
    u, tau = _householder(mat.shape[0])
    um = u @ mat
    out = mat - tau * np.outer(u, um)
    out -= tau * np.outer(um, u)
    out += tau * tau * float(um @ u) * np.outer(u, u)
    return out


def dense_embed_in_offspace(vectors):
    vec = np.asarray(vectors, dtype=np.float64)
    m, k = vec.shape
    u, tau = _householder(m + 1)
    padded = np.vstack([vec, np.zeros((1, k))])
    return padded - tau * np.outer(u, u @ padded)


def dense_sample_constrained_goe(n, *, rng):
    m = n - 1
    raw = rng.normal(size=(m, m))
    core = (raw + raw.T) / np.sqrt(2.0 * n)
    block = np.zeros((n, n))
    block[:m, :m] = core
    w = dense_householder_conjugate(block)
    return 0.5 * (w + w.T)


def dense_evolve_exact(h0, t, *, rng):
    w = dense_sample_constrained_goe(h0.shape[0], rng=rng)
    return math.exp(-t / 2.0) * h0 + math.sqrt(1.0 - math.exp(-t)) * w

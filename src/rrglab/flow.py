"""Constrained matrix flow, its generators, and the moment-flow machinery.

The flow is the Ornstein-Uhlenbeck diffusion on the constrained space M
(symmetric, H e = 0) whose stationary law is the constrained Gaussian
ensemble: in distribution H(t) = e^{-t/2} H(0) + (1 - e^{-t})^{1/2} W.  Its
generator acts on observables F extended off M through H -> F((1/2) P (H +
H^T) P), P = I - e e^T, in a switching-direction form and an entrywise
form; the tests evaluate both by finite differences as oracles.  For
Stieltjes observables s(z) = (1/M) tr G(z) on the nontrivial spectrum the
generator reduces to the closed form  L s = (g_3 + g_1 g_2)/(N M) +
h_2/(2 M)  with g_k = sum_i (lambda_i - z)^{-k} and h_2 = sum_i lambda_i
(lambda_i-z)^{-2}, which is what the jump-generator comparison runs at scale.

The jump generator Q of the switching chain applied to the same Stieltjes
observables, and the switching-derivative seminorms of F = Im s(z) that
normalize the Q-vs-L discrepancy, share one path: a switching direction
is a rank-2 update of H, so every resolvent trace they need comes from
gathers of G = (H - z)^{-1} and G^2 and small 2r x 2r algebra.  Both
read the (G, G^2) pair of ``resolvent_pair``, formed once per matrix by
the caller.  Q takes one 2x2 determinant per switching (matrix
determinant lemma); each seminorm probe is a rank-2r Woodbury update, and
its order-r mixed derivative is exact: a sum over permutations of traces
of products of 2x2 resolvent blocks, with no difference step.

Also here: the eigenvector moment flow at p = 1 (an ODE over the M
eigenvector sites driven by a frozen eigenvalue path, integrated by RK4 on
a fixed grid that lands on every knot of the path), the eigenvalue and
eigenvector SDEs, and the free-convolution Stieltjes fixed point.
"""

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .chain import switchings
from .matrices import sample_constrained_goe
from .spectra import decompose

# Eigenvalue gaps below this make the flows' 1/gap terms unsafe.
_MIN_GAP = 1e-8
_EMF_CFL = 0.25  # emf_solve's cap on dt * (max total exit rate)
_EMF_SUBSTEPS = 4  # emf_solve's fewest RK4 steps between two knots
_EMF_MAX_STEPS = 100_000  # emf_solve's step budget
_RATE_BLOCK = 1 << 12  # emf_solve: most rate-matrix entries built at once
_FREE_CONV_MAX_ITER = 10_000
# estimate_seminorm: the power of its mean over samples and its random
# (theta, X) probes per sample
_SEMINORM_POWER = 8
_SEMINORM_PROBES = 64


class SingularityError(RuntimeError):
    """An eigenvalue gap collapsed below the solver's safe threshold."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its residual target."""


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck evolution


def evolve_exact(h0, t, *, rng):
    """Sample H(t) = e^{-t/2} H(0) + (1 - e^{-t})^{1/2} W exactly in law.

    H(t) is built in the array of the draw W, one row at a time, so only
    ``h0`` and the result are N x N; ``h0`` is left as it is.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    w = sample_constrained_goe(h0.shape[0], rng=rng)
    w *= math.sqrt(1.0 - math.exp(-t))
    decay = math.exp(-t / 2.0)
    for row, h_row in zip(w, h0):
        row += decay * h_row
    return w


def evolve_sde(h0, t, dt, *, rng):
    """Euler-Maruyama endpoint of dH = -(1/2) H dt + noise, staying in M.

    Noise increments are sampled as sqrt(dt) times a fresh draw of the
    stationary Gaussian ensemble, which realizes the projected Brownian
    increments' covariance exactly.  The final partial step lands exactly
    on t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return h0.copy()
    if not 0 < dt <= t:
        raise ValueError("need 0 < dt <= t")
    n = h0.shape[0]
    n_full, tail = divmod(t, dt)
    steps = [dt] * int(round(n_full))
    if tail > 1e-12 * t:
        steps.append(tail)
    h = h0.copy()
    for step in steps:
        h *= 1.0 - step / 2.0
        h += math.sqrt(step) * sample_constrained_goe(n, rng=rng)
    return h


# ---------------------------------------------------------------------------
# Flow generator on Stieltjes observables


def stieltjes_flow_generator(h, z):
    """Closed-form L s(z) at a constrained H: no finite differences.

    L s = (g_3 + g_1 g_2)/(N M) + h_2/(2 M), with g_k = sum (lambda-z)^{-k}
    and h_2 = sum lambda (lambda-z)^{-2} over the M = N - 1 nontrivial
    eigenvalues of H (``decompose``, which consumes H).
    """
    lam = decompose(h)
    m = len(lam)
    n = m + 1
    w = 1.0 / (lam - z)
    g1 = w.sum()
    g2 = (w ** 2).sum()
    g3 = (w ** 3).sum()
    h2 = (lam * w ** 2).sum()
    return complex((g3 + g1 * g2) / (n * m) + h2 / (2.0 * m))


# ---------------------------------------------------------------------------
# Jump generator on Stieltjes observables (exact, by rank-2 determinants)


# A switching direction has rank 2: xi_ijkl = v w^T + w v^T with
# v = e_i - e_l and w = e_j - e_k, so in the basis (v, w) it is the 2x2
# swap J = [[0, 1], [1, 0]].


def _bilinear(mat, a, b, p, q):
    """(e_a - e_b)^T mat (e_p - e_q), elementwise over the index arrays."""
    return mat[a, p] - mat[a, q] - mat[b, p] + mat[b, q]


def resolvent_pair(h, z):
    """(G, G^2) with G = (H - z)^{-1}: what Q and the seminorms read of H."""
    g = np.linalg.inv(h - z * np.eye(h.shape[0]))
    return g, g @ g


def switch_generator_stieltjes(graph, pair):
    """Q applied to A -> s(H_A; z), exactly, via rank-2 determinant updates.

    ``pair`` is ``resolvent_pair(H, z)`` of the graph's centered matrix
    H.  The sum runs over the moves of ``chain.switchings``, once each,
    with prefactor 1/(2Nd).  The switching (i,j,k,l) changes H by
    c (v w^T + w v^T), c = -1/sqrt(d-1), v = e_i - e_l, w = e_j - e_k.
    With G = (H - z)^{-1}, V = [v, w] and J the 2x2 swap,
    det(H' - z) = det(H - z) det K with K = I + c J V^T G V, so the
    resolvent trace shift is -(d/dz det K) / det K, where d/dz V^T G V =
    V^T G^2 V.  The six entries of V^T G V and V^T G^2 V are gathers from
    G and G^2, so each switching costs a few elementwise operations.
    """
    n, d = len(graph), int(graph[0].sum())
    g, g_sq = pair
    i, j, k, l = switchings(graph).T
    c = -1.0 / math.sqrt(d - 1.0)
    g_vv, g_ww, g_vw = (_bilinear(g, i, l, i, l), _bilinear(g, j, k, j, k),
                        _bilinear(g, i, l, j, k))
    dg_vv, dg_ww, dg_vw = (_bilinear(g_sq, i, l, i, l),
                           _bilinear(g_sq, j, k, j, k),
                           _bilinear(g_sq, i, l, j, k))
    # K = [[1 + c g_wv, c g_ww], [c g_vv, 1 + c g_vw]], and g_wv = g_vw
    # because G is complex symmetric
    diag = 1.0 + c * g_vw
    det = diag * diag - c * c * g_vv * g_ww
    d_det = 2.0 * c * diag * dg_vw - c * c * (dg_vv * g_ww + g_vv * dg_ww)
    total = complex((-d_det / det).sum())
    return total / (n - 1) / (2.0 * n * d)


# ---------------------------------------------------------------------------
# Switching-derivative seminorms


def _probe_derivatives(pair, sites, thetas, scale):
    """Exact mixed switching derivatives of F = Im s(z) at a stack of probes.

    Probe p (``sites`` (P, r, 4), ``thetas`` (P, r), r the order) sits at
    B_p = H + scale * sum_a thetas[p, a] X_a, X_a the switching direction
    at sites[p, a].  With G_p = (B_p - z)^{-1} and d_X G_p = -G_p X G_p,

        d_{X_1}...d_{X_r} tr G_p
            = (-1)^r sum_{sigma in S_r} tr(G_p X_s1 G_p X_s2 ... X_sr G_p),

    s_a = sigma(a).  Each X_a is V_a J V_a^T with V_a = [v_a, w_a] and J
    the 2x2 swap, so by cyclicity a term is
    tr(J A_{s1 s2} J A_{s2 s3} ... J D_{sr s1}) over the 2x2 blocks
    A_ab = V_a^T G_p V_b and D_ab = V_a^T G_p^2 V_b.  G_p is complex
    symmetric, so a permutation's term equals its reversal's: only those
    with s_1 <= s_r are formed, the others counted by a weight of 2.

    With V holding the columns v_a, w_a of every X_a, B_p = H + V C_p V^T,
    C_p = scale blockdiag(thetas[p, a] J).  ``pair`` is (G, G^2) with
    G = (H - z)^{-1}.  From the gathers G_VV = V^T G V and (G^2)_VV, the
    Woodbury identity with M = (I + C_p G_VV)^{-1} (invertible for
    Im z != 0) gives the blocks
    V^T G_p V = G_VV M and V^T G_p^2 V = M^T (G^2)_VV M.  The trivial
    eigenvalue's -1/z does not move along any X_a, so the derivative of F
    is Im(.)/(N - 1).
    """
    n_probes, order = thetas.shape
    g, g_sq = pair
    # columns v_1, w_1, v_2, w_2, ...: v_a = e_i - e_l, w_a = e_j - e_k
    plus = sites[..., :2].reshape(n_probes, 1, 2 * order)
    minus = sites[..., [3, 2]].reshape(n_probes, 1, 2 * order)
    g_vv, g_sq_vv = (_bilinear(mat, plus.swapaxes(1, 2), minus.swapaxes(1, 2),
                               plus, minus) for mat in (g, g_sq))
    # C_p G_VV: J swaps the rows of each pair, scaled by scale * theta_a
    m = (g_vv.reshape(n_probes, order, 2, 2 * order)[:, :, ::-1]
         * (scale * thetas)[:, :, None, None])
    m = np.linalg.inv(m.reshape(g_vv.shape) + np.eye(2 * order))
    # (J A_ab)_qs = A_ab[1 - q, s], likewise for D, as (P, r, 2, r, 2)
    ja, jd = (mat.reshape(n_probes, order, 2, order, 2)[:, :, ::-1]
              for mat in (g_vv @ m, m.swapaxes(1, 2) @ g_sq_vv @ m))
    del g_vv, g_sq_vv, m  # the chain reads only J A and J D: free the rest
    perms = np.array([s for s in permutations(range(order)) if s[0] <= s[-1]])

    def blocks(mat, a, b):
        """Entries [[x00, x01], [x10, x11]] of the (P, perms) 2x2 blocks."""
        return [[mat[:, :, q, :, s][:, perms[:, a], perms[:, b]]
                 for s in (0, 1)] for q in (0, 1)]

    # the chain of 2x2 products, entry by entry: a batched matmul costs
    # several times more per 2x2 product than its eight multiply-adds
    (t00, t01), (t10, t11) = blocks(jd, -1, 0)
    for a in reversed(range(order - 1)):
        (a00, a01), (a10, a11) = blocks(ja, a, a + 1)
        t00, t01, t10, t11 = (a00 * t00 + a01 * t10, a00 * t01 + a01 * t11,
                              a10 * t00 + a11 * t10, a10 * t01 + a11 * t11)
    weight = (-1.0) ** order * (2.0 if order > 1 else 1.0)
    total = weight * (t00 + t11).sum(axis=1)
    return total.imag / (len(g) - 1)


def estimate_seminorm(resolvents, scale, *, rng):
    """Sampled switching-derivative seminorm of F = Im s(z), max over orders.

    ``resolvents`` holds one ``resolvent_pair`` (G, G^2) per sample H, all
    of one size N and at one z.  For each order n = 1..4 and each sample
    the inner sup over (theta, X) in [0,1]^n x (switching directions)^n is
    replaced by a max over ``_SEMINORM_PROBES`` random draws of
    |d_{X_1}...d_{X_n} F| evaluated at H + scale * sum theta_a X_a; the
    outer average is the L^r mean over samples, r = ``_SEMINORM_POWER``,
    and the result is the largest of the four orders' means.  Each order
    draws its probes at once, order 1 first: the sites as one
    (S, _SEMINORM_PROBES, n, 4) ``integers`` draw on [0, N), then the
    thetas as one (S, _SEMINORM_PROBES, n) ``uniform`` draw, S the number
    of samples.  The derivatives are exact, one sample's probes at a time,
    from low-rank updates of its pair (see ``_probe_derivatives``).
    A sampled max can only undershoot: the estimate is a lower bound of the
    true seminorm.
    """
    n = len(resolvents[0][0])
    means = []
    for order in (1, 2, 3, 4):
        shape = (len(resolvents), _SEMINORM_PROBES, order)
        sites = rng.integers(0, n, size=shape + (4,))
        thetas = rng.uniform(size=shape)
        arr = np.array([
            np.abs(_probe_derivatives(pair, h_sites, h_thetas, scale)).max()
            for pair, h_sites, h_thetas in zip(resolvents, sites, thetas)])
        means.append(
            float(np.mean(arr ** _SEMINORM_POWER) ** (1.0 / _SEMINORM_POWER)))
    return max(means)


# ---------------------------------------------------------------------------
# Eigenvector moment flow


def _gap_matrix(eigenvalues, context):
    """lambda_i - lambda_j with an inf diagonal, so 1/gap vanishes there.

    ``eigenvalues`` is one row of M or a stack of rows, (..., M), and the
    result is (..., M, M).  Raises ``SingularityError`` naming ``context``
    when two eigenvalues of a row lie closer than ``_MIN_GAP``.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    m = lam.shape[-1]
    gap = lam[..., :, None] - lam[..., None, :]
    gap.reshape(-1, m * m)[:, ::m + 1] = np.inf  # every diagonal
    if np.abs(gap).min() < _MIN_GAP:
        raise SingularityError(
            f"eigenvalue gap below {_MIN_GAP:g} during {context}")
    return gap


def moment_flow_rates(eigenvalues):
    """The p = 1 moment-flow generator over the M eigenvector sites.

    The particle hops i -> j at rate W_ij = 1/(M (lambda_i - lambda_j)^2),
    M = the row length; each diagonal entry is minus its row's sum, so
    rows sum to zero.  ``eigenvalues`` is one row, giving one (M, M)
    matrix, or a stack of rows, giving a stack of matrices, each equal to
    its row's own.  Raises ``SingularityError`` when two eigenvalues
    collide.
    """
    gap = _gap_matrix(eigenvalues, "the moment-flow rates")
    m = gap.shape[-1]
    gen = 1.0 / (m * gap ** 2)  # the inf diagonal gives 0
    # a running sum adds each row's hops in site order; a plain row sum
    # may add them pairwise, which changes the last bits
    diag = np.arange(m)
    gen[..., diag, diag] = -np.add.accumulate(gen, axis=-1)[..., -1]
    return gen


def _path_rows(path_times, path_values, times):
    """The piecewise-linear path at each of ``times``, one row per time.

    One search finds every time's knot interval; the value is numpy's own
    interpolation formula slope * (t - x_j) + f_j, and the knot value
    itself at a knot, so each entry equals numpy's column-by-column linear
    interpolation bit for bit.  Outside the knots the path is held at its
    end values.
    """
    times = np.asarray(times, dtype=np.float64)
    last = len(path_times) - 1
    j = np.searchsorted(path_times, times, side="right") - 1
    held = (j < 0) | (j == last)
    j = j.clip(0, last)
    rows = path_values[j]
    inner = ~held & (path_times[j] != times)
    lo, t = j[inner], times[inner]
    slope = ((path_values[lo + 1] - path_values[lo])
             / (path_times[lo + 1] - path_times[lo])[:, None])
    rows[inner] = slope * (t - path_times[lo])[:, None] + path_values[lo]
    return rows


@dataclass
class EmfSolution:
    """Moment-flow values at the requested times, with step diagnostics.

    ``values`` has one row per requested time, in the order asked for.
    ``n_rejected`` is always 0: the fixed grid rejects no step.
    """

    values: np.ndarray  # (len(t_end), M)
    contraction_ok: bool
    n_accepted: int
    n_rejected: int


def emf_solve(path_times, path_values, f0, t_end):
    """Integrate the p = 1 eigenvector moment flow along an eigenvalue path.

    The linear ODE df/dt = R(t) f over the M sites, M the path's width, is
    driven by ``moment_flow_rates`` rebuilt from the eigenvalue path
    (linear interpolation between snapshots).  Classic RK4 on a fixed grid:
    the path's knots and the requested times split [0, max t_end] into
    pieces on which the path is linear, so each total exit rate is convex
    along a piece and the largest is at one of its ends.  Each piece takes
    max(``_EMF_SUBSTEPS``, ceil(length * max exit rate / ``_EMF_CFL``))
    equal steps, which keeps every step an L-infinity contraction (checked
    and recorded).

    The rates at the pieces' ends are built first: they fix every piece's
    step count, and a solve that would take more than ``_EMF_MAX_STEPS``
    steps raises ``ConvergenceError`` before its first step.  The rates at
    every step's midpoint and at the pieces' interior grid points follow,
    in the order the steps read them, so each of the 2 steps + 1 rate
    matrices is built once and the RK4 steps only multiply.  Both are
    built by stacks of rows, at most ``_RATE_BLOCK`` entries a stack.

    ``t_end`` is one time or a sorted grid of times; a single integration
    from t = 0 lands exactly on each of them and returns the flow there,
    one row per time (``f0`` at t = 0), and the step sequence up to the
    first time does not depend on the rest.
    """
    path_times = np.asarray(path_times, dtype=np.float64)
    path_values = np.asarray(path_values, dtype=np.float64)
    m = path_values.shape[1]
    f = np.asarray(f0, dtype=np.float64).copy()
    if f.shape != (m,):
        raise ValueError(f"f0 must have one value per site ({m}), "
                         f"got shape {f.shape}")
    targets = np.atleast_1d(np.asarray(t_end, dtype=np.float64))
    if (np.diff(targets) < 0).any() or (targets < 0).any():
        raise ValueError("t_end must be a nonnegative time or sorted grid")

    block = max(1, _RATE_BLOCK // (m * m))

    def rates(times):
        """The rate matrices at ``times``, built a block of rows at a time."""
        for start in range(0, len(times), block):
            yield from moment_flow_rates(_path_rows(
                path_times, path_values, times[start:start + block]))

    t_max = float(targets.max(initial=0.0))
    knots = path_times[(path_times > 0.0) & (path_times < t_max)]
    edges = sorted({0.0, *knots.tolist(), *targets.tolist()})
    edge_rates = list(rates(edges))
    exit_rates = [float(-np.diagonal(gen).min()) for gen in edge_rates]
    grids = []
    for a, b, exit_a, exit_b in zip(edges[:-1], edges[1:], exit_rates[:-1],
                                    exit_rates[1:]):
        fastest = max(exit_a, exit_b)
        n_piece = max(_EMF_SUBSTEPS, math.ceil((b - a) * fastest / _EMF_CFL))
        grids.append(np.linspace(a, b, n_piece + 1).tolist())
    n_steps = sum(len(grid) - 1 for grid in grids)
    if n_steps > _EMF_MAX_STEPS:
        raise ConvergenceError("moment-flow step budget exhausted")

    # each step's midpoint, then its end unless that ends the piece
    step_times = []
    for grid in grids:
        for t0, t1 in zip(grid[:-1], grid[1:]):
            step_times += [t0 + (t1 - t0) / 2.0, t1]
        step_times.pop()
    inner = rates(step_times)

    at_edge = {0.0: f}
    sup = float(np.abs(f).max())
    contraction_ok = True
    r_start = edge_rates[0]
    for grid, r_end, b in zip(grids, edge_rates[1:], edges[1:]):
        for step, (t0, t1) in enumerate(zip(grid[:-1], grid[1:])):
            dt = t1 - t0
            r_mid = next(inner)
            r_next = r_end if step == len(grid) - 2 else next(inner)
            k1 = r_start @ f
            k2 = r_mid @ (f + dt / 2.0 * k1)
            k3 = r_mid @ (f + dt / 2.0 * k2)
            k4 = r_next @ (f + dt * k3)
            f = f + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            new_sup = float(np.abs(f).max())
            if new_sup > sup * (1.0 + 1e-12) + 1e-300:
                contraction_ok = False
            sup = new_sup
            r_start = r_next
        at_edge[b] = f
    values = np.array([at_edge[t] for t in targets.tolist()]).reshape(-1, m)
    return EmfSolution(values=values, contraction_ok=contraction_ok,
                       n_accepted=n_steps, n_rejected=0)


# ---------------------------------------------------------------------------
# Eigenvalue and eigenvector SDEs


def eigenvalue_path(lambda0, t_end, dt, *, rng):
    """Euler-Maruyama eigenvalue flow with diagonal noise only.

    d lambda_i = dB_ii/sqrt(M) + (1/M) sum_{j != i} dt/(lambda_i - lambda_j)
    - (lambda_i/2) dt, with Var dB_ii = 2 dt and M = len(lambda0): the
    Dyson flow of an M x M matrix.  Returns (times, paths) with
    paths of shape (n_steps+1, M), every row in ascending order (the input
    is sorted on entry); raises ``SingularityError`` if two eigenvalues
    collide.  Each step re-sorts: rank labels are ordered by
    definition, and the discrete scheme (unlike the continuum flow, whose
    repulsion forbids crossings) can hop across a small gap in one step.
    """
    lam = np.sort(np.asarray(lambda0, dtype=np.float64))
    m = len(lam)
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError("t_end must be an integer multiple of dt")
    times = np.linspace(0.0, t_end, n_steps + 1)
    paths = np.empty((n_steps + 1, m))
    paths[0] = lam
    for step in range(n_steps):
        inv = 1.0 / _gap_matrix(lam, "the eigenvalue path")
        drift = inv.sum(axis=1) / m - lam / 2.0
        lam = lam + drift * dt
        lam = lam + (rng.normal(scale=math.sqrt(2.0 * dt), size=m)
                     / math.sqrt(m))
        lam = np.sort(lam)
        paths[step + 1] = lam
    return times, paths


def eigenvector_sde(path_times, path_values, t_end, dt, v0, *, rng,
                    n_replicas, t_start, renormalize=True):
    """Euler-Maruyama eigenvector frames along a frozen eigenvalue path.

    dv_i = (1/sqrt(M)) sum_{j != i} dB_ij/(lambda_i - lambda_j) v_j
         - (1/(2M)) sum_{j != i} dt/(lambda_i - lambda_j)^2 v_i,

    M the path's width, with symmetric noise (B_ij = B_ji, variance dt per
    step) drawn independently per replica, and per-step
    re-orthonormalization by modified Gram-Schmidt (the positive-diagonal
    QR sign convention).  Each step makes one (n_replicas, M(M-1)/2)
    ``standard_normal`` draw, the pairs i < j in ``np.triu_indices(M, 1)``
    order: pair (i, j)'s normal times sqrt(dt/M)/(lambda_i - lambda_j) is
    the coefficient of v_j in dv_i, and its negative, since lambda_j -
    lambda_i = -(lambda_i - lambda_j), is the coefficient of v_i in dv_j.
    That has the law of the symmetrized (raw + raw^T) sqrt(dt/2) over an
    M x M draw, at under half its normals.
    Runs from ``t_start`` to ``t_end`` and returns frames of shape
    (n_replicas, M, M) whose columns are the eigenvectors.  They start from
    ``v0``, a (n_replicas, M, M) stack: identity frames for a fresh run,
    or a previous segment's output, so a run can continue where that
    segment stopped.  ``renormalize=False`` skips the Gram-Schmidt step,
    which leaves the decay drift visible in the column norms.
    """
    path_times = np.asarray(path_times, dtype=np.float64)
    path_values = np.asarray(path_values, dtype=np.float64)
    m = path_values.shape[1]
    if v0.shape != (n_replicas, m, m):
        raise ValueError("v0 must stack n_replicas frames of shape (M, M)")
    frames = np.array(v0, dtype=np.float64)
    span = t_end - t_start
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(span, 1.0):
        raise ValueError("t_end - t_start must be an integer multiple of dt")
    diag = np.arange(m)
    n_pairs = m * (m - 1) // 2
    # the draws, and a last column of ones that the diagonal reads:
    # gathering column pick[j, i] of it gives the coefficient of v_j in
    # v_i's step up to its weight, (i, j) and (j, i) reading the pair's draw
    draws = np.ones((n_replicas, n_pairs + 1))
    pick = np.full((m, m), n_pairs)
    upper = np.triu_indices(m, 1)
    pick[upper] = pick.T[upper] = np.arange(n_pairs)
    rows = _path_rows(path_times, path_values,
                      t_start + np.arange(n_steps) * dt)
    for lam in rows:
        gap = _gap_matrix(lam, "the eigenvector flow")
        weight = math.sqrt(dt / m) / gap  # the inf diagonal gives 0
        weight[diag, diag] = 1.0 - (dt / (2.0 * m)) * (1.0 / gap ** 2).sum(
            axis=1)
        draws[:, :n_pairs] = rng.standard_normal((n_replicas, n_pairs))
        update = draws[:, pick]  # I + C^T, C_ij the weight of v_j in dv_i
        update *= weight.T
        frames = frames @ update
        if renormalize:
            frames = _orthonormalize(frames)
    return frames


# Replicas per block of _orthonormalize: a block of both layouts and the
# projections' temporaries stays in cache, where whole-array passes over
# 10^4 replicas would not, and is large enough that numpy's per-call cost
# stays small beside the arithmetic.
_LAYOUT_BLOCK = 1024


def _orthonormalize(frames):
    """Modified Gram-Schmidt on the columns of every frame in a stack.

    Each block of ``_LAYOUT_BLOCK`` replicas of the (n_replicas, dim, M)
    stack is copied to a replicas-last layout, in which column k of every
    replica is one contiguous (dim, block) slab.  Right-looking: once
    column k is normalized, its projection leaves all later columns in one
    whole-array update, so column j still receives the projections on
    q_0, ..., q_{j-1} in that order and on the same intermediate values
    as in the column-by-column form, bit for bit.  Each column's norm
    divides it after its projections, so the implied R factor has a
    positive diagonal: the sign convention of a QR factorization whose R
    diagonal is made positive.
    """
    n, dim, m = frames.shape
    out = np.empty_like(frames)
    for start in range(0, n, _LAYOUT_BLOCK):
        block = slice(start, start + _LAYOUT_BLOCK)
        cols = frames[block].transpose(2, 1, 0).copy()
        for k in range(m):
            q = cols[k]
            q /= np.sqrt((q * q).sum(axis=0))
            later = cols[k + 1:]
            later -= (q * later).sum(axis=1)[:, None] * q
        out[block] = cols.transpose(2, 1, 0)
    return out


# ---------------------------------------------------------------------------
# Free convolution with the semicircle flow


def free_conv_stieltjes(initial_spectrum, t, z, tol=1e-12):
    """Stieltjes transform of the free-convolution evolution at time t.

    Solves m = (1/M) sum_i 1/(e^{-t/2} lambda_i - z - (1 - e^{-t}) m) by
    damped fixed-point iteration (omega = 0.5, halved when the residual
    oscillates) started from the empirical t = 0 value; the self-consistency
    residual is driven below ``tol`` (at t = 0 the start has residual 0).
    Herglotz by construction.
    """
    lam = np.asarray(initial_spectrum, dtype=np.float64)
    if z.imag <= 0:
        raise ValueError("need Im z > 0")
    if t < 0:
        raise ValueError("t must be nonnegative")
    current = complex(np.mean(1.0 / (lam - z)))
    shrink = math.exp(-t / 2.0)
    theta = 1.0 - math.exp(-t)
    scaled = shrink * lam

    def rhs(value):
        return complex(np.mean(1.0 / (scaled - z - theta * value)))

    omega = 0.5
    prev_residual = math.inf
    for _ in range(_FREE_CONV_MAX_ITER):
        image = rhs(current)
        residual = abs(image - current)
        if residual < tol:
            return current
        if residual > prev_residual:
            omega = max(omega / 2.0, 1e-3)
        current = (1.0 - omega) * current + omega * image
        prev_residual = residual
    raise ConvergenceError(
        f"free-convolution fixed point stalled at residual {prev_residual:.3e} "
        f"(target {tol:g}) after {_FREE_CONV_MAX_ITER} iterations")


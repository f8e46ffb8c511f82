"""Constrained matrix flow, its generators, and the moment-flow machinery.

The flow is the Ornstein-Uhlenbeck diffusion on the constrained space M
(symmetric, H e = 0) whose stationary law is the constrained Gaussian
ensemble: in distribution H(t) = e^{-t/2} H(0) + (1 - e^{-t})^{1/2} W.  Its
generator acts on observables F extended off M through H -> F((1/2) P (H +
H^T) P), P = I - e e^T, and has two algebraically equal forms:

  * the switching-direction form
        L = (1/(16 N^3)) sum_{ijkl} (d_xi)^2
          - (1/(32 N^2)) sum_{ijkl} tr(xi H) d_xi,
    summing over all vertex 4-tuples with xi = xi_ijkl the switching
    direction and d_xi the derivative along it;
  * the entrywise form  L = (1/N) sum_{ij} d_ij^2 - (1/2) d_H,
    where d_ij differentiates along (1/2) P Delta_ij P and d_H along H.

Both are evaluated by finite differences (at different stencil points, so
their agreement is a genuine cross-check).  For Stieltjes observables
s(z) = (1/M) tr G(z) on the nontrivial spectrum the generator reduces to
the closed form  L s = (g_3 + g_1 g_2)/(N M) + h_2/(2 M)  with
g_k = sum_i (lambda_i - z)^{-k} and h_2 = sum_i lambda_i (lambda_i-z)^{-2},
which is what the jump-generator comparison runs at scale.

The jump generator Q of the switching chain applied to the same Stieltjes
observables is evaluated exactly by batched rank-4 Woodbury resolvent
updates over the switchable-tuple support.

Also here: the eigenvector moment flow at p = 1 (an ODE over the M
eigenvector sites driven by a frozen eigenvalue path, integrated by RK4 on
a fixed grid that lands on every knot of the path), the eigenvalue and
eigenvector SDEs, and the free-convolution Stieltjes fixed point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain import switchable_tuples
from .matrices import (center_rescale, directional_derivative,
                       h_switch_component, project_constrained,
                       sample_constrained_goe, switch_direction)
from .spectra import decompose, semicircle_m
from .streams import rng_stream

# Dense generator sums cost O(N^4) observable evaluations.
DENSE_GENERATOR_LIMIT = 40
# Eigenvalue gaps below this make the flows' 1/gap terms unsafe.
_MIN_GAP = 1e-8
_EMF_CFL = 0.25  # emf_solve's cap on dt * (max total exit rate)
_EMF_SUBSTEPS = 4  # emf_solve's fewest RK4 steps between two knots
_EMF_MAX_STEPS = 100_000  # emf_solve's step budget
_FREE_CONV_MAX_ITER = 10_000
# estimate_seminorm: the power of its mean over samples and its random
# (theta, X) probes per sample; qf_lf_compare: samples per degree it uses
_SEMINORM_POWER = 8
_SEMINORM_PROBES = 64
_SEMINORM_SAMPLES = 16


class SingularityError(RuntimeError):
    """An eigenvalue gap collapsed below the solver's safe threshold."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its residual target."""


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck evolution


def evolve_exact(h0, t, *, rng):
    """Sample H(t) = e^{-t/2} H(0) + (1 - e^{-t})^{1/2} W exactly in law."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return h0.copy()
    w = sample_constrained_goe(h0.shape[0], rng=rng)
    return math.exp(-t / 2.0) * h0 + math.sqrt(1.0 - math.exp(-t)) * w


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
# Flow generator: switching-direction and entrywise forms


def flow_generator(func, h, step):
    """Finite-difference evaluation of the flow generator L F(H).

    Uses the switching-direction form: the dense sum over all N^4 vertex
    4-tuples (i,j,k,l) of second differences along xi_ijkl, at distance
    ``step``, weighted 1/(16 N^3) minus tr(xi H) times first differences
    weighted 1/(32 N^2).  It costs O(N^4) observable evaluations, so it is
    refused above N = ``DENSE_GENERATOR_LIMIT``.
    """
    n = h.shape[0]
    if n > DENSE_GENERATOR_LIMIT:
        raise ValueError(
            f"dense generator sum is gated at N <= {DENSE_GENERATOR_LIMIT}")

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


def stieltjes_observable(z):
    """F(H) = Im s(H; z), s = (1/M) tr G(z) on the nontrivial spectrum.

    Works for any N x N H in M without eigenvector deflation: the trivial
    eigenvalue sits exactly at 0, so M s(z) = tr (H - z)^{-1} + 1/z with
    M = N - 1.
    """
    def func(h):
        lam = np.linalg.eigvalsh(h)
        value = (np.sum(1.0 / (lam - z)) + 1.0 / z) / (h.shape[0] - 1)
        return float(value.imag)

    return func


def stieltjes_flow_generator(eigenvalues, z):
    """Closed-form L s(z) on a nontrivial spectrum: no finite differences.

    L s = (g_3 + g_1 g_2)/(N M) + h_2/(2 M), with g_k = sum (lambda-z)^{-k}
    and h_2 = sum lambda (lambda-z)^{-2}.  ``eigenvalues`` excludes the
    trivial zero, so N = M + 1.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    m = len(lam)
    n = m + 1
    w = 1.0 / (lam - z)
    g1 = w.sum()
    g2 = (w ** 2).sum()
    g3 = (w ** 3).sum()
    h2 = (lam * w ** 2).sum()
    return complex((g3 + g1 * g2) / (n * m) + h2 / (2.0 * m))


# ---------------------------------------------------------------------------
# Jump generator on Stieltjes observables (exact, Woodbury-accelerated)

# xi_ijmn restricted to the rows/columns (i, j, m, n), in that basis order.
_SWITCH_PATTERN = switch_direction(4, 0, 1, 2, 3)


def switch_generator_stieltjes(graph, z):
    """Q applied to A -> s(H_A; z), exactly, via rank-4 resolvent updates.

    Each accepted switching changes H by a rank-4 symmetric update
    U C U^T (C = -xi[S,S]/sqrt(d-1)); the resolvent trace moves by
    -tr[(I + C M)^{-1} C (G^2)[S,S]] with M = G[S,S], which the Woodbury
    identity gives without re-decomposing.  The batched 4x4 solves run in
    fixed-size blocks of tuples to bound peak memory.
    """
    n, d = graph.n_vertices, graph.degree
    m = n - 1
    h = center_rescale(graph)
    g = np.linalg.inv(h - z * np.eye(n))
    tuples = switchable_tuples(graph)
    if len(tuples) == 0:
        return 0j
    g_sq = g @ g
    c = -_SWITCH_PATTERN / math.sqrt(d - 1.0)
    eye = np.eye(4)
    total = 0j
    block = 1 << 15
    for start in range(0, len(tuples), block):
        chunk = tuples[start:start + block]
        rows = chunk[:, :, None]
        cols = chunk[:, None, :]
        lhs = eye + np.matmul(c, g[rows, cols])
        solved = np.linalg.solve(lhs, np.broadcast_to(c, lhs.shape).copy())
        trace_shift = -np.einsum("kab,kba->k", solved, g_sq[rows, cols])
        total += complex(trace_shift.sum())
    return total / m / (8.0 * n * d)


# ---------------------------------------------------------------------------
# Seminorm estimation and the Q-vs-L discrepancy scan


def estimate_seminorm(func, matrices, order, scale, *, rng):
    """Sampled estimate of the order-n (1..4) switching-derivative seminorm.

    For each sample H the inner sup over (theta, X) in [0,1]^n x
    (switching directions)^n is replaced by a max over ``_SEMINORM_PROBES``
    random draws of |d_{X_1}...d_{X_n} F| evaluated at
    H + scale * sum theta_a X_a; the outer average is the L^r mean over
    samples, r = ``_SEMINORM_POWER``.  A sampled max can only undershoot:
    the estimate is a lower bound of the true seminorm.
    """
    if order < 1 or order > 4:
        raise ValueError("order must be in 1..4")
    values = []
    for h in matrices:
        n = h.shape[0]
        best = 0.0
        for _ in range(_SEMINORM_PROBES):
            sites = rng.integers(0, n, size=(order, 4))
            thetas = rng.uniform(size=order)
            dirs = [switch_direction(n, *site) for site in sites]
            base = h + scale * sum(t * x for t, x in zip(thetas, dirs))
            value = abs(directional_derivative(func, base, dirs))
            best = max(best, value)
        values.append(best)
    arr = np.asarray(values, dtype=np.float64)
    return float(np.mean(arr ** _SEMINORM_POWER) ** (1.0 / _SEMINORM_POWER))


@dataclass(frozen=True)
class DiscrepancyRow:
    """Q-vs-L discrepancy at one degree, normalized by its predicted scale."""

    degree: int
    big_d: float
    mean_abs: float
    stderr: float
    seminorm: float
    normalized: float
    normalized_stderr: float
    n_samples: int


def qf_lf_compare(n, degrees, z, n_samples, seed):
    """Measure E|Qf - LF| for F = Im s(z) over uniform graph ensembles.

    For each degree d: samples graphs, evaluates the jump generator exactly
    (Woodbury) and the flow generator in closed form, and reports the mean
    absolute discrepancy normalized by D^{-1/2} N max_{1<=k<=4} of the
    sampled order-k seminorms (D = min(d, N^2/d^3)).  The normalized
    discrepancy should decrease as d grows.  The seminorms are L^8 means
    over the first ``_SEMINORM_SAMPLES`` graphs of each degree.
    """
    # imported here, not at the top, so that the traced benchmark's wrapper
    # of graphs.sample_regular_graph sees generator-check's pairing: a
    # top-level import would bind the unwrapped function and make
    # graphs.pairing_s read 0
    from .graphs import sample_regular_graph

    func = stieltjes_observable(z)
    rows = []
    for d_idx, d in enumerate(degrees):
        discrepancies = np.empty(n_samples)
        matrices = []
        for s_idx in range(n_samples):
            rng = rng_stream(seed, stream_id=d_idx * 1_000_000 + s_idx)
            graph = sample_regular_graph(n, d, rng=rng)
            h = center_rescale(graph)
            q_val = switch_generator_stieltjes(graph, z).imag
            l_val = stieltjes_flow_generator(decompose(h), z).imag
            discrepancies[s_idx] = abs(q_val - l_val)
            if len(matrices) < _SEMINORM_SAMPLES:
                matrices.append(h)
        seminorm_rng = rng_stream(seed, stream_id=900_000_000 + d_idx)
        seminorm = max(
            estimate_seminorm(func, matrices, order, 1.0 / math.sqrt(d - 1.0),
                              rng=seminorm_rng)
            for order in (1, 2, 3, 4))
        big_d = min(float(d), n ** 2 / d ** 3)
        denom = big_d ** -0.5 * n * seminorm
        mean = float(discrepancies.mean())
        stderr = float(discrepancies.std(ddof=1)) / math.sqrt(n_samples)
        rows.append(DiscrepancyRow(
            degree=d, big_d=big_d, mean_abs=mean, stderr=stderr,
            seminorm=seminorm, normalized=mean / denom,
            normalized_stderr=stderr / denom, n_samples=n_samples))
    return rows


# ---------------------------------------------------------------------------
# Eigenvector moment flow


def _gap_matrix(eigenvalues, context):
    """lambda_i - lambda_j with an inf diagonal, so 1/gap vanishes there.

    Raises ``SingularityError`` naming ``context`` when two eigenvalues
    lie closer than ``_MIN_GAP``.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    gap = lam[:, None] - lam[None, :]
    np.fill_diagonal(gap, np.inf)
    if np.abs(gap).min() < _MIN_GAP:
        raise SingularityError(
            f"eigenvalue gap below {_MIN_GAP:g} during {context}")
    return gap


def moment_flow_rates(eigenvalues):
    """The p = 1 moment-flow generator over the M eigenvector sites.

    The particle hops i -> j at rate W_ij = 1/(M (lambda_i - lambda_j)^2),
    M = len(eigenvalues); each diagonal entry is minus its row's sum, so
    rows sum to zero.  Raises ``SingularityError`` when two eigenvalues
    collide.
    """
    gap = _gap_matrix(eigenvalues, "the moment-flow rates")
    gen = 1.0 / (len(gap) * gap ** 2)  # the inf diagonal gives 0
    # a running sum adds each row's hops in site order; a plain row sum
    # may add them pairwise, which changes the last bits
    np.fill_diagonal(gen, -np.add.accumulate(gen, axis=1)[:, -1])
    return gen


def _path_row(path_times, path_values, t):
    """The piecewise-linear path at time t, all columns at once.

    One search finds the knot interval for the whole eigenvalue row; the
    value is numpy's own interpolation formula slope * (t - x_j) + f_j, and
    the knot value itself at a knot, so each entry equals numpy's
    column-by-column linear interpolation bit for bit.  Outside the knots
    the path is held at its end values.  The returned row may be a view of
    ``path_values``.
    """
    j = int(np.searchsorted(path_times, t, side="right")) - 1
    if j < 0:
        return path_values[0]
    if j == len(path_times) - 1 or path_times[j] == t:
        return path_values[j]
    lo, hi = path_values[j], path_values[j + 1]
    slope = (hi - lo) / (path_times[j + 1] - path_times[j])
    return slope * (t - path_times[j]) + lo


@dataclass
class EmfSolution:
    """Fixed-grid moment-flow solution with per-step contraction diagnostics.

    ``n_rejected`` is always 0: the fixed grid rejects no step.
    """

    times: np.ndarray
    values: np.ndarray  # (len(times), M)
    sup_norms: np.ndarray
    contraction_ok: bool
    n_accepted: int
    n_rejected: int

    @property
    def final(self):
        return self.values[-1]

    def value_at(self, t):
        """The solution at a time the integration landed on exactly."""
        hits = np.flatnonzero(self.times == t)
        if not hits.size:
            raise ValueError(f"t={t:g} is not a time of this solution")
        return self.values[hits[0]]


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
    and recorded).  A solve that would take more than ``_EMF_MAX_STEPS``
    steps raises ``ConvergenceError`` before the piece that crosses it.

    ``t_end`` is one time or a sorted grid of times; a single integration
    from t = 0 lands exactly on each of them (see ``EmfSolution.value_at``),
    and the step sequence up to the first time does not depend on the rest.
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

    def rates(t):
        return moment_flow_rates(_path_row(path_times, path_values, t))

    def max_exit_rate(gen):
        return float(-np.diag(gen).min())

    t_max = float(targets.max(initial=0.0))
    knots = path_times[(path_times > 0.0) & (path_times < t_max)]
    edges = sorted({0.0, *knots.tolist(), *targets.tolist()})

    times = [0.0]
    history = [f.copy()]
    sup_norms = [float(np.abs(f).max())]
    contraction_ok = True
    n_steps = 0
    r_start = rates(0.0)
    for a, b in zip(edges[:-1], edges[1:]):
        r_end = rates(b)
        fastest = max(max_exit_rate(r_start), max_exit_rate(r_end))
        n_piece = max(_EMF_SUBSTEPS, math.ceil((b - a) * fastest / _EMF_CFL))
        if n_steps + n_piece > _EMF_MAX_STEPS:
            raise ConvergenceError("moment-flow step budget exhausted")
        grid = np.linspace(a, b, n_piece + 1).tolist()
        for step, (t0, t1) in enumerate(zip(grid[:-1], grid[1:])):
            dt = t1 - t0
            r_mid = rates(t0 + dt / 2.0)
            r_next = r_end if step == n_piece - 1 else rates(t1)
            k1 = r_start @ f
            k2 = r_mid @ (f + dt / 2.0 * k1)
            k3 = r_mid @ (f + dt / 2.0 * k2)
            k4 = r_next @ (f + dt * k3)
            f = f + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            new_sup = float(np.abs(f).max())
            if new_sup > sup_norms[-1] * (1.0 + 1e-12) + 1e-300:
                contraction_ok = False
            times.append(t1)
            history.append(f)
            sup_norms.append(new_sup)
            r_start = r_next
        n_steps += n_piece
    return EmfSolution(times=np.array(times),
                       values=np.stack(history), sup_norms=np.array(sup_norms),
                       contraction_ok=contraction_ok,
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


def eigenvector_sde(path_times, path_values, t_end, dt, v0=None, *, rng,
                    n_replicas=1, renormalize=True, t_start=0.0):
    """Euler-Maruyama eigenvector frames along a frozen eigenvalue path.

    dv_i = (1/sqrt(M)) sum_{j != i} dB_ij/(lambda_i - lambda_j) v_j
         - (1/(2M)) sum_{j != i} dt/(lambda_i - lambda_j)^2 v_i,

    M the path's width, with symmetric noise (B_ij = B_ji, off-diagonal
    variance dt per step pair) drawn independently per replica, and
    per-step re-orthonormalization by modified Gram-Schmidt (the
    positive-diagonal QR sign convention).
    Returns frames of shape (n_replicas, M, M) whose columns are the
    eigenvectors.  They start from identity frames, or from ``v0``, a
    (n_replicas, M, M) stack, so a run can continue where a previous
    segment stopped (pass its output and ``t_start``).
    """
    path_times = np.asarray(path_times, dtype=np.float64)
    path_values = np.asarray(path_values, dtype=np.float64)
    m = path_values.shape[1]
    if v0 is None:
        v0 = np.broadcast_to(np.eye(m), (n_replicas, m, m))
    if v0.shape != (n_replicas, m, m):
        raise ValueError("v0 must stack n_replicas frames of shape (M, M)")
    frames = np.array(v0, dtype=np.float64)
    span = t_end - t_start
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(span, 1.0):
        raise ValueError("t_end - t_start must be an integer multiple of dt")
    diag = np.arange(m)
    for step in range(n_steps):
        t = t_start + step * dt
        gap = _gap_matrix(_path_row(path_times, path_values, t),
                          "the eigenvector flow")
        raw = rng.normal(size=(n_replicas, m, m))
        coeff = (raw + raw.swapaxes(1, 2)) * math.sqrt(dt / 2.0)
        coeff /= gap * math.sqrt(m)  # the inf diagonal gives 0
        decay = -(dt / (2.0 * m)) * (1.0 / gap ** 2).sum(axis=1)
        coeff[:, diag, diag] = decay
        frames = frames + frames @ coeff.swapaxes(1, 2)
        if renormalize:
            frames = _orthonormalize(frames)
    return frames


# Replicas per block when frames change layout: a block of both layouts
# stays in cache, where a whole-array transpose would not.
_LAYOUT_BLOCK = 256


def _orthonormalize(frames):
    """Modified Gram-Schmidt on the columns of every frame in a stack.

    The (n_replicas, dim, M) stack is copied to a replicas-last layout, in
    which column k of every replica is one contiguous (dim, n_replicas)
    slab, so each projection is a few whole-array operations.  Each
    column's norm divides it after its projections, so the implied R
    factor has a positive diagonal: the sign convention of a QR
    factorization whose R diagonal is made positive.
    """
    n, dim, m = frames.shape
    cols = np.empty((m, dim, n))
    for start in range(0, n, _LAYOUT_BLOCK):
        block = slice(start, start + _LAYOUT_BLOCK)
        cols[:, :, block] = frames[block].transpose(2, 1, 0)
    for k in range(m):
        v = cols[k]
        for j in range(k):
            q = cols[j]
            v -= (q * v).sum(axis=0) * q
        v /= np.sqrt((v * v).sum(axis=0))
    out = np.empty_like(frames)
    for start in range(0, n, _LAYOUT_BLOCK):
        block = slice(start, start + _LAYOUT_BLOCK)
        out[block] = cols[:, :, block].transpose(2, 1, 0)
    return out


# ---------------------------------------------------------------------------
# Free convolution with the semicircle flow


def free_conv_stieltjes(initial_spectrum, t, z, tol=1e-12):
    """Stieltjes transform of the free-convolution evolution at time t.

    Solves m = (1/M) sum_i 1/(e^{-t/2} lambda_i - z - (1 - e^{-t}) m) by
    damped fixed-point iteration (omega = 0.5, halved when the residual
    oscillates) started from the empirical t = 0 value; the self-consistency
    residual is driven below ``tol``.  Herglotz by construction.
    """
    lam = np.asarray(initial_spectrum, dtype=np.float64)
    if z.imag <= 0:
        raise ValueError("need Im z > 0")
    if t < 0:
        raise ValueError("t must be nonnegative")
    current = complex(np.mean(1.0 / (lam - z)))
    if t == 0:
        return current
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


def semicircle_semigroup_residual(z, t):
    """|m(z) - e^{t/2} m(e^{t/2} (z + theta_t m(z)))| with theta_t = 1 - e^{-t}.

    The semicircle Stieltjes transform satisfies this identity exactly; the
    residual is pure floating-point noise on any (z, t) grid with Im z > 0.
    """
    m = semicircle_m(z)
    theta = 1.0 - math.exp(-t)
    lift = math.exp(t / 2.0)
    return abs(m - lift * semicircle_m(lift * (z + theta * m)))

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

Also here: the eigenvector moment flow (occupation-configuration ODE driven
by a frozen eigenvalue path), the eigenvalue and eigenvector SDEs, and the
free-convolution Stieltjes fixed point.
"""

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .chain import switchable_tuples
from .matrices import (center_rescale, default_fd_step, directional_derivative,
                       h_switch_component, project_constrained,
                       sample_constrained_goe, switch_direction)
from .spectra import decompose, semicircle_m
from .streams import rng_stream

# Dense generator sums cost O(N^4) observable evaluations.
DENSE_GENERATOR_LIMIT = 40


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


def evolve_sde(h0, t, dt, *, rng, noise=True):
    """Euler-Maruyama endpoint of dH = -(1/2) H dt + noise, staying in M.

    Noise increments are sampled as sqrt(dt) times a fresh draw of the
    stationary Gaussian ensemble, which realizes the projected Brownian
    increments' covariance exactly; ``noise=False`` is the deterministic
    test hook (pure drift).  The final partial step lands exactly on t.
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
        if noise:
            h += math.sqrt(step) * sample_constrained_goe(n, rng=rng)
    return h


# ---------------------------------------------------------------------------
# Flow generator: switching-direction and entrywise forms


def flow_generator(func, h, step=None):
    """Finite-difference evaluation of the flow generator L F(H).

    Uses the switching-direction form: the dense sum over all N^4 vertex
    4-tuples (i,j,k,l) of second differences along xi_ijkl weighted
    1/(16 N^3) minus tr(xi H) times first differences weighted 1/(32 N^2).
    It costs O(N^4) observable evaluations, so it is refused above
    N = ``DENSE_GENERATOR_LIMIT``.
    """
    n = h.shape[0]
    if n > DENSE_GENERATOR_LIMIT:
        raise ValueError(
            f"dense generator sum is gated at N <= {DENSE_GENERATOR_LIMIT}")
    if step is None:
        step = default_fd_step(h, 2)

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


def flow_generator_entrywise(func, h, step=None):
    """The entrywise form L F = (1/N) sum_ij d_ij^2 F - (1/2) d_H F.

    Derivatives run along the projected coordinate directions
    (1/2) P Delta_ij P (for the diffusion) and along H itself (for the
    drift); evaluation points differ from ``flow_generator``'s, making the
    agreement of the two forms a genuine numerical identity check.
    """
    n = h.shape[0]
    if step is None:
        step = default_fd_step(h, 2)
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


def stieltjes_observable(z, n_ambient, part="imag"):
    """F(H) = Re/Im of s(H; z) = (1/M) tr G(z) on the nontrivial spectrum.

    Works for any H in M without eigenvector deflation: the trivial
    eigenvalue sits exactly at 0, so M s(z) = tr (H - z)^{-1} + 1/z.
    """
    take = {"imag": np.imag, "real": np.real, "complex": lambda v: v}[part]

    def func(h):
        lam = np.linalg.eigvalsh(h)
        value = (np.sum(1.0 / (lam - z)) + 1.0 / z) / (n_ambient - 1)
        out = take(value)
        return complex(out) if part == "complex" else float(out)

    return func


def stieltjes_flow_generator(eigenvalues, z, n_ambient=None):
    """Closed-form L s(z) on a nontrivial spectrum: no finite differences.

    L s = (g_3 + g_1 g_2)/(N M) + h_2/(2 M), with g_k = sum (lambda-z)^{-k}
    and h_2 = sum lambda (lambda-z)^{-2}.  ``eigenvalues`` excludes the
    trivial zero; N defaults to M + 1.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    m = len(lam)
    n = m + 1 if n_ambient is None else n_ambient
    w = 1.0 / (lam - z)
    g1 = w.sum()
    g2 = (w ** 2).sum()
    g3 = (w ** 3).sum()
    h2 = (lam * w ** 2).sum()
    return complex((g3 + g1 * g2) / (n * m) + h2 / (2.0 * m))


# ---------------------------------------------------------------------------
# Jump generator on Stieltjes observables (exact, Woodbury-accelerated)

# xi_ijmn restricted to the rows/columns (i, j, m, n), in that basis order.
_SWITCH_PATTERN = np.array([
    [0.0, 1.0, -1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0],
    [-1.0, 0.0, 0.0, 1.0],
    [0.0, -1.0, 1.0, 0.0],
])


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


def estimate_seminorm(func, matrices, order, r=8, n_probes=256, scale=1.0,
                      *, rng, step=None):
    """Sampled estimate of the order-n switching-derivative seminorm.

    For each sample H the inner sup over (theta, X) in [0,1]^n x
    (switching directions)^n is replaced by a max over ``n_probes`` random
    draws of |d_{X_1}...d_{X_n} F| evaluated at H + scale * sum theta_a X_a;
    the outer average is the L^r mean over samples.  A sampled max can only
    undershoot: the estimate is a lower bound of the true seminorm.
    """
    if order < 0 or order > 4:
        raise ValueError("order must be in 0..4")
    values = []
    for h in matrices:
        n = h.shape[0]
        if order == 0:
            values.append(abs(func(h)))
            continue
        best = 0.0
        for _ in range(n_probes):
            sites = rng.integers(0, n, size=(order, 4))
            thetas = rng.uniform(size=order)
            dirs = [switch_direction(n, *site) for site in sites]
            base = h + scale * sum(t * x for t, x in zip(thetas, dirs))
            value = abs(directional_derivative(func, base, dirs, step=step))
            best = max(best, value)
        values.append(best)
    arr = np.asarray(values, dtype=np.float64)
    return float(np.mean(arr ** r) ** (1.0 / r))


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


def qf_lf_compare(n, degrees, z, n_samples, seed=0, r=8,
                  seminorm_samples=16, seminorm_probes=64):
    """Measure E|Qf - LF| for F = Im s(z) over uniform graph ensembles.

    For each degree d: samples graphs, evaluates the jump generator exactly
    (Woodbury) and the flow generator in closed form, and reports the mean
    absolute discrepancy normalized by D^{-1/2} N max_{1<=k<=4} of the
    sampled order-k seminorms (D = min(d, N^2/d^3)).  The normalized
    discrepancy should decrease as d grows.
    """
    from .graphs import sample_regular_graph

    func = stieltjes_observable(z, n)
    rows = []
    for d_idx, d in enumerate(degrees):
        discrepancies = np.empty(n_samples)
        matrices = []
        for s_idx in range(n_samples):
            rng = rng_stream(seed, stream_id=d_idx * 1_000_000 + s_idx)
            graph = sample_regular_graph(n, d, rng=rng)
            h = center_rescale(graph)
            q_val = switch_generator_stieltjes(graph, z).imag
            l_val = stieltjes_flow_generator(
                decompose(h).eigenvalues, z, n_ambient=n).imag
            discrepancies[s_idx] = abs(q_val - l_val)
            if len(matrices) < seminorm_samples:
                matrices.append(h)
        seminorm_rng = rng_stream(seed, stream_id=900_000_000 + d_idx)
        seminorm = max(
            estimate_seminorm(func, matrices, order, r=r,
                              n_probes=seminorm_probes,
                              scale=1.0 / math.sqrt(d - 1.0),
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


def enumerate_configs(n_sites, p):
    """All occupation vectors eta on n_sites sites with sum eta_i = p."""
    configs = []
    for combo in combinations_with_replacement(range(n_sites), p):
        eta = [0] * n_sites
        for site in combo:
            eta[site] += 1
        configs.append(tuple(eta))
    return configs


@dataclass(frozen=True)
class MomentFlowHops:
    """Every single-particle hop between occupation configurations.

    Hop k moves one particle from site ``site_from[k]`` to ``site_to[k]``,
    taking configuration ``source[k]`` to ``target[k]`` at rate
    ``coef[k] * W[site_from[k], site_to[k]]`` with coef = eta_i (1 + 2 eta_j).
    """

    n_configs: int
    source: np.ndarray
    target: np.ndarray
    site_from: np.ndarray
    site_to: np.ndarray
    coef: np.ndarray


def moment_flow_hops(configs):
    """The hop table of ``configs``, in (configuration, i, j) order.

    It depends only on the configurations, so one table serves every rate
    matrix of a solve; distinct (i, j) from one configuration reach distinct
    targets, so each off-diagonal generator entry is a single hop.
    """
    index = {eta: k for k, eta in enumerate(configs)}
    hops, coef = [], []
    for a, eta in enumerate(configs):
        for i, n_i in enumerate(eta):
            if n_i == 0:
                continue
            for j, n_j in enumerate(eta):
                if j == i:
                    continue
                hopped = list(eta)
                hopped[i] -= 1
                hopped[j] += 1
                hops.append((a, index[tuple(hopped)], i, j))
                coef.append(n_i * (1.0 + 2.0 * n_j))
    source, target, site_from, site_to = (
        np.array(hops, dtype=np.intp).reshape(-1, 4).T)
    return MomentFlowHops(len(configs), source, target, site_from, site_to,
                          np.array(coef, dtype=np.float64))


def moment_flow_rates(eigenvalues, hops, n_ambient, min_gap=1e-8):
    """Dense moment-flow generator over configurations for one snapshot.

    A particle hops i -> j at rate eta_i (1 + 2 eta_j) W_ij with
    W_ij = 1/(N (lambda_i - lambda_j)^2); ``hops`` is the
    ``moment_flow_hops`` table and rows sum to zero.  Raises
    ``SingularityError`` when an eigenvalue gap falls below ``min_gap``.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    gap = lam[:, None] - lam[None, :]
    np.fill_diagonal(gap, np.inf)
    if np.abs(gap).min() < min_gap:
        raise SingularityError(
            f"eigenvalue gap below {min_gap:g}; moment-flow rates diverge")
    w = 1.0 / (n_ambient * gap ** 2)
    rate = hops.coef * w[hops.site_from, hops.site_to]
    gen = np.zeros((hops.n_configs, hops.n_configs))
    gen[hops.source, hops.target] = rate
    # the diagonal accumulates in hop order, as a loop over hops would
    np.subtract.at(gen, (hops.source, hops.source), rate)
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
    """Adaptive moment-flow solution with per-step contraction diagnostics."""

    configs: list
    times: np.ndarray
    values: np.ndarray  # (len(times), n_configs)
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


def emf_solve(path_times, path_values, p, f0, t_end, n_ambient=None,
              tol=1e-8, cfl=0.25, min_gap=1e-8, max_steps=100_000):
    """Integrate the eigenvector moment flow along a frozen eigenvalue path.

    The linear ODE df/dt = R(t) f over occupation configurations is driven
    by rates rebuilt from the eigenvalue path (linear interpolation between
    snapshots).  Classic RK4 with step-doubling error control, plus a CFL
    cap dt * max total exit rate <= ``cfl`` which keeps every accepted step
    an L-infinity contraction (checked and recorded).

    ``t_end`` is one time or a sorted grid of times; a single integration
    from t = 0 lands exactly on each of them (see ``EmfSolution.value_at``),
    and the step sequence up to the first time does not depend on the rest.
    """
    path_times = np.asarray(path_times, dtype=np.float64)
    path_values = np.asarray(path_values, dtype=np.float64)
    m = path_values.shape[1]
    if n_ambient is None:
        n_ambient = m
    configs = enumerate_configs(m, p)
    hops = moment_flow_hops(configs)
    f = np.asarray(f0, dtype=np.float64).copy()
    if f.shape != (len(configs),):
        raise ValueError(f"f0 must have one value per configuration "
                         f"({len(configs)}), got shape {f.shape}")

    # rate matrices by exact time; the step loop keeps only the current
    # attempt's times, so each distinct time is built once
    cache = {}

    def rates(t):
        gen = cache.get(t)
        if gen is None:
            gen = cache[t] = moment_flow_rates(
                _path_row(path_times, path_values, t), hops, n_ambient,
                min_gap=min_gap)
        return gen

    def rk4(y, t, dt):
        k1 = rates(t) @ y
        k2 = rates(t + dt / 2.0) @ (y + dt / 2.0 * k1)
        k3 = rates(t + dt / 2.0) @ (y + dt / 2.0 * k2)
        k4 = rates(t + dt) @ (y + dt * k3)
        return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    targets = np.atleast_1d(np.asarray(t_end, dtype=np.float64))
    if (np.diff(targets) < 0).any() or (targets < 0).any():
        raise ValueError("t_end must be a nonnegative time or sorted grid")

    times = [0.0]
    history = [f.copy()]
    sup_norms = [float(np.abs(f).max())]
    contraction_ok = True
    t = 0.0
    dt = 1e-3
    n_accepted = n_rejected = 0
    for target in targets.tolist():
        while t < target:
            if n_accepted + n_rejected > max_steps:
                raise ConvergenceError("moment-flow step budget exhausted")
            current = rates(t)
            cache.clear()
            cache[t] = current
            max_rate = float(-np.diag(current).min())
            if max_rate > 0:
                dt = min(dt, cfl / max_rate)
            landing = dt >= target - t
            dt = min(dt, target - t)
            full = rk4(f, t, dt)
            half = rk4(rk4(f, t, dt / 2.0), t + dt / 2.0, dt / 2.0)
            err = (float(np.abs(half - full).max())
                   / max(float(np.abs(half).max()), 1.0))
            if err > tol:
                n_rejected += 1
                dt *= max(0.2, 0.9 * (tol / err) ** 0.2)
                continue
            new_sup = float(np.abs(half).max())
            if new_sup > sup_norms[-1] * (1.0 + 1e-12) + 1e-300:
                contraction_ok = False
            f = half
            t = target if landing else t + dt
            n_accepted += 1
            times.append(t)
            history.append(f.copy())
            sup_norms.append(new_sup)
            dt *= min(2.0, 0.9 * (tol / err) ** 0.2) if err > 0 else 2.0
    return EmfSolution(configs=configs, times=np.array(times),
                       values=np.stack(history), sup_norms=np.array(sup_norms),
                       contraction_ok=contraction_ok,
                       n_accepted=n_accepted, n_rejected=n_rejected)


# ---------------------------------------------------------------------------
# Eigenvalue and eigenvector SDEs


def eigenvalue_path(lambda0, t_end, dt, *, rng, n_ambient=None,
                    min_gap=1e-8, noise=True):
    """Euler-Maruyama eigenvalue flow with diagonal noise only.

    d lambda_i = dB_ii/sqrt(N) + (1/N) sum_{j != i} dt/(lambda_i - lambda_j)
    - (lambda_i/2) dt, with Var dB_ii = 2 dt.  Returns (times, paths) with
    paths of shape (n_steps+1, M), every row in ascending order (the input
    is sorted on entry); raises ``SingularityError`` if a gap falls below
    ``min_gap``.  Each step re-sorts: rank labels are ordered by
    definition, and the discrete scheme (unlike the continuum flow, whose
    repulsion forbids crossings) can hop across a small gap in one step.
    """
    lam = np.sort(np.asarray(lambda0, dtype=np.float64))
    m = len(lam)
    if n_ambient is None:
        n_ambient = m
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError("t_end must be an integer multiple of dt")
    times = np.linspace(0.0, t_end, n_steps + 1)
    paths = np.empty((n_steps + 1, m))
    paths[0] = lam
    for step in range(n_steps):
        diff = lam[:, None] - lam[None, :]
        off = ~np.eye(m, dtype=bool)
        if m > 1 and np.abs(diff[off]).min() < min_gap:
            raise SingularityError("eigenvalue collision during path simulation")
        inv = np.zeros((m, m))
        inv[off] = 1.0 / diff[off]
        drift = inv.sum(axis=1) / n_ambient - lam / 2.0
        lam = lam + drift * dt
        if noise:
            lam = lam + rng.normal(scale=math.sqrt(2.0 * dt), size=m) / math.sqrt(n_ambient)
        lam = np.sort(lam)
        paths[step + 1] = lam
    return times, paths


def eigenvector_sde(path_times, path_values, t_end, dt, v0=None, *, rng,
                    n_ambient=None, n_replicas=1, min_gap=1e-8,
                    noise=True, renormalize=True, t_start=0.0):
    """Euler-Maruyama eigenvector frames along a frozen eigenvalue path.

    dv_i = (1/sqrt(N)) sum_{j != i} dB_ij/(lambda_i - lambda_j) v_j
         - (1/(2N)) sum_{j != i} dt/(lambda_i - lambda_j)^2 v_i,

    with symmetric noise (B_ij = B_ji, off-diagonal variance dt per step
    pair) drawn independently per replica, and per-step re-orthonormalization
    by modified Gram-Schmidt (the positive-diagonal QR sign convention).
    Returns frames of shape (n_replicas, dim, M) whose columns are the
    eigenvectors; ``v0`` may be a single frame or a per-replica
    (n_replicas, dim, M) stack, so a run can continue where a previous
    segment stopped (pass its output and ``t_start``).
    """
    path_times = np.asarray(path_times, dtype=np.float64)
    path_values = np.asarray(path_values, dtype=np.float64)
    m = path_values.shape[1]
    if n_ambient is None:
        n_ambient = m
    if v0 is None:
        v0 = np.eye(m)
    v0 = np.asarray(v0, dtype=np.float64)
    if v0.ndim == 3:
        if v0.shape[0] != n_replicas:
            raise ValueError("per-replica v0 must have n_replicas frames")
        frames = v0.copy()
    else:
        frames = np.broadcast_to(v0, (n_replicas,) + v0.shape).copy()
    span = t_end - t_start
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(span, 1.0):
        raise ValueError("t_end - t_start must be an integer multiple of dt")
    diag = np.arange(m)
    for step in range(n_steps):
        t = t_start + step * dt
        lam = _path_row(path_times, path_values, t)
        gap = lam[:, None] - lam[None, :]
        np.fill_diagonal(gap, np.inf)
        if np.abs(gap).min() < min_gap:
            raise SingularityError("eigenvalue collision during eigenvector flow")
        if noise:
            raw = rng.normal(size=(n_replicas, m, m))
            coeff = (raw + raw.swapaxes(1, 2)) * math.sqrt(dt / 2.0)
            coeff /= gap * math.sqrt(n_ambient)  # the inf diagonal gives 0
        else:
            coeff = np.zeros((n_replicas, m, m))
        decay = -(dt / (2.0 * n_ambient)) * (1.0 / gap ** 2).sum(axis=1)
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


def free_conv_stieltjes(initial_spectrum, t, z, tol=1e-12, max_iter=10_000):
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
    for _ in range(max_iter):
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
        f"(target {tol:g}) after {max_iter} iterations")


def semicircle_semigroup_residual(z, t):
    """|m(z) - e^{t/2} m(e^{t/2} (z + theta_t m(z)))| with theta_t = 1 - e^{-t}.

    The semicircle Stieltjes transform satisfies this identity exactly; the
    residual is pure floating-point noise on any (z, t) grid with Im z > 0.
    """
    m = semicircle_m(z)
    theta = 1.0 - math.exp(-t)
    lift = math.exp(t / 2.0)
    return abs(m - lift * semicircle_m(lift * (z + theta * m)))

"""Experiment recipes: deterministic pipelines from config to artifacts.

Each recipe consumes an ``ExperimentConfig``, writes its data artifacts
into the output directory, and returns ``(ok, reports)``: whether its
built-in acceptance thresholds held, and the records that
``run_experiment`` writes to ``report.json`` next to the manifest.  Every
artifact is a pure function of (config, recipe): trials draw from
counter-based streams keyed by trial index, so worker counts and retries
cannot reshuffle randomness.  The gates of
``gap-test``, ``corr-test``, ``repulsion-scan`` and ``semicircle-scan`` are
public so that the acceptance battery applies them to its shared ensembles.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _kernels, chain, flow, io
from .config import ConfigError
from .flow import (eigenvalue_path, eigenvector_sde, emf_solve, evolve_exact,
                   evolve_sde, free_conv_stieltjes)
from .graphs import sample_regular_graph
from .matrices import center_rescale
from .matrices import embed_in_offspace  # noqa: F401  traced by recipebench
from .spectra import (bulk_range, close_pair_counts, decompose, gap_ensemble,
                      ks_distance, semicircle_cdf, semicircle_m,
                      stieltjes_empirical)
from .streams import rng_stream

# Disjoint stream-id blocks so ensembles inside one recipe never collide.
_STREAM_RRG = 0
_STREAM_GOE = 1 << 32
_STREAM_FLOW = 1 << 33
_STREAM_MISC = 1 << 34
# generator-check: trial s of degree k samples on stream _STREAM_RRG + k *
# _DEGREE_STRIDE + s, and degree k's seminorm probes on _STREAM_SEMINORM + k
_DEGREE_STRIDE = 1_000_000
_STREAM_SEMINORM = 900_000_000

# Random proposal pairs that verify-small's involution suite runs.
_INVOLUTION_PAIRS = 10_000
# emf-check's eigenvalue-path step: each t_grid time must be a multiple.
_EMF_PATH_DT = 1e-3
# generator-check's seminorm: the first graphs of each degree it averages
_SEMINORM_SAMPLES = 16
# corr-test counts partners within _CORR_REACH unfolded spacings of the
# levels in |lambda| < _CORR_WINDOW
_CORR_WINDOW = 0.5
_CORR_REACH = 0.5


def _tridiagonal_spectrum(m, n, beta, rng):
    """Ascending spectrum of the m x m beta-Hermite tridiagonal model.

    Dumitriu-Edelman ("Matrix models for beta ensembles", 2002): the
    symmetric tridiagonal T with diagonal N(0, 2/(beta N)) and off-diagonal
    chi_{beta k} / sqrt(beta N), k = m-1, ..., 1, has the eigenvalue law of
    the m x m Gaussian beta ensemble whose off-diagonal entries have
    E|h_ij|^2 = 1/N.  Draws, in order: m normals, then one ``chisquare``
    call with df beta (m-1), ..., beta.  Solved in O(m^2) by LAPACK's
    symmetric tridiagonal eigensolver.
    """
    # scipy costs about 0.27 s and 25 MB to import: only callers pay it
    from scipy.linalg import eigvalsh_tridiagonal

    diagonal = rng.normal(0.0, math.sqrt(2.0 / (beta * n)), size=m)
    squares = rng.chisquare(beta * np.arange(m - 1, 0, -1, dtype=np.float64))
    return eigvalsh_tridiagonal(diagonal, np.sqrt(squares / (beta * n)))


def goe_reference(n, n_samples, seed):
    """Spectra of (N-1)x(N-1) GOE cores (off-diagonal variance 1/N).

    This is the comparison ensemble for gap statistics: its spectrum matches
    the nontrivial spectrum of the constrained Gaussian law.  Each trial is
    the tridiagonal beta = 1 model of ``_tridiagonal_spectrum`` with M = N-1:
    diagonal N(0, 2/N), off-diagonal chi_k / sqrt(N) for k = M-1, ..., 1.
    Trial k draws from stream ``_STREAM_GOE + k``: first M normals, then one
    ``chisquare`` call with df M-1, ..., 1.  Spectra are descending.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    spectra = []
    for trial in range(n_samples):
        rng = rng_stream(seed, stream_id=_STREAM_GOE + trial)
        spectra.append(_tridiagonal_spectrum(n - 1, n, 1, rng)[::-1].copy())
    return spectra


def _map_trials(func, arglist, workers):
    """Ordered map over independent trials; optional process pool."""
    arglist = list(arglist)
    if workers <= 1 or len(arglist) <= 1:
        return [func(args) for args in arglist]
    chunk = max(1, len(arglist) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, arglist, chunksize=chunk))


def trial_graph(config, trial):
    """Trial ``trial``'s graph, sampled on stream ``_STREAM_RRG + trial``."""
    rng = rng_stream(config.seed, stream_id=_STREAM_RRG + trial)
    return sample_regular_graph(config.n, config.d, rng=rng)


def _rrg_spectrum(args):
    return decompose(center_rescale(trial_graph(*args)))


def _rrg_ensemble(config):
    args = [(config, k) for k in range(config.n_samples)]
    return _map_trials(_rrg_spectrum, args, config.workers)


def _require_samples(config, minimum=1):
    if config.n_samples < minimum:
        raise ConfigError(f"this recipe needs n_samples >= {minimum}")


def _gap_table(spectra, kappa):
    gaps = gap_ensemble(spectra, kappa=kappa)
    lo, hi = bulk_range(len(spectra[0]) + 1, kappa)
    indices = np.tile(np.arange(lo, hi + 1), len(spectra))
    sample_ids = np.repeat(np.arange(len(spectra)), hi - lo + 1)
    return gaps, indices, sample_ids


def _mean_stderr(values):
    """Sample mean and its standard error; needs two values."""
    return (float(values.mean()),
            float(values.std(ddof=1)) / math.sqrt(values.size))


def _histogram_series(values, bins, span):
    density, edges = np.histogram(values, bins=bins, range=span, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, density


def _z_grid(config):
    """The config's z grid, or the default one; every z above the real axis."""
    z_grid = tuple(config.z_grid) or (-1 + 0.05j, 0.05j, 1 + 0.05j)
    if any(z.imag <= 0 for z in z_grid):
        raise ConfigError("z_grid must lie in the upper half plane")
    return z_grid


# ---------------------------------------------------------------------------
# Recipes


def recipe_sample(config, out_dir):
    """Sample graphs, serialize them, snapshot the first centered matrix."""
    _require_samples(config)
    # t_grid holds the switching-step counts of optional chain snapshots
    for t in config.t_grid:
        if t < 1 or not float(t).is_integer():
            raise ConfigError(f"sample's t_grid holds chain step counts; "
                              f"{t:g} is not a whole number >= 1")
    config.warn_if_outside_window()
    graph_dir = out_dir / "graphs"
    graph_dir.mkdir(exist_ok=True)
    for trial in range(config.n_samples):
        graph = trial_graph(config, trial)
        io.write_graph_text(graph, graph_dir / f"sample_{trial:04d}.txt")
        if trial == 0:
            io.write_matrix(center_rescale(graph), out_dir / "matrix_0000.bin")
            cadence = sorted({int(t) for t in config.t_grid})
            snap_rng = rng_stream(config.seed, stream_id=_STREAM_MISC)
            current, done = graph, 0
            for step_count in cadence:
                current, _ = chain.run_chain(current, step_count - done,
                                             rng=snap_rng)
                done = step_count
                io.write_graph_text(
                    current, graph_dir / f"snapshot_{step_count:08d}.txt")
    reports = [io.report_record("samples_written", config.n_samples,
                                n_samples=config.n_samples)]
    return True, reports


def recipe_evolve(config, out_dir):
    """Evolve one centered matrix along t_grid; snapshot and track s(z).

    The eigensolve consumes the matrix it deflates, so each snapshot is
    written first and the file carries the flow's state across it: the
    next step starts from H(t_k) read back from ``matrix_k.bin``, which
    holds its float64 bytes exactly.  H(0) is built twice from the graph,
    once for its spectrum and once for the flow.
    """
    config.warn_if_outside_window()
    t_grid = tuple(config.t_grid) or (0.0, config.n ** -1.2, 5.0)
    if sorted(t_grid) != list(t_grid) or t_grid[0] < 0:
        raise ConfigError("t_grid must be sorted and nonnegative")
    z_grid = _z_grid(config)
    graph = trial_graph(config, 0)
    spectrum0 = decompose(center_rescale(graph))
    h = center_rescale(graph)
    del graph  # N x N bytes that the flow never reads
    flow_rng = rng_stream(config.seed, stream_id=_STREAM_FLOW)
    t_prev, lam = 0.0, spectrum0
    rows = []
    for k, t in enumerate(t_grid):
        span = t - t_prev
        snapshot = out_dir / f"matrix_{k:04d}.bin"
        if span > 0:
            if config.scheme == "exact":
                h = evolve_exact(h, span, rng=flow_rng)
            else:
                h = evolve_sde(h, span, min(1e-2, span / 10.0), rng=flow_rng)
            io.write_matrix(h, snapshot)
            lam = decompose(h)
            h = io.read_matrix(snapshot)
        else:
            io.write_matrix(h, snapshot)
        t_prev = t
        for z in z_grid:
            rows.append((z, stieltjes_empirical(lam, z),
                         free_conv_stieltjes(spectrum0, t, z)))
    io.write_stieltjes_csv(out_dir / "stieltjes.csv", rows)
    worst = max(abs(s - m) for _, s, m in rows)
    reports = [io.report_record("max_abs_s_minus_fc", worst,
                                n_samples=len(rows))]
    return True, reports


def gap_gate(rrg_gaps, goe_gaps):
    """Gate of ``gap-test``: pooled bulk gaps of two ensembles agree.

    Takes the two pooled gap arrays and returns ``(ok, reports)``: the KS
    distance must stay below 0.05 and the difference of mean gaps below 0.03.
    """
    ks = ks_distance(rrg_gaps, goe_gaps)
    mean_diff = float(rrg_gaps.mean() - goe_gaps.mean())
    reports = [
        io.report_record("ks_statistic", ks, n_samples=rrg_gaps.size),
        io.report_record(
            "gap_mean_difference", mean_diff,
            stderr=math.hypot(_mean_stderr(rrg_gaps)[1],
                              _mean_stderr(goe_gaps)[1]),
            n_samples=rrg_gaps.size),
    ]
    return ks < 0.05 and abs(mean_diff) < 0.03, reports


def recipe_gap_test(config, out_dir):
    """Pooled bulk gap comparison: graph ensemble vs. GOE reference."""
    _require_samples(config)
    config.warn_if_outside_window()
    spectra = _rrg_ensemble(config)
    goe = goe_reference(config.n, config.n_samples, config.seed)
    rrg_gaps, idx_r, sid_r = _gap_table(spectra, config.kappa)
    goe_gaps, idx_g, sid_g = _gap_table(goe, config.kappa)
    io.write_gap_csv(out_dir / "gaps_rrg.csv", rrg_gaps, idx_r, sid_r)
    io.write_gap_csv(out_dir / "gaps_goe.csv", goe_gaps, idx_g, sid_g)
    io.write_plot_data(out_dir / "gap_overlay.csv", {
        "rrg": _histogram_series(rrg_gaps, 60, (0.0, 4.0)),
        "goe": _histogram_series(goe_gaps, 60, (0.0, 4.0)),
    })
    return gap_gate(rrg_gaps, goe_gaps)


def corr_gate(rrg_counts, goe_counts):
    """Gate of ``corr-test``: close level pairs are as frequent as in the GOE.

    Takes one ``close_pair_counts`` value per spectrum of each ensemble and
    returns ``(ok, reports)``: the difference of the mean counts must stay
    within 4 combined standard errors.
    """
    (mean_r, se_r), (mean_g, se_g) = (_mean_stderr(rrg_counts),
                                      _mean_stderr(goe_counts))
    combined = math.hypot(se_r, se_g)
    reports = [io.report_record("two_point_difference", mean_r - mean_g,
                                stderr=combined, n_samples=rrg_counts.size)]
    return abs(mean_r - mean_g) <= 4.0 * combined, reports


def recipe_corr_test(config, out_dir):
    """Close level pairs at the spectral center vs. the GOE reference.

    Counts, per spectrum, the other levels within ``_CORR_REACH`` unfolded
    spacings of each level in |lambda| < ``_CORR_WINDOW``: level repulsion
    makes close pairs rarer than for uncorrelated levels.
    """
    # the gate divides by the samples' standard error, which needs two
    _require_samples(config, minimum=2)
    config.warn_if_outside_window()
    rrg = close_pair_counts(_rrg_ensemble(config), _CORR_WINDOW, _CORR_REACH)
    goe = close_pair_counts(goe_reference(config.n, config.n_samples,
                                          config.seed),
                            _CORR_WINDOW, _CORR_REACH)
    ok, reports = corr_gate(rrg, goe)
    io.write_csv(out_dir / "correlation.csv",
                 ["statistic", "value_rrg", "stderr_rrg", "value_goe",
                  "stderr_goe", "difference", "combined_stderr"],
                 [(f"close_pairs[reach={_CORR_REACH:g}]", *_mean_stderr(rrg),
                   *_mean_stderr(goe), reports[0]["value"],
                   reports[0]["stderr"])])
    return ok, reports


def _stieltjes_rows(spectra, z_grid):
    """(z, ensemble-mean s(z), semicircle m(z)) for each z."""
    return [(z, np.mean([stieltjes_empirical(lam, z) for lam in spectra]),
             complex(semicircle_m(z)))
            for z in z_grid]


def semicircle_gate(spectra, config):
    """Gate of ``semicircle-scan``: the spectra follow the semicircle law.

    Takes the ensemble's spectra and returns ``(ok, reports)``: at
    each z of the config's grid |s(z) - m(z)| must stay within
    10 (D^{-1/4} + (N Im z)^{-1/4}), and the sup distance between the pooled
    empirical CDF and the semicircle CDF must stay below 0.03.
    """
    reports, ok = [], True
    for z, s, m in _stieltjes_rows(spectra, _z_grid(config)):
        bound = 10.0 * (config.big_d ** -0.25
                        + (config.n * z.imag) ** -0.25)
        reports.append(io.report_record(
            f"abs_s_minus_m[{z.real:g}{z.imag:+g}j]", abs(s - m),
            n_samples=config.n_samples))
        ok = ok and abs(s - m) <= bound
    pooled = np.sort(np.concatenate(spectra))
    ecdf = np.arange(1, pooled.size + 1) / pooled.size
    cdf = semicircle_cdf(pooled)
    sup_dist = float(np.maximum(np.abs(ecdf - cdf),
                                np.abs(ecdf - 1.0 / pooled.size - cdf)).max())
    reports.append(io.report_record("cdf_sup_distance", sup_dist,
                                    n_samples=pooled.size))
    return ok and sup_dist < 0.03, reports


def recipe_semicircle_scan(config, out_dir):
    """Stieltjes transform vs. the semicircle at fixed z, plus CDF distance."""
    _require_samples(config)
    config.warn_if_outside_window()
    z_grid = _z_grid(config)
    spectra = _rrg_ensemble(config)
    io.write_stieltjes_csv(out_dir / "stieltjes.csv",
                           _stieltjes_rows(spectra, z_grid))
    return semicircle_gate(spectra, config)


def recipe_generator_check(config, out_dir):
    """Jump-vs-flow generator discrepancy scan over the degree grid.

    For F = Im s(z) and each degree d it samples graphs, evaluates the jump
    generator exactly (rank-2 determinant updates) and the flow generator
    in closed form, and reports E|QF - LF| normalized by D^{-1/2} N
    max_{1<=k<=4} of the sampled order-k seminorms (D = min(d, N^2/d^3)).
    The seminorms are L^8 means over the first ``_SEMINORM_SAMPLES`` graphs
    of each degree.  The normalized discrepancy should decrease as d grows.
    """
    # the gate compares standard errors, which need two samples per degree
    _require_samples(config, minimum=2)
    z = 0.5j
    configs = [replace(config, d=d) for d in (4, 8, 16)]
    for at_d in configs:
        at_d.warn_if_outside_window()
    rows, reports = [], []
    for k, at_d in enumerate(configs):
        discrepancies, matrices = np.empty(config.n_samples), []
        for s in range(config.n_samples):
            graph = trial_graph(at_d, k * _DEGREE_STRIDE + s)
            discrepancies[s] = abs(
                flow.switch_generator_stieltjes(graph, z).imag
                - flow.stieltjes_flow_generator(center_rescale(graph), z).imag)
            if s < _SEMINORM_SAMPLES:
                matrices.append(center_rescale(graph))
        rng = rng_stream(config.seed, stream_id=_STREAM_SEMINORM + k)
        seminorm = max(flow.estimate_seminorm(z, matrices, order,
                                              1.0 / math.sqrt(at_d.d - 1.0),
                                              rng=rng)
                       for order in (1, 2, 3, 4))
        denom = at_d.big_d ** -0.5 * config.n * seminorm
        mean, stderr = _mean_stderr(discrepancies)
        rows.append((at_d.d, at_d.big_d, mean, stderr, seminorm, mean / denom,
                     stderr / denom, config.n_samples))
        reports.append(io.report_record(
            f"normalized_discrepancy[d={at_d.d}]", mean / denom,
            stderr=stderr / denom, n_samples=config.n_samples))
    io.write_csv(out_dir / "discrepancy.csv",
                 ["d", "big_d", "mean_abs", "stderr", "seminorm",
                  "normalized", "normalized_stderr", "n_samples"], rows)
    # Decrease must exceed combined errors for d <= N^{2/3}, the top of the
    # degree window (D = min(d, N^2/d^3) equals d only for d <= N^{1/2});
    # the endpoint decrease must hold too.
    regime = config.n ** (2.0 / 3.0)
    steps = [(a, b) for a, b, at_b in zip(reports, reports[1:], configs[1:])
             if at_b.d <= regime] + [(reports[0], reports[-1])]
    return all(a["value"] - b["value"] > math.hypot(a["stderr"], b["stderr"])
               for a, b in steps), reports


def _emf_profile(config):
    """Sorted time grid, frozen eigenvalue path, and observable direction.

    The path is the first (by sub-seed, so still a pure function of the
    config) whose gaps stay above ``gap_floor`` throughout: near-collisions
    would make both the moment-flow rates and the eigenvector SDE
    ill-conditioned, and the comparison is about a fixed well-behaved path.
    Only a few percent of paths clear the floor at small dimension (weak
    level repulsion), hence the deep retry budget.
    """
    gap_floor, max_retries = 0.05, 512
    m = config.n
    t_grid = tuple(sorted(config.t_grid)) or (0.1, 0.5)
    # at t = 0 the replicas agree exactly (zero standard error), and a
    # repeated time would repeat its report record
    if min(t_grid) <= 0 or len(set(t_grid)) < len(t_grid):
        raise ConfigError("t_grid times must be positive and distinct")
    # eigenvalue_path's own test, applied to every time before any draw
    for t in t_grid:
        off_grid = abs(round(t / _EMF_PATH_DT) * _EMF_PATH_DT - t)
        if off_grid > 1e-9 * max(t, 1.0):
            raise ConfigError(f"t_grid times must be multiples of "
                              f"{_EMF_PATH_DT:g}, got {t:g}")
    t_end = max(t_grid)
    rng = rng_stream(config.seed, stream_id=_STREAM_FLOW)
    q = rng.normal(size=m)
    q /= np.linalg.norm(q)
    for attempt in range(max_retries):
        raw = rng.normal(size=(m, m))
        lam0 = np.sort(np.linalg.eigvalsh((raw + raw.T) / math.sqrt(2.0 * m)))
        if np.diff(lam0).min() < gap_floor:
            continue
        times, path = eigenvalue_path(
            lam0, t_end, _EMF_PATH_DT,
            rng=rng_stream(config.seed, stream_id=_STREAM_FLOW + 1 + attempt))
        if np.diff(path, axis=1).min() >= gap_floor:
            return t_grid, times, path, q
    raise ConfigError(
        f"no gap-bounded eigenvalue path found in {max_retries} attempts")


def recipe_emf_check(config, out_dir):
    """Moment-flow ODE vs. eigenvector-SDE Monte Carlo on a frozen path."""
    # the gate divides by the replicas' standard error, which needs two
    _require_samples(config, minimum=2)
    t_grid, times, path, q = _emf_profile(config)
    m = config.n
    f0 = q ** 2  # identity initial frame: f_0(i) = (q . v_i)^2
    solution = emf_solve(times, path, f0, t_grid)
    io.write_emf_csv(out_dir / "emf.csv", list(t_grid), solution.values)

    replicas = config.n_samples
    frames, t_prev = np.broadcast_to(np.eye(m), (replicas, m, m)), 0.0
    reports, sigmas = [], []
    mc_rows = []
    for k, t in enumerate(t_grid):
        frames = eigenvector_sde(
            times, path, t, 5e-4, v0=frames,
            n_replicas=replicas, t_start=t_prev,
            rng=rng_stream(config.seed, stream_id=_STREAM_FLOW + 2 + k))
        t_prev = t
        proj = (q @ frames) ** 2
        mc_mean = proj.mean(axis=0)
        mc_se = proj.std(axis=0, ddof=1) / math.sqrt(replicas)
        sigma = float(np.abs((solution.values[k] - mc_mean) / mc_se).max())
        sigmas.append(sigma)
        mc_rows.extend((t, cid, mc_mean[cid], mc_se[cid]) for cid in range(m))
        reports.append(io.report_record(
            f"emf_max_sigma[t={t:g}]", sigma, n_samples=replicas))
    io.write_csv(out_dir / "emf_mc.csv",
                 ["time", "configuration_id", "value", "stderr"], mc_rows)
    contraction = solution.contraction_ok
    reports.append(io.report_record("emf_contraction_ok", float(contraction)))
    return contraction and all(s <= 4.0 for s in sigmas), reports


def repulsion_gate(rrg_gaps, goe_gaps):
    """Gate of ``repulsion-scan``: the graph's gaps repel like the GOE's.

    Takes the two pooled gap arrays and returns ``(ok, reports)``: the
    graph's fraction of normalized gaps below 0.05 must stay below 0.02 and
    within 3 sigma of the GOE fraction.
    """
    threshold = 0.05

    def fraction(gaps):
        p = float((gaps < threshold).mean())
        return p, math.sqrt(max(p * (1 - p), 1e-12) / gaps.size)

    p_rrg, se_rrg = fraction(rrg_gaps)
    p_goe, se_goe = fraction(goe_gaps)
    sigma = abs(p_rrg - p_goe) / math.hypot(se_rrg, se_goe)
    reports = [
        io.report_record("small_gap_fraction_rrg", p_rrg, stderr=se_rrg,
                         n_samples=rrg_gaps.size),
        io.report_record("small_gap_fraction_goe", p_goe, stderr=se_goe,
                         n_samples=goe_gaps.size),
        io.report_record("small_gap_sigma", sigma),
    ]
    return p_rrg < 0.02 and sigma <= 3.0, reports


def recipe_repulsion_scan(config, out_dir):
    """Small-gap fraction of the graph ensemble vs. the GOE reference."""
    _require_samples(config)
    config.warn_if_outside_window()
    spectra = _rrg_ensemble(config)
    goe = goe_reference(config.n, config.n_samples, config.seed)
    rrg_gaps, idx_r, sid_r = _gap_table(spectra, config.kappa)
    io.write_gap_csv(out_dir / "gaps_rrg.csv", rrg_gaps, idx_r, sid_r)
    return repulsion_gate(rrg_gaps, gap_ensemble(goe, kappa=config.kappa))


def recipe_verify_small(config, out_dir):
    """Exhaustive reversibility (hence invariance) and the involution suite."""
    reports, ok = [], True
    for n, d in ((6, 3), (8, 3)):
        rep = chain.invariance_report(n, d)
        reports.append(io.report_record(
            f"reversible[{n},{d}]", float(rep.reversible),
            n_samples=rep.n_transitions))
        ok = ok and rep.reversible
    suite = involution_suite(config.seed)
    for key, value in suite.items():
        reports.append(io.report_record(f"involution_{key}", float(value),
                                        n_samples=_INVOLUTION_PAIRS))
    ok = ok and all(suite.values())
    return ok, reports


def _kernel_step(graph, edges, proposal):
    """One chain step at one code pair; returns (graph, edges, accepted)."""
    adj, edges = graph.copy(), edges.copy()
    accepted = _kernels.run_switch_steps(adj, proposal[None, :], edges)
    return adj, edges, accepted


def involution_suite(seed):
    """Random (switching proposal, graph) property checks of the chain's move.

    Runs each of ``_INVOLUTION_PAIRS`` random pairs of directed-edge codes,
    on 4-regular graphs with 24 vertices, through one kernel step and
    verifies that the kernel accepts exactly the tuples
    (i, j, m, n) they resolve to that ``chain.tuple_switchable`` accepts;
    that after an accepted switch the same codes resolve to the reversed
    tuple (i, m, j, n), which is accepted and restores the graph and its
    edge array; that a rejected proposal leaves both unchanged; and that
    every step conserves all degrees.
    """
    n_vertices, degree = 24, 4
    rng = rng_stream(seed, stream_id=_STREAM_MISC + 1)
    graphs = [sample_regular_graph(n_vertices, degree, rng=rng)
              for _ in range(_INVOLUTION_PAIRS // 200)]
    edge_arrays = [chain.edge_array(g) for g in graphs]
    involution = conservation = indicator = True
    for _ in range(_INVOLUTION_PAIRS):
        k = int(rng.integers(len(graphs)))
        graph, edges = graphs[k], edge_arrays[k]
        proposal = rng.integers(0, n_vertices * degree, size=2, dtype=np.int64)
        i, j, m, n = chain.resolve_proposals(edges, proposal[None, :])[0]
        switched, switched_edges, accepted = _kernel_step(graph, edges, proposal)
        indicator = indicator and (
            accepted == chain.tuple_switchable(i, j, m, n, graph))
        if accepted:
            reversed_tuple = chain.resolve_proposals(switched_edges,
                                                     proposal[None, :])[0]
            back, back_edges, reaccepted = _kernel_step(
                switched, switched_edges, proposal)
            indicator = indicator and reaccepted == 1
            involution = (involution and reversed_tuple.tolist() == [i, m, j, n]
                          and np.array_equal(back, graph)
                          and np.array_equal(back_edges, edges))
        else:
            involution = (involution and np.array_equal(switched, graph)
                          and np.array_equal(switched_edges, edges))
        conservation = conservation and bool(
            (switched.sum(axis=1) == degree).all())
    return {"involution": involution, "degree_conservation": conservation,
            "indicator_invariant": indicator}


RECIPES = {
    "sample": recipe_sample,
    "evolve": recipe_evolve,
    "gap-test": recipe_gap_test,
    "corr-test": recipe_corr_test,
    "semicircle-scan": recipe_semicircle_scan,
    "generator-check": recipe_generator_check,
    "emf-check": recipe_emf_check,
    "repulsion-scan": recipe_repulsion_scan,
    "verify-small": recipe_verify_small,
}

# Recipe-pinned scale defaults, merged below global defaults at resolve time.
RECIPE_DEFAULTS = {
    "semicircle-scan": {"n": 2000, "d": 40, "n_samples": 50},
    "generator-check": {"n": 32, "d": 4, "n_samples": 200},
    "emf-check": {"n": 8, "d": 3, "n_samples": 10_000},
    "verify-small": {"n": 6, "d": 3},
}


def run_experiment(config, recipe):
    """Execute one named pipeline; returns the process exit status."""
    if recipe not in RECIPES:
        raise ConfigError(f"unknown recipe {recipe!r}; choose from "
                          f"{sorted(RECIPES)}")
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    ok, reports = RECIPES[recipe](config, out_dir)
    io.write_report_json(out_dir / "report.json", reports)
    io.write_manifest(out_dir / "manifest.json", config, recipe,
                      time.perf_counter() - start, bool(ok))
    return 0 if ok else 3

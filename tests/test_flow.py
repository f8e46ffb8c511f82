"""Matrix flow, generators, moment flow, and free convolution.

Oracles: the quadratic observable <H,H> has the closed-form generator
value N(N-1)/2 - <H,H>; linear observables halve; a frozen two-state
moment flow reduces to scalar exponential decay, and the fixed-grid moment
flow meets a knot-to-knot DOP853 reference; the free-convolution
transform must satisfy its own self-consistency equation, reproduce the
empirical transform at t=0, and converge to the semicircle transform as
t grows; zero-noise SDE paths follow their deterministic reductions.
"""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import (BLOCK_SIZES, ZeroNoise, constraint_violation,
                      dense_evolve_exact, directional_derivative,
                      flow_generator, flow_generator_entrywise,
                      h_switch_component, inner_product,
                      semicircle_semigroup_residual, stieltjes_derivative,
                      stieltjes_observable, switch_direction,
                      switchable_tuples, switched_graph)
from rrglab import flow
from rrglab.flow import (ConvergenceError, SingularityError,
                         _orthonormalize, _path_row, _probe_derivatives,
                         emf_solve, estimate_seminorm, eigenvalue_path,
                         eigenvector_sde, evolve_exact, evolve_sde,
                         free_conv_stieltjes, moment_flow_rates,
                         stieltjes_flow_generator,
                         switch_generator_stieltjes)
from rrglab.graphs import sample_regular_graph
from rrglab.chain import switchings
from rrglab.matrices import center_rescale, sample_constrained_goe
from rrglab.spectra import decompose, semicircle_m, stieltjes_empirical
from rrglab.streams import rng_stream


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck evolution


def test_evolve_exact_at_time_zero_is_identity():
    h = sample_constrained_goe(12, rng=rng_stream(0))
    assert np.array_equal(evolve_exact(h, 0.0, rng=rng_stream(1)), h)


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_evolve_exact_is_bitwise_the_dense_formula(n):
    for seed in (0, 1, 2):
        h0 = sample_constrained_goe(n, rng=rng_stream(seed))
        kept = h0.copy()
        for t in (0.0, 0.3, 2.0):
            got = evolve_exact(h0, t, rng=rng_stream(seed + 10))
            want = dense_evolve_exact(h0, t, rng=rng_stream(seed + 10))
            assert np.array_equal(got, want)
            assert np.array_equal(h0, kept)


def test_evolve_exact_preserves_constraint_and_determinism():
    h = sample_constrained_goe(15, rng=rng_stream(2))
    out1 = evolve_exact(h, 0.8, rng=rng_stream(3))
    out2 = evolve_exact(h, 0.8, rng=rng_stream(3))
    out3 = evolve_exact(h, 0.8, rng=rng_stream(4))
    assert np.array_equal(out1, out2)
    assert not np.array_equal(out1, out3)
    assert constraint_violation(out1) < 1e-12


def test_evolve_exact_matches_norm_identity():
    """E <H_t, H_t> = e^-t <H_0, H_0> + (1 - e^-t) N(N-1)/2."""
    n, t, reps = 30, 0.7, 400
    h0 = center_rescale(sample_regular_graph(n, 5, rng=rng_stream(5)))
    rng = rng_stream(6)
    values = np.empty(reps)
    for r in range(reps):
        ht = evolve_exact(h0, t, rng=rng)
        values[r] = inner_product(ht, ht)
    expected = (math.exp(-t) * inner_product(h0, h0)
                + (1 - math.exp(-t)) * n * (n - 1) / 2.0)
    stderr = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - expected) < 5 * stderr


def test_evolve_sde_zero_noise_decays_exponentially():
    h = sample_constrained_goe(10, rng=rng_stream(7))
    out = evolve_sde(h, 1.0, 1e-3, rng=ZeroNoise())
    target = math.exp(-0.5) * h
    assert np.abs(out - target).max() < 1e-3 * np.abs(target).max()


def test_evolve_sde_preserves_constraint():
    h = sample_constrained_goe(10, rng=rng_stream(8))
    out = evolve_sde(h, 0.3, 1e-2, rng=rng_stream(9))
    assert constraint_violation(out) < 1e-12
    assert np.array_equal(out, evolve_sde(h, 0.3, 1e-2, rng=rng_stream(9)))


# ---------------------------------------------------------------------------
# Flow generator


def test_flow_generator_quadratic_observable_closed_form():
    n = 8
    h = center_rescale(sample_regular_graph(n, 3, rng=rng_stream(10)))

    def f(mat):
        return inner_product(mat, mat)

    # central differences are exact on quadratics, so a large step avoids
    # roundoff amplification entirely
    expected = n * (n - 1) / 2.0 - f(h)
    dense = flow_generator(f, h, step=0.5)
    assert abs(dense - expected) < 1e-9 * abs(expected)
    entrywise = flow_generator_entrywise(f, h, step=0.5)
    assert abs(entrywise - expected) < 1e-9 * abs(expected)
    assert abs(dense - entrywise) < 1e-8 * max(1.0, abs(dense))


def test_flow_generator_halves_linear_observables():
    n = 8
    h = sample_constrained_goe(n, rng=rng_stream(11))

    def f(mat):
        return h_switch_component(mat, 0, 2, 4, 6)

    # central differences are exact on linear observables, so a large step
    # keeps roundoff far below the tolerance
    expected = -0.5 * f(h)
    assert abs(flow_generator(f, h, step=0.5) - expected) < 1e-7
    assert abs(flow_generator_entrywise(f, h, step=0.5) - expected) < 1e-7


def test_flow_generator_forms_agree_on_stieltjes_observable():
    # for non-polynomial observables the two forms share the operator but
    # not the finite-difference directions, so they agree to truncation
    # order O(step^2)
    n = 8
    h = center_rescale(sample_regular_graph(n, 3, rng=rng_stream(12)))
    func = stieltjes_observable(0.2 + 0.5j)
    gaps = []
    for step in (4e-3, 2e-3):
        dense = flow_generator(func, h, step=step)
        entrywise = flow_generator_entrywise(func, h, step=step)
        gaps.append(abs(dense - entrywise))
    assert gaps[0] < 1e-4
    assert gaps[1] < 0.35 * gaps[0]  # shrinks at least quadratically-ish


def test_stieltjes_observable_uses_deflated_spectrum():
    h = center_rescale(sample_regular_graph(12, 3, rng=rng_stream(15)))
    z = -0.3 + 0.4j
    expected = stieltjes_empirical(decompose(h.copy()), z)
    assert abs(stieltjes_observable(z)(h) - expected.imag) < 1e-12


def test_stieltjes_flow_generator_matches_finite_differences():
    n = 10
    h = center_rescale(sample_regular_graph(n, 3, rng=rng_stream(16)))
    z = 0.0 + 0.5j
    func = stieltjes_observable(z)
    closed = stieltjes_flow_generator(h.copy(), z).imag
    step = 1e-4 * (1.0 + np.abs(h).max())
    fd = flow_generator(func, h, step=step)
    assert abs(closed - fd) < 1e-6 * max(1.0, abs(closed))


# ---------------------------------------------------------------------------
# Jump generator of the Stieltjes observable


@pytest.mark.parametrize("n, d, z", [
    pytest.param(16, 3, -0.3 + 0.1j, id="16-3"),
    # a dense graph near the real axis: G's entries reach 1/Im z, and
    # det K = (1 + c g_vw)^2 - c^2 g_vv g_ww cancels most
    pytest.param(24, 8, 0.1 + 0.02j, id="24-8-small-im"),
])
def test_switch_generator_matches_direct_redecomposition(n, d, z):
    graph = sample_regular_graph(n, d, rng=rng_stream(17))
    fast = switch_generator_stieltjes(graph, z)
    base = stieltjes_empirical(decompose(center_rescale(graph)), z)
    acc = 0j
    for row in switchable_tuples(graph):
        lam = decompose(center_rescale(switched_graph(graph, *row)))
        acc += stieltjes_empirical(lam, z) - base
    direct = acc / (8 * n * d)
    assert abs(fast - direct) < 1e-10 * max(1.0, abs(direct))


def test_switch_generator_vanishes_without_moves():
    # the hexagonal state space admits no switching moves at all
    graph = sample_regular_graph(6, 3, rng=rng_stream(18))
    assert len(switchings(graph)) == 0
    assert switch_generator_stieltjes(graph, 0.5j) == 0j


def test_switch_generator_peak_memory_stays_at_the_tuple_scan():
    # a few arrays of one value per switching: past the support scan that
    # it calls, one evaluation adds at most 1 MiB to the traced peak
    graph = sample_regular_graph(32, 16, rng=rng_stream(19))
    peaks = []
    for call in (lambda: switchings(graph),
                 lambda: switch_generator_stieltjes(graph, 0.5j)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    scan_peak, q_peak = peaks
    assert q_peak <= scan_peak + (1 << 20), (scan_peak, q_peak)


# ---------------------------------------------------------------------------
# Seminorms and the discrepancy scan


def test_estimate_seminorm_is_lr_mean_of_probe_maxima():
    # replaying the probe stream, the dense resolvent oracle gives each
    # sample's max over its probes; their L^8 mean is the estimate up to
    # rounding (about 4e-16 relative here)
    z = 0.1 + 0.5j
    mats = [sample_constrained_goe(8, rng=rng_stream(s)) for s in (0, 1, 2)]
    for order in (1, 2, 3, 4):
        got = estimate_seminorm(z, mats, order, 0.5, rng=rng_stream(order))
        replay, maxima = rng_stream(order), []
        all_sites = replay.integers(0, 8, size=(len(mats), 64, order, 4))
        all_thetas = replay.uniform(size=(len(mats), 64, order))
        for h, h_sites, h_thetas in zip(mats, all_sites, all_thetas):
            best = 0.0
            for sites, thetas in zip(h_sites, h_thetas):
                dirs = [switch_direction(8, *site) for site in sites]
                base = h + 0.5 * sum(t * x for t, x in zip(thetas, dirs))
                best = max(best, abs(stieltjes_derivative(z, base, dirs)))
            maxima.append(best)
        assert len(set(maxima)) > 1
        expected = float(np.mean(np.array(maxima) ** 8) ** (1 / 8))
        assert got == pytest.approx(expected, rel=1e-12), order
    for order in (0, 5):
        with pytest.raises(ValueError):
            estimate_seminorm(z, mats, order, 0.5, rng=rng_stream(0))


# one probe per order at N = 8: the sites of its directions and its base
_PROBE_SITES = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [1, 3, 5, 7],
                         [6, 4, 2, 0]])


def _probe(order):
    """(H, thetas, directions, base) of the order's probe at scale 0.5."""
    h = sample_constrained_goe(8, rng=rng_stream(3))
    thetas = np.linspace(0.2, 0.8, order)
    dirs = [switch_direction(8, *site) for site in _PROBE_SITES[:order]]
    return h, thetas, dirs, h + 0.5 * sum(t * x for t, x in zip(thetas, dirs))


def test_seminorm_stencil_matches_a_40_digit_reference():
    # the same permutation sum as the dense oracle, every product formed in
    # 40-digit arithmetic: the Woodbury blocks' derivative meets it to
    # rounding (errors 3e-17 to 9e-16, at most 7e-13 relative here)
    import mpmath

    z = 0.1 + 0.5j
    with mpmath.workdps(40):
        z_mp = mpmath.mpc(z.real, z.imag)
        for order in (1, 2, 3, 4):
            h, thetas, dirs, base = _probe(order)
            woodbury = _probe_derivatives(h, _PROBE_SITES[None, :order],
                                          thetas[None], 0.5, z)[0]
            g = mpmath.inverse(mpmath.matrix(base.tolist())
                               - z_mp * mpmath.eye(8))
            g_x = [g * mpmath.matrix(x.tolist()) for x in dirs]
            total = mpmath.mpc(0)
            for sigma in itertools.permutations(range(order)):
                term = g
                for a in reversed(sigma):
                    term = g_x[a] * term
                total += sum(term[q, q] for q in range(8))
            reference = float(mpmath.im((-1) ** order * total) / (8 - 1))
            err = abs(woodbury - reference)
            print(f"order {order}: reference {reference:.12e}, "
                  f"error {err:.1e}")
            assert err < 1e-10 * abs(reference)


def test_stencil_oracle_converges_to_the_exact_derivative_at_second_order():
    # the central 2^n-corner stencil errs by O(step^2), so halving the step
    # quarters its distance from the exact derivative (ratios 3.96 to 4.00
    # here): this fixes the exact formula's sign and permutation sum
    # independently of the resolvent algebra
    z = 0.1 + 0.5j
    func = stieltjes_observable(z)
    for order in (1, 2, 3, 4):
        _, _, dirs, base = _probe(order)
        exact = stieltjes_derivative(z, base, dirs)
        errors = [abs(directional_derivative(func, base, dirs, step=step)
                      - exact) for step in (0.02, 0.01, 0.005)]
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.1), order


def test_estimate_seminorm_draws_the_probe_stream_unchanged():
    # one call draws the sites of all 64 probes of every matrix, then all
    # their thetas: the generator must end where that replay ends
    mats = [sample_constrained_goe(8, rng=rng_stream(s)) for s in (0, 1)]
    for order in (1, 2, 3, 4):
        rng, replay = rng_stream(order), rng_stream(order)
        estimate_seminorm(0.5j, mats, order, 0.5, rng=rng)
        replay.integers(0, 8, size=(len(mats), 64, order, 4))
        replay.uniform(size=(len(mats), 64, order))
        # Philox state: counter, key and buffer arrays, plus scalars
        assert repr(rng.bit_generator.state) == repr(
            replay.bit_generator.state)


def test_estimate_seminorm_peak_memory_stays_below_300_kib():
    # the probes are low-rank updates of one resolvent and their derivatives
    # products of 2x2 blocks: past the N x N resolvent, its square and the
    # shifted matrix (about 200 KB at N = 64), nothing is N x N (a real
    # (64, N, N) stack for a difference step's size peaked at 6.1 MiB here)
    h = center_rescale(sample_regular_graph(64, 8, rng=rng_stream(0)))
    tracemalloc.start()
    try:
        estimate_seminorm(0.5j, [h], 1, 1.0 / math.sqrt(7.0),
                          rng=rng_stream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 << 10, peak


def test_estimate_seminorm_peak_memory_does_not_grow_with_the_stack():
    # the probes of all 16 matrices are drawn at once (0.16 MB) but each
    # matrix's are evaluated alone, and the order-4 evaluation peaks at
    # 0.41 MiB traced: 0.56 MiB here in all, where one evaluation of the
    # whole (16 * 64)-probe stack peaked at 8.5 MiB
    mats = [center_rescale(sample_regular_graph(32, 4, rng=rng_stream(s)))
            for s in range(16)]
    tracemalloc.start()
    try:
        estimate_seminorm(0.5j, mats, 4, 1.0 / math.sqrt(3.0),
                          rng=rng_stream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("n_matrices", [1, 3, 16])
def test_estimate_seminorm_draws_every_probe_in_two_calls(n_matrices):
    # one sites draw and one thetas draw per call, whatever the matrix
    # count: two draws per probe made 9,216 Generator calls per
    # generator-check call at N = 32 with 6 samples, most of the seminorms'
    # time
    mats = [sample_constrained_goe(8, rng=rng_stream(s))
            for s in range(n_matrices)]
    for order in (1, 4):
        rng = mock.Mock(wraps=rng_stream(order))
        estimate_seminorm(0.5j, mats, order, 0.5, rng=rng)
        assert [call[0] for call in rng.method_calls] == [
            "integers", "uniform"], order


def test_estimate_seminorm_is_deterministic_and_positive():
    mats = [center_rescale(sample_regular_graph(10, 3, rng=rng_stream(19)))]
    a = estimate_seminorm(0.5j, mats, 2, 1.0, rng=rng_stream(20))
    b = estimate_seminorm(0.5j, mats, 2, 1.0, rng=rng_stream(20))
    assert a == b > 0


# ---------------------------------------------------------------------------
# Eigenvector moment flow


def _loop_moment_flow_rates(eigenvalues):
    """Reference generator: the hop-by-hop double loop over the M sites."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    m = len(lam)
    diff = lam[:, None] - lam[None, :]
    off = ~np.eye(m, dtype=bool)
    w = np.zeros((m, m))
    w[off] = 1.0 / (m * diff[off] ** 2)
    gen = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            gen[i, j] += w[i, j]
            gen[i, i] -= w[i, j]
    return gen


def test_moment_flow_rates_equal_the_hop_loop():
    # bit for bit: the exit rates add each row's hops in site order, which
    # a row sum such as -w.sum(axis=1) does not guarantee
    rng = rng_stream(29)
    for m in range(2, 13):
        for _ in range(20):
            lam = np.sort(rng.normal(size=m))
            assert np.array_equal(moment_flow_rates(lam),
                                  _loop_moment_flow_rates(lam)), m


def test_moment_flow_rates_conserve_mass():
    lam = np.array([1.0, 0.3, -0.8])
    rates = moment_flow_rates(lam)
    assert rates.shape == (3, 3)
    assert rates[0, 1] == pytest.approx(1.0 / (3 * 0.7 ** 2), rel=1e-14)
    assert np.abs(rates.sum(axis=1)).max() < 1e-12
    off = rates - np.diag(np.diag(rates))
    assert (off >= 0).all()
    with pytest.raises(SingularityError):
        moment_flow_rates(np.array([1.0, 1.0 + 1e-12]))


def test_path_row_equals_columnwise_interp():
    path_t, path = eigenvalue_path(np.array([1.0, 0.1, -0.7, -1.4]), 0.05,
                                   1e-3, rng=rng_stream(30))
    rng = rng_stream(31)
    times = np.concatenate([
        path_t,                                  # every knot, the last too
        rng.uniform(0.0, 0.05, size=200),        # interior points
        [0.0125, np.nextafter(0.05, 0.0), -1.0, 1.0]])  # near the end, outside
    for t in times.tolist():
        expected = np.array([np.interp(t, path_t, col) for col in path.T])
        assert np.array_equal(_path_row(path_t, path, t), expected), t


def _sign_fixed_qr(frames):
    q, r = np.linalg.qr(frames)
    signs = np.sign(np.einsum("kii->ki", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def test_orthonormalize_matches_sign_fixed_qr():
    rng = rng_stream(32)
    # 600 replicas span several layout blocks, the last one partial
    for n, dim, m in ((3, 4, 4), (600, 8, 8), (5, 6, 3)):
        base = _sign_fixed_qr(rng.normal(size=(n, dim, m)))
        stack = base + 1e-2 * rng.normal(size=(n, dim, m))
        out = _orthonormalize(stack)
        assert out.shape == stack.shape
        assert np.abs(out - _sign_fixed_qr(stack)).max() < 1e-12
        gram = out.swapaxes(1, 2) @ out
        assert np.abs(gram - np.eye(m)).max() < 1e-12


@pytest.fixture()
def rate_builds(monkeypatch):
    """The spectra of every rate matrix that ``emf_solve`` builds."""
    calls = []

    def counting(eigenvalues):
        calls.append(eigenvalues)
        return moment_flow_rates(eigenvalues)

    monkeypatch.setattr(flow, "moment_flow_rates", counting)
    return calls


def test_emf_solve_builds_each_rate_matrix_once(rate_builds):
    path_t, path = eigenvalue_path(np.array([1.2, 0.3, -0.4, -1.3]), 0.2,
                                   1e-3, rng=rng_stream(33))
    f0 = np.array([0.4, 0.3, 0.2, 0.1])
    sol = emf_solve(path_t, path, f0, [0.04, 0.2])
    # one matrix at t = 0, then each step builds its midpoint and its end
    assert sol.n_rejected == 0
    assert len(rate_builds) == 2 * sol.n_accepted + 1


def test_two_state_moment_flow_matches_exponential():
    lam_pair = np.array([0.7, -0.7])
    w = 1.0 / (2 * (1.4) ** 2)
    path_t = np.array([0.0, 1.0])
    path = np.vstack([lam_pair, lam_pair])
    times = np.linspace(0.0, 0.9, 10)
    sol = emf_solve(path_t, path, np.array([1.0, 0.0]), times)
    decay = np.exp(-2 * w * times)
    exact = np.stack([0.5 + 0.5 * decay, 0.5 - 0.5 * decay], axis=1)
    assert np.abs(sol.values - exact).max() < 1e-6
    assert sol.contraction_ok
    assert np.abs(sol.values.sum(axis=1) - 1.0).max() < 1e-12
    assert (np.diff(np.abs(sol.values).max(axis=1)) <= 1e-12).all()


def test_emf_solve_approaches_uniform_equilibrium():
    # symmetric single-particle rates relax any initial mass to uniform
    lam = np.array([1.2, 0.4, -0.5, -1.1])
    path_t = np.array([0.0, 80.0])
    path = np.vstack([lam, lam])
    f0 = np.array([1.0, 0.0, 0.0, 0.0])
    sol = emf_solve(path_t, path, f0, 80.0)
    assert sol.values.shape == (1, 4)
    assert np.abs(sol.values[0] - 0.25).max() < 1e-5


def test_emf_solve_grid_matches_separate_solves():
    # one integration over a sorted grid takes the first time's steps
    # exactly, and later times agree with fresh solves to within tolerance;
    # every piece here takes the fixed grid's fewest steps
    path_t = np.array([0.0, 1.0])
    path = np.vstack([[-1.0, 0.1, 0.9], [-0.8, -0.1, 1.1]])
    f0 = np.array([1.0, 0.0, 0.0])
    grid = emf_solve(path_t, path, f0, [0.1, 0.5])
    first = emf_solve(path_t, path, f0, 0.1)
    last = emf_solve(path_t, path, f0, 0.5)
    assert np.array_equal(grid.values[0], first.values[0])
    assert np.abs(grid.values[1] - last.values[0]).max() < 1e-7
    assert (grid.n_accepted, first.n_accepted, last.n_accepted) == (8, 4, 4)
    with pytest.raises(ValueError, match="sorted grid"):
        emf_solve(path_t, path, f0, [0.5, 0.1])


def test_emf_solve_returns_one_row_per_requested_time():
    # rows follow the requested times: f0 at t = 0, and a repeated time
    # repeats its row without changing the integration
    path_t = np.array([0.0, 1.0])
    path = np.vstack([[-1.0, 0.1, 0.9], [-0.8, -0.1, 1.1]])
    f0 = np.array([0.5, 0.3, 0.2])
    sol = emf_solve(path_t, path, f0, [0.0, 0.1, 0.1, 0.5])
    distinct = emf_solve(path_t, path, f0, [0.1, 0.5])
    assert sol.values.shape == (4, 3)
    assert np.array_equal(sol.values[0], f0)
    assert np.array_equal(sol.values[1], sol.values[2])
    assert np.array_equal(sol.values[[1, 3]], distinct.values)
    assert sol.n_accepted == distinct.n_accepted
    assert not np.array_equal(sol.values[1], sol.values[3])


def test_emf_solve_respects_step_budget(rate_builds):
    # a gap of 1e-3 makes the exit rate 5e5, so the piece [0, 1] needs
    # 2e6 steps under the CFL cap: refused before its first step
    lam = np.array([5e-4, -5e-4])
    path = np.vstack([lam, lam])
    with pytest.raises(ConvergenceError, match="step budget"):
        emf_solve(np.array([0.0, 1.0]), path, np.array([1.0, 0.0]), 1.0)
    assert len(rate_builds) == 2  # the piece's two ends, no step


def _dop853_moment_flow(path_t, path, f0, t_grid):
    """Reference: DOP853 from knot to knot, where the rates are smooth."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return moment_flow_rates(_path_row(path_t, path, t)) @ y

    t_max = max(t_grid)
    edges = np.union1d(path_t[(path_t > 0) & (path_t < t_max)], t_grid)
    f, t, values = np.array(f0, dtype=np.float64), 0.0, []
    for edge in edges.tolist():
        f = solve_ivp(rhs, (t, edge), f, method="DOP853", rtol=1e-13,
                      atol=1e-15).y[:, -1]
        t = edge
        if edge in t_grid:
            values.append(f)
    return np.stack(values)


def test_emf_solve_matches_dop853_reference():
    rng = rng_stream(34)
    raw = rng.normal(size=(8, 8))
    lam0 = np.linalg.eigvalsh((raw + raw.T) / 4.0)
    path_t, path = eigenvalue_path(lam0, 0.2, 1e-3, rng=rng_stream(35))
    q = rng.normal(size=8)
    f0 = (q / np.linalg.norm(q)) ** 2
    t_grid = [0.04, 0.2]
    sol = emf_solve(path_t, path, f0, t_grid)
    got = sol.values
    reference = _dop853_moment_flow(path_t, path, f0, t_grid)
    # measured 4.3e-10 on this path (minimum gap 0.136); harness paths
    # at the benchmark config read up to 1.5e-7 over seeds 0-63
    assert np.abs(got - reference).max() < 2e-9
    assert sol.n_accepted == 4 * 200  # four steps between 1e-3 knots
    assert sol.contraction_ok


# ---------------------------------------------------------------------------
# Eigenvalue and eigenvector paths


def test_eigenvalue_path_shape_start_and_order():
    lam0 = np.array([1.0, 0.2, -1.2])
    times, paths = eigenvalue_path(lam0, 0.05, 0.01, rng=rng_stream(23))
    assert times.shape == (6,) and paths.shape == (6, 3)
    assert np.array_equal(paths[0], np.sort(lam0))
    assert (np.diff(paths, axis=1) >= 0).all()  # every row stays ascending
    _, again = eigenvalue_path(lam0, 0.05, 0.01, rng=rng_stream(23))
    assert np.array_equal(paths, again)


def test_eigenvalue_path_zero_noise_follows_documented_drift():
    lam0 = np.array([-0.8, 0.8])
    dt = 1e-3
    _, paths = eigenvalue_path(lam0, dt, dt, rng=ZeroNoise())
    drift = np.array([-1.0 / 1.6, 1.0 / 1.6]) / 2 - lam0 / 2.0
    assert np.abs(paths[1] - (lam0 + drift * dt)).max() < 1e-15


def test_eigenvalue_path_raises_on_collision():
    with pytest.raises(SingularityError):
        eigenvalue_path(np.array([1e-10, 0.0]), 0.01, 0.01, rng=ZeroNoise())


def test_eigenvector_sde_frames_stay_orthonormal():
    rng = rng_stream(24)
    lam0 = np.sort(rng.normal(size=5))[::-1] * 2.0
    path_t, path = eigenvalue_path(lam0, 0.1, 1e-3, rng=rng_stream(25))
    identity = np.broadcast_to(np.eye(5), (4, 5, 5))
    frames = eigenvector_sde(path_t, path, 0.1, 1e-3, identity,
                             rng=rng_stream(26), n_replicas=4, t_start=0.0)
    assert frames.shape == (4, 5, 5)
    for frame in frames:
        gram = frame.T @ frame
        assert np.abs(gram - np.eye(5)).max() < 1e-10
    assert not np.allclose(frames[0], frames[1])  # replicas are independent
    again = eigenvector_sde(path_t, path, 0.1, 1e-3, identity,
                            rng=rng_stream(26), n_replicas=4, t_start=0.0)
    assert np.array_equal(frames, again)


def test_eigenvector_sde_zero_noise_norm_decay():
    lam = np.array([1.0, -1.0])
    path_t = np.array([0.0, 1.0])
    path = np.vstack([lam, lam])
    t, dt = 0.5, 1e-4
    frames = eigenvector_sde(path_t, path, t, dt, np.eye(2)[None],
                             rng=ZeroNoise(), n_replicas=1, t_start=0.0,
                             renormalize=False)
    # each column decays at rate (1/2M) sum_j (lambda_i - lambda_j)^-2
    rate = 1.0 / (2 * 2 * 4.0)
    expected = math.exp(-rate * t)
    norms = np.linalg.norm(frames[0], axis=0)
    assert np.abs(norms - expected).max() < 1e-4


def test_eigenvector_sde_segments_continue_exactly():
    lam0 = np.array([1.5, 0.0, -1.5])
    path_t, path = eigenvalue_path(lam0, 0.04, 1e-3, rng=rng_stream(27))
    identity = np.broadcast_to(np.eye(3), (2, 3, 3))
    whole = eigenvector_sde(path_t, path, 0.04, 1e-3, identity,
                            rng=rng_stream(28), n_replicas=2, t_start=0.0)
    rng = rng_stream(28)
    first = eigenvector_sde(path_t, path, 0.02, 1e-3, identity, rng=rng,
                            n_replicas=2, t_start=0.0)
    second = eigenvector_sde(path_t, path, 0.04, 1e-3, v0=first, rng=rng,
                             n_replicas=2, t_start=0.02)
    # the same noise stream is consumed in the same order; only the float
    # representation of the step times can differ by an ulp
    assert np.allclose(whole, second, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Free convolution


def test_free_conv_at_time_zero_is_empirical():
    lam = np.array([1.4, 0.2, -0.9, -1.3])
    z = 0.3 + 0.2j
    assert free_conv_stieltjes(lam, 0.0, z) == stieltjes_empirical(lam, z)


def test_free_conv_satisfies_self_consistency():
    rng = rng_stream(29)
    lam = np.sort(rng.uniform(-1.8, 1.8, 60))
    for t, z in ((0.2, 0.1 + 0.05j), (1.0, -1.2 + 0.3j), (3.0, 0.9 + 0.02j)):
        m = free_conv_stieltjes(lam, t, z)
        shrink, theta = math.exp(-t / 2), 1 - math.exp(-t)
        residual = np.mean(1.0 / (shrink * lam - z - theta * m)) - m
        assert abs(residual) < 1e-11
        assert m.imag > 0


def test_free_conv_relaxes_to_semicircle():
    lam = np.array([1.0, 1.0, -1.0, -1.0])  # two atoms, far from semicircle
    for z in (0.4 + 0.1j, -0.8 + 0.3j):
        m = free_conv_stieltjes(lam, 12.0, z)
        assert abs(m - semicircle_m(z)) < 1e-5


def test_free_conv_validates_arguments():
    lam = np.array([0.5, -0.5])
    with pytest.raises(ValueError):
        free_conv_stieltjes(lam, 1.0, 0.3 - 0.1j)
    with pytest.raises(ValueError):
        free_conv_stieltjes(lam, -1.0, 0.3 + 0.1j)


def test_semicircle_semigroup_residual_is_roundoff():
    for z in (0.3 + 0.05j, -1.5 + 0.4j, 1.0 + 1.0j):
        for t in (0.1, 1.0, 4.0):
            assert semicircle_semigroup_residual(z, t) < 1e-12


def test_semicircle_continuity_bound():
    rng = rng_stream(30)
    for _ in range(200):
        z = complex(rng.uniform(-3, 3), rng.uniform(1e-4, 2.0))
        w = complex(rng.uniform(-3, 3), rng.uniform(1e-4, 2.0))
        lhs = abs(semicircle_m(z) - semicircle_m(w))
        assert lhs <= 2.0 * math.sqrt(abs(z - w)) + 1e-12

"""Full acceptance battery for the laboratory, one test per criterion.

Each test prints a single ``[criterion K] <label>: PASS/FAIL (<numbers>)``
line (shown under ``pytest -rA``) and enforces the criterion's runtime
budget.  Two session fixtures carry the heavy shared ensembles: 100
spectra at N=1000, d=32 (raw, short-time, and long-time flow) with a
matching GOE reference, and 50 spectra at N=2000, d=40 with eigenvector
summary statistics.  Fixture build time counts toward the budget of every
criterion that consumes the fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (
    flow_generator,
    flow_generator_entrywise,
    inner_product,
    semicircle_semigroup_residual,
    stieltjes_observable,
)
from rrglab.chain import invariance_report
from rrglab.config import ExperimentConfig
from rrglab.flow import (
    evolve_exact,
    free_conv_stieltjes,
    stieltjes_flow_generator,
)
from rrglab.harness import (
    _CORR_REACH,
    _CORR_WINDOW,
    _STREAM_FLOW,
    _tridiagonal_spectrum,
    corr_gate,
    gap_gate,
    goe_reference,
    involution_suite,
    repulsion_gate,
    run_experiment,
    semicircle_gate,
    trial_graph,
)
from rrglab.matrices import center_rescale, sample_constrained_goe
from rrglab.spectra import (
    close_pair_counts,
    decompose,
    delocalization_stat,
    eigenpairs,
    gap_ensemble,
    ks_distance,
    rigidity_stat,
    semicircle_m,
)
from rrglab.streams import rng_stream

pytestmark = pytest.mark.acceptance


def report_line(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {label}: {status} ({detail})")


def report_values(reports):
    return {r["name"]: r["value"] for r in reports}


@pytest.fixture(scope="session")
def bulk_ensembles():
    """N=1000, d=32, 100 samples: spectra at t=0, t=N^-1.2, t=5, plus GOE."""
    start = time.perf_counter()
    config = ExperimentConfig(n=1000, d=32, n_samples=100, seed=0)
    t_short = float(config.n) ** -1.2
    raw, short, long_ = [], [], []
    for trial in range(config.n_samples):
        h = center_rescale(trial_graph(config, trial))
        raw.append(decompose(h.copy()))
        flow_rng = rng_stream(config.seed, _STREAM_FLOW + trial)
        h = evolve_exact(h, t_short, rng=flow_rng)
        short.append(decompose(h.copy()))
        h = evolve_exact(h, 5.0 - t_short, rng=flow_rng)
        long_.append(decompose(h))
    goe = goe_reference(config.n, config.n_samples, config.seed)
    return {"raw": raw, "short": short, "long": long_, "goe": goe,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="session")
def wide_ensemble():
    """N=2000, d=40, 50 samples with per-sample eigenvector statistics."""
    start = time.perf_counter()
    config = ExperimentConfig(n=2000, d=40, n_samples=50, seed=0)
    spectra, deloc, rigidity = [], [], []
    for trial in range(config.n_samples):
        lam, vectors = eigenpairs(center_rescale(trial_graph(config, trial)))
        deloc.append(delocalization_stat(vectors))
        rigidity.append(rigidity_stat(lam, kappa=0.1))
        spectra.append(lam)
    return {"config": config, "spectra": spectra, "deloc": deloc,
            "rigidity": rigidity, "elapsed": time.perf_counter() - start}


def test_criterion_01_exhaustive_invariance_and_reversibility():
    start = time.perf_counter()
    reports = [invariance_report(n, d) for n, d in ((6, 3), (8, 3))]
    ok = all(rep.reversible for rep in reports)
    elapsed = time.perf_counter() - start
    counts = ", ".join(f"({rep.n_vertices},{rep.degree}) {rep.n_transitions}"
                       for rep in reports)
    report_line(1, "exhaustive jump-generator reversibility, hence invariance",
                ok, f"symmetric transition multisets: {counts}; "
                    f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 60


def test_criterion_02_involution_and_conservation_suite():
    start = time.perf_counter()
    suite = involution_suite(0)
    ok = all(suite.values())
    elapsed = time.perf_counter() - start
    report_line(2, "switch involution/conservation suite on 10^4 pairs", ok,
                f"{suite}; {elapsed:.1f}s")
    assert ok
    assert elapsed < 60


def test_criterion_03_generator_cross_validation():
    start = time.perf_counter()
    n = 10
    z = 0.5j
    stieltjes = stieltjes_observable(z)
    closed_worst = forms_worst = stieltjes_worst = 0.0
    for trial in range(20):
        h = sample_constrained_goe(n, rng=rng_stream(3, stream_id=trial))

        def func(mat):
            return inner_product(mat, mat)

        closed = n * (n - 1) / 2.0 - func(h)
        # central differences are exact on quadratics, so a large step
        # avoids the roundoff amplification of the default tiny one
        dense = flow_generator(func, h, step=0.5)
        entrywise = flow_generator_entrywise(func, h, step=0.5)
        scale = abs(closed)
        closed_worst = max(closed_worst, abs(dense - closed) / scale)
        forms_worst = max(forms_worst, abs(dense - entrywise) / scale)
        if trial < 5:
            # the closed form that generator-check runs, against the dense
            # sum on Im s(z) at the unit test's step
            library = stieltjes_flow_generator(h.copy(), z).imag
            oracle = flow_generator(stieltjes, h,
                                    step=1e-4 * (1.0 + np.abs(h).max()))
            stieltjes_worst = max(stieltjes_worst, abs(library - oracle)
                                  / max(1.0, abs(library)))
    ok = (closed_worst <= 1e-4 and forms_worst <= 1e-8
          and stieltjes_worst <= 1e-6)
    elapsed = time.perf_counter() - start
    report_line(3, "flow generator vs closed forms and form-vs-form", ok,
                f"closed-form rel {closed_worst:.2e} <= 1e-4, "
                f"two-form rel {forms_worst:.2e} <= 1e-8, "
                f"Stieltjes closed-form rel {stieltjes_worst:.2e} <= 1e-6; "
                f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 300


def test_criterion_04_jump_vs_flow_discrepancy_scaling(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "generator"
    config = ExperimentConfig(n=32, d=4, n_samples=200, seed=0,
                              output_dir=out)
    ok = run_experiment(config, "generator-check") == 0
    reports = json.loads((out / "report.json").read_text())
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{r['name']}: {r['value']:.4f}+-{r['stderr']:.4f}"
                       for r in reports)
    report_line(4, "normalized jump-vs-flow discrepancy decreases in d", ok,
                f"{detail}; {elapsed:.0f}s")
    assert ok
    assert elapsed < 1800


def test_criterion_05_semicircle_law(wide_ensemble):
    start = time.perf_counter()
    ok, reports = semicircle_gate(wide_ensemble["spectra"],
                                  wide_ensemble["config"])
    elapsed = time.perf_counter() - start + wide_ensemble["elapsed"]
    detail = "; ".join(f"{name} {value:.4f}"
                       for name, value in report_values(reports).items())
    report_line(5, "semicircle law at N=2000, d=40", ok,
                f"{detail}; {elapsed:.0f}s")
    assert ok
    assert elapsed < 600


def close_pair_sigma(spectra, goe):
    """corr-test's gate on two ensembles: ok, and the difference in
    standard errors."""
    ok, (record,) = corr_gate(
        close_pair_counts(spectra, _CORR_WINDOW, _CORR_REACH),
        close_pair_counts(goe, _CORR_WINDOW, _CORR_REACH))
    return ok, record["value"] / record["stderr"]


def test_criterion_06_goe_gap_universality(bulk_ensembles):
    start = time.perf_counter()
    goe = bulk_ensembles["goe"]
    ok, reports = gap_gate(gap_ensemble(bulk_ensembles["raw"], kappa=0.1),
                           gap_ensemble(goe, kappa=0.1))
    values = report_values(reports)
    # the raw spectra are the ones corr-test draws at its default config
    corr_ok, corr_sigma = close_pair_sigma(bulk_ensembles["raw"], goe)
    # control: beta = 2 levels repel harder, so the gate must refuse them
    gue = [_tridiagonal_spectrum(999, 1000, 2, rng_stream(0, stream_id=k))
           for k in range(100)]
    gue_ok, gue_sigma = close_pair_sigma(gue, goe)
    ok = ok and corr_ok and not gue_ok
    elapsed = time.perf_counter() - start + bulk_ensembles["elapsed"]
    report_line(6, "pooled bulk gaps and close pairs match GOE at N=1000, "
                   "d=32", ok,
                f"KS {values['ks_statistic']:.4f}, "
                f"|mean diff| {abs(values['gap_mean_difference']):.4f}, "
                f"close pairs {corr_sigma:+.2f} sigma, GUE control "
                f"{gue_sigma:+.2f} sigma (|.| <= 4 passes); {elapsed:.0f}s")
    assert ok
    assert elapsed < 1800


def test_criterion_07_flow_interpolation_of_gap_statistics(bulk_ensembles):
    start = time.perf_counter()
    raw = gap_ensemble(bulk_ensembles["raw"], kappa=0.1)
    short = gap_ensemble(bulk_ensembles["short"], kappa=0.1)
    long_ = gap_ensemble(bulk_ensembles["long"], kappa=0.1)
    goe = gap_ensemble(bulk_ensembles["goe"], kappa=0.1)
    ks_short = ks_distance(raw, short)
    ks_long = ks_distance(long_, goe)
    ok = ks_short < 0.05 and ks_long < 0.05
    elapsed = time.perf_counter() - start + bulk_ensembles["elapsed"]
    report_line(7, "gap laws along the matrix flow", ok,
                f"KS(t=0, t=N^-1.2) {ks_short:.4f} < 0.05, "
                f"KS(t=5, GOE) {ks_long:.4f} < 0.05; {elapsed:.0f}s")
    assert ok
    assert elapsed < 2700


def test_criterion_08_level_repulsion(bulk_ensembles):
    start = time.perf_counter()
    ok, reports = repulsion_gate(
        gap_ensemble(bulk_ensembles["raw"], kappa=0.1),
        gap_ensemble(bulk_ensembles["goe"], kappa=0.1))
    values = report_values(reports)
    elapsed = time.perf_counter() - start + bulk_ensembles["elapsed"]
    report_line(8, "small-gap fraction against the GOE", ok,
                f"fraction {values['small_gap_fraction_rrg']:.5f}, "
                f"GOE gap {values['small_gap_sigma']:.2f} sigma; "
                f"{elapsed:.0f}s")
    assert ok
    assert elapsed < 600


def test_criterion_09_eigenvector_moment_flow(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "emf"
    config = ExperimentConfig(n=8, d=3, n_samples=10_000, seed=0,
                              output_dir=out)
    ok = run_experiment(config, "emf-check") == 0
    values = report_values(json.loads((out / "report.json").read_text()))
    elapsed = time.perf_counter() - start
    report_line(9, "moment-flow ODE vs 10^4 eigenvector-SDE replicas", ok,
                f"max |ODE-MC|/SE {values['emf_max_sigma[t=0.1]']:.2f}, "
                f"{values['emf_max_sigma[t=0.5]']:.2f}, "
                f"contraction {values['emf_contraction_ok'] == 1.0}; "
                f"{elapsed:.0f}s")
    assert ok
    assert elapsed < 600


def test_criterion_10_free_convolution_identities():
    start = time.perf_counter()
    z_grid = [complex(x, 0.05 + 0.95 * k / 19.0)
              for k, x in enumerate(np.linspace(-1.9, 1.9, 20))]
    t_grid = (0.05, 0.2, 0.8, 2.0, 5.0)
    semigroup_worst = max(semicircle_semigroup_residual(z, t)
                          for z in z_grid for t in t_grid)

    fixed_worst = max(abs(semicircle_m(z) ** 2 + z * semicircle_m(z) + 1.0)
                      for z in z_grid)
    # self-consistency of the finite-spectrum free convolution
    lam = np.sort(rng_stream(10, stream_id=0).uniform(-1.8, 1.8, size=64))
    for z, t in ((0.3 + 0.1j, 0.4), (-1.1 + 0.05j, 1.5), (0.05j, 3.0)):
        m_fc = free_conv_stieltjes(lam, t, z, tol=1e-14)
        resid = abs(m_fc - np.mean(1.0 / (math.exp(-t / 2.0) * lam - z
                                          - (1.0 - math.exp(-t)) * m_fc)))
        fixed_worst = max(fixed_worst, resid)

    rng = rng_stream(10, stream_id=1)
    continuity_ok, margin = True, 0.0
    for _ in range(1000):
        z = complex(rng.uniform(-2.5, 2.5), rng.uniform(1e-2, 1.0))
        w = complex(rng.uniform(-2.5, 2.5), rng.uniform(1e-2, 1.0))
        lhs = abs(semicircle_m(z) - semicircle_m(w))
        rhs = 2.0 * abs(z - w) ** 0.5
        continuity_ok = continuity_ok and lhs <= rhs
        margin = max(margin, lhs / rhs)

    ok = semigroup_worst < 1e-10 and fixed_worst < 1e-12 and continuity_ok
    elapsed = time.perf_counter() - start
    report_line(10, "free-convolution semigroup/fixed-point/continuity", ok,
                f"semigroup residual {semigroup_worst:.2e} < 1e-10, "
                f"fixed point {fixed_worst:.2e} < 1e-12, "
                f"continuity ratio {margin:.3f} <= 1; {elapsed:.1f}s")
    assert ok
    assert elapsed < 60


def test_criterion_11_delocalization_and_rigidity(wide_ensemble):
    start = time.perf_counter()
    config = wide_ensemble["config"]
    deloc_bound = 3.0 * math.sqrt(math.log(config.n))
    rigidity_bound = 10.0 * config.big_d ** -0.25
    deloc_max = max(wide_ensemble["deloc"])
    rigidity_max = max(wide_ensemble["rigidity"])
    ok = deloc_max <= deloc_bound and rigidity_max <= rigidity_bound
    elapsed = time.perf_counter() - start + wide_ensemble["elapsed"]
    report_line(11, "delocalization and rigidity at N=2000, d=40", ok,
                f"sqrt(N) max|v| {deloc_max:.2f} <= {deloc_bound:.2f}, "
                f"bulk max|eig-classical| {rigidity_max:.4f} <= "
                f"{rigidity_bound:.2f}; {elapsed:.0f}s")
    assert ok
    assert elapsed < 600

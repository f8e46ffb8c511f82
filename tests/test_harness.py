"""Experiment driver: reference ensembles, property suites, recipe wiring."""

import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import rrglab.cli  # noqa: F401  binds the modules the tracer wraps
from rrglab.config import ConfigError, DegreeWindowWarning, ExperimentConfig
from rrglab import harness
from rrglab.harness import (
    RECIPE_DEFAULTS,
    RECIPES,
    _tridiagonal_spectrum,
    gap_gate,
    goe_reference,
    involution_suite,
    repulsion_gate,
    run_experiment,
)
from rrglab.io import read_graph_text, read_matrix
from rrglab.spectra import close_pair_counts, gap_ensemble, ks_distance
from rrglab.streams import rng_stream


def test_goe_reference_shapes_and_order():
    spectra = goe_reference(12, 3, seed=5)
    assert len(spectra) == 3
    for lam in spectra:
        assert lam.shape == (11,) and lam.dtype == np.float64
        assert (np.diff(lam) <= 0).all()   # descending


def test_goe_reference_determinism_and_stream_prefix():
    first = goe_reference(10, 3, seed=5)
    second = goe_reference(10, 3, seed=5)
    longer = goe_reference(10, 5, seed=5)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    # trial k draws from stream k, so a longer run extends the shorter one
    for a, b in zip(first, longer):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], first[1])


def test_goe_reference_second_moment_matches_constrained_law():
    """E sum(lam^2) = (n-1)n/n = n-1 for the (n-1)-core with variance 1/n."""
    n, n_samples = 40, 200
    spectra = goe_reference(n, n_samples, seed=17)
    totals = np.array([np.sum(lam ** 2) for lam in spectra])
    stderr = totals.std(ddof=1) / math.sqrt(n_samples)
    assert abs(totals.mean() - (n - 1)) < 5 * stderr


def test_goe_reference_rejects_tiny_n():
    with pytest.raises(ValueError, match="need n >= 2"):
        goe_reference(1, 1, seed=0)


class _SecondMoments:
    """Generator stand-in whose draws carry their second moments.

    A normal draw becomes a value whose square is its second moment, and a
    chi-square draw its mean, so sum(lam^2) of the model built from them is
    E tr T^2 of the model built from real draws.
    """

    def normal(self, loc=0.0, scale=1.0, size=None):
        return np.full(size, math.hypot(loc, scale))

    def chisquare(self, df, size=None):
        return np.asarray(df, dtype=np.float64)


@pytest.mark.parametrize("n", [2, 3, 12, 200])
def test_tridiagonal_model_second_moment_is_exact(n):
    m = n - 1
    goe = np.sum(_tridiagonal_spectrum(m, n, 1, _SecondMoments()) ** 2)
    gue = np.sum(_tridiagonal_spectrum(m, n, 2, _SecondMoments()) ** 2)
    # the dense GOE core: M diagonal entries of variance 2/N, M(M-1)
    # off-diagonal entries of variance 1/N
    assert math.isclose(m * (m + 1) / n, 2 * m / n + m * (m - 1) / n)
    assert math.isclose(goe, m * (m + 1) / n, rel_tol=1e-12)
    # the GUE core: every entry has E|h_ij|^2 = 1/N
    assert math.isclose(gue, m * m / n, rel_tol=1e-12)


def test_tridiagonal_gaps_match_dense_goe_oracle():
    n, n_samples = 200, 40
    dense = []
    for trial in range(n_samples):
        raw = rng_stream(3, stream_id=trial).normal(size=(n - 1, n - 1))
        core = (raw + raw.T) / math.sqrt(2.0 * n)
        dense.append(np.linalg.eigvalsh(core)[::-1])
    tridiagonal = goe_reference(n, n_samples, seed=3)
    ks = ks_distance(gap_ensemble(tridiagonal, 0.1), gap_ensemble(dense, 0.1))
    # measured 0.0160 at this seed (6440 gaps each), at most 0.0169 over
    # seeds 0-19; beta = 2 gaps against GOE gaps read about 0.07
    assert ks < 0.03


def _gue_control(n=1000, n_samples=20, seed=0):
    """Gap ensembles of beta = 2 spectra and of the GOE reference."""
    gue = [_tridiagonal_spectrum(n - 1, n, 2,
                                 rng_stream(seed, stream_id=trial))[::-1]
           for trial in range(n_samples)]
    goe = goe_reference(n, n_samples, seed)
    return gap_ensemble(gue, 0.1), gap_ensemble(goe, 0.1)


def test_repulsion_gate_rejects_gue():
    ok, reports = repulsion_gate(*_gue_control())
    sigma = {r["name"]: r["value"] for r in reports}["small_gap_sigma"]
    # measured 5.12 sigma against the 3 sigma bound
    assert not ok and sigma > 3.0


def test_gap_gate_rejects_gue():
    ok, reports = gap_gate(*_gue_control())
    ks = {r["name"]: r["value"] for r in reports}["ks_statistic"]
    # measured KS 0.0778 against the 0.05 bound
    assert not ok and ks >= 0.05


def _goe_two_point(u):
    """R_2(u) = 1 - Y_2(u) of the GOE (Mehta, "Random Matrices", ch. 6)."""
    s = np.sinc(u)
    tail = 0.5 - special.sici(np.pi * u)[0] / np.pi  # integral_u^inf s
    return 1.0 - s * s - (np.cos(np.pi * u) - s) / u * tail


def test_goe_close_pair_count_matches_closed_form():
    reach = harness._CORR_REACH
    exact = 2.0 * integrate.quad(_goe_two_point, 0.0, reach)[0]
    assert abs(exact - 0.3715) < 1e-4
    counts = close_pair_counts(goe_reference(1000, 100, 0),
                               harness._CORR_WINDOW, reach)
    stderr = counts.std(ddof=1) / math.sqrt(counts.size)
    # measured 0.3741 +- 0.0040, +0.64 standard errors
    assert abs(counts.mean() - exact) < 3.0 * stderr


def test_corr_test_rejects_poisson_semicircle_levels(tmp_path, monkeypatch):
    """Negative control: i.i.d. semicircle levels, 4 Beta(1.5, 1.5) - 2.

    They share the semicircle density but have no level repulsion, so
    about 2 reach = 1 other level lies within reach of each, against the
    GOE's 0.37.  Measured +69.3, +71.8 and +74.3 sigma at seeds 0-2
    (N = 1000, 100 samples), against the gate's 4 sigma.
    """
    def poisson_levels(config):
        return [np.sort(4.0 * rng_stream(config.seed, stream_id=k).beta(
                    1.5, 1.5, size=config.n - 1) - 2.0)[::-1]
                for k in range(config.n_samples)]

    monkeypatch.setattr(harness, "_rrg_ensemble", poisson_levels)
    config = ExperimentConfig(n=1000, d=32, n_samples=100, seed=0)
    ok, reports = harness.recipe_corr_test(config, tmp_path)
    assert not ok, reports


def _record_stream_ids(monkeypatch):
    """The list that every stream id harness derives is appended to."""
    stream_ids = []

    def recording_stream(seed, stream_id=0):
        stream_ids.append(stream_id)
        return rng_stream(seed, stream_id=stream_id)

    monkeypatch.setattr(harness, "rng_stream", recording_stream)
    return stream_ids


@pytest.mark.xfail(strict=True, reason="emf-check's path attempt a and SDE "
                   "segment k both draw stream _STREAM_FLOW + 1 + a when "
                   "a = k + 1: at n = 8, t_grid 0.04 0.2, 812 of seeds 0-999 "
                   "draw a stream twice, 251 the accepted path's")
def test_emf_check_draws_each_stream_once(tmp_path, monkeypatch):
    """At seed 3 the path accepts attempt 1, whose stream the first SDE
    segment draws again, so its Brownian increments replay the path's."""
    stream_ids = _record_stream_ids(monkeypatch)
    config = ExperimentConfig(n=8, d=3, n_samples=2, seed=3,
                              t_grid=(0.04, 0.2), output_dir=tmp_path)
    harness.recipe_emf_check(config, tmp_path)
    assert len(stream_ids) == len(set(stream_ids)), stream_ids


def _fresh_python(code, *args):
    """The stdout of a fresh interpreter that runs ``code`` on these sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, check=True, timeout=120).stdout


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy is imported where the GOE reference is drawn, not at start-up
    out = _fresh_python("import sys, rrglab.cli, rrglab.harness; "
                        "print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_involution_suite_all_properties_hold():
    suite = involution_suite(3)
    assert suite == {"involution": True, "degree_conservation": True,
                     "indicator_invariant": True}


def _benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "recipebench" / "spans.py"
    spec = importlib.util.spec_from_file_location("recipebench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_layer_boundaries_exist():
    # the traced benchmark wraps these (module, attribute) pairs by name
    for module_name, attr, _, _ in _benchmark_spans().LAYER_BOUNDARIES:
        module = importlib.import_module(f"rrglab.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_benchmark_tracer_counts_through_recipes(tmp_path):
    # the counters bind parameters by name (n_steps, t_end, t_start, dt,
    # n_replicas, path): a renamed one must fail here, not only under --trace
    spans = _benchmark_spans()
    tracer = spans.Tracer()
    tracer.install(rrglab)
    try:
        run_experiment(ExperimentConfig(n=60, d=6, n_samples=2, seed=0,
                                        output_dir=tmp_path / "gap"),
                       "gap-test")
        run_experiment(ExperimentConfig(n=6, d=3, n_samples=20, seed=2,
                                        t_grid=(0.02,),
                                        output_dir=tmp_path / "emf"),
                       "emf-check")
        # the two generator layers are wrapped by name in flow's namespace,
        # so a rename or a caller-bound import would read 0 here
        with pytest.warns(DegreeWindowWarning):
            run_experiment(ExperimentConfig(n=20, d=4, n_samples=2, seed=0,
                                            output_dir=tmp_path / "gen"),
                           "generator-check")
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.take())
    for name in ("kernels.steps", "chain.accept_ratio", "graphs.pairing_s",
                 "spectra.decompose_calls", "flow.eigval_path_s",
                 "flow.emf_steps", "flow.eigvec_sde_steps_per_s",
                 "flow.seminorm_s", "flow.jump_generator_s",
                 "io.bytes_written"):
        assert metrics[name] > 0, name
    assert metrics["flow.emf_accept_ratio"] == 1.0  # the fixed grid rejects none


def test_recipe_registry_and_defaults():
    assert sorted(RECIPES) == [
        "corr-test", "emf-check", "evolve", "gap-test", "generator-check",
        "repulsion-scan", "sample", "semicircle-scan", "verify-small"]
    assert RECIPE_DEFAULTS["semicircle-scan"] == {"n": 2000, "d": 40,
                                                  "n_samples": 50}
    assert RECIPE_DEFAULTS["generator-check"] == {"n": 32, "d": 4,
                                                  "n_samples": 200}
    assert RECIPE_DEFAULTS["emf-check"] == {"n": 8, "d": 3,
                                            "n_samples": 10_000}
    assert RECIPE_DEFAULTS["verify-small"] == {"n": 6, "d": 3}
    assert set(RECIPE_DEFAULTS) <= set(RECIPES)


def test_generator_check_warns_once_per_degree_outside_window(tmp_path):
    # the window at N = 32 is [1.41, 7.1]: the grid degrees 8 and 16 lie outside
    config = ExperimentConfig(n=32, d=4, n_samples=2, seed=1,
                              output_dir=tmp_path)
    with pytest.warns(DegreeWindowWarning) as record:
        run_experiment(config, "generator-check")
    messages = [str(w.message) for w in record
                if issubclass(w.category, DegreeWindowWarning)]
    assert len(messages) == 2
    assert "d=8 outside" in messages[0] and "d=16 outside" in messages[1]


def test_run_experiment_rejects_unknown_recipe(tmp_path):
    config = ExperimentConfig(n=8, d=3, output_dir=tmp_path)
    with pytest.raises(ConfigError, match="unknown recipe 'frobnicate'"):
        run_experiment(config, "frobnicate")


def test_run_experiment_sample_writes_artifacts_and_manifest(tmp_path):
    config = ExperimentConfig(n=16, d=3, n_samples=2, seed=3,
                              t_grid=(5.0, 12.0), output_dir=tmp_path / "run")
    status = run_experiment(config, "sample")
    assert status == 0

    graphs = sorted((tmp_path / "run" / "graphs").glob("sample_*.txt"))
    assert [p.name for p in graphs] == ["sample_0000.txt", "sample_0001.txt"]
    for path in graphs:
        graph = read_graph_text(path)
        assert (len(graph), int(graph[0].sum())) == (16, 3)
    snaps = sorted((tmp_path / "run" / "graphs").glob("snapshot_*.txt"))
    assert [p.name for p in snaps] == ["snapshot_00000005.txt",
                                       "snapshot_00000012.txt"]

    mat = read_matrix(tmp_path / "run" / "matrix_0000.bin")
    assert mat.shape == (16, 16)
    assert np.max(np.abs(mat @ np.ones(16))) < 1e-12

    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["recipe"] == "sample"
    assert manifest["acceptance_ok"] is True
    assert manifest["config"]["n"] == 16
    assert manifest["wall_time_seconds"] > 0
    reports = json.loads((tmp_path / "run" / "report.json").read_text())
    assert reports[0]["name"] == "samples_written"
    assert reports[0]["value"] == 2.0


@pytest.mark.parametrize("n, d, digests", [
    # d = 4 takes rejection pairing, d = 6 greedy pairing
    (20, 4, {
        "sample_0000.txt":
            "917f293965b07d8980e1bd2aa6427f4c6ec11ca964ea868029bca15c82fe8044",
        "sample_0001.txt":
            "e84038c3800dd4296f0e9a11ffda285052d5d64ca09ac4bee13b4eb10274211c",
        "snapshot_00000100.txt":
            "ac2e2230b01dbb85224695271d27e89998776765fe7a5b01129cf2655c2526b8",
    }),
    (40, 6, {
        "sample_0000.txt":
            "d517e04d0c09ebd4e2cda79f9c20a9fa7f82d52e24675dde08b2a15c579666d0",
        "sample_0001.txt":
            "8ff2799a67f37ec8ebb49c80a018b34dc633d4eb2104feeca674a8745bf54e43",
        "snapshot_00000100.txt":
            "f8bc1614da9202f9ef947bad606b889a63d3ba3fc70eb725d250a16a744b0e35",
    }),
])
def test_sample_recipe_graphs_pin_the_rng_contract(tmp_path, n, d, digests):
    # graph files hold only integers, so BLAS cannot move them: a changed
    # digest means the pairing, burn-in or snapshot chain draws changed
    config = ExperimentConfig(n=n, d=d, n_samples=2, seed=3,
                              t_grid=(100.0,), output_dir=tmp_path)
    assert run_experiment(config, "sample") == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / "graphs").iterdir())} == digests


def _generator_check(tmp_path, n_samples):
    # at n = 20 the degrees 8 and 16 lie above the window
    config = ExperimentConfig(n=20, d=4, n_samples=n_samples, seed=0,
                              output_dir=tmp_path)
    with pytest.warns(DegreeWindowWarning):
        return run_experiment(config, "generator-check")


def test_generator_check_artifacts_pin_the_rng_contract(tmp_path):
    # a changed digest means the graph or seminorm draws changed; the
    # floats also carry the last bits of numpy's BLAS and LAPACK build
    _generator_check(tmp_path, 3)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("discrepancy.csv", "report.json")} == {
        "discrepancy.csv":
            "b82034b705b7d835546f59c8b19ef31ec1ced4c03579121a1c12d4f62e6ae2af",
        "report.json":
            "496cb7b393d25fdd9862ba7af63c057e1c174a357ec4d45d868b74a60755afe5",
    }


@pytest.mark.parametrize("scheme, digests", [
    ("exact", {
        "matrix_0000.bin":
            "3c4475749d34891a08d5f3a0c7b70fe262505e92b4215b88870644716a6e70d7",
        "matrix_0001.bin":
            "25548ad1c4c1c8a9a81fb3a665dc41cee7b059c1f0fe7f88a79e2a5ab4983359",
        "matrix_0002.bin":
            "948171ecc273787af5a33faaa33c26f833d9d9369f96493f6ba52c187e6264b7",
        "stieltjes.csv":
            "1b071bda7865624c958bb739647649298cdbee950597f37481513855a3bef73c",
        "report.json":
            "43faad8087ca3d196a7875310998754253cb5792327ccfa87abab18924a525fd",
    }),
    ("em", {
        "matrix_0000.bin":
            "3c4475749d34891a08d5f3a0c7b70fe262505e92b4215b88870644716a6e70d7",
        "matrix_0001.bin":
            "71a8f47dad1da6a12f24294237cb66179ed4b63c686329a837232e708fc3c8e1",
        "matrix_0002.bin":
            "b68270fd5f4fa3c6b79d6fe7560b76dfb8ccc1a5a271a1f69e6c4cea6b2d0c1c",
        "stieltjes.csv":
            "34c9b5d525285233b2a3414d20bcb7721da4ab57b93b354e100536af1a174a26",
        "report.json":
            "746c3d6cd29b7cdb4f7dbd298e70a0745259ec18c3536758c58e1a1bc938bd0b",
    }),
])
def test_evolve_artifacts_pin_the_rng_contract(tmp_path, scheme, digests):
    # a changed digest means the graph or flow draws changed, or the
    # snapshot that carries the flow across an eigensolve lost a bit; the
    # floats also carry the last bits of numpy's BLAS and LAPACK build
    config = ExperimentConfig(n=60, d=6, seed=0, scheme=scheme,
                              t_grid=(0.0, 0.01, 1.0), output_dir=tmp_path)
    assert run_experiment(config, "evolve") == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_generator_check_draws_a_degree_strided_block_and_seminorm_streams(
        tmp_path, monkeypatch):
    # trial s of the k-th degree draws stream k 10^6 + s, and the k-th
    # degree's seminorm probes draw stream 9 10^8 + k, each once
    stream_ids = _record_stream_ids(monkeypatch)
    _generator_check(tmp_path, 3)
    assert sorted(stream_ids) == sorted(
        [k * 10 ** 6 + s for k in range(3) for s in range(3)]
        + [9 * 10 ** 8 + k for k in range(3)])


@pytest.mark.xfail(strict=True, reason=(
    "false alarm at the benchmark config (n = 32, 6 samples), 2 of seeds "
    "0-399 (49 and 136): at seed 49 one lucky probe lifts the L^8 mean over "
    "6 graphs to a d = 4 seminorm of 0.556 (median 0.179, quartiles "
    "0.142-0.231 over seeds 0-99), so "
    "normalized[d=4] 0.0153 +- 0.0009 does not exceed normalized[d=8] "
    "0.0131 +- 0.0036 by their combined error; ROADMAP item 3"))
def test_generator_check_passes_at_seed_49_of_the_benchmark_config(tmp_path):
    config = ExperimentConfig(n=32, d=4, n_samples=6, seed=49,
                              output_dir=tmp_path)
    with pytest.warns(DegreeWindowWarning):
        assert run_experiment(config, "generator-check") == 0


def test_generator_check_rows_hold_the_normalized_discrepancy(tmp_path):
    n = 20
    _generator_check(tmp_path, 4)
    with open(tmp_path / "discrepancy.csv", newline="") as fh:
        rows = [{key: float(value) for key, value in row.items()}
                for row in csv.DictReader(fh)]
    assert [row["d"] for row in rows] == [4, 8, 16]
    for row in rows:
        assert row["big_d"] == min(row["d"], n ** 2 / row["d"] ** 3)
        assert row["n_samples"] == 4
        assert row["mean_abs"] >= 0 and row["seminorm"] > 0
        assert row["normalized"] == pytest.approx(
            row["mean_abs"] / (row["big_d"] ** -0.5 * n * row["seminorm"]))


def test_evolve_peak_memory_stays_near_two_matrices(tmp_path):
    # the snapshot and either the next one, built in the noise draw, or the
    # deflated core: no N x N temporary beyond those (2.39 N^2 traced; the
    # dense constrained-matrix layer peaked at 7.31 N^2 here)
    n = 600
    config = ExperimentConfig(n=n, d=8, seed=1, t_grid=(0.0, 0.05, 1.0),
                              output_dir=tmp_path)
    tracemalloc.start()
    try:
        harness.recipe_evolve(config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2.6 * n * n, peak / (8 * n * n)


_EVOLVE_RSS_PROBE = """
import sys, tempfile
from pathlib import Path
from rrglab import harness
from rrglab.config import ExperimentConfig

def evolve(n):
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(n=n, d=8, seed=1, t_grid=(0.0, 0.05),
                                  output_dir=Path(out))
        harness.recipe_evolve(config, Path(out))

def peak():
    # VmHWM, not ru_maxrss: exec keeps the launching process's peak in
    # ru_maxrss, but starts the address space's high-water mark afresh
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

evolve(60)  # imports, LAPACK and the allocator's pools
base = peak()
evolve(int(sys.argv[1]))
print(peak() - base)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the peak resident set from /proc")
def test_evolve_peak_rss_stays_near_two_matrices():
    # tracemalloc cannot see LAPACK's copy of the deflated core; the peak
    # resident set does.  Deflating in a separate array held H, the core
    # and that copy at every eigensolve (3.05 N^2 above the baseline here)
    n = 1000
    grown = int(_fresh_python(_EVOLVE_RSS_PROBE, str(n))) / (8 * n * n)
    assert grown <= 2.5, grown


def test_run_experiment_requires_samples(tmp_path):
    config = ExperimentConfig(n=16, d=3, n_samples=0, output_dir=tmp_path)
    with pytest.raises(ConfigError, match="needs n_samples >= 1"):
        run_experiment(config, "sample")


def test_run_experiment_repeat_runs_are_identical(tmp_path):
    for tag in ("a", "b"):
        config = ExperimentConfig(n=14, d=4, n_samples=2, seed=9,
                                  output_dir=tmp_path / tag)
        assert run_experiment(config, "sample") == 0
    for name in ("graphs/sample_0000.txt", "graphs/sample_0001.txt",
                 "matrix_0000.bin", "report.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_gap_test_artifacts_do_not_depend_on_worker_count(tmp_path):
    for workers in (1, 2):
        config = ExperimentConfig(n=120, d=6, n_samples=4, seed=0,
                                  workers=workers,
                                  output_dir=tmp_path / str(workers))
        run_experiment(config, "gap-test")
    for name in ("gaps_rrg.csv", "gaps_goe.csv", "gap_overlay.csv",
                 "report.json"):
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes()), name


@pytest.mark.parametrize("recipe, overrides, artifacts, report_names", [
    ("semicircle-scan", {}, ["stieltjes.csv"],
     ["abs_s_minus_m[-1+0.05j]", "abs_s_minus_m[0+0.05j]",
      "abs_s_minus_m[1+0.05j]", "cdf_sup_distance"]),
    ("repulsion-scan", {}, ["gaps_rrg.csv"],
     ["small_gap_fraction_rrg", "small_gap_fraction_goe", "small_gap_sigma"]),
    ("corr-test", {}, ["correlation.csv"], ["two_point_difference"]),
    ("evolve", {"n": 60, "t_grid": (0.0, 0.01, 1.0)},
     ["matrix_0000.bin", "matrix_0001.bin", "matrix_0002.bin",
      "stieltjes.csv"],
     ["max_abs_s_minus_fc"]),
])
def test_recipe_runs_end_to_end(tmp_path, recipe, overrides, artifacts,
                                report_names):
    config = ExperimentConfig(**{"n": 120, "d": 6, "n_samples": 4, "seed": 0,
                                 "output_dir": tmp_path, **overrides})
    status = run_experiment(config, recipe)
    assert status in (0, 3)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["acceptance_ok"] == (status == 0)
    for name in artifacts:
        assert (tmp_path / name).is_file(), name
    reports = json.loads((tmp_path / "report.json").read_text())
    assert [r["name"] for r in reports] == report_names

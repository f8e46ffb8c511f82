"""Experiment driver: reference ensembles, property suites, recipe wiring."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rrglab.config import ConfigError, DegreeWindowWarning, ExperimentConfig
from rrglab.harness import (
    RECIPE_DEFAULTS,
    RECIPES,
    goe_reference,
    involution_suite,
    run_experiment,
)
from rrglab.io import read_graph_text, read_matrix


def test_goe_reference_shapes_and_order():
    decomps = goe_reference(12, 3, seed=5)
    assert len(decomps) == 3
    for dec in decomps:
        assert dec.n == 12
        assert dec.eigenvalues.shape == (11,)
        assert (np.diff(dec.eigenvalues) <= 0).all()   # descending
        assert dec.eigenvectors is None


def test_goe_reference_determinism_and_stream_prefix():
    first = goe_reference(10, 3, seed=5)
    second = goe_reference(10, 3, seed=5)
    longer = goe_reference(10, 5, seed=5)
    for a, b in zip(first, second):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
    # trial k draws from stream k, so a longer run extends the shorter one
    for a, b in zip(first, longer):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert not np.array_equal(first[0].eigenvalues, first[1].eigenvalues)


def test_goe_reference_vectors_live_in_constraint_space():
    decomps = goe_reference(12, 2, seed=8, with_vectors=True)
    ones = np.ones(12)
    for dec in decomps:
        vectors = dec.eigenvectors
        assert vectors.shape == (12, 11)
        assert np.allclose(vectors.T @ vectors, np.eye(11), atol=1e-10)
        assert np.max(np.abs(ones @ vectors)) < 1e-10
        # lifting V diag(lam) V^T reproduces the spectrum plus the trivial zero
        lifted = (vectors * dec.eigenvalues) @ vectors.T
        assert np.max(np.abs(lifted @ ones)) < 1e-10
        full = np.sort(np.append(dec.eigenvalues, 0.0))
        assert np.allclose(np.linalg.eigvalsh(lifted), full, atol=1e-10)


def test_goe_reference_second_moment_matches_constrained_law():
    """E sum(lam^2) = (n-1)n/n = n-1 for the (n-1)-core with variance 1/n."""
    n, n_samples = 40, 200
    decomps = goe_reference(n, n_samples, seed=17)
    totals = np.array([np.sum(d.eigenvalues ** 2) for d in decomps])
    stderr = totals.std(ddof=1) / math.sqrt(n_samples)
    assert abs(totals.mean() - (n - 1)) < 5 * stderr


def test_goe_reference_rejects_tiny_n():
    with pytest.raises(ValueError, match="need n >= 2"):
        goe_reference(1, 1, seed=0)


def test_involution_suite_all_properties_hold():
    suite = involution_suite(500, seed=3)
    assert suite == {"involution": True, "degree_conservation": True,
                     "indicator_invariant": True}


def test_benchmark_layer_boundaries_exist():
    # the traced benchmark wraps these (module, attribute) pairs by name
    path = Path(__file__).resolve().parents[1] / "recipebench" / "spans.py"
    spec = importlib.util.spec_from_file_location("recipebench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr, _, _ in spans.LAYER_BOUNDARIES:
        module = importlib.import_module(f"rrglab.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


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
        assert (graph.n_vertices, graph.degree) == (16, 3)
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
     ["small_gap_fraction_rrg", "small_gap_fraction_goe", "small_gap_sigma",
      "repulsion_identity_max_rel"]),
    ("corr-test", {}, ["correlation.csv"],
     ["two_point_difference", "green_trace_diff_re[-0.5+0.1j]",
      "green_trace_diff_im[-0.5+0.1j]", "green_trace_diff_re[0.5+0.1j]",
      "green_trace_diff_im[0.5+0.1j]"]),
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

"""End-to-end command-line behavior: flags, config files, exit codes."""

import itertools
import json
import warnings

import numpy as np
import pytest

from rrglab import chain, flow
from rrglab.cli import EXIT_ACCEPTANCE, EXIT_OK, EXIT_PARAMETER, main
from rrglab.config import DegreeWindowWarning


def test_verify_small_passes(tmp_path):
    assert main(["verify-small", "--out", str(tmp_path), "--seed", "0"]) == EXIT_OK
    reports = {r["name"]: r for r in
               json.loads((tmp_path / "report.json").read_text())}
    assert reports["reversible[6,3]"]["value"] == 1.0
    assert reports["reversible[8,3]"]["value"] == 1.0
    for key in ("involution_involution", "involution_degree_conservation",
                "involution_indicator_invariant"):
        assert reports[key]["value"] == 1.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["acceptance_ok"] is True
    assert manifest["config"]["n"] == 6 and manifest["config"]["d"] == 3


def test_verify_small_fails_on_an_irreversible_chain(tmp_path, monkeypatch):
    """Negative control: no moves leave a graph that holds the edge {0, 1}."""
    full = chain._stacked_switchings

    def blocked(graphs):
        owner, moves = full(graphs)
        keep = graphs[owner, 0, 1] == 0
        return owner[keep], moves[keep]

    monkeypatch.setattr(chain, "_stacked_switchings", blocked)
    report = chain.invariance_report(8, 3)
    assert report.n_transitions == 203_040
    assert not report.reversible
    assert main(["verify-small", "--out", str(tmp_path),
                 "--seed", "0"]) == EXIT_ACCEPTANCE
    reports = {r["name"]: r["value"] for r in
               json.loads((tmp_path / "report.json").read_text())}
    assert reports["reversible[8,3]"] == 0.0


def test_verify_small_fails_on_a_move_off_the_state_space(tmp_path,
                                                         monkeypatch):
    """Each graph gains one move whose second pair {k, l} is not an edge.

    Its switch leaves some vertex with degree d +- 2, a graph outside the
    enumerated space, which is never a source: not reversible, no crash.
    """
    full = chain._stacked_switchings

    def leaking(graphs):
        owner, moves = full(graphs)
        extra = []
        for graph in graphs:
            i, j = chain.edge_array(graph)[0]
            extra.append(next((i, j, k, l) for k, l in
                              itertools.combinations(range(len(graph)), 2)
                              if not graph[k, l] and not {k, l} & {i, j}))
        return (np.concatenate([owner, np.arange(len(graphs))]),
                np.vstack([moves, extra]))

    monkeypatch.setattr(chain, "_stacked_switchings", leaking)
    report = chain.invariance_report(8, 3)
    assert report.n_transitions == 355_320 + 19_355
    assert not report.reversible
    assert main(["verify-small", "--out", str(tmp_path),
                 "--seed", "0"]) == EXIT_ACCEPTANCE


def test_sample_honors_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 14\nd = 4\nn_samples = 3\n")
    out = tmp_path / "out"
    status = main(["sample", "--config", str(cfg), "--samples", "2",
                   "--seed", "7", "--out", str(out)])
    assert status == EXIT_OK
    names = sorted(p.name for p in (out / "graphs").iterdir())
    assert names == ["sample_0000.txt", "sample_0001.txt"]   # flag beat file
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n"] == 14
    assert manifest["config"]["n_samples"] == 2
    assert manifest["config"]["seed"] == 7


def test_degree_one_is_refused_before_any_work(tmp_path, capsys):
    # every matrix recipe centers and rescales by sqrt(d - 1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 10\nd = 1\n")
    out = tmp_path / "out"
    status = main(["sample", "--config", str(cfg), "--out", str(out)])
    assert status == EXIT_PARAMETER
    assert "2 <= d < n" in capsys.readouterr().err
    assert not out.exists()


def test_zero_samples_is_a_parameter_error(tmp_path, capsys):
    status = main(["sample", "--samples", "0", "--out", str(tmp_path)])
    assert status == EXIT_PARAMETER
    assert "needs n_samples >= 1" in capsys.readouterr().err


def test_infinite_snapshot_time_is_a_parameter_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 14\nd = 4\nt_grid = inf\n")
    status = main(["sample", "--config", str(cfg), "--samples", "1",
                   "--out", str(tmp_path / "out")])
    assert status == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert "t_grid times must be finite" in err
    assert "Traceback" not in err


def test_sample_refuses_snapshot_times_that_are_not_step_counts(tmp_path,
                                                              capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 14\nd = 4\nt_grid = 0.5 2.7\n")
    status = main(["sample", "--config", str(cfg), "--samples", "1",
                   "--out", str(tmp_path / "out")])
    assert status == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert "0.5 is not a whole number >= 1" in err
    assert "Traceback" not in err


def test_unknown_config_key_is_a_parameter_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key = 1\n")
    status = main(["sample", "--config", str(cfg), "--out", str(tmp_path)])
    assert status == EXIT_PARAMETER
    err = capsys.readouterr().err
    assert "bad.cfg:1: unknown key 'bogus_key'" in err


def test_missing_config_file_is_a_parameter_error(tmp_path, capsys):
    status = main(["sample", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path)])
    assert status == EXIT_PARAMETER
    assert "error" in capsys.readouterr().err


def test_oversized_seed_is_a_parameter_error(tmp_path, capsys):
    status = main(["sample", "--seed", str(2 ** 64), "--out", str(tmp_path)])
    assert status == EXIT_PARAMETER
    assert "seed must fit in 64 bits" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_failed_thresholds_exit_3(tmp_path):
    """Gap statistics at low degree carry a visible finite-d mean offset."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text("n = 120\nd = 6\n")
    out = tmp_path / "out"
    status = main(["gap-test", "--config", str(cfg), "--samples", "4",
                   "--seed", "0", "--out", str(out)])
    assert status == EXIT_ACCEPTANCE
    reports = {r["name"]: r["value"] for r in
               json.loads((out / "report.json").read_text())}
    assert reports["gap_mean_difference"] > 0.03
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["acceptance_ok"] is False


def test_single_replica_emf_check_fails(tmp_path, capsys):
    """One replica has no Monte Carlo standard error: refused before any work."""
    cfg = tmp_path / "emf.cfg"
    cfg.write_text("t_grid = 0.01\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["emf-check", "--config", str(cfg), "--samples", "1",
                       "--seed", "0", "--out", str(out)])
    assert status == EXIT_PARAMETER
    assert "n_samples >= 2" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("recipe, config_text", [
    ("corr-test", "n = 120\nd = 6\n"),
    ("generator-check", ""),
], ids=["corr-test", "generator-check"])
def test_single_sample_standard_error_gates_fail(tmp_path, capsys, recipe,
                                                 config_text):
    """Both gates divide by a standard error: one sample is refused first."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main([recipe, "--config", str(cfg), "--samples", "1",
                       "--seed", "0", "--out", str(out)])
    assert status == EXIT_PARAMETER
    assert "n_samples >= 2" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_corr_test_refuses_a_spectrum_without_central_levels(tmp_path,
                                                           capsys):
    """The triangle's nontrivial eigenvalues are both -1: no level lies in
    corr-test's window, so there is nothing to unfold or count."""
    cfg = tmp_path / "triangle.cfg"
    cfg.write_text("n = 3\nd = 2\n")
    out = tmp_path / "out"
    with pytest.warns(DegreeWindowWarning, match="d=2 outside window"):
        status = main(["corr-test", "--config", str(cfg), "--samples", "4",
                       "--seed", "0", "--out", str(out)])
    assert status == EXIT_PARAMETER
    assert "no level in |lambda| < 0.5" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_evolve_refuses_a_real_z_before_any_work(tmp_path, capsys):
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text("n = 40\nd = 6\nt_grid = 0 0.1\nz_grid = 0.5\n")
    out = tmp_path / "out"
    status = main(["evolve", "--config", str(cfg), "--seed", "0",
                   "--out", str(out)])
    assert status == EXIT_PARAMETER
    assert "upper half plane" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("t_grid", ["0 0.04", "0.04 0.04", "0.04 -0.1"])
def test_emf_check_refuses_zero_or_repeated_times(tmp_path, capsys, t_grid):
    """A t = 0 row has zero standard error; a repeated time, a repeated record."""
    cfg = tmp_path / "emf.cfg"
    cfg.write_text(f"t_grid = {t_grid}\n")
    out = tmp_path / "out"
    status = main(["emf-check", "--config", str(cfg), "--samples", "20",
                   "--seed", "0", "--out", str(out)])
    assert status == EXIT_PARAMETER
    assert "positive and distinct" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_emf_check_refuses_off_grid_times_before_any_work(tmp_path, capsys):
    """Times off the eigenvalue path's grid are named as t_grid errors."""
    cfg = tmp_path / "emf.cfg"
    cfg.write_text("t_grid = 0.002 0.0025\n")
    out = tmp_path / "out"
    status = main(["emf-check", "--config", str(cfg), "--samples", "20",
                   "--seed", "0", "--out", str(out)])
    assert status == EXIT_PARAMETER
    assert ("t_grid times must be multiples of 0.001, got 0.0025"
            in capsys.readouterr().err)
    assert not (out / "report.json").exists()


def test_emf_check_lists_an_unsorted_grid_in_ascending_time(tmp_path):
    cfg = tmp_path / "emf.cfg"
    cfg.write_text("n = 6\nt_grid = 0.04 0.02\n")
    out = tmp_path / "out"
    status = main(["emf-check", "--config", str(cfg), "--samples", "20",
                   "--seed", "2", "--out", str(out)])
    assert status == EXIT_OK
    times = [float(line.split(",")[0]) for line in
             (out / "emf.csv").read_text().splitlines()[1:]]
    assert times == sorted(times) and times[0] == 0.02
    mc_times = [float(line.split(",")[0]) for line in
                (out / "emf_mc.csv").read_text().splitlines()[1:]]
    assert mc_times == times
    reports = json.loads((out / "report.json").read_text())
    assert [r["name"] for r in reports][:2] == ["emf_max_sigma[t=0.02]",
                                                "emf_max_sigma[t=0.04]"]


def test_repeat_runs_write_identical_artifacts(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 120\nd = 6\n")
    for tag in ("a", "b"):
        main(["gap-test", "--config", str(cfg), "--samples", "4",
              "--seed", "0", "--out", str(tmp_path / tag)])
    for name in ("report.json", "gaps_rrg.csv", "gaps_goe.csv",
                 "gap_overlay.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name


def test_emf_check_fails_on_doubled_moment_flow_rates(tmp_path, monkeypatch):
    """Negative control: the gate rejects a moment flow running twice as fast.

    At the benchmark's config (n = 8, t_grid 0.04 0.2, 200 replicas, seed 0)
    the true flow measured max sigma 1.05 and 1.08 at the two times, the
    doubled one 6.19 and 6.52.
    """
    true_rates = flow.moment_flow_rates
    monkeypatch.setattr(flow, "moment_flow_rates",
                        lambda eigenvalues: 2.0 * true_rates(eigenvalues))
    cfg = tmp_path / "emf.cfg"
    cfg.write_text("n = 8\nt_grid = 0.04 0.2\n")
    out = tmp_path / "out"
    status = main(["emf-check", "--config", str(cfg), "--samples", "200",
                   "--seed", "0", "--out", str(out)])
    assert status == EXIT_ACCEPTANCE
    sigmas = [r["value"] for r in json.loads((out / "report.json").read_text())
              if r["name"].startswith("emf_max_sigma")]
    assert min(sigmas) > 3.0

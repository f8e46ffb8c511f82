"""The benchmark's workloads: recipe configs made from a seed, and checks.

Every workload runs one rrglab recipe through ``rrglab.cli.main`` with a
config file that pins ``workers = 1``.  Each check reads the recipe's
artifacts and tests them against invariants and closed forms computed
here, never against stored outputs of the program; a failed check raises
``CheckFailed``.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(AssertionError):
    """An artifact of the recipe is wrong."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _read_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[k] for row in body] for k, name in enumerate(header)}


def _read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


@dataclass(frozen=True)
class Workload:
    recipe: str
    config: dict  # each call's seed is added to it
    checks: tuple = ()
    # recipe calls per round; run seed s gives them seeds s*k .. s*k + k-1
    sub_seeds: int = 1
    # (name, config) of an operation that should exit non-zero and does not
    known_fault: tuple = None


def config_text(config):
    """The flat key = value file that rrglab's config parser reads."""
    return "".join(f"{key} = {_format(value)}\n" for key, value in config.items())


def _format(value):
    if isinstance(value, tuple):
        return " ".join(_format(v) for v in value)
    if isinstance(value, complex):
        return f"{value.real:g}{value.imag:+g}j"
    return str(value)


# ---------------------------------------------------------------------------
# gap-test: pooled bulk gaps of the graph ensemble and the GOE reference

GAP = {"n": 1000, "d": 32, "kappa": 0.1, "n_samples": 4, "workers": 1}
# KS distance of the pooled graph gaps from the Wigner surmise.  The surmise
# is close to, not equal to, the GOE gap law: 3204 gaps of the recipe's own
# GOE reference sit 0.012-0.021 from it, the graph gaps 0.009-0.018, and
# Poisson (uncorrelated) levels 0.22.
WIGNER_KS_TOL = 0.05


def _bulk_rows(n, kappa):
    lo = max(1, math.ceil(kappa * n))
    hi = min(n - 2, math.floor((1 - kappa) * n))
    return hi - lo + 1


def _gap_columns(out_dir, name):
    cols = _read_columns(out_dir / name)
    return (np.array(cols["sample_id"], dtype=np.int64),
            np.array(cols["gap"], dtype=np.float64))


def check_gap_rows(out_dir):
    per_sample = _bulk_rows(GAP["n"], GAP["kappa"])
    for name in ("gaps_rrg.csv", "gaps_goe.csv"):
        sample_id, gaps = _gap_columns(out_dir, name)
        _require(gaps.size == GAP["n_samples"] * per_sample,
                 f"{name}: {gaps.size} rows, expected "
                 f"{GAP['n_samples']} x {per_sample}")
        _require((np.bincount(sample_id) == per_sample).all(),
                 f"{name}: uneven rows per sample")


def check_gaps_positive(out_dir):
    for name in ("gaps_rrg.csv", "gaps_goe.csv"):
        _, gaps = _gap_columns(out_dir, name)
        _require(np.isfinite(gaps).all() and (gaps > 0).all(),
                 f"{name}: a gap is not positive, min {gaps.min()!r}")


def wigner_ks(gaps):
    """Sup distance of the empirical CDF from 1 - exp(-pi s^2 / 4)."""
    s = np.sort(gaps)
    cdf = 1.0 - np.exp(-math.pi * s ** 2 / 4.0)
    upper = np.arange(1, s.size + 1) / s.size
    return float(max((upper - cdf).max(), (cdf - (upper - 1.0 / s.size)).max()))


def check_wigner_surmise(out_dir):
    _, gaps = _gap_columns(out_dir, "gaps_rrg.csv")
    ks = wigner_ks(gaps)
    _require(ks < WIGNER_KS_TOL,
             f"graph gaps are {ks:.4f} from the Wigner surmise (tol {WIGNER_KS_TOL})")


# ---------------------------------------------------------------------------
# ou-evolve: one centered matrix moved along the constrained OU flow

OU = {"n": 2000, "d": 40, "scheme": "exact",
      "t_grid": (0.0, 0.05, 0.25, 1.0, 2.0, 5.0),
      "z_grid": (-1 + 0.05j, 0.05j, 1 + 0.05j), "workers": 1}
# At t = 5 the snapshot is 0.08 H(0) + 0.96 W; its Stieltjes transform at
# Im z = 0.05 fluctuates by about 1/(N Im z) = 0.01 around the semicircle.
SEMICIRCLE_TOL = 0.05


def semicircle_m(z):
    """Stieltjes transform of the semicircle on [-2, 2], branch Im m > 0."""
    return (-z + np.sqrt(z - 2.0) * np.sqrt(z + 2.0)) / 2.0


def _read_snapshot(path):
    from rrglab import io  # importable once run.py has put src/ on the path
    return io.read_matrix(path)


def check_snapshots_constrained(out_dir):
    n_times = len(OU["t_grid"])
    found = sorted(p.name for p in out_dir.glob("matrix_*.bin"))
    _require(found == [f"matrix_{k:04d}.bin" for k in range(n_times)],
             f"snapshots {found}, expected {n_times}")
    for name in found:
        h = _read_snapshot(out_dir / name)
        _require(h.shape == (OU["n"], OU["n"]), f"{name}: shape {h.shape}")
        asym = float(np.abs(h - h.T).max())
        rows = float(np.abs(h.sum(axis=1)).max())
        _require(asym <= 1e-12, f"{name}: asymmetry {asym:.3e}")
        _require(rows <= 1e-10, f"{name}: row sum {rows:.3e}")


def check_semicircle_last(out_dir):
    last = len(OU["t_grid"]) - 1
    h = _read_snapshot(out_dir / f"matrix_{last:04d}.bin")
    lam = np.linalg.eigvalsh(h)
    n = h.shape[0]
    for z in OU["z_grid"]:
        # e is an exact null vector: drop its term 1/(0 - z) from the trace
        s = (np.sum(1.0 / (lam - z)) + 1.0 / z) / (n - 1)
        gap = abs(s - semicircle_m(z))
        _require(gap < SEMICIRCLE_TOL,
                 f"|s - m| = {gap:.4f} at z={z} at t={OU['t_grid'][last]}")


# ---------------------------------------------------------------------------
# emf-check: moment flow against the eigenvector SDE on a frozen path

# The pinned t_grid (0.1, 0.5) scaled by 2/5, keeping its 1:5 ratio, so that
# a round can hold several seeds: the moment flow's step count depends on
# the seed's eigenvalue path (coefficient of variation 0.12-0.14 over seeds
# 60-89), and the mean over EMF_SEEDS calls spreads half as much as one call.
EMF = {"n": 8, "d": 3, "t_grid": (0.04, 0.2), "n_samples": 200, "workers": 1}
EMF_SEEDS = 4
# The known fault: with one replica the standard error is NaN, the recipe's
# max() drops the NaN sigma and the gate passes, so this call exits 0 when it
# should not.  Its inputs do not depend on the seed.
EMF_SINGLE = {"n": 8, "d": 3, "t_grid": (0.1,), "n_samples": 1, "workers": 1,
              "seed": 0}


def check_emf_finite(out_dir):
    for rec in _read_report(out_dir):
        _require(math.isfinite(rec["value"]) and math.isfinite(rec["stderr"]),
                 f"report {rec['name']}: {rec['value']!r} +- {rec['stderr']!r}")
    for name in ("emf.csv", "emf_mc.csv"):
        cols = _read_columns(out_dir / name)
        values = np.array(cols["value"], dtype=np.float64)
        _require(np.isfinite(values).all(), f"{name}: non-finite value")


def check_emf_mass(out_dir):
    cols = _read_columns(out_dir / "emf.csv")
    times = np.array(cols["time"], dtype=np.float64)
    values = np.array(cols["value"], dtype=np.float64)
    _require(values.size == len(EMF["t_grid"]) * EMF["n"],
             f"emf.csv: {values.size} rows")
    for t in EMF["t_grid"]:
        # p = 1 rates are symmetric, so the ODE conserves sum_i f_t(e_i) = 1
        mass = float(values[times == t].sum())
        _require(abs(mass - 1.0) < 1e-10, f"emf.csv: mass {mass!r} at t={t}")


# ---------------------------------------------------------------------------
# generator-check: jump-vs-flow generator discrepancy over d in {4, 8, 16}

GEN = {"n": 32, "d": 4, "n_samples": 6, "workers": 1}


def check_discrepancy(out_dir):
    cols = _read_columns(out_dir / "discrepancy.csv")
    _require(cols["d"] == ["4", "8", "16"], f"degrees {cols['d']}")
    normalized = np.array(cols["normalized"], dtype=np.float64)
    _require(np.isfinite(normalized).all() and (normalized > 0).all(),
             f"normalized discrepancies {normalized.tolist()}")
    for rec in _read_report(out_dir):
        _require(math.isfinite(rec["value"]) and rec["value"] > 0,
                 f"report {rec['name']}: {rec['value']!r}")


WORKLOADS = {
    "gap-test": Workload(
        recipe="gap-test", config=GAP,
        checks=(("gap_rows", check_gap_rows),
                ("gaps_positive", check_gaps_positive),
                ("wigner_surmise", check_wigner_surmise))),
    "ou-evolve": Workload(
        recipe="evolve", config=OU,
        checks=(("snapshots_constrained", check_snapshots_constrained),
                ("semicircle_last", check_semicircle_last))),
    "emf-check": Workload(
        recipe="emf-check", config=EMF,
        checks=(("emf_finite", check_emf_finite),
                ("emf_mass", check_emf_mass)),
        sub_seeds=EMF_SEEDS,
        known_fault=("single_replica_gate", EMF_SINGLE)),
    "generator-check": Workload(
        recipe="generator-check", config=GEN,
        checks=(("discrepancy_positive", check_discrepancy),)),
}

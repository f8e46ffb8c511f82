"""Artifact serialization: graphs, matrix snapshots, CSV/JSON emitters.

Formats:
  * graph text: line 1 "N d", then one edge "i j" per line with i < j,
    1-based, sorted lexicographically;
  * dense matrix snapshot: 16-byte header (8-byte magic + little-endian
    uint64 N) followed by row-major float64 entries;
  * CSV: header row, '.' decimal separator, LF line endings, floats written
    in shortest round-trip form so identical runs are byte-identical;
  * JSON reports: {name, value, stderr, n_samples} records;
  * manifest: full config echo (defaults included), git describe, wall time,
    the pinned RNG stream algorithm, and the run environment (versions,
    cores, BLAS/OpenMP thread settings, chain kernel backend), and last
    whether the recipe's acceptance thresholds held: seeded floats can
    differ in their last bits with the BLAS thread count.
"""

import json
import os
import platform
import struct
import subprocess
from pathlib import Path

import numpy as np

from . import _kernels
from .chain import edge_array
from .streams import STREAM_ALGORITHM

# the thread settings that BLAS and OpenMP builds read at import; None in
# the manifest when unset
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MATRIX_MAGIC = b"RRGMAT\x00\x01"


def write_graph_text(graph, path):
    lines = [f"{len(graph)} {int(graph[0].sum())}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in edge_array(graph).tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph_text(path):
    """A graph file as a read-only adjacency array, checked to be simple
    and regular with the header's degree."""
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: truncated graph file")
    n, d = int(tokens[0]), int(tokens[1])
    labels = [int(tok) for tok in tokens[2:]]
    if len(labels) % 2:
        raise ValueError(f"{path}: odd number of edge endpoints")
    if n < 1:
        raise ValueError(f"{path}: need at least one vertex, got {n}")
    for label in labels:
        if not 1 <= label <= n:
            raise ValueError(f"{path}: vertex label {label} outside 1..{n}")
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in zip(labels[0::2], labels[1::2]):
        if u == v:
            raise ValueError(f"{path}: self-loop at vertex {u}")
        if adj[u - 1, v - 1]:
            raise ValueError(f"{path}: duplicate edge ({u}, {v})")
        adj[u - 1, v - 1] = adj[v - 1, u - 1] = 1
    degrees = adj.sum(axis=1)
    if (degrees != degrees[0]).any():
        raise ValueError(f"{path}: graph must be regular (constant degree)")
    if degrees[0] != d:
        raise ValueError(f"{path}: header says degree {d}, "
                         f"edges give {degrees[0]}")
    adj.flags.writeable = False
    return adj


def write_matrix(mat, path):
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix snapshot must be square")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<Q", n))
        fh.write(mat.data)  # the array's own buffer: no copy


def read_matrix(path):
    """A matrix snapshot, read straight into one writable array."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:8] != MATRIX_MAGIC:
            raise ValueError(f"{path}: bad magic, not a matrix snapshot")
        if len(header) < 16:
            raise ValueError(f"{path}: truncated header")
        (n,) = struct.unpack("<Q", header[8:16])
        payload = os.fstat(fh.fileno()).st_size - 16
        if payload != 8 * n * n:
            floats, extra = divmod(payload, 8)
            tail = f" and {extra} bytes" if extra else ""
            raise ValueError(f"{path}: payload holds {floats} floats{tail}, "
                             f"expected {n * n}")
        mat = np.empty((n, n))
        if fh.readinto(mat) != payload:
            raise ValueError(f"{path}: file shrank while being read")
    return mat


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_gap_csv(path, entries, indices, sample_ids):
    write_csv(path, ["index", "sample_id", "gap"],
              zip(indices, sample_ids, entries))


def write_stieltjes_csv(path, rows):
    """Rows of (z, s, m): empirical transform s and reference transform m."""
    write_csv(path, ["z_re", "z_im", "s_re", "s_im", "m_re", "m_im"],
              ((z.real, z.imag, s.real, s.imag, m.real, m.imag)
               for z, s, m in rows))


def write_emf_csv(path, times, values):
    """Moment-flow table: one (time, site, value) row per cell.

    The site column is named ``configuration_id``.
    """
    write_csv(path, ["time", "configuration_id", "value"],
              ((t, cid, values[ti, cid])
               for ti, t in enumerate(times)
               for cid in range(values.shape[1])))


def write_plot_data(path, series):
    """(x, y) overlay series, e.g. binned gap densities for two ensembles.

    ``series`` maps a label to a pair of equal-length arrays.
    """
    rows = []
    for label, (xs, ys) in series.items():
        rows.extend((label, x, y) for x, y in zip(xs, ys))
    write_csv(path, ["series", "x", "y"], rows)


def report_record(name, value, stderr=0.0, n_samples=0):
    return {"name": str(name), "value": float(value),
            "stderr": float(stderr), "n_samples": int(n_samples)}


def write_report_json(path, reports):
    with open(path, "w", newline="\n") as fh:
        json.dump(list(reports), fh, indent=2)
        fh.write("\n")


def git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_manifest(path, config, recipe, wall_time_seconds, acceptance_ok):
    manifest = {
        "recipe": recipe,
        "config": config.to_dict(),
        "git_describe": git_describe(),
        "wall_time_seconds": float(wall_time_seconds),
        "rng_algorithm": STREAM_ALGORITHM,
        # read from what is already loaded or set: microseconds
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
            "kernel_backend": _kernels.BACKEND,
        },
        "acceptance_ok": acceptance_ok,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

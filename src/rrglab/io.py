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
    and the pinned RNG stream algorithm.
"""

import json
import struct
import subprocess
from pathlib import Path

import numpy as np

from .graphs import RegularGraph
from .streams import STREAM_ALGORITHM

MATRIX_MAGIC = b"RRGMAT\x00\x01"


def write_graph_text(graph, path):
    lines = [f"{graph.n_vertices} {graph.degree}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in graph.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph_text(path):
    tokens = Path(path).read_text().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: truncated graph file")
    n, d = int(tokens[0]), int(tokens[1])
    pairs = tokens[2:]
    if len(pairs) % 2:
        raise ValueError(f"{path}: odd number of edge endpoints")
    edges = [(int(pairs[k]) - 1, int(pairs[k + 1]) - 1)
             for k in range(0, len(pairs), 2)]
    graph = RegularGraph.from_edges(n, edges)
    if graph.degree != d:
        raise ValueError(f"{path}: header says degree {d}, "
                         f"edges give {graph.degree}")
    return graph


def write_matrix(mat, path):
    mat = np.ascontiguousarray(mat, dtype=np.float64)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix snapshot must be square")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<Q", n))
        fh.write(mat.tobytes(order="C"))


def read_matrix(path):
    blob = Path(path).read_bytes()
    if blob[:8] != MATRIX_MAGIC:
        raise ValueError(f"{path}: bad magic, not a matrix snapshot")
    (n,) = struct.unpack("<Q", blob[8:16])
    body = np.frombuffer(blob, dtype=np.float64, offset=16)
    if body.size != n * n:
        raise ValueError(f"{path}: payload holds {body.size} floats, "
                         f"expected {n * n}")
    return body.reshape(n, n).copy()


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
    """Moment-flow table: one (time, configuration-id, value) row per cell."""
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
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_manifest(path, config, recipe, wall_time_seconds, extra=None):
    manifest = {
        "recipe": recipe,
        "config": config.to_dict(),
        "git_describe": git_describe(),
        "wall_time_seconds": float(wall_time_seconds),
        "rng_algorithm": STREAM_ALGORITHM,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

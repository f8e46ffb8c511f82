"""Serialization round-trips and exact on-disk formats for every artifact."""

import json
import struct

import numpy as np
import pytest

from rrglab.config import ExperimentConfig
from rrglab.graphs import RegularGraph, sample_regular_graph
from rrglab.io import (
    MATRIX_MAGIC,
    read_graph_text,
    read_matrix,
    report_record,
    write_csv,
    write_emf_csv,
    write_gap_csv,
    write_graph_text,
    write_manifest,
    write_matrix,
    write_plot_data,
    write_report_json,
    write_stieltjes_csv,
)
from rrglab.streams import STREAM_ALGORITHM, rng_stream


def test_graph_text_exact_format(tmp_path):
    k4 = RegularGraph.from_edges(4, [(2, 3), (0, 1), (0, 2), (1, 3),
                                     (0, 3), (1, 2)])
    path = tmp_path / "k4.txt"
    write_graph_text(k4, path)
    assert path.read_bytes() == b"4 3\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


def test_graph_text_round_trip(tmp_path, graph_24_4):
    path = tmp_path / "g.txt"
    write_graph_text(graph_24_4, path)
    back = read_graph_text(path)
    assert np.array_equal(back.adjacency, graph_24_4.adjacency)
    assert (back.n_vertices, back.degree) == (24, 4)
    # 1-based endpoints, i < j, lexicographic order
    lines = path.read_text().splitlines()
    pairs = [tuple(map(int, line.split())) for line in lines[1:]]
    assert all(1 <= i < j <= 24 for i, j in pairs)
    assert pairs == sorted(pairs)
    assert len(pairs) == 24 * 4 // 2


def test_graph_text_rejects_truncation_and_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5\n")
    with pytest.raises(ValueError, match="truncated"):
        read_graph_text(path)
    path.write_text("4 3\n1 2\n1 3\n1 4\n2 3\n2 4\n3\n")
    with pytest.raises(ValueError, match="odd number of edge endpoints"):
        read_graph_text(path)
    path.write_text("4 2\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    with pytest.raises(ValueError, match="header says degree 2"):
        read_graph_text(path)


def test_matrix_round_trip_is_byte_exact(tmp_path):
    rng = rng_stream(7, stream_id=0)
    mat = rng.standard_normal((9, 9))
    path = tmp_path / "m.bin"
    write_matrix(mat, path)
    blob = path.read_bytes()
    assert blob[:8] == MATRIX_MAGIC
    assert struct.unpack("<Q", blob[8:16]) == (9,)
    assert len(blob) == 16 + 9 * 9 * 8
    back = read_matrix(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, mat)          # bitwise, not approx
    assert blob[16:] == mat.tobytes(order="C")


def test_matrix_rejects_bad_magic_and_size(tmp_path):
    path = tmp_path / "m.bin"
    write_matrix(np.eye(3), path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="bad magic"):
        read_matrix(path)
    write_matrix(np.eye(3), path)
    path.write_bytes(path.read_bytes()[:-8])   # drop one float
    with pytest.raises(ValueError, match="payload holds 8 floats"):
        read_matrix(path)
    with pytest.raises(ValueError, match="square"):
        write_matrix(np.zeros((2, 3)), tmp_path / "rect.bin")


def test_csv_exact_bytes_and_float_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, 0.1), (2, 1.0 / 3.0)])
    assert path.read_bytes() == b"a,b\n1,0.1\n2,0.3333333333333333\n"
    cells = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
    assert [float(c) for c in cells] == [0.1, 1.0 / 3.0]


def test_csv_writes_are_deterministic(tmp_path):
    rng = rng_stream(11, stream_id=0)
    rows = [tuple(row) for row in rng.standard_normal((50, 3))]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(first, ["x", "y", "z"], rows)
    write_csv(second, ["x", "y", "z"], rows)
    assert first.read_bytes() == second.read_bytes()


def test_gap_csv_header_and_rows(tmp_path):
    path = tmp_path / "gaps.csv"
    write_gap_csv(path, entries=[0.5, 1.25], indices=[100, 101],
                  sample_ids=[0, 0])
    lines = path.read_text().splitlines()
    assert lines[0] == "index,sample_id,gap"
    assert lines[1] == "100,0,0.5"
    assert lines[2] == "101,0,1.25"


def test_stieltjes_csv_header_and_rows(tmp_path):
    path = tmp_path / "scan.csv"
    write_stieltjes_csv(path, [(1 + 0.05j, 0.25 - 0.5j, 0.25 - 0.75j)])
    lines = path.read_text().splitlines()
    assert lines[0] == "z_re,z_im,s_re,s_im,m_re,m_im"
    assert lines[1] == "1.0,0.05,0.25,-0.5,0.25,-0.75"


def test_emf_csv_is_time_major(tmp_path):
    path = tmp_path / "emf.csv"
    values = np.array([[0.0, 1.0], [0.25, 0.75]])
    write_emf_csv(path, times=[0.0, 0.5], values=values)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,configuration_id,value"
    assert lines[1:] == ["0.0,0,0.0", "0.0,1,1.0",
                         "0.5,0,0.25", "0.5,1,0.75"]


def test_plot_data_series_layout(tmp_path):
    path = tmp_path / "plot.csv"
    write_plot_data(path, {"rrg": ([0.0, 1.0], [0.5, 0.25]),
                           "goe": ([0.0], [0.4])})
    lines = path.read_text().splitlines()
    assert lines[0] == "series,x,y"
    assert lines[1:] == ["rrg,0.0,0.5", "rrg,1.0,0.25", "goe,0.0,0.4"]


def test_report_record_shape_and_json_round_trip(tmp_path):
    rec = report_record("gap_ks", np.float64(0.021), stderr=np.float64(0.003),
                        n_samples=100)
    assert rec == {"name": "gap_ks", "value": 0.021, "stderr": 0.003,
                   "n_samples": 100}
    assert isinstance(rec["value"], float) and isinstance(rec["n_samples"], int)

    path = tmp_path / "report.json"
    write_report_json(path, [rec, report_record("other", 1.5)])
    loaded = json.loads(path.read_text())
    assert [r["name"] for r in loaded] == ["gap_ks", "other"]
    assert path.read_text().endswith("\n")


def test_manifest_contents(tmp_path):
    config = ExperimentConfig(n=100, d=4, z_grid=(0.05j,))
    path = tmp_path / "manifest.json"
    write_manifest(path, config, recipe="gap-test", wall_time_seconds=1.5,
                   extra={"acceptance_ok": True})
    manifest = json.loads(path.read_text())
    assert manifest["recipe"] == "gap-test"
    assert manifest["wall_time_seconds"] == 1.5
    assert manifest["rng_algorithm"] == STREAM_ALGORITHM
    assert manifest["acceptance_ok"] is True
    assert isinstance(manifest["git_describe"], str) and manifest["git_describe"]
    # config echo carries every key, including untouched defaults
    echo = manifest["config"]
    assert echo["n"] == 100 and echo["d"] == 4
    assert echo["n_samples"] == 100 and echo["kappa"] == 0.1
    assert echo["z_grid"] == ["0.05j"]
    assert echo["big_d"] == config.big_d


def test_snapshot_chain_survives_graph_io(tmp_path):
    """A sampled graph written and re-read feeds sampling-compatible edges."""
    graph = sample_regular_graph(18, 4, rng=rng_stream(21, stream_id=0))
    path = tmp_path / "snap.txt"
    write_graph_text(graph, path)
    back = read_graph_text(path)
    assert back.adjacency.sum(axis=0).tolist() == [4] * 18
    assert np.array_equal(back.adjacency, back.adjacency.T)
    assert np.array_equal(back.adjacency, graph.adjacency)

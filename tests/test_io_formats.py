import json

import numpy as np
import pytest

from tvgmd.core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
)
from tvgmd.errors import EmptyFileError, SignalParseError
from tvgmd.graph_ops import densify
from tvgmd.io_formats import (
    RunManifest,
    format_matrix_csv,
    read_adjacency_json,
    read_matrix_csv,
    read_signal_csv,
    read_summary_json,
    sha256_of_file,
    write_adjacency_json,
    write_result,
    write_signal_csv,
)

rng = np.random.default_rng(19)


def small_result(k=2, n=3, t=8, with_graphs=True):
    modes = tuple(
        GraphMode(
            mode_samples=rng.standard_normal((n, t)),
            center_freq_hz=float(i + 1),
            edge_weights=(rng.random(n * (n - 1) // 2) if with_graphs
                          else np.empty(0)),
        )
        for i in range(k)
    )
    residual = rng.standard_normal((n, t))
    trace = tuple(
        IterationSnapshot(i + 1, 10.0 ** -(i + 1), (0.1, 0.2), float(i))
        for i in range(3)
    )
    return DecompositionResult(
        modes=modes, residual=residual, iterations=3, converged=True,
        trace=trace,
    )


def manifest_for(result, fs=64.0):
    return RunManifest(
        config=DecompositionConfig(K=len(result.modes), alpha=100.0),
        input_sha256="0" * 64,
        center_freqs_hz=result.center_frequencies_hz,
        iterations=result.iterations,
        converged=result.converged,
        timing_ms=12.5,
        sample_rate_hz=fs,
    )


class TestSignalCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2,3,4\n5,6,7,8\n")
        signal = read_signal_csv(path, 10.0)
        assert signal.samples.shape == (2, 4)
        assert signal.samples[1, 2] == 7.0

    def test_ragged_rows_name_the_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(SignalParseError, match="line 2"):
            read_signal_csv(path, 10.0)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2,3\n4,x,6\n")
        with pytest.raises(SignalParseError, match="line 2"):
            read_signal_csv(path, 10.0)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("")
        with pytest.raises(EmptyFileError):
            read_signal_csv(path, 10.0)

    def test_header_mode_skips_labels(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("name,t0,t1,t2\nn1,1,2,3\nn2,4,5,6\n")
        signal = read_signal_csv(path, 10.0, header=True)
        assert signal.samples.shape == (2, 3)
        assert signal.samples[0, 0] == 1.0

    def test_roundtrip_is_lossless(self, tmp_path):
        samples = rng.standard_normal((4, 16)) * np.pi
        signal = TimeVaryingGraphSignal(samples=samples, sample_rate_hz=3.5)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, signal)
        back = read_signal_csv(path, 3.5)
        assert np.array_equal(back.samples, samples)

    def test_row_format_matches_per_value_reference(self):
        # the per-value f-string is the reference; the production code
        # formats each row with a single "%" operation
        values = rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-300, 300, (3, 7))
        values[0, :5] = [-0.0, 5e-324, 1e308, -1e308, 0.0]
        values[1, :4] = [1.0, -42.0, 2.0**53, 123456789.0]
        for matrix in (values, values[:, :1], np.empty((2, 0))):
            expected = "\n".join(
                ",".join(f"{value:.17g}" for value in row) for row in matrix
            ) + "\n"
            assert format_matrix_csv(matrix) == expected


class TestAdjacencyJson:
    def test_roundtrip_and_densify(self, tmp_path):
        weights = rng.random(28)
        path = tmp_path / "adjacency_1.json"
        write_adjacency_json(path, weights)
        back = read_adjacency_json(path)
        assert np.array_equal(back, weights)
        graph = densify(back)
        assert np.allclose(graph.adjacency, graph.adjacency.T)
        assert np.allclose(np.diag(graph.adjacency), 0.0)

    def test_self_describing_fields(self, tmp_path):
        path = tmp_path / "adjacency_1.json"
        write_adjacency_json(path, np.ones(6))
        payload = json.loads(path.read_text())
        assert payload["n_nodes"] == 4
        assert payload["edge_order"] == "upper-triangular-row-major"
        assert len(payload["weights"]) == 6


class TestWriteResult:
    def test_bundle_file_inventory(self, tmp_path):
        result = small_result(k=4, n=8, t=16)
        write_result(tmp_path, result, manifest_for(result))
        modes = sorted(p.name for p in tmp_path.glob("mode_*.csv"))
        adjacency = sorted(p.name for p in tmp_path.glob("adjacency_*.json"))
        assert modes == [f"mode_{k}.csv" for k in range(1, 5)]
        assert adjacency == [f"adjacency_{k}.json" for k in range(1, 5)]
        assert (tmp_path / "summary.json").exists()
        weights = read_adjacency_json(tmp_path / "adjacency_1.json")
        assert weights.size == 28

    def test_mvmd_bundle_omits_adjacency(self, tmp_path):
        result = small_result(with_graphs=False)
        write_result(tmp_path, result, manifest_for(result))
        assert not list(tmp_path.glob("adjacency_*.json"))
        summary = read_summary_json(tmp_path)
        assert summary["mvmd_baseline"] is True

    def test_summary_contents(self, tmp_path):
        result = small_result()
        write_result(tmp_path, result, manifest_for(result))
        summary = read_summary_json(tmp_path)
        assert summary["format_version"] == "tvgmd-1"
        assert summary["config"]["K"] == 2
        assert summary["sample_rate_hz"] == 64.0
        assert summary["center_freqs_hz"] == [1.0, 2.0]
        assert summary["converged"] is True
        assert len(summary["trace"]) == 3
        assert summary["residual_fro"] == pytest.approx(
            float(np.linalg.norm(result.residual))
        )

    def test_trace_carries_graph_solves(self, tmp_path):
        result = small_result()
        snapshot = IterationSnapshot(
            1, 0.5, (0.1, 0.2), 3.0, graph_steps=(4, 1),
            graph_converged=(True, False),
        )
        result = DecompositionResult(
            modes=result.modes, residual=result.residual, iterations=1,
            converged=False, trace=(snapshot,),
        )
        write_result(tmp_path, result, manifest_for(result))
        entry = read_summary_json(tmp_path)["trace"][0]
        assert entry["graph_steps"] == [4, 1]
        assert entry["graph_converged"] == [True, False]
        write_result(tmp_path, small_result(), manifest_for(result))
        entry = read_summary_json(tmp_path)["trace"][0]
        assert entry["graph_steps"] == entry["graph_converged"] == []

    def test_mode_csv_round_trips_samples(self, tmp_path):
        result = small_result()
        write_result(tmp_path, result, manifest_for(result))
        back = read_matrix_csv(tmp_path / "mode_1.csv")
        assert np.array_equal(back, result.modes[0].mode_samples)

    def test_no_temp_files_left_behind(self, tmp_path):
        result = small_result()
        write_result(tmp_path, result, manifest_for(result))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_interrupted_write_leaves_no_partial_file(self, tmp_path,
                                                      monkeypatch):
        result = small_result()
        import tvgmd.io_formats as io_formats

        original = io_formats.format_matrix_csv

        def explode(matrix):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(io_formats, "format_matrix_csv", explode)
        with pytest.raises(RuntimeError):
            write_result(tmp_path, result, manifest_for(result))
        monkeypatch.setattr(io_formats, "format_matrix_csv", original)
        assert not (tmp_path / "summary.json").exists()
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []


class TestChecksum:
    def test_sha256_matches_reference(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc")
        assert sha256_of_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_graph_ops import laplacian

from tvgmd.core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
)
from tvgmd.errors import EmptyFileError, SignalParseError
from tvgmd.io_formats import (
    format_matrix_csv,
    read_adjacency_json,
    read_matrix_csv,
    read_signal_csv,
    read_summary_json,
    sha256_of_file,
    write_adjacency_json,
    write_matrix_csv,
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
    return dict(
        config=DecompositionConfig(K=len(result.modes), alpha=100.0),
        input_sha256="0" * 64,
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
        # formats each row with a single "%" operation and yields the
        # text row by row
        values = rng.standard_normal((3, 7)) * 10.0 ** rng.integers(-300, 300, (3, 7))
        values[0, :5] = [-0.0, 5e-324, 1e308, -1e308, 0.0]
        values[1, :4] = [1.0, -42.0, 2.0**53, 123456789.0]
        for matrix in (values, values[:, :1], np.empty((2, 0)),
                       np.empty((0, 3))):
            expected = "\n".join(
                ",".join(f"{value:.17g}" for value in row) for row in matrix
            ) + "\n"
            assert "".join(format_matrix_csv(matrix)) == expected

    def test_first_column_matches_stacked_matrix(self, tmp_path):
        # a leading column and a transposed view are written as the stacked
        # matrix would be, without stacking or copying
        values = rng.standard_normal((5, 9)) * 10.0 ** rng.integers(-9, 9, 9)
        first = np.arange(9) * 0.3
        stacked = np.column_stack([first, values.T])
        assert "".join(format_matrix_csv(values.T, first)) == "".join(
            format_matrix_csv(stacked))
        path = write_matrix_csv(tmp_path / "m.csv", values.T,
                                first_column=first)
        assert np.array_equal(read_matrix_csv(path), stacked)

    def test_writing_does_not_hold_the_whole_text(self, tmp_path):
        # the text of a 32 x 8192 matrix is 6 MB; rows are streamed
        matrix = rng.standard_normal((32, 8192))
        tracemalloc.start()
        try:
            write_matrix_csv(tmp_path / "m.csv", matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), matrix)


def _per_cell_reference(path, header=False):
    """The per-cell ``float()`` reader that the row parser replaced."""
    path = Path(path)
    rows, width = [], None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if header and lineno == 1 or line == "":
                continue
            cells = line.split(",")[1 if header else 0 :]
            parsed = []
            for cell in cells:
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise SignalParseError(
                        f"{path.name}, line {lineno}: non-numeric cell {cell!r}"
                    ) from None
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise SignalParseError(
                    f"{path.name}, line {lineno}: expected {width} columns, "
                    f"got {len(parsed)}"
                )
            rows.append(parsed)
    if not rows:
        raise EmptyFileError(f"{path.name}: no data rows")
    return np.array(rows, dtype=float)


_DIGITS = "0123456789"
# Arabic-Indic, Devanagari and fullwidth digits: float() reads them all.
_FOREIGN_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                   "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
                   "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
_doubles = st.floats(allow_nan=True, allow_infinity=True)
_numbers = st.one_of(
    _doubles.map(lambda v: "%.17g" % v),
    _doubles.map(repr),
    _doubles.map(lambda v: "%.6e" % v),
    _doubles.map(lambda v: "%.3E" % v),
    st.integers(-(10**30), 10**30).map(str),
)
_cell_texts = st.one_of(
    _numbers,
    # underscores, valid ("1_000") or not ("1__0", "_1", "1_")
    st.tuples(_numbers, st.integers(0, 8), st.sampled_from(["_", "__"])).map(
        lambda a: a[0][: a[1]] + a[2] + a[0][a[1] :]
    ),
    st.sampled_from([
        "inf", "-inf", "+Inf", "INFINITY", "-Infinity", "nan", "-nan",
        "+NaN", "nAn", "infinite", "in f", "nan(1)", "", " ", "0x10", "1e",
        "e5", ".", "+-1", "1.2.3", "1e5.0", "\x00", "\u00bd",
    ]),
    st.tuples(_numbers, st.sampled_from(_FOREIGN_DIGITS)).map(
        lambda a: a[0].translate(str.maketrans(_DIGITS, a[1]))
    ),
    st.text(max_size=6).filter(lambda c: not set(c) & set(",\r\n")),
)
_padding = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003", "\x0b"])
_cells = st.tuples(_padding, _cell_texts, _padding).map("".join)


class TestRowParsing:
    """Whole-row numpy parsing against the per-cell ``float()`` reader."""

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.lists(_cells, min_size=1, max_size=5), min_size=1,
                      max_size=3),
        header=st.booleans(),
    )
    def test_matches_per_cell_float(self, rows, header):
        text = "".join(",".join(row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = _per_cell_reference(path, header)
            except (SignalParseError, EmptyFileError) as exc:
                with pytest.raises(type(exc)) as got:
                    read_matrix_csv(path, header)
                assert str(got.value) == str(exc)
                return
            got = read_matrix_csv(path, header)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        # bit patterns, so signed zeros and NaN signs count too
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_bad_cell_after_good_ones_is_named(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2\n3,4\n5, 1_0 ,١٢,0x1\n")
        with pytest.raises(SignalParseError) as excinfo:
            read_matrix_csv(path)
        assert str(excinfo.value) == "sig.csv, line 3: non-numeric cell '0x1'"

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"1,2\n3,\xff4\n", 2),
            (b"1,2\r\n3,4\r\n5,6\xe9\r\n", 3),
            (b"\xc3(,2\n3,4\n", 1),
            (b"1,2\n" * 5000 + b"3,\xed\xa0\x80\n", 5001),  # encoded surrogate
        ],
        ids=["latin1_byte", "crlf", "first_line", "past_first_chunk"],
    )
    def test_non_utf8_is_a_parse_error(self, tmp_path, data, line):
        path = tmp_path / "sig.csv"
        path.write_bytes(data)
        with pytest.raises(SignalParseError) as excinfo:
            read_signal_csv(path, 10.0)
        assert str(excinfo.value) == f"sig.csv, line {line}: not valid UTF-8"

    def test_non_utf8_header_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_bytes(b"n\xe6me,t0\nn1,1\n")
        with pytest.raises(SignalParseError, match="line 1: not valid UTF-8"):
            read_matrix_csv(path, header=True)


class TestAdjacencyJson:
    def test_roundtrip_and_densify(self, tmp_path):
        weights = rng.random(28)
        path = tmp_path / "adjacency_1.json"
        write_adjacency_json(path, weights)
        back = read_adjacency_json(path)
        assert np.array_equal(back, weights)
        graph = laplacian(back)
        assert graph.shape == (8, 8)
        assert np.allclose(graph, graph.T)
        assert np.allclose(graph.sum(axis=1), 0.0)

    def test_self_describing_fields(self, tmp_path):
        path = tmp_path / "adjacency_1.json"
        write_adjacency_json(path, np.ones(6))
        payload = json.loads(path.read_text())
        assert payload["n_nodes"] == 4
        assert payload["edge_order"] == "upper-triangular-row-major"
        assert len(payload["weights"]) == 6

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n_nodes": 3, "edge_order": "upper', "adjacency_2.json: "),
            ("[1, 2, 3]", "adjacency_2.json: not a JSON object"),
            (
                '{"n_nodes": 3, "edge_order": "upper-triangular-row-major"}',
                "adjacency_2.json: missing key 'weights'",
            ),
            (
                '{"edge_order": "upper-triangular-row-major", "weights": [1, 2, 3]}',
                "adjacency_2.json: missing key 'n_nodes'",
            ),
            (
                '{"n_nodes": 3, "edge_order": "upper-triangular-row-major",'
                ' "weights": ["a", 2, 3]}',
                "adjacency_2.json: bad weights: ",
            ),
            (
                '{"n_nodes": 3, "edge_order": "lower", "weights": [1, 2, 3]}',
                "adjacency_2.json: unknown edge order 'lower'",
            ),
            (
                '{"n_nodes": 4, "edge_order": "upper-triangular-row-major",'
                ' "weights": [1, 2, 3]}',
                "adjacency_2.json: weight count does not match n_nodes",
            ),
            (
                # the right total size, one list too deep
                '{"n_nodes": 3, "edge_order": "upper-triangular-row-major",'
                ' "weights": [[1, 2, 3]]}',
                "adjacency_2.json: weights are not a flat list",
            ),
        ],
        ids=["malformed", "not_an_object", "no_weights", "no_n_nodes",
             "non_numeric", "edge_order", "count_mismatch", "nested"],
    )
    def test_corrupt_file_is_a_parse_error(self, tmp_path, text, message):
        path = tmp_path / "adjacency_2.json"
        path.write_text(text)
        with pytest.raises(SignalParseError) as excinfo:
            read_adjacency_json(path)
        assert str(excinfo.value).startswith(message)


class TestWriteResult:
    def test_bundle_file_inventory(self, tmp_path):
        result = small_result(k=4, n=8, t=16)
        write_result(tmp_path, result, **manifest_for(result))
        modes = sorted(p.name for p in tmp_path.glob("mode_*.csv"))
        adjacency = sorted(p.name for p in tmp_path.glob("adjacency_*.json"))
        assert modes == [f"mode_{k}.csv" for k in range(1, 5)]
        assert adjacency == [f"adjacency_{k}.json" for k in range(1, 5)]
        assert (tmp_path / "summary.json").exists()
        weights = read_adjacency_json(tmp_path / "adjacency_1.json")
        assert weights.size == 28

    def test_mvmd_bundle_omits_adjacency(self, tmp_path):
        result = small_result(with_graphs=False)
        write_result(tmp_path, result, **manifest_for(result))
        assert not list(tmp_path.glob("adjacency_*.json"))
        summary = read_summary_json(tmp_path)
        assert summary["mvmd_baseline"] is True

    def test_summary_contents(self, tmp_path):
        result = small_result()
        write_result(tmp_path, result, **manifest_for(result))
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
            graph_converged=(True, False), graph_tolerance=2.5e-3,
        )
        result = DecompositionResult(
            modes=result.modes, residual=result.residual, iterations=1,
            converged=False, trace=(snapshot,),
        )
        write_result(tmp_path, result, **manifest_for(result))
        entry = read_summary_json(tmp_path)["trace"][0]
        assert entry["graph_steps"] == [4, 1]
        assert entry["graph_converged"] == [True, False]
        assert entry["graph_tolerance"] == 2.5e-3
        write_result(tmp_path, small_result(), **manifest_for(result))
        entry = read_summary_json(tmp_path)["trace"][0]
        assert entry["graph_steps"] == entry["graph_converged"] == []
        assert entry["graph_tolerance"] is None

    def test_config_of_numpy_scalars_writes_a_bundle(self, tmp_path):
        result = small_result()
        manifest = manifest_for(result)
        manifest["config"] = DecompositionConfig(
            K=np.int64(2), alpha=np.float32(50), beta=np.float64(0.5),
            max_iter=np.int32(50),
        )
        write_result(tmp_path, result, **manifest)
        assert read_summary_json(tmp_path)["config"] == dataclasses.asdict(
            DecompositionConfig(K=2, alpha=50.0, beta=0.5, max_iter=50)
        )

    def test_mode_csv_round_trips_samples(self, tmp_path):
        result = small_result()
        write_result(tmp_path, result, **manifest_for(result))
        back = read_matrix_csv(tmp_path / "mode_1.csv")
        assert np.array_equal(back, result.modes[0].mode_samples)

    def test_no_temp_files_left_behind(self, tmp_path):
        result = small_result()
        write_result(tmp_path, result, **manifest_for(result))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_interrupted_write_leaves_no_partial_file(self, tmp_path,
                                                      monkeypatch):
        result = small_result()
        import tvgmd.io_formats as io_formats

        original = io_formats.format_matrix_csv

        def explode(*args):  # fails after the first row was streamed
            yield "1,2,3\n"
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(io_formats, "format_matrix_csv", explode)
        with pytest.raises(RuntimeError):
            write_result(tmp_path, result, **manifest_for(result))
        monkeypatch.setattr(io_formats, "format_matrix_csv", original)
        assert not (tmp_path / "mode_1.csv").exists()
        assert not (tmp_path / "summary.json").exists()
        assert [p for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_failed_rename_removes_temp_file(self, tmp_path, monkeypatch):
        import tvgmd.io_formats as io_formats

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(io_formats.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_matrix_csv(tmp_path / "m.csv", np.ones((2, 3)))
        assert list(tmp_path.iterdir()) == []

    def test_taken_temp_name_is_skipped(self, tmp_path, monkeypatch):
        import tvgmd.io_formats as io_formats

        names = iter([b"\0" * 6, b"\1" * 6])
        monkeypatch.setattr(io_formats.os, "urandom", lambda size: next(names))
        taken = tmp_path / (".m.csv." + "00" * 6)
        taken.write_text("someone else's")
        write_matrix_csv(tmp_path / "m.csv", np.ones((2, 3)))
        assert read_matrix_csv(tmp_path / "m.csv").shape == (2, 3)
        assert taken.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "m.csv"]


class TestChecksum:
    def test_sha256_matches_reference(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc")
        assert sha256_of_file(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

import contextlib
import dataclasses
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tvgmd.cli import main
from tvgmd.core import DecompositionConfig, TimeVaryingGraphSignal
from tvgmd.decomposer import decompose
from tvgmd.errors import TvgmdError
from tvgmd.io_formats import (
    read_matrix_csv,
    read_summary_json,
    write_matrix_csv,
    write_result,
)

FS_PRESET = "512"


def run_synth(tmp_path, *extra):
    out = tmp_path / "signal.csv"
    code = main(["synth", "--preset", "paper", "--out", str(out), *extra])
    return code, out


def run_decompose(tmp_path, signal_path, *extra):
    run_dir = tmp_path / "run"
    argv = [
        "decompose",
        "--input", str(signal_path),
        "--fs", FS_PRESET,
        "--k", "2",
        "--alpha", "200",
        "--out", str(run_dir),
        *extra,
    ]
    return main(argv), run_dir


@pytest.fixture
def small_signal(tmp_path):
    """Cheap two-tone input so CLI tests stay fast."""
    t = np.arange(256) / 256.0
    rows = [
        np.cos(2 * np.pi * 8 * t),
        np.cos(2 * np.pi * 8 * t) + np.cos(2 * np.pi * 60 * t),
        np.cos(2 * np.pi * 60 * t),
    ]
    path = tmp_path / "in.csv"
    path.write_text(
        "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows) + "\n"
    )
    return path


class TestSynthCommand:
    def test_preset_shape(self, tmp_path):
        code, out = run_synth(tmp_path)
        assert code == 0
        matrix = read_matrix_csv(out)
        assert matrix.shape == (8, 1024)
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert truth["sample_rate_hz"] == 512.0
        assert len(truth["components"]) == 4

    def test_seeded_noise_is_reproducible(self, tmp_path):
        code_a, out_a = run_synth(tmp_path, "--snr", "6", "--seed", "7")
        first = out_a.read_bytes()
        code_b, out_b = run_synth(tmp_path, "--snr", "6", "--seed", "7")
        assert code_a == code_b == 0
        assert out_b.read_bytes() == first

    def test_missing_snr_value_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--preset", "paper", "--snr",
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

    def test_custom_spec_file(self, tmp_path):
        spec = {
            "node_terms": [[[4.0, 1.0]], [[8.0, 0.5]]],
            "sample_rate_hz": 64.0,
            "duration_s": 2.0,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sig.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert read_matrix_csv(out).shape == (2, 128)

    def test_snr_keeps_the_spec_seed(self, tmp_path):
        # --snr sets the noise level only; the noise is drawn from the
        # spec's seed, as if the spec had asked for that SNR itself
        spec = {
            "node_terms": [[[4.0, 1.0]], [[8.0, 0.5]]],
            "sample_rate_hz": 64.0,
            "duration_s": 2.0,
            "seed": 5,
        }
        outputs = []
        for name, payload, extra in [
            ("flag", spec, ("--snr", "6")),
            ("spec", {**spec, "snr_db": 6.0}, ()),
        ]:
            (tmp_path / name).mkdir()
            spec_path = tmp_path / name / "spec.json"
            spec_path.write_text(json.dumps(payload))
            out = tmp_path / name / "sig.csv"
            assert main(["synth", "--spec", str(spec_path), "--out", str(out),
                         *extra]) == 0
            truth = json.loads((tmp_path / name / "ground_truth.json").read_text())
            assert (truth["seed"], truth["snr_db"]) == (5, 6.0)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_malformed_spec_is_an_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"node_terms": [[[4.0, 1.0]]], "sample_rate')
        out = tmp_path / "sig.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: bad synth spec {spec_path}: "
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, flags, message",
        [
            ({}, ("--snr", "nan"), "snr_db"),
            ({}, ("--snr", "inf"), "snr_db"),
            ({}, ("--snr=-inf",), "snr_db"),
            ({"sample_rate_hz": float("inf")}, (), "sample_rate_hz"),
            ({"duration_s": float("inf")}, (), "duration_s"),
            ({}, ("--seed", "-1", "--snr", "6"), "seed"),
            ({"sample_rate_hz": 1e200, "duration_s": 1e200}, (),
             "duration_s * sample_rate_hz must be an integer >= 4\n"),
            ({"node_terms": [[[float("nan"), 1.0]], [[8.0, 0.5]]]}, (),
             "frequencies must be finite\n"),
            ({"node_terms": [[[4.0, float("nan")]], [[8.0, 0.5]]]}, (),
             "amplitudes must be finite\n"),
            ({"seed": 1.5}, (), "seed must be a nonnegative integer\n"),
            ({"seed": True}, (), "seed must be a nonnegative integer\n"),
            # 1e15 samples per node, petabytes that no allocation attempt
            # can start on
            ({"sample_rate_hz": 1e6, "duration_s": 1e9}, (),
             "2 x 1000000000000000 samples do not fit in memory\n"),
        ],
        ids=["snr_nan", "snr_inf", "snr_minus_inf", "rate_inf", "duration_inf",
             "seed_negative", "product_overflow", "frequency_nan",
             "amplitude_nan", "seed_fraction", "seed_bool", "too_large"],
    )
    def test_bad_spec_is_an_error(self, tmp_path, capsys, overrides, flags,
                                  message):
        spec = {
            "node_terms": [[[4.0, 1.0]], [[8.0, 0.5]]],
            "sample_rate_hz": 64.0,
            "duration_s": 2.0,
            **overrides,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sig.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out),
                     *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()
        assert not (tmp_path / "ground_truth.json").exists()

    def test_negative_exponent_snr_with_equals(self, tmp_path):
        # argparse takes "-1e1" after a space for an option, so the help
        # text gives the --snr=-1e1 form
        outputs = []
        for name, flags in [("eq", ("--snr=-1e1",)), ("plain", ("--snr", "-10"))]:
            (tmp_path / name).mkdir()
            code, out = run_synth(tmp_path / name, *flags)
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_same_frequency_terms_report_their_sum(self, tmp_path):
        spec = {
            "node_terms": [[[4.0, 1.0], [4.0, 0.5]], [[8.0, 0.5]]],
            "sample_rate_hz": 64.0,
            "duration_s": 2.0,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "sig.csv"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        component = truth["components"][0]
        assert component["frequency_hz"] == 4.0
        assert component["amplitudes"] == [1.5, 0.0]
        # the least-squares amplitude of node 0's signal at 4 Hz
        cosine = np.cos(2.0 * np.pi * 4.0 * np.arange(128) / 64.0)
        fitted = read_matrix_csv(out)[0] @ cosine / (cosine @ cosine)
        assert fitted == pytest.approx(1.5, rel=1e-12)


class TestDecomposeCommand:
    def test_small_run_writes_bundle(self, tmp_path, small_signal):
        code, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        assert code == 0
        summary = read_summary_json(run_dir)
        assert summary["converged"] is True
        assert len(summary["center_freqs_hz"]) == 2
        assert (run_dir / "mode_1.csv").exists()
        assert (run_dir / "adjacency_1.json").exists()

    def test_defaults_are_the_config_defaults(self, tmp_path, small_signal,
                                              monkeypatch):
        seen = []

        def stop(signal, config):
            seen.append(config)
            raise TvgmdError("stopped before solving")

        monkeypatch.setattr("tvgmd.cli.decompose", stop)
        assert main([
            "decompose", "--input", str(small_signal), "--fs", "256",
            "--k", "3", "--out", str(tmp_path / "run"),
        ]) == 1
        assert seen == [DecompositionConfig(K=3, alpha=1000.0)]

    def test_k_zero_is_validation_error(self, tmp_path, small_signal, capsys):
        code = main([
            "decompose", "--input", str(small_signal), "--fs", "256",
            "--k", "0", "--alpha", "200", "--out", str(tmp_path / "r"),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: K must be >= 1\n"

    @pytest.mark.parametrize("fs", ["inf", "nan", "0"])
    def test_bad_fs_is_rejected_before_reading(self, tmp_path, small_signal,
                                               capsys, monkeypatch, fs):
        reads = []
        monkeypatch.setattr("tvgmd.cli.read_signal_csv",
                            lambda *args, **kwargs: reads.append(args))
        code, run_dir = run_decompose(tmp_path, small_signal, "--fs", fs)
        assert code == 1
        assert capsys.readouterr().err == "error: fs must be finite and positive\n"
        assert reads == []
        assert not run_dir.exists()

    def test_nan_beta_is_validation_error(self, tmp_path, small_signal,
                                          capsys):
        code, run_dir = run_decompose(
            tmp_path, small_signal, "--fs", "256", "--beta", "nan"
        )
        assert code == 1
        assert capsys.readouterr().err == "error: beta must be finite\n"
        assert not (run_dir / "summary.json").exists()

    def test_missing_input_is_runtime_error(self, tmp_path):
        code = main([
            "decompose", "--input", str(tmp_path / "absent.csv"),
            "--fs", "256", "--k", "2", "--alpha", "200",
            "--out", str(tmp_path / "r"),
        ])
        assert code == 1

    def test_non_utf8_input_is_an_error(self, tmp_path, small_signal, capsys):
        small_signal.write_bytes(small_signal.read_bytes() + b"0.5,\xff1\n")
        code, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: in.csv, line 4: not valid UTF-8\n"
        )
        assert not run_dir.exists()

    def test_mvmd_omits_adjacency(self, tmp_path, small_signal):
        code, run_dir = run_decompose(
            tmp_path, small_signal, "--fs", "256", "--mvmd"
        )
        assert code == 0
        assert not list(run_dir.glob("adjacency_*.json"))
        summary = read_summary_json(run_dir)
        assert summary["mvmd_baseline"] is True
        assert summary["config"]["beta"] == 0.0

    def test_not_converged_exit_code(self, tmp_path, small_signal):
        code, run_dir = run_decompose(
            tmp_path, small_signal, "--fs", "256", "--max-iter", "2"
        )
        assert code == 3
        assert read_summary_json(run_dir)["converged"] is False
        assert (run_dir / "summary.json").exists()

    def test_singular_graph_solve_exits_not_converged(self, tmp_path, capsys):
        # 1e4 x the paper preset makes a graph learner Newton system
        # singular; the run finishes and reports it did not converge
        _, signal_path = run_synth(tmp_path)
        scaled = tmp_path / "scaled.csv"
        write_matrix_csv(scaled, 1e4 * read_matrix_csv(signal_path))
        capsys.readouterr()
        code, run_dir = run_decompose(tmp_path, scaled, "--k", "4")
        assert code == 3 and capsys.readouterr().err == ""
        assert read_summary_json(run_dir)["converged"] is False

    def test_threads_flag_is_usage_error(self, tmp_path, small_signal):
        # the flag never had an effect and is gone; argparse rejects it
        with pytest.raises(SystemExit) as exc:
            main([
                "decompose", "--input", str(small_signal), "--fs", "256",
                "--k", "2", "--alpha", "200", "--threads", "1",
                "--out", str(tmp_path / "run"),
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_no_mirror_flag_is_usage_error(self, tmp_path, small_signal):
        # every run mirror-extends its input; the flag that turned it off
        # is gone, and no field of the config takes its place
        with pytest.raises(SystemExit) as exc:
            run_decompose(tmp_path, small_signal, "--no-mirror")
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()
        assert "mirror_extend" not in {
            field.name for field in dataclasses.fields(DecompositionConfig)}

    def test_omega_init_flag_is_usage_error(self, tmp_path, small_signal):
        # every run starts its modes at the input's spectral peaks; the
        # flag that chose another start is gone, with its config field
        with pytest.raises(SystemExit) as exc:
            run_decompose(tmp_path, small_signal, "--omega-init", "peaks")
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()
        assert "omega_init" not in {
            field.name for field in dataclasses.fields(DecompositionConfig)}

    def test_normalize_distances_flag_is_usage_error(self, tmp_path,
                                                     small_signal):
        # every graph is learned from its mode's raw distances; the flag
        # that divided them by their mean is gone, with its config field
        with pytest.raises(SystemExit) as exc:
            run_decompose(tmp_path, small_signal, "--normalize-distances")
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()
        assert "normalize_distances" not in {
            field.name for field in dataclasses.fields(DecompositionConfig)}


class TestInspectCommand:
    def test_inspect_prints_modes(self, tmp_path, small_signal, capsys):
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "center_hz" in out
        assert "mode" in out

    def test_inspect_empty_directory_fails(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["inspect", "--run", str(empty)]) == 1

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda text: text[: len(text) // 2], "summary.json: "),
            (lambda text: "[1, 2]", "summary.json: not a JSON object"),
            (
                lambda text: json.dumps(
                    {k: v for k, v in json.loads(text).items()
                     if k != "center_freqs_hz"}
                ),
                "summary.json: missing key 'center_freqs_hz'",
            ),
            (
                lambda text: json.dumps(
                    {**json.loads(text), "center_freqs_hz": [8.0, "x"]}
                ),
                "summary.json: ",
            ),
            (
                lambda text: json.dumps(
                    {**json.loads(text), "center_freqs_hz": []}
                ),
                "summary.json lists no modes",
            ),
            (
                lambda text: json.dumps(
                    {k: v for k, v in json.loads(text).items()
                     if k != "sample_rate_hz"}
                ),
                "summary.json: missing key 'sample_rate_hz'",
            ),
        ],
        ids=["truncated", "not_an_object", "missing_key", "non_numeric_center",
             "no_modes", "no_sample_rate"],
    )
    def test_corrupt_summary_is_an_error(self, tmp_path, small_signal, capsys,
                                         corrupt, message):
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        summary_path = run_dir / "summary.json"
        summary_path.write_text(corrupt(summary_path.read_text()))
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("adjacency_2.json", '{"n_nodes": 3, "weig', "adjacency_2.json: "),
            ("adjacency_2.json", "[]", "adjacency_2.json: not a JSON object"),
            (
                "adjacency_2.json",
                '{"n_nodes": 3, "edge_order": "upper-triangular-row-major"}',
                "adjacency_2.json: missing key 'weights'",
            ),
            (
                "adjacency_2.json",
                '{"edge_order": "upper-triangular-row-major", "weights": [1, 2, 3]}',
                "adjacency_2.json: missing key 'n_nodes'",
            ),
            (
                "adjacency_2.json",
                '{"n_nodes": 3, "edge_order": "upper-triangular-row-major",'
                ' "weights": [[1, 2, 3]]}',
                "adjacency_2.json: weights are not a flat list",
            ),
            ("mode_2.csv", "abc\n", "mode_2.csv, line 1: non-numeric cell 'abc'"),
        ],
        ids=["malformed", "not_an_object", "no_weights", "no_n_nodes",
             "nested", "mode_cell"],
    )
    def test_corrupt_adjacency_is_an_error(self, tmp_path, small_signal,
                                           capsys, name, text, message):
        # a corrupt file of the second mode: nothing of the first is printed
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        (run_dir / name).write_text(text)
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir), "--plot-data"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}")
        assert out == ""
        assert not list(run_dir.glob("spectrum_*.csv"))

    @pytest.mark.parametrize("name", ["mode_2.csv", "adjacency_2.json"])
    def test_missing_listed_file_is_an_error(self, tmp_path, small_signal,
                                             capsys, name):
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        (run_dir / name).unlink()
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir), "--plot-data"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and name in err
        assert out == ""
        assert not list(run_dir.glob("spectrum_*.csv"))

    def test_mvmd_run_ignores_an_earlier_runs_graphs(self, tmp_path,
                                                     small_signal, capsys):
        run_decompose(tmp_path, small_signal, "--fs", "256")
        _, run_dir = run_decompose(
            tmp_path, small_signal, "--fs", "256", "--mvmd"
        )
        assert list(run_dir.glob("adjacency_*.json"))  # left from the first
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir), "--edges"]) == 0
        lines = capsys.readouterr().out.splitlines()
        modes = [line for line in lines if line.split()[0].isdigit()]
        assert len(modes) == 2
        assert all(line.endswith("(no graph)") for line in modes)
        assert not any(line.split()[0] == "edge" for line in lines)

    def test_fewer_modes_ignore_an_earlier_runs_extra_modes(
        self, tmp_path, small_signal, capsys
    ):
        run_decompose(tmp_path, small_signal, "--fs", "256", "--k", "5")
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256",
                                   "--k", "4")
        assert (run_dir / "mode_5.csv").exists()  # left from the first
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines
                if line.split()[0].isdigit()] == ["1", "2", "3", "4"]

    def test_inspect_reports_graph_solves(self, tmp_path, small_signal,
                                          capsys):
        # one Newton step per solve leaves some solves short of tolerance
        _, run_dir = run_decompose(
            tmp_path, small_signal, "--fs", "256", "--graph-max-iter", "1"
        )
        summary = read_summary_json(run_dir)
        trace = summary["trace"]
        solves = sum(len(e["graph_converged"]) for e in trace)
        steps = sum(sum(e["graph_steps"]) for e in trace)
        missed = sum(not ok for e in trace for ok in e["graph_converged"])
        assert solves == 2 * len(trace) and missed > 0
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir)]) == 0
        assert (
            f"graph solves: {solves}  newton steps: {steps}  "
            f"missed tolerance: {missed}"
        ) in capsys.readouterr().out

        # a summary written without the telemetry still inspects
        for entry in trace:
            del entry["graph_steps"], entry["graph_converged"]
        (run_dir / "summary.json").write_text(json.dumps(summary))
        assert main(["inspect", "--run", str(run_dir)]) == 0
        del summary["trace"]
        (run_dir / "summary.json").write_text(json.dumps(summary))
        assert main(["inspect", "--run", str(run_dir)]) == 0
        assert "graph solves" not in capsys.readouterr().out

    def test_plot_data_shapes(self, tmp_path, small_signal):
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        assert main(["inspect", "--run", str(run_dir), "--plot-data"]) == 0
        spectra = sorted(run_dir.glob("spectrum_*.csv"))
        assert len(spectra) == 2
        table = read_matrix_csv(spectra[0])
        assert table.shape == (256, 4)  # T bins x (freq + 3 nodes)

    def assert_dct_spectra(self, run_dir, k_modes, fs):
        # every spectrum has T rows, the mirror-extended FFT's bins j < T
        # (its bin T is 0), whatever the bundle's config says
        for k in range(1, k_modes + 1):
            mode = read_matrix_csv(run_dir / f"mode_{k}.csv")
            n, t = mode.shape
            ext = np.concatenate([mode, mode[:, ::-1]], axis=1)
            expected = np.abs(np.fft.rfft(ext, axis=1))[:, :t].T
            table = read_matrix_csv(run_dir / f"spectrum_{k}.csv")
            assert table.shape == (t, 1 + n)
            assert np.allclose(table[:, 0], np.arange(t) * fs / (2 * t),
                               rtol=1e-15, atol=0.0)
            assert np.abs(table[:, 1:] - expected).max() <= 1e-12 * expected.max()

    def test_plot_data_values(self, tmp_path, small_signal):
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        assert main(["inspect", "--run", str(run_dir), "--plot-data"]) == 0
        self.assert_dct_spectra(run_dir, 2, 256.0)

    @pytest.mark.parametrize(
        "old_key",
        [None, ("mirror_extend", False), ("normalize_distances", True)],
        ids=["no_key", "old_unmirrored", "old_normalized"],
    )
    def test_plot_data_ignores_old_config_keys(self, tmp_path, small_signal,
                                               old_key):
        # a new bundle's config has none of the keys older versions wrote;
        # a tvgmd-1 bundle of an older version may carry one, such as
        # mirror_extend false for an unmirrored run. Every bundle inspects
        # to DCT-II spectra, T rows each
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        summary = read_summary_json(run_dir)
        assert not {"mirror_extend", "normalize_distances"} & set(
            summary["config"])
        if old_key is not None:
            name, value = old_key
            summary["config"][name] = value
        (run_dir / "summary.json").write_text(json.dumps(summary))
        assert main(["inspect", "--run", str(run_dir), "--plot-data"]) == 0
        self.assert_dct_spectra(run_dir, 2, 256.0)

    def test_plot_data_peak_holds_one_mode_at_a_time(self, tmp_path):
        # inspect analyses every mode before it writes anything, so it
        # holds K power spectra. Each mode's samples are dropped once its
        # coefficients are formed and the coefficients are squared in
        # place into its power, the transform runs over row blocks, each
        # spectrum is written from its power's own buffer, and a mode is
        # read into one matrix after the parser's text is gone: about 6.17
        # mode matrices at the peak (K = 4), reached as the last mode's
        # coefficients are formed. Keeping a mode's samples and
        # coefficients until the next mode is read, a whole-array
        # transform, or a copy of a spectrum for writing (6.45) goes past
        # the bound.
        bound = 6.25
        n, t = 32, 4096
        signal = TimeVaryingGraphSignal(
            samples=np.random.default_rng(0).standard_normal((n, t)),
            sample_rate_hz=256.0,
        )
        config = DecompositionConfig(K=4, alpha=200.0, beta=0.0, max_iter=2)
        write_result(tmp_path, decompose(signal, config), config,
                     sample_rate_hz=256.0, input_sha256="0", timing_ms=0.0)
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["inspect", "--run", str(tmp_path), "--plot-data"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / (n * t * 8) <= bound

    def test_all_zero_mode_has_zero_concentration(self, tmp_path, small_signal,
                                                  capsys):
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        mode_path = run_dir / "mode_1.csv"
        write_matrix_csv(mode_path, np.zeros(read_matrix_csv(mode_path).shape))
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir), "--edges"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        mode_1 = next(row for row in rows if row[:1] == ["1"])
        assert mode_1[2] == "0.0000"

    def test_edges_listing(self, tmp_path, small_signal, capsys):
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        capsys.readouterr()
        assert main(["inspect", "--run", str(run_dir), "--edges"]) == 0
        out = capsys.readouterr().out
        assert "edge 1-2" in out


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_output_files_follow_umask(tmp_path, small_signal, umask, mode):
    previous = os.umask(umask)
    try:
        _, run_dir = run_decompose(tmp_path, small_signal, "--fs", "256")
        _, signal_path = run_synth(tmp_path)
    finally:
        os.umask(previous)
    written = [*run_dir.iterdir(), signal_path, tmp_path / "ground_truth.json"]
    assert len(written) == 7  # 2 modes, 2 adjacencies, summary, synth pair
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


def test_import_does_not_load_scipy():
    # the package runs on numpy alone; importing scipy would also cost
    # most of the start-up time
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, tvgmd.cli, tvgmd.decomposer, tvgmd.io_formats, tvgmd.synth\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )

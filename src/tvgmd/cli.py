"""Command-line front end: synthesize, decompose, inspect.

Exit codes: 0 success (decompose: converged), 3 decompose finished without
converging (results are still written), 1 runtime or validation error,
2 bad flags or usage. The --threads flag (env fallback TVGMD_THREADS) is
validated as an integer >= 0 and otherwise has no effect: nothing reads it
to size a thread pool. All numerical paths use fixed-order reductions, so
results are bit-identical regardless of its value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import DecompositionConfig, OMEGA_INIT_CHOICES
from .decomposer import decompose, decompose_mvmd
from .errors import DegenerateModeError, TvgmdError
from .graph_ops import EdgeIndexing, nodes_from_edge_count
from .io_formats import (
    RunManifest,
    read_adjacency_json,
    read_matrix_csv,
    read_signal_csv,
    read_summary_json,
    sha256_of_file,
    write_json,
    write_matrix_csv,
    write_result,
    write_signal_csv,
)
from .spectral import frequency_grid, mean_frequency, mirror_extend
from .synth import SynthSpec, generate, paper_preset

_PRESETS = ("paper",)


def _threads_from(args) -> int:
    value = args.threads
    if value is None:
        value = os.environ.get("TVGMD_THREADS", "0")
    try:
        threads = int(value)
    except ValueError:
        raise TvgmdError(f"threads must be an integer, got {value!r}") from None
    if threads < 0:
        raise TvgmdError("threads must be >= 0 (0 = all cores)")
    return threads


def _spec_from_json(path: str) -> SynthSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        node_terms = tuple(
            tuple((float(f), float(a)) for f, a in terms)
            for terms in payload["node_terms"]
        )
        return SynthSpec(
            node_terms=node_terms,
            sample_rate_hz=float(payload["sample_rate_hz"]),
            duration_s=float(payload["duration_s"]),
            snr_db=(
                float(payload["snr_db"]) if payload.get("snr_db") is not None else None
            ),
            seed=int(payload.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TvgmdError(f"bad synth spec {path}: {exc}") from exc


def cmd_synth(args) -> int:
    if args.spec:
        spec = _spec_from_json(args.spec)
    else:
        spec = paper_preset()
    if args.snr is not None or args.seed != 0:
        spec = dataclasses.replace(
            spec,
            snr_db=args.snr if args.snr is not None else spec.snr_db,
            seed=args.seed,
        )
    signal, truth = generate(spec)
    out = Path(args.out)
    write_signal_csv(out, signal)
    truth_path = out.parent / "ground_truth.json"
    payload = {
        "sample_rate_hz": spec.sample_rate_hz,
        "duration_s": spec.duration_s,
        "snr_db": spec.snr_db,
        "seed": spec.seed,
        "node_indexing": "0-based CSV row",
        "components": [
            {
                "frequency_hz": freq,
                "active_nodes": list(truth.partitions[freq][0]),
                "silent_nodes": list(truth.partitions[freq][1]),
                "amplitudes": [
                    next((a for f, a in terms if f == freq), 0.0)
                    for terms in spec.node_terms
                ],
            }
            for freq in sorted(truth.components)
        ],
    }
    write_json(truth_path, payload)
    print(
        f"wrote {out} ({signal.n_nodes} nodes x {signal.n_samples} samples "
        f"at {spec.sample_rate_hz:g} Hz) and {truth_path}"
    )
    return 0


def cmd_decompose(args) -> int:
    _threads_from(args)
    if args.k < 1:
        raise TvgmdError("k must be ≥ 1")
    if args.fs <= 0:
        raise TvgmdError("fs must be positive")
    config = DecompositionConfig(
        K=args.k,
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        tau=args.tau,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        omega_init=args.omega_init,
        mirror_extend=not args.no_mirror,
        normalize_distances=args.normalize_distances,
        graph_max_iter=args.graph_max_iter,
        graph_epsilon=args.graph_epsilon,
    )
    signal = read_signal_csv(args.input, args.fs, header=args.header)
    started = time.perf_counter()
    if args.mvmd:
        result = decompose_mvmd(signal, config)
    else:
        result = decompose(signal, config)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    manifest = RunManifest(
        config=config,
        input_sha256=sha256_of_file(args.input),
        center_freqs_hz=result.center_frequencies_hz,
        iterations=result.iterations,
        converged=result.converged,
        timing_ms=elapsed_ms,
        sample_rate_hz=args.fs,
    )
    write_result(args.out, result, manifest)
    for k, mode in enumerate(result.modes, start=1):
        print(f"mode {k}: {mode.center_freq_hz:.4f} Hz")
    status = "converged" if result.converged else "NOT converged"
    print(
        f"{status} after {result.iterations} iterations "
        f"({elapsed_ms:.0f} ms); results in {args.out}"
    )
    return 0 if result.converged else 3


def _mode_paths(run_dir: Path) -> list[Path]:
    paths = []
    k = 1
    while (run_dir / f"mode_{k}.csv").exists():
        paths.append(run_dir / f"mode_{k}.csv")
        k += 1
    return paths


def cmd_inspect(args) -> int:
    run_dir = Path(args.run)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise TvgmdError(f"{run_dir} does not contain summary.json")
    summary = read_summary_json(run_dir)
    try:
        fs = float(summary.get("sample_rate_hz", 0.0))
        centers = summary["center_freqs_hz"]
        mirror = bool(summary["config"]["mirror_extend"])
        converged, iterations = summary["converged"], summary["iterations"]
        # Per-mode graph-solve telemetry; summaries written before it
        # existed, and beta = 0 runs, have none.
        trace = summary.get("trace", [])
        graph_solves = [
            bool(ok) for entry in trace for ok in entry.get("graph_converged", ())
        ]
        newton_steps = sum(sum(entry.get("graph_steps", ())) for entry in trace)
    except KeyError as exc:
        raise TvgmdError(f"summary.json: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise TvgmdError(f"summary.json: {exc}") from None
    mode_paths = _mode_paths(run_dir)
    if not mode_paths:
        raise TvgmdError(f"{run_dir} contains no mode CSVs")

    print(f"run: {run_dir}  converged={converged} iterations={iterations}")
    if graph_solves:
        print(
            f"graph solves: {len(graph_solves)}  newton steps: {newton_steps}"
            f"  missed tolerance: {graph_solves.count(False)}"
        )
    print("mode  center_hz   band_energy  top edges (node pairs, 1-based)")
    for k, path in enumerate(mode_paths, start=1):
        mode = read_matrix_csv(path)
        ext = mirror_extend(mode) if mirror else mode
        magnitudes = np.abs(np.fft.rfft(ext, axis=1))
        power = (magnitudes**2).sum(axis=0)
        grid = frequency_grid(ext.shape[1])
        center_hz = centers[k - 1]
        try:
            center_norm = mean_frequency(power, grid)
        except DegenerateModeError:
            concentration = 0.0
        else:
            halfwidth = max(5, int(0.02 * ext.shape[1]))
            center_bin = int(round(center_norm * ext.shape[1]))
            lo = max(0, center_bin - halfwidth)
            band = power[lo : center_bin + halfwidth + 1]
            concentration = band.sum() / power.sum()
        adjacency = run_dir / f"adjacency_{k}.json"
        weights = read_adjacency_json(adjacency) if adjacency.exists() else None
        if weights is not None:
            idx = EdgeIndexing(nodes_from_edge_count(weights.size))
            top = np.argsort(weights)[::-1][:5]
            edges = ", ".join(
                f"{idx.rows[e] + 1}-{idx.cols[e] + 1}:{weights[e]:.4f}"
                for e in top
                if weights[e] > 0
            )
        else:
            edges = "(no graph)"
        print(f"{k:4d}  {center_hz:9.4f}   {concentration:10.4f}  {edges}")
        if args.edges and weights is not None:
            for e in range(weights.size):
                print(
                    f"      edge {idx.rows[e] + 1}-{idx.cols[e] + 1}: "
                    f"{weights[e]:.17g}"
                )
        if args.plot_data:
            hz = grid * (fs if fs > 0 else 1.0)
            # Column 0: frequency axis in Hz when fs was recoverable,
            # otherwise normalized; columns 1..N: per-node magnitudes.
            table = np.column_stack([hz, magnitudes.T])
            write_matrix_csv(run_dir / f"spectrum_{k}.csv", table)
    if args.plot_data:
        print(f"wrote {len(mode_paths)} spectrum CSVs to {run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvgmd",
        description=(
            "Decompose multivariate time series into band-limited graph "
            "modes with learned per-mode connectivity."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic test signal")
    group = p_synth.add_mutually_exclusive_group()
    group.add_argument(
        "--preset", choices=_PRESETS, default="paper",
        help="built-in signal recipe (default: paper)",
    )
    group.add_argument("--spec", help="path to a SynthSpec JSON file")
    p_synth.add_argument("--snr", type=float, default=None,
                         help="per-node SNR in dB (default: no noise)")
    p_synth.add_argument("--seed", type=int, default=0,
                         help="noise seed (default: 0)")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=cmd_synth)

    p_dec = sub.add_parser("decompose", help="run the decomposition")
    p_dec.add_argument("--input", required=True, help="signal CSV, one node per row")
    p_dec.add_argument("--fs", type=float, required=True,
                       help="sampling rate of the input in Hz")
    p_dec.add_argument("--header", action="store_true", default=False,
                       help="input CSV has a header line and label column")
    p_dec.add_argument("--k", type=int, required=True, help="number of modes")
    p_dec.add_argument("--alpha", type=float, default=1000.0,
                       help="bandwidth penalty (default: 1000)")
    p_dec.add_argument("--beta", type=float, default=0.1,
                       help="graph smoothness weight, 0 disables graphs "
                            "(default: 0.1)")
    p_dec.add_argument("--gamma", type=float, default=1.0,
                       help="edge-weight magnitude penalty (default: 1)")
    p_dec.add_argument("--tau", type=float, default=0.0,
                       help="dual ascent step; 0 tolerates noise (default: 0)")
    p_dec.add_argument("--epsilon", type=float, default=1e-7,
                       help="convergence tolerance (default: 1e-7)")
    p_dec.add_argument("--max-iter", type=int, default=500,
                       help="iteration cap (default: 500)")
    p_dec.add_argument("--omega-init", choices=OMEGA_INIT_CHOICES,
                       default="zeros",
                       help="center-frequency initialization (default: zeros)")
    p_dec.add_argument("--no-mirror", action="store_true", default=False,
                       help="disable boundary mirroring")
    p_dec.add_argument("--normalize-distances", action="store_true",
                       default=False,
                       help="divide pairwise distances by their mean")
    p_dec.add_argument("--graph-max-iter", type=int, default=2000,
                       help="cap on graph learner Newton steps per solve "
                            "(default: 2000)")
    p_dec.add_argument("--graph-epsilon", type=float, default=1e-5,
                       help="graph learner KKT residual tolerance, relative "
                            "to max(1, largest weight) (default: 1e-5)")
    p_dec.add_argument("--mvmd", action="store_true", default=False,
                       help="baseline without graph learning (beta = 0)")
    p_dec.add_argument("--threads", default=None,
                       help="validated (integer >= 0) but has no effect "
                            "(default: TVGMD_THREADS or 0)")
    p_dec.add_argument("--out", required=True, help="output directory")
    p_dec.set_defaults(func=cmd_decompose)

    p_ins = sub.add_parser("inspect", help="summarize a completed run")
    p_ins.add_argument("--run", required=True, help="run directory")
    p_ins.add_argument("--edges", action="store_true", default=False,
                       help="print the full edge-weight list per mode")
    p_ins.add_argument("--plot-data", action="store_true", default=False,
                       help="write per-mode spectrum CSVs for plotting")
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TvgmdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

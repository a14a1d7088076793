"""Command-line front end: synthesize, decompose, inspect.

Exit codes: 0 success (decompose: converged), 3 decompose finished without
converging (results are still written), 1 runtime or validation error,
2 bad flags or usage.

``inspect --plot-data`` writes each mode's spectrum as the magnitudes of
the coefficients the decomposition itself uses, the DCT-II of
:func:`~tvgmd.spectral.to_coefficients`: T rows, one per bin of the
mirror-extended series, for every bundle, whatever its summary's config
says (bundles of older versions may carry a ``mirror_extend`` key, which
is not read). It writes ``spectrum_k.csv`` only for the modes the summary
lists and, like ``decompose`` with ``mode_k.csv`` and
``adjacency_k.json``, deletes nothing, so an earlier run's
``spectrum_k.csv`` for a mode the bundle lacks stays in the directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import DecompositionConfig
from .decomposer import decompose
from .errors import TvgmdError
from .graph_ops import edge_pairs, nodes_from_edge_count
from .io_formats import (
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
from .spectral import mean_frequency, to_coefficients
from .synth import SynthSpec, generate, paper_preset


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
            seed=payload.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TvgmdError(f"bad synth spec {path}: {exc}") from exc


def cmd_synth(args) -> int:
    if args.spec:
        spec = _spec_from_json(args.spec)
    else:
        spec = paper_preset()
    overrides = {"snr_db": args.snr, "seed": args.seed}
    spec = dataclasses.replace(
        spec, **{name: v for name, v in overrides.items() if v is not None})
    try:
        signal, truth = generate(spec)
    except MemoryError:
        raise TvgmdError(f"{len(spec.node_terms)} x {spec.n_samples} samples "
                         "do not fit in memory") from None
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
                # cos(0) = 1: column 0 holds each node's summed amplitude
                "amplitudes": truth.components[freq][:, 0].tolist(),
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
    if not (math.isfinite(args.fs) and args.fs > 0):
        raise TvgmdError("fs must be finite and positive")
    if args.mvmd:
        args.beta = 0.0
    # Each flag's dest is the name of the config field it sets.
    config = DecompositionConfig(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(DecompositionConfig)
    })
    signal = read_signal_csv(args.input, args.fs, header=args.header)
    started = time.perf_counter()
    result = decompose(signal, config)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    write_result(
        args.out, result, config,
        sample_rate_hz=args.fs,
        input_sha256=sha256_of_file(args.input),
        timing_ms=elapsed_ms,
    )
    for k, mode in enumerate(result.modes, start=1):
        print(f"mode {k}: {mode.center_freq_hz:.4f} Hz")
    status = "converged" if result.converged else "NOT converged"
    print(
        f"{status} after {result.iterations} iterations "
        f"({elapsed_ms:.0f} ms); results in {args.out}"
    )
    return 0 if result.converged else 3


def cmd_inspect(args) -> int:
    run_dir = Path(args.run)
    summary_path = run_dir / "summary.json"
    if not summary_path.exists():
        raise TvgmdError(f"{run_dir} does not contain summary.json")
    # The summary alone says which modes and graphs the bundle holds.
    summary = read_summary_json(run_dir)
    try:
        fs = float(summary["sample_rate_hz"])
        centers = [float(hz) for hz in summary["center_freqs_hz"]]
        has_graphs = not summary["mvmd_baseline"]
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
    if not centers:
        raise TvgmdError("summary.json lists no modes")
    # First pass: read and analyse every listed file, so a missing or
    # corrupt one fails the command before it prints or writes anything.
    analyses = []
    for k, center_hz in enumerate(centers, start=1):
        try:
            mode = read_matrix_csv(run_dir / f"mode_{k}.csv")
            weights = (
                read_adjacency_json(run_dir / f"adjacency_{k}.json")
                if has_graphs else None
            )
        except FileNotFoundError as exc:
            missing = f"{run_dir} lacks {Path(exc.filename).name}"
            raise TvgmdError(f"{missing}, listed in summary.json") from None
        t_ext = 2 * mode.shape[1]
        coefficients, grid, _ = to_coefficients(mode)
        del mode  # only the power is kept, squared in place
        node_power = np.square(coefficients, out=coefficients)
        power = node_power.sum(axis=0)
        center_norm, empty = mean_frequency(power, grid)
        if empty:
            concentration = 0.0
        else:
            halfwidth = max(5, int(0.02 * t_ext))
            center_bin = int(round(center_norm * t_ext))
            lo = max(0, center_bin - halfwidth)
            band = power[lo : center_bin + halfwidth + 1]
            concentration = band.sum() / power.sum()
        analyses.append((k, center_hz, concentration, node_power, grid, weights))

    # Second pass: print, and write the spectra.
    print(f"run: {run_dir}  converged={converged} iterations={iterations}")
    if graph_solves:
        print(
            f"graph solves: {len(graph_solves)}  newton steps: {newton_steps}"
            f"  missed tolerance: {graph_solves.count(False)}"
        )
    print("mode  center_hz   band_energy  top edges (node pairs, 1-based)")
    for k, center_hz, concentration, node_power, grid, weights in analyses:
        if has_graphs:
            rows, cols = edge_pairs(nodes_from_edge_count(weights.size))
            top = np.argsort(weights)[::-1][:5]
            edges = ", ".join(
                f"{rows[e] + 1}-{cols[e] + 1}:{weights[e]:.4f}"
                for e in top
                if weights[e] > 0
            )
        else:
            edges = "(no graph)"
        print(f"{k:4d}  {center_hz:9.4f}   {concentration:10.4f}  {edges}")
        if args.edges and has_graphs:
            for e in range(weights.size):
                print(
                    f"      edge {rows[e] + 1}-{cols[e] + 1}: "
                    f"{weights[e]:.17g}"
                )
        if args.plot_data:
            # Column 0: frequency in Hz; columns 1..N: per-node magnitudes,
            # formed in the power's own buffer and written row by row.
            write_matrix_csv(
                run_dir / f"spectrum_{k}.csv",
                np.sqrt(node_power, out=node_power).T,
                first_column=grid * fs,
            )
    if args.plot_data:
        print(f"wrote {len(centers)} spectrum CSVs to {run_dir}")
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
    p_synth.add_argument("--spec", help="path to a SynthSpec JSON file "
                                        "(default: the paper preset)")
    p_synth.add_argument("--snr", type=float, default=None,
                         help="per-node SNR in dB; pass -1e1 as --snr=-1e1 "
                              "(default: no noise)")
    p_synth.add_argument("--seed", type=int, default=None,
                         help="noise seed (default: the spec's, 0 for the preset)")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=cmd_synth)

    p_dec = sub.add_parser("decompose", help="run the decomposition")
    # The library's defaults; K and alpha have none, so --alpha's is the CLI's.
    defaults = DecompositionConfig(K=1, alpha=1000.0)
    p_dec.add_argument("--input", required=True, help="signal CSV, one node per row")
    p_dec.add_argument("--fs", type=float, required=True,
                       help="sampling rate of the input in Hz")
    p_dec.add_argument("--header", action="store_true", default=False,
                       help="input CSV has a header line and label column")
    p_dec.add_argument("--k", dest="K", type=int, required=True,
                       help="number of modes")
    p_dec.add_argument("--alpha", type=float, default=defaults.alpha,
                       help="bandwidth penalty (default: %(default)s)")
    p_dec.add_argument("--beta", type=float, default=defaults.beta,
                       help="graph smoothness weight, 0 disables graphs "
                            "(default: %(default)s)")
    p_dec.add_argument("--gamma", type=float, default=defaults.gamma,
                       help="edge-weight magnitude penalty (default: %(default)s)")
    p_dec.add_argument("--tau", type=float, default=defaults.tau,
                       help="dual ascent step; 0 tolerates noise "
                            "(default: %(default)s)")
    p_dec.add_argument("--epsilon", type=float, default=defaults.epsilon,
                       help="convergence tolerance on the summed per-mode "
                            "relative change (default: %(default)s)")
    p_dec.add_argument("--max-iter", type=int, default=defaults.max_iter,
                       help="iteration cap (default: %(default)s)")
    p_dec.add_argument("--mvmd", action="store_true", default=False,
                       help="baseline without graph learning (beta = 0)")
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
    except (TvgmdError, OSError, MemoryError) as exc:
        # a bare MemoryError carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""File formats: signal/mode CSVs, per-mode adjacency JSON, run summaries.

CSV dialect: comma separator, LF line endings, UTF-8, no quoting, one node
per row, values printed with 17 significant digits so read-after-write is
lossless for doubles. JSON files are UTF-8 with the keys documented below.
All writes go through a temp file in the target directory followed by an
atomic rename, so a crashed run never leaves a truncated file behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import DecompositionConfig, DecompositionResult, TimeVaryingGraphSignal
from .errors import EmptyFileError, SignalParseError
from .graph_ops import nodes_from_edge_count

FORMAT_VERSION = "tvgmd-1"
EDGE_ORDER = "upper-triangular-row-major"


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record: together with the input file this pins a run."""

    config: DecompositionConfig
    input_sha256: str
    center_freqs_hz: tuple[float, ...]
    iterations: int
    converged: bool
    timing_ms: float
    sample_rate_hz: float
    format_version: str = FORMAT_VERSION


def sha256_of_file(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_matrix_csv(matrix: np.ndarray) -> str:
    """One line per row, each value as ``%.17g``; one ``%`` per row."""
    row_format = ",".join(["%.17g"] * matrix.shape[1])
    return "\n".join(row_format % tuple(row) for row in matrix.tolist()) + "\n"


def write_matrix_csv(path: str | os.PathLike, matrix: np.ndarray) -> Path:
    path = Path(path)
    _atomic_write_text(path, format_matrix_csv(np.asarray(matrix, dtype=float)))
    return path


def write_signal_csv(
    path: str | os.PathLike, signal: TimeVaryingGraphSignal
) -> Path:
    return write_matrix_csv(path, signal.samples)


def read_matrix_csv(path: str | os.PathLike, header: bool = False) -> np.ndarray:
    """Parse a node-per-row CSV into a float matrix.

    With ``header=True`` the first line and the first column are treated
    as labels and skipped. Raises :class:`SignalParseError` naming the
    offending 1-based line on ragged rows or non-numeric cells, and
    :class:`EmptyFileError` when no data rows remain.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if header and lineno == 1:
                continue
            if line == "":
                continue
            cells = line.split(",")
            if header:
                cells = cells[1:]
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


def read_signal_csv(
    path: str | os.PathLike, sample_rate_hz: float, header: bool = False
) -> TimeVaryingGraphSignal:
    return TimeVaryingGraphSignal(
        samples=read_matrix_csv(path, header=header),
        sample_rate_hz=sample_rate_hz,
    )


def write_adjacency_json(
    path: str | os.PathLike, weights: np.ndarray
) -> Path:
    path = Path(path)
    weights = np.asarray(weights, dtype=float)
    payload = {
        "n_nodes": nodes_from_edge_count(weights.size),
        "edge_order": EDGE_ORDER,
        "weights": weights.tolist(),
    }
    _atomic_write_text(path, json.dumps(payload, indent=1) + "\n")
    return path


def read_adjacency_json(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("edge_order") != EDGE_ORDER:
        raise SignalParseError(
            f"{Path(path).name}: unknown edge order {payload.get('edge_order')!r}"
        )
    weights = np.asarray(payload["weights"], dtype=float)
    if nodes_from_edge_count(weights.size) != payload["n_nodes"]:
        raise SignalParseError(
            f"{Path(path).name}: weight count does not match n_nodes"
        )
    return weights


def write_result(
    out_dir: str | os.PathLike,
    result: DecompositionResult,
    manifest: RunManifest,
) -> list[Path]:
    """Write the full run bundle into ``out_dir``.

    Produces ``mode_k.csv`` for k = 1..K, ``adjacency_k.json`` per mode
    when graph learning was active, and ``summary.json`` last, so an
    existing summary always refers to a complete bundle.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    mvmd_baseline = all(m.edge_weights.size == 0 for m in result.modes)
    for k, mode in enumerate(result.modes, start=1):
        written.append(
            write_matrix_csv(out_dir / f"mode_{k}.csv", mode.mode_samples)
        )
        if mode.edge_weights.size:
            written.append(
                write_adjacency_json(
                    out_dir / f"adjacency_{k}.json", mode.edge_weights
                )
            )
    summary = {
        "format_version": manifest.format_version,
        "config": asdict(manifest.config),
        "sample_rate_hz": manifest.sample_rate_hz,
        "input_sha256": manifest.input_sha256,
        "center_freqs_hz": list(manifest.center_freqs_hz),
        "iterations": manifest.iterations,
        "converged": manifest.converged,
        "timing_ms": manifest.timing_ms,
        "mvmd_baseline": mvmd_baseline,
        "residual_fro": float(np.linalg.norm(result.residual)),
        "trace": [
            {
                "iteration": s.iteration,
                "rel_change": s.rel_change,
                "omegas": list(s.omegas),
                "objective": s.objective if math.isfinite(s.objective) else None,
            }
            for s in result.trace
        ],
    }
    summary_path = out_dir / "summary.json"
    _atomic_write_text(summary_path, json.dumps(summary, indent=1) + "\n")
    written.append(summary_path)
    return written


def read_summary_json(run_dir: str | os.PathLike) -> dict:
    """Parse ``summary.json``; raises :class:`SignalParseError` when it is
    not a JSON object."""
    with open(Path(run_dir) / "summary.json", "r", encoding="utf-8") as handle:
        try:
            summary = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SignalParseError(f"summary.json: {exc}") from None
    if not isinstance(summary, dict):
        raise SignalParseError("summary.json: not a JSON object")
    return summary

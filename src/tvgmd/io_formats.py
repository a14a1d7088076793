"""File formats: signal/mode CSVs, per-mode adjacency JSON, run summaries.

CSV dialect: comma separator, LF line endings, UTF-8, no quoting, one node
per row, values printed with 17 significant digits so read-after-write is
lossless for doubles. A row is formatted by one ``%`` and streamed into
the temp file as it is formatted, so writing a matrix never holds its
whole text. A row is parsed by one numpy call that reads each cell as
Python ``float()`` does; only a row that fails to parse is walked cell by
cell to name the bad cell. JSON files are UTF-8 with the keys documented
below; a file that is not valid UTF-8, not JSON or missing a key raises
:class:`SignalParseError` naming it. All writes go through one temp file
in the target directory followed by an atomic rename (:func:`write_json`
for JSON), so a crashed run never leaves a truncated file behind; the
files get the mode the umask gives any new file (0644 under umask 022).

A run bundle is written by ``write_result(out_dir, result, config, *,
sample_rate_hz, input_sha256, timing_ms)``: one ``mode_k.csv`` per mode,
one ``adjacency_k.json`` per mode when graphs were learned, and then
``summary.json``, the index that says which of those files the run has.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .core import DecompositionConfig, DecompositionResult, TimeVaryingGraphSignal
from .errors import EmptyFileError, SignalParseError
from .graph_ops import nodes_from_edge_count

FORMAT_VERSION = "tvgmd-1"
EDGE_ORDER = "upper-triangular-row-major"


def sha256_of_file(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path: Path, pieces: Iterable[str]) -> None:
    """Write the concatenated ``pieces`` to ``path`` through a temp file in
    the same directory and an atomic rename."""
    # Opened with mode 0666 so the umask applies as for any new file
    # (tempfile.mkstemp would force 0600); os.replace keeps the mode.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
        try:
            fd = os.open(tmp, flags, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_matrix_csv(
    matrix: np.ndarray, first_column: np.ndarray | None = None
) -> Iterator[str]:
    """The CSV text of ``matrix``, one line per row: each value as
    ``%.17g``, one ``%`` per row, after row i's ``first_column[i]`` when
    given. A matrix without rows gives one empty line."""
    if first_column is None:
        prefixes = itertools.repeat(())
    else:
        prefixes = ((value,) for value in first_column.tolist())
    columns = matrix.shape[1] + (first_column is not None)
    row_format = ",".join(["%.17g"] * columns) + "\n"
    if len(matrix) == 0:
        yield "\n"
    for prefix, row in zip(prefixes, matrix):
        yield row_format % (*prefix, *row.tolist())


def write_matrix_csv(
    path: str | os.PathLike, matrix: np.ndarray,
    first_column: np.ndarray | None = None,
) -> Path:
    """Write ``matrix`` as CSV (:func:`format_matrix_csv`); a float matrix
    is not copied, even a strided view such as a transpose."""
    path = Path(path)
    _atomic_write(path, format_matrix_csv(
        np.asarray(matrix, dtype=float), first_column))
    return path


def write_signal_csv(
    path: str | os.PathLike, signal: TimeVaryingGraphSignal
) -> Path:
    return write_matrix_csv(path, signal.samples)


def _parse_rows(handle, name: str, header: bool) -> Iterator[np.ndarray]:
    """Yield each data row of an open CSV as a float array; see
    :func:`read_matrix_csv` for the format and the errors."""
    width: int | None = None
    for lineno, raw in enumerate(handle, start=1):
        line = raw.rstrip("\r\n")
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise SignalParseError(
                    f"{name}, line {lineno}: not valid UTF-8"
                ) from None
        if header and lineno == 1:
            continue
        if line == "":
            continue
        cells = line.split(",")
        if header:
            cells = cells[1:]
        try:
            parsed = np.array(cells, dtype=float)
        except ValueError:
            for cell in cells:  # name the first cell float() rejects
                try:
                    float(cell)
                except ValueError:
                    raise SignalParseError(
                        f"{name}, line {lineno}: non-numeric cell {cell!r}"
                    ) from None
            raise
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise SignalParseError(
                f"{name}, line {lineno}: expected {width} columns, "
                f"got {len(cells)}"
            )
        yield parsed


def read_matrix_csv(path: str | os.PathLike, header: bool = False) -> np.ndarray:
    """Parse a node-per-row CSV into a float matrix.

    Each cell is read as Python ``float()`` reads it; one numpy call parses
    a whole row. With ``header=True`` the first line and the first column
    are treated as labels and skipped. Raises :class:`SignalParseError`
    naming the offending 1-based line on bytes that are not UTF-8, ragged
    rows or non-numeric cells, and :class:`EmptyFileError` when no data
    rows remain.
    """
    path = Path(path)
    # surrogateescape splits lines exactly as strict decoding does, and
    # turns each undecodable byte into a lone surrogate that only the line
    # holding it fails to encode back.
    with open(
        path, "r", encoding="utf-8", newline="", errors="surrogateescape"
    ) as handle:
        rows = list(_parse_rows(handle, path.name, header))
    if not rows:
        raise EmptyFileError(f"{path.name}: no data rows")
    # The last line's text went with the parser's frame, and each row is
    # dropped once copied, so no more than the rows and the matrix are
    # ever held.
    matrix = np.empty((len(rows), rows[0].size))
    for i in range(len(rows)):
        matrix[i], rows[i] = rows[i], None
    return matrix


def read_signal_csv(
    path: str | os.PathLike, sample_rate_hz: float, header: bool = False
) -> TimeVaryingGraphSignal:
    samples = read_matrix_csv(path, header=header)
    samples.flags.writeable = False  # so the signal shares it
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=sample_rate_hz)


def write_json(path: str | os.PathLike, payload) -> Path:
    """Write ``payload`` as indented JSON, atomically."""
    path = Path(path)
    _atomic_write(path, [json.dumps(payload, indent=1), "\n"])
    return path


def _read_json_object(path: Path) -> dict:
    """Parse a JSON object; raises :class:`SignalParseError` naming the
    file when it is not UTF-8, not JSON or not an object."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise SignalParseError(f"{path.name}: {exc}") from None
    if not isinstance(payload, dict):
        raise SignalParseError(f"{path.name}: not a JSON object")
    return payload


def write_adjacency_json(
    path: str | os.PathLike, weights: np.ndarray
) -> Path:
    weights = np.asarray(weights, dtype=float)
    return write_json(path, {
        "n_nodes": nodes_from_edge_count(weights.size),
        "edge_order": EDGE_ORDER,
        "weights": weights.tolist(),
    })


def read_adjacency_json(path: str | os.PathLike) -> np.ndarray:
    """Edge weights of an ``adjacency_k.json``; raises
    :class:`SignalParseError` naming the file when it is malformed."""
    path = Path(path)
    payload = _read_json_object(path)
    if payload.get("edge_order") != EDGE_ORDER:
        raise SignalParseError(
            f"{path.name}: unknown edge order {payload.get('edge_order')!r}"
        )
    try:
        weights = np.asarray(payload["weights"], dtype=float)
        n_nodes = payload["n_nodes"]
    except KeyError as exc:
        raise SignalParseError(f"{path.name}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SignalParseError(f"{path.name}: bad weights: {exc}") from None
    if nodes_from_edge_count(weights.size) != n_nodes:
        raise SignalParseError(f"{path.name}: weight count does not match n_nodes")
    return weights


def write_result(
    out_dir: str | os.PathLike,
    result: DecompositionResult,
    config: DecompositionConfig,
    *,
    sample_rate_hz: float,
    input_sha256: str,
    timing_ms: float,
) -> list[Path]:
    """Write the full run bundle into ``out_dir``.

    Produces ``mode_k.csv`` for k = 1..K, ``adjacency_k.json`` per mode
    when graph learning was active, and ``summary.json`` last, so an
    existing summary always refers to a complete bundle. It is the
    bundle's index: ``center_freqs_hz`` gives K and ``mvmd_baseline``
    says whether adjacency files belong to the run; files an earlier run
    left in ``out_dir`` stay and are not listed. ``config``,
    ``sample_rate_hz`` and ``input_sha256`` pin the run together with the
    input file, and ``timing_ms`` is its wall time. Each trace entry
    carries ``iteration``, ``rel_change``, ``omegas``, ``objective`` (null
    when infinite) and the per-mode ``graph_steps`` and
    ``graph_converged`` of that iteration's graph solves (empty lists
    when graph learning was off).
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
        "format_version": FORMAT_VERSION,
        "config": asdict(config),
        "sample_rate_hz": sample_rate_hz,
        "input_sha256": input_sha256,
        "center_freqs_hz": list(result.center_frequencies_hz),
        "iterations": result.iterations,
        "converged": result.converged,
        "timing_ms": timing_ms,
        "mvmd_baseline": mvmd_baseline,
        "residual_fro": float(np.linalg.norm(result.residual)),
        "trace": [
            {
                "iteration": s.iteration,
                "rel_change": s.rel_change,
                "omegas": list(s.omegas),
                "objective": s.objective if math.isfinite(s.objective) else None,
                "graph_steps": list(s.graph_steps),
                "graph_converged": list(s.graph_converged),
            }
            for s in result.trace
        ],
    }
    written.append(write_json(out_dir / "summary.json", summary))
    return written


def read_summary_json(run_dir: str | os.PathLike) -> dict:
    """Parse ``summary.json``; raises :class:`SignalParseError` when it is
    not a JSON object."""
    return _read_json_object(Path(run_dir) / "summary.json")

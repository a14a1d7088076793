"""Span tracing from outside the program: wrappers on module attributes.

``decomposer`` and ``cli`` import their collaborators by name
(``from .graph_learner import learn_graph_batch``), so a wrapper has to
replace the attribute on the *calling* module, e.g.
``tvgmd.decomposer.learn_graph_batch``. Each target below names the
module attribute that is replaced and the layer metric it feeds.

Every wrapped call is one span. Spans nest through a stack: a closing
span adds its duration to its parent's child time, so a span's self time
is its duration minus the time its wrapped children took. A target whose
attribute no longer exists is recorded as absent instead of failing, so a
refactor that moves a kernel degrades the trace rather than breaking it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_learner(counts: Counter, args, kwargs, result) -> None:
    _weights, iters, converged = result
    counts["graph_learner.problems"] += int(iters.size)
    counts["graph_learner.inner_iters"] += int(iters.sum())
    counts["graph_learner.capped"] += int((~converged).sum())
    counts["graph_learner.converged"] += int(converged.sum())
    # The batch runs until its slowest problem stops: that many sweeps.
    counts["graph_learner.sweeps"] += int(iters.max()) if iters.size else 0


def _count_decompose(counts: Counter, args, kwargs, result) -> None:
    counts["decomposer.iterations"] += result.iterations
    counts["decomposer.converged"] += int(result.converged)
    counts["decomposer.runs"] += 1


def _count_read_arg(counts: Counter, args, kwargs, result) -> None:
    counts["io_formats.bytes_read"] += _file_size(args[0])


def _count_read_summary(counts: Counter, args, kwargs, result) -> None:
    counts["io_formats.bytes_read"] += _file_size(Path(args[0]) / "summary.json")


def _count_written_paths(counts: Counter, args, kwargs, result) -> None:
    counts["io_formats.bytes_written"] += sum(_file_size(p) for p in result)


def _count_written_path(counts: Counter, args, kwargs, result) -> None:
    counts["io_formats.bytes_written"] += _file_size(result)


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap.

    ``key`` is the (layer, function) pair the span is booked under; several
    targets may share a key when the same function is reached through more
    than one importing module. ``count`` reads counts off the call's
    arguments and return value.
    """

    module: str
    attr: str
    key: tuple[str, str]
    count: Callable | None = None


_SPECTRAL = ("wiener_weights", "mean_frequency", "mirror_extend", "crop_mirrored")

# Function names the decomposer and the CLI reach through their own module
# namespace, booked under the layer that implements them.
JOB_TARGETS: tuple[Target, ...] = tuple(
    [
        Target("tvgmd.decomposer", "decompose", ("decomposer", "decompose"),
               _count_decompose),
        Target("tvgmd.cli", "decompose", ("decomposer", "decompose"),
               _count_decompose),
        Target("tvgmd.cli", "decompose_mvmd", ("decomposer", "decompose_mvmd")),
        Target("tvgmd.decomposer", "learn_graph_batch",
               ("graph_learner", "learn_graph_batch"), _count_learner),
        Target("tvgmd.decomposer", "objective_value", ("core", "objective_value")),
    ]
    + [Target("tvgmd.decomposer", name, ("spectral", name)) for name in _SPECTRAL]
    + [
        Target(module, "mirror_extend", ("spectral", "mirror_extend"))
        for module in ("tvgmd.core", "tvgmd.cli")
    ]
    + [
        Target("tvgmd.decomposer", name, ("graph_ops", name))
        for name in ("densify", "geodesic_update")
    ]
    + [
        Target(module, "pairwise_distances", ("graph_ops", "pairwise_distances"))
        for module in ("tvgmd.decomposer", "tvgmd.core")
    ]
    + [
        Target("tvgmd.cli", "main", ("cli", "main")),
        Target("tvgmd.cli", "cmd_decompose", ("cli", "decompose")),
        Target("tvgmd.cli", "cmd_inspect", ("cli", "inspect")),
        Target("tvgmd.cli", "write_result", ("io_formats", "write_result"),
               _count_written_paths),
        Target("tvgmd.cli", "read_signal_csv", ("io_formats", "read_signal_csv")),
        Target("tvgmd.io_formats", "read_matrix_csv",
               ("io_formats", "read_matrix_csv"), _count_read_arg),
        Target("tvgmd.cli", "read_matrix_csv", ("io_formats", "read_matrix_csv"),
               _count_read_arg),
        Target("tvgmd.cli", "sha256_of_file", ("io_formats", "sha256_of_file"),
               _count_read_arg),
        Target("tvgmd.cli", "read_summary_json", ("io_formats", "read_summary_json"),
               _count_read_summary),
        Target("tvgmd.io_formats", "write_matrix_csv",
               ("io_formats", "write_matrix_csv")),
        Target("tvgmd.cli", "write_matrix_csv", ("io_formats", "write_matrix_csv"),
               _count_written_path),
    ]
)

SETUP_TARGETS: tuple[Target, ...] = (
    Target("tvgmd.synth", "generate", ("synth", "generate")),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Wraps a set of targets while active and accumulates their spans."""

    targets: tuple[Target, ...]
    stats: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    absent: set = field(default_factory=set)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module = importlib.import_module(target.module)
            original = getattr(module, target.attr, None)
            if original is None:
                self.absent.add(f"{target.module}.{target.attr}")
                continue
            self._saved.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(target, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stats = self.stats.setdefault(target.key, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child[0]
            if target.count is not None:
                target.count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def span(self, layer: str, name: str) -> SpanStats:
        return self.stats.get((layer, name), SpanStats())

    def layer(self, layer: str) -> SpanStats:
        total = SpanStats()
        for (span_layer, _), stats in self.stats.items():
            if span_layer == layer:
                total.calls += stats.calls
                total.total_s += stats.total_s
                total.self_s += stats.self_s
        return total

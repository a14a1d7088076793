"""Domain types and self-checking configuration.

All containers are immutable after construction and safe to share across
threads; arrays are copied in and marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionsError,
    BadParameterError,
    DimensionMismatchError,
    NonFiniteInputError,
)
from .graph_ops import n_edges

OMEGA_INIT_CHOICES = ("zeros", "uniform", "peaks")
_FLOAT_FIELDS = ("alpha", "beta", "gamma", "tau", "epsilon", "graph_epsilon")


def _frozen_array(value, dtype=float) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeVaryingGraphSignal:
    """An N x T sample matrix, one node's time series per row, plus its
    sampling rate in samples per second."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = _frozen_array(self.samples)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2:
            raise BadDimensionsError("samples must be a 2-D (nodes x time) matrix")
        if not (np.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise BadParameterError("sample_rate_hz must be finite and positive")

    @property
    def n_nodes(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class DecompositionConfig:
    """Knobs of the decomposition.

    K is the number of modes; ``alpha`` trades mode bandwidth against data
    fidelity (larger = narrower modes); ``beta`` weights graph smoothness
    (0 disables all graph machinery); ``gamma`` penalizes large edge
    weights in the learned graphs; ``tau`` is the dual ascent step that
    enforces exact reconstruction (0 leaves slack for noise).
    ``graph_max_iter`` caps the Newton steps of each graph solve and
    ``graph_epsilon`` is its KKT residual tolerance, relative to
    ``max(1, largest weight)``; a run in which any graph solve misses it
    reports ``converged=False``. ``beta = 0`` is the multivariate mode
    decomposition baseline.

    A config checks itself when built: every float field must be finite,
    and any value outside its range raises :class:`BadParameterError`.
    """

    K: int
    alpha: float
    beta: float = 0.1
    gamma: float = 1.0
    tau: float = 0.0
    epsilon: float = 1e-7
    max_iter: int = 500
    omega_init: str = "zeros"
    mirror_extend: bool = True
    normalize_distances: bool = False
    graph_max_iter: int = 2000
    graph_epsilon: float = 1e-5

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            if not np.isfinite(getattr(self, name)):
                raise BadParameterError(f"{name} must be finite")
        if self.K < 1:
            raise BadParameterError("K must be >= 1")
        if not self.alpha > 0:
            raise BadParameterError("alpha must be positive")
        if self.beta < 0:
            raise BadParameterError("beta must be nonnegative")
        if self.gamma < 0:
            raise BadParameterError("gamma must be nonnegative")
        if self.beta > 0 and not self.gamma > 0:
            raise BadParameterError("gamma must be positive when beta > 0")
        if self.tau < 0:
            raise BadParameterError("tau must be nonnegative")
        if not self.epsilon > 0:
            raise BadParameterError("epsilon must be positive")
        if self.max_iter < 1:
            raise BadParameterError("max_iter must be >= 1")
        if self.omega_init not in OMEGA_INIT_CHOICES:
            raise BadParameterError(
                f"omega_init must be one of {OMEGA_INIT_CHOICES}"
            )
        if self.graph_max_iter < 1:
            raise BadParameterError("graph_max_iter must be >= 1")
        if not self.graph_epsilon > 0:
            raise BadParameterError("graph_epsilon must be positive")


@dataclass(frozen=True)
class GraphMode:
    """One extracted mode: its N x T time series, center frequency in Hz,
    and the learned edge weights (empty when graph learning was off)."""

    mode_samples: np.ndarray
    center_freq_hz: float
    edge_weights: np.ndarray

    def __post_init__(self):
        samples = _frozen_array(self.mode_samples)
        weights = _frozen_array(self.edge_weights)
        object.__setattr__(self, "mode_samples", samples)
        object.__setattr__(self, "edge_weights", weights)
        if samples.ndim != 2:
            raise BadDimensionsError("mode_samples must be 2-D")
        if not np.all(np.isfinite(samples)):
            raise NonFiniteInputError("mode_samples contains non-finite entries")
        if self.center_freq_hz < 0:
            raise BadParameterError("center_freq_hz must be nonnegative")
        if weights.size:
            if weights.ndim != 1 or weights.size != n_edges(samples.shape[0]):
                raise DimensionMismatchError(
                    "edge_weights length must be N(N-1)/2"
                )
            if not np.all(np.isfinite(weights)):
                raise NonFiniteInputError("edge_weights contains non-finite entries")
            if np.any(weights < 0):
                raise BadParameterError("edge_weights must be nonnegative")


@dataclass(frozen=True)
class IterationSnapshot:
    """Per-iteration diagnostics recorded by the decomposition loop.

    ``omegas``, ``graph_steps`` and ``graph_converged`` are in the loop's
    mode order. ``graph_steps`` holds the Newton steps each mode's graph
    solve took and ``graph_converged`` whether it met its tolerance; both
    are empty when graph learning is off.
    """

    iteration: int
    rel_change: float
    omegas: tuple[float, ...]
    objective: float
    graph_steps: tuple[int, ...] = ()
    graph_converged: tuple[bool, ...] = ()


@dataclass(frozen=True)
class DecompositionResult:
    """Everything a decomposition run produced.

    ``modes`` are sorted by ascending center frequency. The residual is
    defined as input minus the mode sum, so the three always add up exactly.
    """

    modes: tuple[GraphMode, ...]
    residual: np.ndarray
    iterations: int
    converged: bool
    trace: tuple[IterationSnapshot, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        object.__setattr__(self, "residual", _frozen_array(self.residual))
        object.__setattr__(self, "trace", tuple(self.trace))

    @property
    def center_frequencies_hz(self) -> tuple[float, ...]:
        return tuple(m.center_freq_hz for m in self.modes)


"""Domain types and self-checking configuration.

All containers are immutable after construction and safe to share across
threads; their arrays are read-only. An array that is read-only all the way
down its ``.base`` chain, to the array that owns its data, is shared as it
is: ``decompose`` hands its finished modes and residual over this way, and
the input readers their parsed samples. Anything else is copied and the
copy marked read-only: a writable array, a read-only view of a writable
array, an array over another object's buffer (a ``bytearray``, say), or a
list. Code that sets a shared array's owner writable again breaks the
promise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionsError,
    BadParameterError,
    DimensionMismatchError,
    NonFiniteInputError,
)
from .graph_ops import n_edges

_FLOAT_FIELDS = ("alpha", "beta", "gamma", "tau", "epsilon", "graph_epsilon")
_INT_FIELDS = ("K", "max_iter", "graph_max_iter")


def _frozen_array(value, dtype=float) -> np.ndarray:
    if isinstance(value, np.ndarray) and value.dtype == dtype:
        base = value
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            if base.flags.owndata:
                return value
            base = base.base
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
    weights in the learned graphs; ``tau`` is the dual ascent step, which
    drives the mode sum toward the input (0 leaves slack for noise) until
    the stop rule ends the run, so reconstruction is not exact: on the
    clean paper preset at the default ``epsilon``, ``tau = 0.1`` leaves a
    largest residual of 5.9e-4 of the largest sample at ``beta = 0`` and
    6.2e-4 at ``beta = 0.1`` (6.3e-2 at ``tau = 0``); ROADMAP item 2 plans
    a stop rule on the residual. The loop stops when ``sum_k ||g_k' -
    g_k||^2 / ||g_k||^2``, each mode's squared change over its previous
    energy with the norms taken over all nodes, falls below ``epsilon``, or
    after ``max_iter`` iterations, unconverged.
    ``graph_max_iter`` caps the Newton steps of each graph solve.
    ``graph_epsilon`` is the KKT residual tolerance, relative to the
    largest learned weight, of the final graphs: earlier solves are held
    to the loop's relative step, ``sqrt`` of the previous iteration's
    change clipped to ``[graph_epsilon, 0.25]``, and a run ends only on an
    iteration whose solves were held to ``graph_epsilon``. A run in which
    any graph solve misses its tolerance reports ``converged=False``.
    Each graph is learned from its mode's raw pairwise distances.
    ``beta = 0`` is the multivariate mode decomposition baseline.

    A config checks itself when built: every float field must be a finite
    real number, and ``K``, ``max_iter`` and ``graph_max_iter`` integers
    (not bools). A field of the wrong type, or a value outside its range,
    raises :class:`BadParameterError`. NumPy scalars are accepted, and
    every field is stored as a plain Python ``int`` or ``float``.
    """

    K: int
    alpha: float
    beta: float = 0.1
    gamma: float = 1.0
    tau: float = 0.0
    epsilon: float = 1e-12
    max_iter: int = 2000
    graph_max_iter: int = 2000
    graph_epsilon: float = 1e-5

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise BadParameterError(f"{name} must be finite")
            object.__setattr__(self, name, float(value))
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise BadParameterError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
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
    are empty when graph learning is off. ``graph_tolerance`` is the KKT
    tolerance the iteration's graph solves were held to, ``None`` when
    graph learning is off.
    """

    iteration: int
    rel_change: float
    omegas: tuple[float, ...]
    objective: float
    graph_steps: tuple[int, ...] = ()
    graph_converged: tuple[bool, ...] = ()
    graph_tolerance: float | None = None


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


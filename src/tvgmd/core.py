"""Domain types, configuration validation and the monitoring objective.

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
from .graph_learner import graph_objective

OMEGA_INIT_CHOICES = ("zeros", "uniform", "peaks")


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
        if not self.sample_rate_hz > 0:
            raise BadParameterError("sample_rate_hz must be positive")

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
    reports ``converged=False``.
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
    """Per-iteration diagnostics recorded by the decomposition loop."""

    iteration: int
    rel_change: float
    omegas: tuple[float, ...]
    objective: float


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

    def mode_sum(self) -> np.ndarray:
        return np.sum([m.mode_samples for m in self.modes], axis=0)


def validate_config(
    config: DecompositionConfig, signal: TimeVaryingGraphSignal
) -> DecompositionConfig:
    """Check every invariant of a (config, signal) pair.

    Returns the config unchanged when everything holds; raises
    :class:`BadDimensionsError`, :class:`NonFiniteInputError` or
    :class:`BadParameterError` otherwise.
    """
    if signal.n_nodes < 2 or signal.n_samples < 4:
        raise BadDimensionsError(
            f"need at least 2 nodes and 4 samples, got "
            f"{signal.n_nodes} x {signal.n_samples}"
        )
    if not np.all(np.isfinite(signal.samples)):
        raise NonFiniteInputError("signal contains NaN or infinite samples")
    if config.K < 1:
        raise BadParameterError("K must be >= 1")
    if not config.alpha > 0:
        raise BadParameterError("alpha must be positive")
    if config.beta < 0:
        raise BadParameterError("beta must be nonnegative")
    if config.gamma < 0:
        raise BadParameterError("gamma must be nonnegative")
    if config.beta > 0 and not config.gamma > 0:
        raise BadParameterError("gamma must be positive when beta > 0")
    if config.tau < 0:
        raise BadParameterError("tau must be nonnegative")
    if not config.epsilon > 0:
        raise BadParameterError("epsilon must be positive")
    if config.max_iter < 1:
        raise BadParameterError("max_iter must be >= 1")
    if config.omega_init not in OMEGA_INIT_CHOICES:
        raise BadParameterError(
            f"omega_init must be one of {OMEGA_INIT_CHOICES}"
        )
    if config.graph_max_iter < 1:
        raise BadParameterError("graph_max_iter must be >= 1")
    if not config.graph_epsilon > 0:
        raise BadParameterError("graph_epsilon must be positive")
    return config


def objective_value(
    g: np.ndarray,
    lam: np.ndarray,
    omegas: np.ndarray,
    x: np.ndarray,
    grid: np.ndarray,
    weights: np.ndarray,
    config: DecompositionConfig,
    edge_w: np.ndarray | None = None,
    zs: np.ndarray | None = None,
) -> float:
    """Augmented-Lagrangian value of a decomposition state.

    ``g`` (K, N, P) holds the mode coefficients, ``lam`` (N, P) the duals,
    ``omegas`` the K normalized centers and ``x`` (N, P) the input
    coefficients, all as :func:`~tvgmd.spectral.to_coefficients` lays them
    out; ``grid`` and ``weights`` (P,) are the frequency of each
    coefficient and its energy weight. When ``beta > 0``, ``edge_w`` and
    ``zs`` (K, M) are each mode's edge weights and the pairwise distances
    of its node signals.

    The spectral part sums, over modes and nodes, the bandwidth penalty
    ``2*alpha*(omega - omega_k)^2 g^2`` plus the reconstruction quadratic
    and the dual inner product, each coefficient weighted by its energy
    weight, so the reconstruction term equals the time-domain
    ``sum_n ||x_n - sum_k g_n^k||^2``. When ``beta > 0`` the graph part
    adds ``2*beta*w'z + gamma*||w||^2 - 1'log(Qw)`` per mode, with any
    nonpositive degree mapped to +inf. Monitoring only; the decomposition
    never branches on this value.
    """
    if (
        x.shape[-1] != len(grid)
        or weights.shape != grid.shape
        or lam.shape != x.shape
        or g.shape != (len(omegas),) + x.shape
    ):
        raise DimensionMismatchError("coefficients, duals and centers disagree")

    sq = (grid[None, :] - omegas[:, None]) ** 2  # (K, P)
    bandwidth = float(np.sum((g**2).sum(axis=1) * sq * weights))
    resid = x - g.sum(axis=0)
    reconstruction_and_dual = float(np.sum((resid + lam) * resid * weights))
    h1 = 2.0 * config.alpha * bandwidth + reconstruction_and_dual

    h2 = 0.0
    if config.beta > 0:
        if (
            edge_w is None
            or zs is None
            or edge_w.shape != zs.shape
            or len(edge_w) != len(omegas)
        ):
            raise DimensionMismatchError(
                "need one edge-weight and one distance vector per mode"
            )
        for w, z in zip(edge_w, zs):
            h2 += graph_objective(w, z, config.beta, config.gamma)
    return h1 + h2

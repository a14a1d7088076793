"""The outer block-coordinate loop joining spectral and graph updates.

Each iteration sweeps, in order: per-mode per-node spectral updates at the
current center frequencies (in place, so later modes see the earlier
modes' fresh spectra), the center-frequency updates, an inverse transform
to the time domain, a graph-smoothing solve per mode against the previous
iteration's graph, re-learning each mode's graph from its new pairwise
distances, a forward transform back, and the dual ascent. The loop stops
when the summed relative spectral change drops below the tolerance; the run
counts as converged only if, in addition, every graph solve in it met its
own tolerance.

With ``beta = 0`` the graph steps are skipped entirely and the procedure
reduces to the multivariate mode decomposition baseline.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
    objective_value,
    validate_config,
)
from .errors import DegenerateModeError
from .graph_learner import learn_graph_batch
from .graph_ops import densify, geodesic_update, n_edges, pairwise_distances
from .spectral import (
    crop_mirrored,
    frequency_grid,
    mean_frequency,
    mirror_extend,
    wiener_weights,
)

_EPS = np.finfo(float).eps


def _initial_omegas(config: DecompositionConfig, x_hat: np.ndarray,
                    omega_grid: np.ndarray, t_ext: int) -> np.ndarray:
    k = config.K
    if config.omega_init == "zeros":
        return np.zeros(k)
    if config.omega_init == "uniform":
        return 0.5 * (np.arange(k) + 1.0) / (k + 1.0)
    # peaks: strongest bins of the aggregate power spectrum, each pick
    # suppressing a small neighborhood so one lobe yields one mode.
    power = (np.abs(x_hat) ** 2).sum(axis=0).copy()
    halfwidth = max(2, t_ext // 100)
    omegas = np.zeros(k)
    for i in range(k):
        top = int(np.argmax(power))
        omegas[i] = omega_grid[top]
        power[max(0, top - halfwidth) : top + halfwidth + 1] = 0.0
    return np.sort(omegas)


def decompose(
    signal: TimeVaryingGraphSignal, config: DecompositionConfig
) -> DecompositionResult:
    """Decompose a time-varying graph signal into band-limited graph modes.

    Returns the modes sorted by ascending center frequency, each carrying
    its learned edge weights (empty when ``beta = 0``), the residual, and
    the per-iteration trace. If ``max_iter`` is reached first, or any graph
    solve stopped short of its tolerance, the result is still returned with
    ``converged=False``.
    """
    validate_config(config, signal)
    x = signal.samples
    n, t = x.shape
    fs = signal.sample_rate_hz
    k = config.K
    mirror = config.mirror_extend

    x_ext = mirror_extend(x) if mirror else x
    t_ext = x_ext.shape[1]
    omega_grid = frequency_grid(t_ext)
    x_hat = np.fft.rfft(x_ext, axis=1)

    g_hat = np.zeros((k, n, len(omega_grid)), dtype=complex)
    lam_hat = np.zeros((n, len(omega_grid)), dtype=complex)
    omegas = _initial_omegas(config, x_hat, omega_grid, t_ext)
    edge_w = np.zeros((k, n_edges(n)))
    zs = None

    def to_time(spectra):
        series = np.fft.irfft(spectra, n=t_ext, axis=-1)
        return crop_mirrored(series, t) if mirror else series

    def to_spectra(series):
        return np.fft.rfft(mirror_extend(series) if mirror else series, axis=-1)

    trace: list[IterationSnapshot] = []
    converged = False
    graphs_solved = True
    iteration = 0
    while iteration < config.max_iter:
        iteration += 1
        g_prev = g_hat.copy()

        # (1) spectral sweep, in place over k
        running_sum = g_hat.sum(axis=0)
        for mode in range(k):
            numerator = x_hat - (running_sum - g_hat[mode]) + lam_hat / 2.0
            updated = numerator * wiener_weights(
                omega_grid, omegas[mode], config.alpha
            )
            running_sum += updated - g_hat[mode]
            g_hat[mode] = updated

        # (2) center frequencies from the fresh spectra
        for mode in range(k):
            try:
                omegas[mode] = mean_frequency(
                    np.abs(g_hat[mode]) ** 2, omega_grid
                )
            except DegenerateModeError:
                pass  # collapsed mode keeps its previous center

        if config.beta > 0:
            # (3) to time domain, (4) smooth along the previous graphs
            modes_time = to_time(g_hat)
            graphs = [densify(edge_w[mode], n) for mode in range(k)]
            smoothed = np.stack(
                [
                    geodesic_update(modes_time[mode], graphs[mode], config.beta)
                    for mode in range(k)
                ]
            )
            # (5) re-learn each mode's graph from its new distances
            zs = np.stack(
                [
                    pairwise_distances(
                        smoothed[mode], normalize=config.normalize_distances
                    )
                    for mode in range(k)
                ]
            )
            edge_w, _, solved = learn_graph_batch(
                zs,
                config.beta,
                config.gamma,
                edge_w,
                max_iter=config.graph_max_iter,
                eps=config.graph_epsilon,
            )
            graphs_solved &= bool(solved.all())
            # (6) back to the spectral domain
            g_hat = to_spectra(smoothed)

        # (7) dual ascent
        if config.tau != 0.0:
            lam_hat = lam_hat + config.tau * (x_hat - g_hat.sum(axis=0))

        # (8) convergence on the summed per-(mode, node) relative change
        diff = np.sum(np.abs(g_hat - g_prev) ** 2, axis=2)
        prev = np.sum(np.abs(g_prev) ** 2, axis=2)
        rel_change = float(np.sum(diff / (prev + _EPS)))

        trace.append(
            IterationSnapshot(
                iteration=iteration,
                rel_change=rel_change,
                omegas=tuple(float(o) for o in omegas),
                objective=objective_value(
                    g_hat, lam_hat, omegas, x_hat, t, config, edge_w, zs
                ),
            )
        )
        if rel_change < config.epsilon:
            converged = True
            break

    modes_time = to_time(g_hat)
    order = np.argsort(omegas, kind="stable")
    modes = tuple(
        GraphMode(
            mode_samples=modes_time[mode],
            center_freq_hz=float(omegas[mode] * fs),
            edge_weights=edge_w[mode] if config.beta > 0 else np.empty(0),
        )
        for mode in order
    )
    residual = x - modes_time.sum(axis=0)
    return DecompositionResult(
        modes=modes,
        residual=residual,
        iterations=iteration,
        converged=converged and graphs_solved,
        trace=tuple(trace),
    )


def decompose_mvmd(
    signal: TimeVaryingGraphSignal, config: DecompositionConfig
) -> DecompositionResult:
    """Baseline without graph learning: exactly ``decompose`` with beta = 0."""
    return decompose(signal, dataclasses.replace(config, beta=0.0))

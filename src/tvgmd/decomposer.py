"""The outer block-coordinate loop joining spectral and graph updates.

The input is transformed once into real coefficients
(:func:`~tvgmd.spectral.to_coefficients`) and the modes are transformed
back once at the end; every step in between works on real ``(K, N, P)``
arrays. Each iteration sweeps, in order: per-mode per-node spectral
updates at the current center frequencies (in place, so later modes see
the earlier modes' fresh spectra), the center-frequency updates, one
graph-smoothing solve for all modes against the previous iteration's
graphs, re-learning every mode's graph from its new pairwise distances in
one lockstep learner call, and the dual ascent. Smoothing mixes nodes and
the transform runs along time, so the smoothing solve applies to the
coefficient rows directly, and by Parseval the distances of the rows
scaled by ``sqrt(weights)`` are the time-domain distances. The loop stops when the summed relative spectral
change drops below the tolerance; the run counts as converged only if, in
addition, every graph solve in it met its own tolerance. Each trace
snapshot records every mode's Newton step count and convergence flag.

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
from .graph_ops import geodesic_update, n_edges, pairwise_distances
from .spectral import (
    from_coefficients,
    mean_frequency,
    to_coefficients,
    wiener_weights,
)

_EPS = np.finfo(float).eps


def _initial_omegas(config: DecompositionConfig, x_c: np.ndarray,
                    grid: np.ndarray, t_ext: int) -> np.ndarray:
    k = config.K
    if config.omega_init == "zeros":
        return np.zeros(k)
    if config.omega_init == "uniform":
        return 0.5 * (np.arange(k) + 1.0) / (k + 1.0)
    # peaks: strongest bins of the aggregate power spectrum, each pick
    # suppressing a small neighborhood so one lobe yields one mode.
    power = (x_c**2).sum(axis=0)
    if not config.mirror_extend:  # one bin per (re, im) pair
        power = power.reshape(-1, 2).sum(axis=1)
        grid = grid[::2]
    halfwidth = max(2, t_ext // 100)
    omegas = np.zeros(k)
    for i in range(k):
        top = int(np.argmax(power))
        omegas[i] = grid[top]
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

    x_c, grid, weights = to_coefficients(x, mirror)
    root_weights = np.sqrt(weights)

    g = np.zeros((k,) + x_c.shape)
    lam = np.zeros_like(x_c)
    omegas = _initial_omegas(config, x_c, grid, 2 * t if mirror else t)
    edge_w = np.zeros((k, n_edges(n)))
    zs = None

    trace: list[IterationSnapshot] = []
    converged = False
    graphs_solved = True
    iteration = 0
    while iteration < config.max_iter:
        iteration += 1
        g_prev = g.copy()

        # (1) spectral sweep, in place over k
        running_sum = g.sum(axis=0)
        for mode in range(k):
            numerator = x_c - (running_sum - g[mode]) + lam / 2.0
            updated = numerator * wiener_weights(grid, omegas[mode], config.alpha)
            running_sum += updated - g[mode]
            g[mode] = updated

        # (2) center frequencies from the fresh spectra
        for mode in range(k):
            try:
                omegas[mode] = mean_frequency(g[mode] ** 2, grid)
            except DegenerateModeError:
                pass  # collapsed mode keeps its previous center

        graph_steps, graph_converged = (), ()
        if config.beta > 0:
            # (3) smooth along the previous graphs, all modes in one solve
            g = geodesic_update(g, edge_w, config.beta)
            # (4) re-learn every mode's graph from its new distances
            zs = pairwise_distances(
                g * root_weights, normalize=config.normalize_distances
            )
            edge_w, steps, solved = learn_graph_batch(
                zs,
                config.beta,
                config.gamma,
                edge_w,
                max_iter=config.graph_max_iter,
                eps=config.graph_epsilon,
            )
            graphs_solved &= bool(solved.all())
            graph_steps = tuple(int(s) for s in steps)
            graph_converged = tuple(bool(c) for c in solved)

        # (5) dual ascent
        if config.tau != 0.0:
            lam = lam + config.tau * (x_c - g.sum(axis=0))

        # (6) convergence on the summed per-(mode, node) relative change
        diff = np.sum((g - g_prev) ** 2, axis=2)
        prev = np.sum(g_prev**2, axis=2)
        rel_change = float(np.sum(diff / (prev + _EPS)))

        trace.append(
            IterationSnapshot(
                iteration=iteration,
                rel_change=rel_change,
                omegas=tuple(float(o) for o in omegas),
                objective=objective_value(
                    g, lam, omegas, x_c, grid, weights, config, edge_w, zs
                ),
                graph_steps=graph_steps,
                graph_converged=graph_converged,
            )
        )
        if rel_change < config.epsilon:
            converged = True
            break

    modes_time = from_coefficients(g, t, mirror)
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

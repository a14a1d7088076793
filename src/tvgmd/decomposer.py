"""The outer block-coordinate loop joining spectral and graph updates.

The input is transformed once into real coefficients
(:func:`~tvgmd.spectral.to_coefficients`) and the modes are transformed
back once at the end; every step in between works on real ``(K, N, P)``
arrays. Each iteration sweeps, in order: per-mode per-node spectral
updates at the current center frequencies (mode by mode, so later modes
see the earlier modes' fresh spectra), the center-frequency updates, one
graph-smoothing solve for all modes against the previous iteration's
graphs, re-learning every mode's graph from its new pairwise distances in
one lockstep learner call, and the dual ascent. Smoothing mixes nodes and
the transform runs along time, so the smoothing solve applies to the
coefficient rows directly, and by Parseval the distances of the rows
scaled by ``sqrt(weights)`` are the time-domain distances. The loop stops
when the summed relative spectral change drops below the tolerance; the
run counts as converged only if, in addition, every graph solve in it met
its own tolerance. Each trace snapshot records every mode's Newton step
count and convergence flag.

With ``beta = 0`` the graph steps are skipped entirely and the procedure
reduces to the multivariate mode decomposition baseline.

The spectral update is elementwise, so the sweep runs over blocks of
whole node rows sized to stay in cache (about ``_BLOCK_BYTES`` per
rows-by-coefficients slice) and gives the same values as one sweep over
whole arrays. The centers, the convergence sums and the
objective reduce over whole arrays. Two mode buffers alternate between
the previous and the next iterate, and each iteration's per-(mode, node)
energies serve as the next iteration's denominators, so no iterate is
copied or squared twice for the stopping rule.
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
# Bytes of one (rows, P) slice in the blocked spectral sweep, so that the
# slices one block touches stay in a core's L2 cache. Blocks hold whole
# rows, so every slice is contiguous whatever the node count.
_BLOCK_BYTES = 128 * 1024


def _row_blocks(n_nodes: int, n_coefficients: int) -> list[slice]:
    height = max(1, _BLOCK_BYTES // (8 * n_coefficients))
    return [slice(a, a + height) for a in range(0, n_nodes, height)]


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
    blocks = _row_blocks(n, x_c.shape[1])

    # The sweep reads the modes from g_prev and writes the next ones into
    # the other buffer; the two buffers swap roles every iteration.
    g = np.zeros((k,) + x_c.shape)
    spare = np.empty_like(g)
    energy = np.zeros((k, n))  # per-(mode, node) energy of g
    power = np.empty_like(x_c)
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
        g_prev, g = g, spare
        prev, energy = energy, np.empty((k, n))

        # (1) spectral sweep, one block of node rows at a time; within a
        # block in order over k, so later modes see the earlier modes'
        # fresh spectra
        gains = [wiener_weights(grid, omega, config.alpha) for omega in omegas]
        half_lam = lam / 2.0
        for rows in blocks:
            old = g_prev[:, rows]
            running_sum = old.sum(axis=0)
            work = np.empty_like(running_sum)
            for mode in range(k):
                # numerator x - (running_sum - old) + lam / 2, formed in work
                np.subtract(running_sum, old[mode], out=work)
                np.subtract(x_c[rows], work, out=work)
                work += half_lam[rows]
                updated = np.multiply(work, gains[mode], out=g[mode, rows])
                running_sum += np.subtract(updated, old[mode], out=work)

        # (2) center frequencies from the fresh spectra; without graphs
        # these are also the final modes, whose energies the next
        # iteration's convergence test divides by
        for mode in range(k):
            np.square(g[mode], out=power)
            if config.beta == 0:
                energy[mode] = power.sum(axis=1)
            try:
                omegas[mode] = mean_frequency(power, grid)
            except DegenerateModeError:
                pass  # collapsed mode keeps its previous center

        graph_steps, graph_converged = (), ()
        if config.beta > 0:
            # (3) smooth along the previous graphs, all modes in one solve
            g = geodesic_update(g, edge_w, config.beta)
            energy = np.sum(g**2, axis=2)
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

        # (6) convergence on the summed per-(mode, node) relative change;
        # the change is formed in g_prev's buffer, the next sweep's output
        change = np.subtract(g, g_prev, out=g_prev)
        diff = np.sum(np.square(change, out=change), axis=2)
        rel_change = float(np.sum(diff / (prev + _EPS)))
        spare = g_prev

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

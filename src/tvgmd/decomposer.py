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
count and convergence flag, and the augmented-Lagrangian objective, which
is assembled from reductions the loop forms anyway.

With ``beta = 0`` the graph steps are skipped entirely and the procedure
reduces to the multivariate mode decomposition baseline.

The spectral update is elementwise, so the sweep runs over blocks of
whole node rows sized to stay in cache (:func:`~tvgmd.spectral.row_blocks`,
which the transforms use too) and gives the same values as one sweep over
whole arrays. Without graphs the sweep also forms, block by block, each
(mode, node)'s change and, once a block's modes are done, that block's
residual ``x - sum_k g``, dual step and objective fit term; only the fit
term's sum differs in rounding from a whole-array pass. The centers and
the per-(mode, node) energies come from a whole-array pass over each mode
after the sweep. With graphs the change and the residual are formed after
smoothing, over whole arrays.

Memory: without graphs the loop keeps one ``(K, N, P)`` mode buffer,
which the sweep updates in place, and three ``(N, P)`` arrays: the input
coefficients, the duals and the buffer that step (2) squares each mode
into. With graphs it keeps a second mode buffer, because the sweep writes
the next modes there and the change is measured after smoothing; the two
buffers alternate between the previous and the next iterate. Each
iteration's per-(mode, node) energies serve as the next iteration's
denominators, so no iterate is copied or squared twice. When the loop
ends all of it but the final modes' buffer is released. Each mode goes
back to the time domain one row block at a time, into the first T of its
own P >= T columns, and the result's modes share that buffer read-only;
only the residual is a new ``(N, T)`` array. Without graphs the traced
peak is about 1.95 buffers at K = 4, reached in the sweep: the mode
buffer, the three ``(N, P)`` arrays, the gains and the block temporaries.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
)
from .errors import (
    BadDimensionsError,
    DegenerateModeError,
    NonFiniteInputError,
)
from .graph_learner import graph_objective, learn_graph_batch
from .graph_ops import geodesic_update, n_edges, pairwise_distances
from .spectral import (
    bin_power,
    from_coefficients,
    mean_frequency,
    row_blocks,
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
    power, grid = bin_power(x_c, grid, config.mirror_extend)
    power = power.sum(axis=0)
    halfwidth = max(2, t_ext // 100)
    omegas = np.zeros(k)
    for i in range(k):
        top = int(np.argmax(power))
        omegas[i] = grid[top]
        power[max(0, top - halfwidth) : top + halfwidth + 1] = 0.0
    return np.sort(omegas)


def _sweep(g, x_c, lam, gains, blocks, out=None, tau=0.0, weights=None):
    """Step (1): the next modes from ``g``, one block of node rows at a
    time; within a block in order over k, so later modes see the earlier
    modes' fresh spectra.

    With ``out`` the next modes are written there and ``g`` is left as it
    was: the graph path measures its change after smoothing. Without it
    the sweep updates ``g`` in place and does the rest of a ``beta = 0``
    iteration but the centers: a new mode value is written over the old
    one only after its ``sum_p (new - old)^2`` has gone into that (mode,
    node)'s change, and once a block's modes are done, the block's
    residual, dual step and fit term are formed (:func:`_dual_step`). It
    then returns the (K, N) change and the summed fit term. Every
    temporary of the sweep is block-sized.
    """
    in_place = out is None
    if in_place:
        out = g
        change = np.empty(g.shape[:2])
        fit = 0.0
    for rows in blocks:
        old = g[:, rows]
        running_sum = old.sum(axis=0)
        half_lam = lam[rows] / 2.0
        work = np.empty_like(running_sum)
        new = np.empty_like(running_sum)
        for mode, gain in enumerate(gains):
            # numerator x - (running_sum - old) + lam / 2, formed in work
            np.subtract(running_sum, old[mode], out=work)
            np.subtract(x_c[rows], work, out=work)
            work += half_lam
            np.multiply(work, gain, out=new)
            running_sum += np.subtract(new, old[mode], out=work)
            if in_place:
                change[mode, rows] = np.square(work, out=work).sum(axis=1)
            out[mode, rows] = new
        if in_place:
            fit += _dual_step(g, x_c, lam, rows, tau, weights)
    return (change, fit) if in_place else None


def _dual_step(g, x_c, lam, rows, tau, weights) -> float:
    """Dual ascent ``lam += tau * resid`` on the node rows ``rows``, with
    the residual ``resid = x - sum_k g``; returns their reconstruction and
    dual objective term ``sum(weights * resid * (resid + lam))`` at the
    new duals."""
    resid = np.subtract(x_c[rows], g[:, rows].sum(axis=0))
    if tau != 0.0:
        lam[rows] += tau * resid
    fit = resid + lam[rows]
    fit *= resid
    fit *= weights
    return float(np.sum(fit))


def _objective(config, omegas, grid, weights, mode_power, fit, edge_w,
               zs) -> float:
    """Augmented-Lagrangian value of the loop's state.

    ``mode_power`` (K, P) holds each mode's squared coefficients summed
    over nodes and ``fit`` the reconstruction and dual term from
    :func:`_dual_step`; ``grid`` and ``weights`` are the frequency and
    energy weight of each coefficient. The spectral part sums, over modes
    and nodes, the bandwidth penalty ``2*alpha*(omega - omega_k)^2 g^2``
    plus the reconstruction quadratic and the dual inner product, each
    coefficient weighted by its energy weight, so the reconstruction term
    equals the time-domain ``sum_n ||x_n - sum_k g_n^k||^2``. When
    ``beta > 0`` the graph part adds ``2*beta*w'z + gamma*||w||^2 -
    1'log(Qw)`` per mode, with any nonpositive degree mapped to +inf.
    Monitoring only; the loop never branches on this value.
    """
    sq = (grid[None, :] - omegas[:, None]) ** 2  # (K, P)
    bandwidth = float(np.sum(mode_power * sq * weights))
    value = 2.0 * config.alpha * bandwidth + fit
    if config.beta > 0:
        value += float(
            graph_objective(edge_w, zs, config.beta, config.gamma).sum()
        )
    return value


def _iterate(
    x: np.ndarray, config: DecompositionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[IterationSnapshot], bool]:
    """Run the loop on the coefficients of ``x``.

    Returns the final mode coefficients (K, N, P), the centers, the edge
    weights, the trace and whether the spectral change met the tolerance
    with every graph solve converged. Every other array of the loop is
    released when this returns.
    """
    n, t = x.shape
    k = config.K
    graphs = config.beta > 0

    x_c, grid, weights = to_coefficients(x, config.mirror_extend)
    root_weights = np.sqrt(weights)
    blocks = row_blocks(n, x_c.shape[1])

    # Without graphs the sweep updates the one mode buffer in place. With
    # them it writes the next modes into a second buffer, because the
    # change is measured after smoothing; the two swap roles every
    # iteration.
    g = np.zeros((k,) + x_c.shape)
    spare = np.empty_like(g) if graphs else None
    energy = np.zeros((k, n))  # per-(mode, node) energy of g
    mode_power = np.empty((k, x_c.shape[1]))  # per-(mode, coefficient)
    power = np.empty_like(x_c)
    lam = np.zeros_like(x_c)
    omegas = _initial_omegas(
        config, x_c, grid, 2 * t if config.mirror_extend else t
    )
    edge_w = np.zeros((k, n_edges(n)))
    zs = None

    trace: list[IterationSnapshot] = []
    converged = False
    graphs_solved = True
    iteration = 0
    while iteration < config.max_iter:
        iteration += 1
        prev, energy = energy, np.empty((k, n))

        # (1) spectral sweep; without graphs it also makes steps (5) and
        # (6) block by block
        gains = [wiener_weights(grid, omega, config.alpha) for omega in omegas]
        if graphs:
            g_prev, g = g, spare
            _sweep(g_prev, x_c, lam, gains, blocks, out=g)
        else:
            change, fit = _sweep(g, x_c, lam, gains, blocks, tau=config.tau,
                                 weights=weights)

        # (2) center frequencies from the fresh spectra; without graphs
        # these are also the final modes, whose energies the next
        # iteration's convergence test divides by
        for mode in range(k):
            np.square(g[mode], out=power)
            if not graphs:
                energy[mode] = power.sum(axis=1)
                mode_power[mode] = power.sum(axis=0)
            try:
                omegas[mode] = mean_frequency(power, grid)
            except DegenerateModeError:
                pass  # collapsed mode keeps its previous center

        graph_steps, graph_converged = (), ()
        if graphs:
            # (3) smooth along the previous graphs, all modes in one solve
            g = geodesic_update(g, edge_w, config.beta)
            squares = np.square(g)
            energy = squares.sum(axis=2)
            mode_power = squares.sum(axis=1)
            del squares
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
            # (5) dual ascent on all rows at once
            fit = _dual_step(g, x_c, lam, slice(None), config.tau, weights)
            # (6) the per-(mode, node) change, formed in g_prev's buffer,
            # the next sweep's output
            diff = np.subtract(g, g_prev, out=g_prev)
            change = np.sum(np.square(diff, out=diff), axis=2)
            spare = g_prev

        # convergence on the summed per-(mode, node) relative change
        rel_change = float(np.sum(change / (prev + _EPS)))

        # tests/test_core.py checks the objective against a whole-state
        # reference by reading this frame's g, lam, omegas, x_c, grid,
        # weights, edge_w and zs when the snapshot is built; keep those
        # names, or change that harness with them.
        trace.append(
            IterationSnapshot(
                iteration=iteration,
                rel_change=rel_change,
                omegas=tuple(float(o) for o in omegas),
                objective=_objective(
                    config, omegas, grid, weights, mode_power, fit, edge_w,
                    zs,
                ),
                graph_steps=graph_steps,
                graph_converged=graph_converged,
            )
        )
        if rel_change < config.epsilon:
            converged = True
            break
    return g, omegas, edge_w, trace, converged and graphs_solved


def decompose(
    signal: TimeVaryingGraphSignal, config: DecompositionConfig
) -> DecompositionResult:
    """Decompose a time-varying graph signal into band-limited graph modes.

    Returns the modes sorted by ascending center frequency, each carrying
    its learned edge weights (empty when ``beta = 0``), the residual, and
    the per-iteration trace. If ``max_iter`` is reached first, or any graph
    solve stopped short of its tolerance, the result is still returned with
    ``converged=False``. The modes are read-only views into one
    ``(K, N, P)`` buffer, so keeping any one of them keeps all K alive.

    The config checked itself when it was built. The signal needs at least
    2 nodes and 4 samples (else :class:`BadDimensionsError`) and finite
    samples only (else :class:`NonFiniteInputError`).
    """
    x = signal.samples
    n, t = x.shape
    if n < 2 or t < 4:
        raise BadDimensionsError(
            f"need at least 2 nodes and 4 samples, got {n} x {t}"
        )
    if not np.all(np.isfinite(x)):
        raise NonFiniteInputError("signal contains NaN or infinite samples")
    g, omegas, edge_w, trace, converged = _iterate(x, config)

    # Each mode goes back to the time domain in its own rows of the
    # coefficient buffer (P >= T), which then holds the finished modes and
    # is shared by them read-only. The residual sums the modes in loop
    # order.
    for mode in range(config.K):
        from_coefficients(g[mode], t, config.mirror_extend, out=g[mode, :, :t])
    g.flags.writeable = False
    modes = g[:, :, :t]
    total = modes[0].copy()
    for mode in modes[1:]:
        total += mode
    residual = np.subtract(x, total, out=total)
    residual.flags.writeable = False
    order = np.argsort(omegas, kind="stable")
    return DecompositionResult(
        modes=tuple(
            GraphMode(
                mode_samples=modes[mode],
                center_freq_hz=float(omegas[mode] * signal.sample_rate_hz),
                edge_weights=edge_w[mode] if config.beta > 0 else np.empty(0),
            )
            for mode in order
        ),
        residual=residual,
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
    )

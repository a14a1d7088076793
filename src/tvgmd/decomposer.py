"""The outer block-coordinate loop joining spectral and graph updates.

The input is transformed once into real coefficients
(:func:`~tvgmd.spectral.to_coefficients`) and the modes are transformed
back once at the end; every step in between works on real arrays. Each
iteration sweeps, in order: per-mode per-node spectral updates at the
current center frequencies (mode by mode, so later modes see the earlier
modes' fresh spectra), the center-frequency updates, one graph-smoothing
solve for all modes against the previous iteration's graphs, re-learning
every mode's graph from its new pairwise distances in one lockstep
learner call, and the dual ascent. Smoothing mixes nodes and the
transform runs along time, so the smoothing solve applies to the
coefficient rows directly, and by Parseval the distances of the rows
scaled by ``sqrt(weights)`` are the time-domain distances. The loop stops
when ``sum_k ||g_k' - g_k||^2 / ||g_k||^2``, each mode's squared change
over its previous energy with the norms taken over all nodes and
coefficients, drops below the tolerance: the rule of VMD (Dragomiretskiy
& Zosso, IEEE TSP 2014) and MVMD (ur Rehman & Aftab, IEEE TSP 2019). The
run counts as converged only if, in addition, every graph solve in it met
its own tolerance. Each trace snapshot records every mode's Newton step
count and convergence flag, and the augmented-Lagrangian objective, which
is assembled from reductions the loop forms anyway: the spectral terms
from each mode's power and the dual step's residual, and each graph term
from the objective the learner ends that mode's solve with. All K modes'
gains come from one :func:`~tvgmd.spectral.wiener_weights` call. With
``tau = 0`` the duals stay zero, so the loop holds no dual array and
neither the sweep nor the dual step carries a dual term.

With ``beta = 0`` the graph steps are skipped entirely and the procedure
reduces to the multivariate mode decomposition baseline. Every step is
then linear per coefficient with factors that all nodes share, so each
mode is ``g_k = G_k * x_c`` and the duals are ``Lambda * x_c``. The loop
runs on the gains ``G`` and the dual gains ``Lambda``, held as one row
(shapes (K, 1, P) and (1, P)) so that the same sweep runs on them
against an input of ones, and every sum over nodes weights a coefficient
by ``s = sum_n x_c^2``, formed once. An iteration's cost does not grow
with N, and the modes are formed once, when the loop ends.

The spectral update is elementwise, so with graphs the sweep runs over
blocks of whole node rows sized to stay in cache
(:func:`~tvgmd.spectral.row_blocks`, which the transforms use too) and
gives the same values as one sweep over whole arrays.

Memory: with graphs the loop keeps two ``(K, N, P)`` mode buffers, which
alternate between the previous and the next iterate, since the sweep
writes the next modes into one and the change is formed in the other
after smoothing; smoothing makes one more, and leaves the buffer the
sweep wrote free for the squared modes and then the distances' weighted
modes, so no other (K, N, P) array is allocated per iteration. It also
keeps two ``(N, P)`` arrays, the input coefficients and the buffer that
step (2) squares each mode into, and a third for the duals when ``tau >
0``. Without graphs the loop holds the input coefficients and a few (K, P)
arrays. Each iteration's per-mode energies serve as the next iteration's
denominators, so no iterate is copied or squared twice. When the loop
ends all of it but the final modes' buffer is released. Each mode goes
back to the time domain one row block at a time, into the first T of its
own P >= T columns, and the result's modes share that buffer read-only;
only the residual is a new ``(N, T)`` array. Without graphs the traced peak is about 1.44
buffers at K = 4, reached as the modes are formed: their buffer, the
input coefficients and the loop's (K, P) arrays.
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
from .graph_learner import learn_graph_batch
from .graph_ops import geodesic_update, n_edges, pairwise_distances
from .spectral import (
    bin_power,
    from_coefficients,
    mean_frequency,
    row_blocks,
    to_coefficients,
    wiener_weights,
)


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


def _sweep(g, x, lam, gains, blocks, out):
    """Step (1): the next modes from ``g`` into ``out``, one block of rows
    of the input ``x`` at a time; within a block in order over k, so later
    modes see the earlier modes' fresh spectra. ``gains`` holds one row per
    mode, and ``lam`` is ``None`` when the duals are zero. Every temporary
    is block-sized.
    """
    for rows in blocks:
        old = g[:, rows]
        running_sum = old.sum(axis=0)
        half_lam = None if lam is None else lam[rows] / 2.0
        work = np.empty_like(running_sum)
        for mode, gain in enumerate(gains):
            # numerator x - (running_sum - old) + lam / 2, formed in work
            np.subtract(running_sum, old[mode], out=work)
            np.subtract(x[rows], work, out=work)
            if half_lam is not None:
                work += half_lam
            new = np.multiply(work, gain, out=out[mode, rows])
            running_sum += np.subtract(new, old[mode], out=work)


def _dual_step(g, x, lam, tau, weights) -> float:
    """Dual ascent ``lam += tau * resid`` with the residual ``resid = x -
    sum_k g``; returns the objective's reconstruction and dual term
    ``sum(weights * resid * (resid + lam))`` at the new duals. ``lam`` is
    ``None`` when ``tau = 0``: the duals stay zero and only the
    reconstruction term remains."""
    resid = np.subtract(x, g.sum(axis=0))
    if lam is None:
        fit = np.square(resid, out=resid)
    else:
        lam += tau * resid
        fit = resid + lam
        fit *= resid
    fit *= weights
    return float(np.sum(fit))


def _relative_change(change, prev) -> float:
    """``sum_k change_k / prev_k``, each mode's squared change over its
    previous energy, both summed over all nodes (the stopping rule of VMD
    and MVMD). A mode without previous energy counts 1 if it moved and 0
    if it stayed at zero."""
    ratios = np.divide(change, prev, out=(change > 0).astype(float),
                       where=prev > 0)
    return float(ratios.sum())


def _objective(config, omegas, grid, weights, mode_power, fit,
               graph_f) -> float:
    """Augmented-Lagrangian value of the loop's state.

    ``mode_power`` (K, P) holds each mode's squared coefficients summed
    over nodes and ``fit`` the reconstruction and dual term from
    :func:`_dual_step`; ``grid`` and ``weights`` are the frequency and
    energy weight of each coefficient. The spectral part sums, over modes
    and nodes, the bandwidth penalty ``2*alpha*(omega - omega_k)^2 g^2``
    plus the reconstruction quadratic and the dual inner product, each
    coefficient weighted by its energy weight, so the reconstruction term
    equals the time-domain ``sum_n ||x_n - sum_k g_n^k||^2``. When
    ``beta > 0`` the graph part adds each mode's ``2*beta*w'z +
    gamma*||w||^2 - 1'log(Qw)``, held in ``graph_f`` as the learner left
    it. Monitoring only; the loop never branches on this value.
    """
    sq = (grid[None, :] - omegas[:, None]) ** 2  # (K, P)
    bandwidth = float(np.sum(mode_power * sq * weights))
    value = 2.0 * config.alpha * bandwidth + fit
    if config.beta > 0:
        value += float(graph_f.sum())
    return value


def _update_centers(omegas, powers, grid) -> None:
    """Step (2): each mode's center from its power; a collapsed mode keeps
    its previous center."""
    for mode, power in enumerate(powers):
        try:
            omegas[mode] = mean_frequency(power, grid)
        except DegenerateModeError:
            pass


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
    omegas = _initial_omegas(
        config, x_c, grid, 2 * t if config.mirror_extend else t
    )
    if graphs:
        data, node_power = x_c, 1.0
        power = np.empty_like(x_c)
        root_weights = np.sqrt(weights)
    else:
        # g and lam hold the gains, one row against an input of ones; a sum
        # over nodes weights each coefficient by node_power
        data = np.ones((1, x_c.shape[1]))
        node_power = np.einsum("np,np->p", x_c, x_c)
    blocks = row_blocks(*data.shape)
    # The sweep writes the next iterate into the spare buffer, and the
    # change is formed in the previous one, which becomes the next spare.
    g = np.zeros((k,) + data.shape)
    spare = np.empty_like(g)
    # with tau = 0 the duals stay zero and no step carries them
    lam = np.zeros_like(data) if config.tau != 0.0 else None
    fit_weights = weights * node_power
    energy = np.zeros(k)  # per-mode energy of g
    edge_w = np.zeros((k, n_edges(n)))
    graph_f = np.zeros(k)  # each graph's objective, as the learner left it
    zs = None

    trace: list[IterationSnapshot] = []
    converged = False
    graphs_solved = True
    iteration = 0
    while iteration < config.max_iter:
        iteration += 1
        prev = energy

        # (1) spectral sweep
        gains = wiener_weights(grid, omegas[:, None], config.alpha)
        g_prev, g = g, spare
        _sweep(g_prev, data, lam, gains, blocks, out=g)

        graph_steps, graph_converged = (), ()
        if graphs:
            # (2) center frequencies from the fresh spectra
            _update_centers(
                omegas, (np.square(mode, out=power) for mode in g), grid
            )
            # (3) smooth along the previous graphs, all modes in one solve;
            # the sweep's buffer is free from here on, and takes the
            # squares and then the weighted modes
            g = geodesic_update(g, edge_w, config.beta)
            mode_power = np.square(g, out=spare).sum(axis=1)
            # (4) re-learn every mode's graph from its new distances
            zs = pairwise_distances(
                np.multiply(g, root_weights, out=spare),
                normalize=config.normalize_distances,
            )
            edge_w, steps, solved = learn_graph_batch(
                zs,
                config.beta,
                config.gamma,
                edge_w,
                max_iter=config.graph_max_iter,
                eps=config.graph_epsilon,
                objective=graph_f,
            )
            graphs_solved &= bool(solved.all())
            graph_steps = tuple(int(s) for s in steps)
            graph_converged = tuple(bool(c) for c in solved)
        else:
            # (2) center frequencies from the fresh spectra
            mode_power = np.square(g[:, 0]) * node_power
            _update_centers(omegas, mode_power, grid)

        # (5) dual ascent
        fit = _dual_step(g, data, lam, config.tau, fit_weights)

        # (6) per-mode change, formed in g_prev's buffer, and energy
        diff = np.subtract(g, g_prev, out=g_prev)
        change = (np.square(diff, out=diff).sum(axis=1) * node_power).sum(
            axis=1)
        energy = mode_power.sum(axis=1)
        spare = g_prev
        rel_change = _relative_change(change, prev)

        # tests/test_core.py checks the objective against a whole-state
        # reference by reading this frame's g, lam (None when tau = 0),
        # omegas, x_c, grid, weights, edge_w and zs when the snapshot is
        # built; keep those names, or change that harness with them.
        trace.append(
            IterationSnapshot(
                iteration=iteration,
                rel_change=rel_change,
                omegas=tuple(float(o) for o in omegas),
                objective=_objective(
                    config, omegas, grid, weights, mode_power, fit, graph_f
                ),
                graph_steps=graph_steps,
                graph_converged=graph_converged,
            )
        )
        if rel_change < config.epsilon:
            converged = True
            break
    if not graphs:
        g = np.multiply(g, x_c)  # the modes, formed once
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

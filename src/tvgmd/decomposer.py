"""The outer block-coordinate loop joining spectral and graph updates.

The input is transformed once into real coefficients
(:func:`~tvgmd.spectral.to_coefficients`) and the modes are transformed
back once at the end; every step in between works on real arrays. The
loop's state lives in one ``_Loop``, and :func:`decompose` steps it, one
iteration per :meth:`_Loop.step`, which runs in order: per-mode per-node
spectral updates at the current center frequencies (mode by mode, so
later modes see the earlier modes' fresh spectra, and read from the
residual ``x - sum_k g_k`` that the previous dual step left, carried
through the sweep, so the modes are never summed there), all K center
frequencies from one node-summed power in one
:func:`~tvgmd.spectral.mean_frequency` call, one graph-smoothing solve
for all modes against the previous iteration's graphs, the iteration's
step and change, over-relaxed once the loop is in its linear tail,
re-learning every mode's graph from its new pairwise distances in one
lockstep learner call, and the dual ascent, which writes the residual
the next sweep starts from, and returns the iteration's snapshot; an
input whose squares overflow ends the run there, in its one check: the
step raises :class:`~tvgmd.errors.NonFiniteInputError` once the
iteration's change or modes' energy is not finite, before any distances
are formed. Smoothing mixes nodes and the transform runs along time, so the
smoothing solve applies to the coefficient rows directly, and by Parseval
the distances of the rows scaled by ``sqrt(weights)`` are the time-domain
distances. Around each step, :func:`decompose` applies the stop rule and
sets the next graph tolerance. The loop stops when
``sum_k ||g_k' - g_k||^2 / ||g_k||^2``, each mode's squared change over
its previous energy with the norms taken over all nodes and coefficients,
drops below the tolerance: the rule of VMD (Dragomiretskiy & Zosso, IEEE
TSP 2014) and MVMD (ur Rehman & Aftab, IEEE TSP 2019). The run counts as
converged only if, in addition, every graph solve in it met its own
tolerance, as the trace's ``graph_converged`` flags record.

The graph solves are inexact early on, as in inexact ADMM (Eckstein &
Bertsekas, Math. Programming 1992): each iteration holds its solves to a
KKT tolerance (see :mod:`~tvgmd.graph_learner`) equal to the modes'
previous relative step ``sqrt(rel_change)``, clipped to
``[_GRAPH_EPSILON, _LOOSEST]``; the first iteration uses ``_LOOSEST``. So
a graph is solved about as accurately as its distances are known, and
``_GRAPH_EPSILON`` bounds the final graphs: a stop test that passes on
looser solves does not end the run, but holds the next iteration's solves
to ``_GRAPH_EPSILON``, and the run ends on the first iteration that passes
the stop test with its solves held to ``_GRAPH_EPSILON``. Each solve is
capped at the learner's own default of 2000 Newton steps. Each trace
snapshot records that tolerance, every mode's Newton step count and
convergence flag, and the augmented-Lagrangian objective, which
is assembled from reductions the loop forms anyway: the spectral terms
from each mode's power and the dual step's residual, and each graph term
from the objective the learner ends that mode's solve with. All K modes'
gains come from one :func:`~tvgmd.spectral.wiener_weights` call. The
loop always holds the duals; with ``tau = 0`` they stay zero.

The modes start at zero, each center at one of the input's spectral
peaks (:func:`_initial_omegas`), or at 0 once the peaks run out. That
spares the iterations that VMD's and MVMD's start, every center at 0 Hz,
spends walking the centers up to their bands.

Near its fixed point the loop contracts linearly: on the clean preset
each of the last 24 of its 31 unrelaxed iterations shrinks the change
2.6- to 2.9-fold. There it is over-relaxed, the Krasnosel'skii-Mann
iteration that Eckstein & Bertsekas (Math. Programming 1992) apply to
ADMM: once the previous iteration's change is below ``_RELAX_BELOW``,
each iteration's finished modes (the smoothed modes with graphs, the
gains without, after the centers are updated from the sweep's spectra)
become ``g_prev + _RELAX * (g - g_prev)``, in place, as ``g + (_RELAX -
1) * (g - g_prev)`` from the step that the change is read from, before
their energy, distances or graphs are formed. That is safe for two
reasons. A fixed point of the plain iteration is one of the relaxed
iteration too, and the other way round, so the stop rule ends the run at
the same point: at
``epsilon = 1e-16`` the relaxed and plain modes agree within 1.1e-8 of
max|x|. And the gate keeps the early iterations as they were, while the
centers and graphs are still moving far. The change the stop rule reads
is the relaxed step, ``_RELAX`` times the plain one, so the rule is no
looser.

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

Memory: with graphs the loop keeps two ``(K, N, P)`` mode buffers,
``_Loop.g`` and ``_Loop.spare``, which alternate between the previous
and the next iterate, since the sweep writes the next modes into
``spare`` and the step is formed in the previous ``g`` after smoothing;
smoothing makes one more, and leaves the buffer the sweep wrote free for
the distances' weighted modes, so no other (K, N, P) array is allocated
per iteration; the over-relaxation runs in place on the buffer that
smoothing (or, without graphs, the sweep) wrote. The centers' power, the
change and the energy are each one reduction over the modes into a
(K, P) array, so no mode is squared into a buffer. It also keeps three
``(N, P)`` arrays: the input coefficients ``x_c``, the duals ``lam`` and
the residual ``resid``. The dual step writes the residual into ``resid``
and allocates none; the next sweep starts from it and keeps one
block-sized temporary, its running residual. Without graphs the loop
holds ``x_c`` and a few (K, P) arrays. Each iteration's per-mode
``energy`` serves as the next iteration's denominators, so no iterate is
copied or squared twice. When the loop ends, :func:`decompose` keeps the
final modes' buffer and releases the ``_Loop`` with every other array.
Each mode goes back to the time domain one row block at a time, in place:
a series of T samples has T coefficients (P = T), so the finished modes
fill their whole rows, and the result's modes share that buffer
read-only; only the residual is a new ``(N, T)`` array.

Without graphs the traced peak is about 1.44 buffers at K = 4, reached as
the modes are formed: their buffer, the input coefficients and the loop's
(K, P) arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
)
from .errors import BadDimensionsError, NonFiniteInputError
from .graph_learner import learn_graph_batch
from .graph_ops import geodesic_update, n_edges, pairwise_distances
from .spectral import (
    from_coefficients,
    mean_frequency,
    row_blocks,
    to_coefficients,
    wiener_weights,
)

# Graph tolerance of the first iteration, and the loosest of any, from
# lockstep learner sweeps with the relaxed loop at beta = 0.1. Clean preset,
# caps 0.1 / 0.15 / 0.2 / 0.25 / 0.3 / 0.5: sweeps 67 / 66 / 66 / 72 / 72 /
# 62, Newton steps 143 / 136 / 132 / 137 / 137 / 124, in 21 / 22 / 22 / 21
# / 21 / 22 iterations. Summed over 6 dB seeds 0-9 and planted N = 32 / 64,
# 0.25 took 975 sweeps against 1,034 at 0.1, 987 at 0.2 and 959 at 0.5;
# every run took as many iterations at each cap, and every solve converged.
_LOOSEST = 0.25

# Graph tolerance of the final iteration, relative to the largest weight.
# At K = 4, alpha = 200, beta = 0.1 on the clean preset and 6 dB seeds 0-1,
# any tighter value from 1e-6 down to 1e-8 moved the modes by at most
# 5.6e-7 of max|x|, the weights by at most 1.4e-5 of the largest weight
# and no center by 1 mHz, for one more iteration; 1e-3 moved the weights
# by up to 4.4e-4 and saved 10-23 Newton steps per run.
_GRAPH_EPSILON = 1e-5

# Over-relaxation of the loop's linear tail: once the previous iteration's
# change is below _RELAX_BELOW, each iteration's finished modes step
# _RELAX times as far from the previous ones. At beta = 0.1 this took the
# clean preset from 31 iterations to 21 and 161 Newton steps to 137, and
# 6 dB seeds 0-9 to 28-32% fewer iterations, each to within 1e-6 of max|x|
# of the unrelaxed loop's result. Gated, 1.8 took 47 iterations on the
# clean preset and 2.0 did not converge in 2000.
_RELAX = 1.5
_RELAX_BELOW = 0.1


def _graph_tolerance(rel_change: float, config: DecompositionConfig) -> float:
    """KKT tolerance of the graph solves after an iteration that ended
    with ``rel_change``: the modes' relative step clipped to
    ``[_GRAPH_EPSILON, _LOOSEST]``, or ``_GRAPH_EPSILON`` once the stop
    test has passed."""
    if rel_change < config.epsilon:
        return _GRAPH_EPSILON
    return max(_GRAPH_EPSILON, min(_LOOSEST, math.sqrt(rel_change)))


def _initial_omegas(k: int, power: np.ndarray,
                    grid: np.ndarray) -> np.ndarray:
    """The K starting centers, sorted, from ``power``, the node-summed power
    of each coefficient (one bin of the length-2T mirror extension).

    Greedily, the strongest bin not yet suppressed seeds a mode if its power
    is positive and no bin within ``halfwidth`` of it has more power; its
    window is then suppressed. The first bin that fails ends the search, so
    a tone's leakage lobes, which sit beside a stronger bin, seed no mode.
    Modes left without a bin start at 0.
    """
    halfwidth = max(2, 2 * len(grid) // 100)
    left = power.copy()
    omegas = np.zeros(k)
    for i in range(k):
        top = int(np.argmax(left))
        window = slice(max(0, top - halfwidth), top + halfwidth + 1)
        if not (left[top] > 0 and power[top] == power[window].max()):
            break
        omegas[i] = grid[top]
        left[window] = 0.0
    return np.sort(omegas)


def _sweep(g, resid, lam, gains, blocks, out):
    """Step (1): the next modes from ``g`` into ``out``, one block of rows
    at a time; within a block in order over k, so later modes see the
    earlier modes' fresh spectra. ``gains`` holds one row per mode.

    The sweep carries the running residual ``r = x + lam / 2 - sum_k g_k``,
    started from ``lam / 2 + resid`` with ``resid = x - sum_k g_k`` as the
    dual step left it, so the modes are never summed here. Each mode's
    Wiener numerator ``x - sum_{j != k} g_j + lam / 2`` is ``r + g_k``: the
    mode takes ``r += old_k``, ``new_k = gain_k * r`` and ``r -= new_k``,
    three passes over the block, and ``r`` is its one temporary.
    """
    for rows in blocks:
        r = lam[rows] / 2.0
        r += resid[rows]
        for mode, gain in enumerate(gains):
            r += g[mode, rows]
            r -= np.multiply(r, gain, out=out[mode, rows])


def _node_power(g, node_power) -> np.ndarray:
    """(K, P) power of each mode's coefficients summed over nodes, each
    coefficient weighted by ``node_power``; one reduction over ``g``."""
    power = np.einsum("knp,knp->kp", g, g)
    power *= node_power
    return power


def _change(g, g_prev, relax, node_power) -> np.ndarray:
    """The iteration's step ``g - g_prev``, formed in ``g_prev``'s buffer,
    and, when ``relax``, the over-relaxation ``g <- g_prev + _RELAX * (g -
    g_prev)`` as ``g += (_RELAX - 1) * step``, in place. Returns each
    mode's squared step, the relaxed one when ``relax``, summed over all
    nodes and coefficients."""
    step = np.subtract(g, g_prev, out=g_prev)
    change = _node_power(step, node_power).sum(axis=1)
    if relax:
        step *= _RELAX - 1.0
        g += step
        change *= _RELAX * _RELAX
    return change


def _dual_step(g, x, lam, tau, weights, resid) -> float:
    """Dual ascent ``lam += tau * resid`` with the residual ``resid = x -
    sum_k g``, written into the caller's ``resid``, where the next sweep
    starts from it; returns the objective's reconstruction and dual term
    ``sum(weights * resid * (resid + lam))`` at the new duals."""
    np.subtract(x, np.sum(g, axis=0, out=resid), out=resid)
    lam += tau * resid
    fit = resid + lam
    fit *= resid
    fit *= weights
    return float(np.sum(fit))


def _relative_change(change, prev) -> float:
    """``sum_k change_k / prev_k``, each mode's squared change over its
    previous energy, both summed over all nodes (the stopping rule of VMD
    and MVMD), and both finite, as the loop checks them. A mode without
    previous energy counts 1 if it moved and 0 if it stayed at zero."""
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
    equals the time-domain ``sum_n ||x_n - sum_k g_n^k||^2``. The graph
    part adds each mode's ``2*beta*w'z + gamma*||w||^2 - 1'log(Qw)``, held
    in ``graph_f`` as the learner left it (zeros when ``beta = 0``).
    Monitoring only; the loop never branches on this value.
    """
    sq = (grid[None, :] - omegas[:, None]) ** 2  # (K, P)
    bandwidth = float(np.sum(mode_power * sq * weights))
    return 2.0 * config.alpha * bandwidth + fit + float(graph_f.sum())


class _Loop:
    """The loop's state, and one iteration of it as :meth:`step`.

    ``g`` holds the current modes' coefficients (K, N, P), or their gains
    (K, 1, P) when ``beta = 0``, and ``spare`` the buffer the next sweep
    writes into. ``lam`` holds the duals and ``resid`` the residual
    ``data - sum_k g``, both shaped as ``data``, and ``omegas`` the
    centers. ``x_c`` holds the input coefficients, and ``grid`` and
    ``weights`` the frequency and energy weight of each coefficient.
    ``edge_w`` holds each mode's edge weights, and ``graph_f`` holds each
    graph's objective as the learner left it, ``energy`` each mode's
    energy, ``rel_change`` the last iteration's change, which gates the
    over-relaxation, and ``graph_tol`` the tolerance of the next
    iteration's graph solves (``None`` without graphs).
    """

    def __init__(self, x: np.ndarray, config: DecompositionConfig):
        n = x.shape[0]
        k = config.K
        self.config = config
        self.x_c, self.grid, self.weights = to_coefficients(x)
        # an input whose squares overflow is caught by the first step
        with np.errstate(over="ignore"):
            power = np.einsum("np,np->p", self.x_c, self.x_c)
        self.omegas = _initial_omegas(k, power, self.grid)
        if config.beta > 0:
            self.data, self.node_power = self.x_c, 1.0
            self.root_weights = np.sqrt(self.weights)
        else:
            # g and lam hold the gains, one row against an input of ones; a
            # sum over nodes weights each coefficient by node_power
            self.data = np.ones((1, self.x_c.shape[1]))
            self.node_power = power
        self.blocks = row_blocks(*self.data.shape)
        self.g = np.zeros((k,) + self.data.shape)
        self.spare = np.empty_like(self.g)
        self.lam = np.zeros_like(self.data)
        self.resid = self.data.copy()  # x - sum_k g, and the modes start at 0
        self.fit_weights = self.weights * self.node_power
        self.energy = np.zeros(k)
        self.edge_w = np.zeros((k, n_edges(n)))
        self.graph_f = np.zeros(k)
        self.graph_tol = _LOOSEST if config.beta > 0 else None
        self.rel_change = math.inf

    def step(self, iteration: int) -> IterationSnapshot:
        """Run one iteration and return its snapshot."""
        config = self.config
        relax = self.rel_change < _RELAX_BELOW
        g_prev, g = self.g, self.spare
        # An input whose squares overflow turns the centers, the change and
        # the energy non-finite here; the run then ends at the check below,
        # so numpy's warnings on the way are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            # (1) spectral sweep, into the spare buffer
            gains = wiener_weights(self.grid, self.omegas[:, None],
                                   config.alpha)
            _sweep(g_prev, self.resid, self.lam, gains, self.blocks, out=g)
            # (2) all K centers from the fresh spectra; a mode without
            # power keeps its center
            mean_frequency(_node_power(g, self.node_power), self.grid,
                           out=self.omegas)
            if config.beta > 0:
                # (3) smooth along the previous graphs, all modes in one
                # solve; the sweep's buffer is free from here on, and takes
                # the weighted modes
                g = geodesic_update(g, self.edge_w, config.beta)
            # the step and its change, in g_prev's buffer, which becomes the
            # next spare; relaxed once the loop is in its linear tail
            change = _change(g, g_prev, relax, self.node_power)
            mode_power = _node_power(g, self.node_power)
            energy = mode_power.sum(axis=1)
        # The run's one overflow exit. Every coefficient's energy weight is
        # at most 1/(2T) <= 1/2, so each pairwise distance is at most its
        # mode's energy: finite energy keeps the distances the learner sees
        # finite. ``prev``, the relative change's denominator, is the
        # previous iteration's checked energy.
        if not (np.all(np.isfinite(change)) and np.all(np.isfinite(energy))):
            raise NonFiniteInputError(
                f"the modes' energy overflowed in iteration {iteration}: "
                "the input's scale is too large; rescale the samples"
            )

        graph_steps, graph_converged = (), ()
        if config.beta > 0:
            # (4) re-learn every mode's graph from its new distances
            zs = pairwise_distances(
                np.multiply(g, self.root_weights, out=self.spare))
            self.edge_w, steps, solved = learn_graph_batch(
                zs,
                config.beta,
                config.gamma,
                self.edge_w,
                eps=self.graph_tol,
                objective=self.graph_f,
            )
            graph_steps = tuple(steps.tolist())
            graph_converged = tuple(solved.tolist())

        # (5) dual ascent
        fit = _dual_step(g, self.data, self.lam, config.tau, self.fit_weights,
                         self.resid)

        # (6) per-mode change over the previous energy
        prev, self.energy = self.energy, energy
        self.g, self.spare = g, g_prev
        self.rel_change = _relative_change(change, prev)
        return IterationSnapshot(
            iteration=iteration,
            rel_change=self.rel_change,
            omegas=tuple(self.omegas.tolist()),
            objective=_objective(config, self.omegas, self.grid,
                                 self.weights, mode_power, fit, self.graph_f),
            graph_steps=graph_steps,
            graph_converged=graph_converged,
            graph_tolerance=self.graph_tol,
        )


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
    samples only (else :class:`NonFiniteInputError`). Finite samples whose
    squares overflow raise :class:`NonFiniteInputError` too, naming the
    input's scale, at the first iteration whose change or modes' energy is
    not finite, before any distances are formed; numpy warns of none of
    the infinities on the way.
    """
    x = signal.samples
    n, t = x.shape
    if n < 2 or t < 4:
        raise BadDimensionsError(
            f"need at least 2 nodes and 4 samples, got {n} x {t}"
        )
    if not np.all(np.isfinite(x)):
        raise NonFiniteInputError("signal contains NaN or infinite samples")
    loop = _Loop(x, config)
    trace: list[IterationSnapshot] = []
    converged = False
    for iteration in range(1, config.max_iter + 1):
        trace.append(loop.step(iteration))
        rel_change = trace[-1].rel_change
        # a run ends only on graphs solved to _GRAPH_EPSILON, and counts as
        # converged only if every graph solve in it met its tolerance
        if rel_change < config.epsilon and (
                config.beta == 0 or loop.graph_tol == _GRAPH_EPSILON):
            converged = all(all(s.graph_converged) for s in trace)
            break
        if config.beta > 0:
            loop.graph_tol = _graph_tolerance(rel_change, config)
    # the modes, formed once without graphs; every other array of the loop
    # is released before they go back to the time domain
    g = loop.g if config.beta > 0 else np.multiply(loop.g, loop.x_c)
    omegas, edge_w = loop.omegas, loop.edge_w
    del loop

    # Each mode goes back to the time domain in place, in its own rows of
    # the coefficient buffer, which then holds the finished modes and is
    # shared by them read-only. The residual sums the modes in loop order.
    for mode in g:
        from_coefficients(mode, out=mode)
    g.flags.writeable = False
    total = g[0].copy()
    for mode in g[1:]:
        total += mode
    residual = np.subtract(x, total, out=total)
    residual.flags.writeable = False
    order = np.argsort(omegas, kind="stable")
    return DecompositionResult(
        modes=tuple(
            GraphMode(
                mode_samples=g[mode],
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

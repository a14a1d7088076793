"""Learn one nonnegative edge-weight vector per mode from pairwise distances.

Solves, for each distance vector ``z`` of a batch::

    minimize_{w >= 0}  f(w) = 2*beta*w'z + gamma*||w||^2 - 1' log(Qw)

with ``Q`` the degree operator. The log barrier keeps every node degree
strictly positive without forbidding individual edges from vanishing. The
problem is strictly convex, and the solver is a projected Newton method with
an active set (Bertsekas, SIAM J. Control Optim. 1982): edges at or near
zero whose gradient pushes them down take a diagonally scaled gradient step
onto exact zeros, the free edges take a Newton step, and a projected Armijo
line search keeps every degree positive. ``f`` is a convex quadratic plus a
log barrier, so it is self-concordant, and the line search starts where
the damped Newton method does (Boyd & Vandenberghe, Convex Optimization,
9.6.4): at step length ``1/(1 + lambda)``, ``lambda`` the free-edge Newton
decrement, while ``lambda`` exceeds ``(1 - 2*alpha)/4`` for the Armijo
fraction ``alpha``, and at the full step below that; it halves from there.
The free-edge Newton system
``(2*gamma*I + Q_F' diag(deg^-2) Q_F) p = -grad_F`` is solved in node space
by the Woodbury identity: one N x N SPD solve plus O(M) work per step.
Where ``gamma * deg^2`` drowns in rounding, that N x N matrix can be
exactly singular; such a step falls back to the scaled gradient step on
every edge, whose line search starts at the full step. A solve stops
once the KKT residual ``||w - max(w - grad f(w), 0)||_inf`` is at most
``eps * max(w)``, a positive bound because the barrier keeps some weight
positive.

:func:`learn_graph_batch` is the one entry point. The problems of a batch
run in lockstep: every sweep takes one Newton step on each unfinished row,
with all the N x N systems in one batched solve. Each row keeps its own
active set, step length and stopping test, and a finished row drops out of
the batch. Every per-row quantity is computed in the same order whatever
the batch holds, so a row's result is bit-identical to solving it alone;
one graph is learned as ``learn_graph_batch(z[None], beta, gamma,
np.zeros((1, M)))``.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError
from .graph_ops import edge_degrees, edge_sums, node_matrices, nodes_from_edge_count

_ARMIJO = 1e-4  # fraction of the predicted decrease a step must achieve
_ROUNDING = 1e-13  # relative objective change below which f cannot judge a step
_ACTIVE_CAP = 1e-3  # largest weight an edge may have and still be held at zero
# Newton decrement below which the full step is the first trial (B&V 9.6.4)
_DAMPED = (1.0 - 2.0 * _ARMIJO) / 4.0


def _evaluate(v, lin, gamma, n):
    """Objective, degrees, gradient and KKT residual of each row of ``v``.

    ``lin`` holds the rows' ``2*beta*z``. A row with a nonpositive degree
    gets value and residual ``+inf``; its gradient is meaningless.
    """
    deg = edge_degrees(v, n)
    bad = None
    safe = deg
    if deg.size and deg.min() <= 0.0:
        bad = deg.min(axis=1) <= 0.0
        safe = np.where(bad[:, None], 1.0, deg)  # keeps 1/deg and log finite
    grad = lin + 2.0 * gamma * v - edge_sums(1.0 / safe, n)
    value = (
        (lin * v).sum(axis=1) + gamma * (v * v).sum(axis=1)
        - np.log(safe).sum(axis=1)
    )
    res = np.abs(v - np.maximum(v - grad, 0.0)).max(axis=1)
    if bad is not None:
        value[bad] = res[bad] = np.inf
    return value, deg, grad, res


def graph_objective(
    w: np.ndarray, z: np.ndarray, beta: float, gamma: float
) -> float | np.ndarray:
    """Evaluate ``2*beta*w'z + gamma*||w||^2 - sum_n log((Qw)_n)``.

    ``w`` and ``z`` are one edge vector each, giving a float, or ``(K, M)``
    stacks of them, giving one value per row. A row with a node degree that
    is not strictly positive evaluates to ``+inf``. Assumes ``w >= 0``.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if w.shape != z.shape or w.ndim not in (1, 2):
        raise DimensionMismatchError("w and z must have the same shape")
    n = nodes_from_edge_count(w.shape[-1])
    values = _evaluate(
        np.atleast_2d(w), 2.0 * beta * np.atleast_2d(z), gamma, n
    )[0]
    return float(values[0]) if w.ndim == 1 else values


def learn_graph_batch(
    zs: np.ndarray,
    beta: float,
    gamma: float,
    w_inits: np.ndarray,
    max_iter: int = 2000,
    eps: float = 1e-5,
    objective: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a batch of independent problems, one per row, in lockstep.

    Each row of ``zs`` / ``w_inits`` is one problem over the same node set,
    started from its own warm start. Every sweep takes one Newton step on
    each unfinished row, solving their N x N systems in one batched call;
    each row has its own active set and line-search step length. A row
    stops once its KKT residual is at most ``eps * max(w)``; a row
    that reaches ``max_iter`` Newton steps, or whose line search cannot
    move, stops as it stands. Finished rows leave the batch, and every row
    comes out bit-identical to a batch of that row alone.

    The start point changes the path, not the optimum; a warm start that
    leaves a node with degree zero is shifted up by ``1/(N-1)`` per edge,
    and one with a non-finite entry raises :class:`DegenerateInputError`.
    Edges whose optimum is zero come out as exact zeros. Where the change
    in ``f`` is below its rounding error, a step is accepted if it lowers
    the KKT residual.

    When ``objective``, an array with one entry per row, is given, each
    row's final ``f`` is written into it: the value the solver holds for
    the returned weights, so no caller needs :func:`graph_objective` again.
    It equals ``graph_objective(weights, zs, beta, gamma)`` exactly for a
    C-ordered ``zs``; for another layout each row's ``2*beta*w'z`` may be
    summed in a different order, a difference of rounding size.

    Returns
    -------
    (weights, iterations, converged)
        ``weights`` per row (nonnegative), ``iterations`` the Newton steps
        taken per row, ``converged`` a boolean per row.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    w_inits = np.atleast_2d(np.asarray(w_inits, dtype=float))
    if zs.shape != w_inits.shape:
        raise DimensionMismatchError("zs and w_inits must have the same shape")
    n_prob, m = zs.shape
    if m < 1:
        raise DegenerateInputError("a graph needs at least one edge (N >= 2)")
    if not np.all(np.isfinite(zs)):
        raise DegenerateInputError("distance vector contains non-finite entries")
    if not np.all(np.isfinite(w_inits)):
        raise DegenerateInputError("warm start contains non-finite entries")
    if np.any(zs < 0):
        raise DegenerateInputError("distances must be nonnegative")
    if gamma <= 0:
        raise DegenerateInputError("gamma must be positive")
    if beta < 0:
        raise DegenerateInputError("beta must be nonnegative")
    n = nodes_from_edge_count(m)
    out_w = np.empty_like(zs)
    iters = np.empty(n_prob, dtype=int)
    done = np.empty(n_prob, dtype=bool)
    if n_prob == 0:
        return out_w, iters, done

    live = np.arange(n_prob)  # batch row of each unfinished problem
    lin = 2.0 * beta * zs
    w = np.maximum(w_inits, 0.0)
    f, deg, g, res = _evaluate(w, lin, gamma, n)
    isolated = deg.min(axis=1) <= 0.0
    if isolated.any():
        w[isolated] += 1.0 / (n - 1)  # every node degree becomes at least 1
        f, deg, g, res = _evaluate(w, lin, gamma, n)
    # A row whose line search cannot move stops at the next sweep's top,
    # its step not counted; its trial is its w, so ``met`` stays False.
    stuck = np.zeros(n_prob, dtype=bool)
    for step in range(max_iter + 1):
        met = res <= eps * w.max(axis=1)
        stop = met | stuck | (step == max_iter)
        if stop.any():
            out_w[live[stop]], iters[live[stop]] = w[stop], (step - stuck)[stop]
            done[live[stop]] = met[stop]
            if objective is not None:
                objective[live[stop]] = f[stop]
            if stop.all():
                break
            keep = ~stop
            live, lin, w, f, deg, g, res = (
                v[keep] for v in (live, lin, w, f, deg, g, res)
            )

        active = (w <= np.minimum(res, _ACTIVE_CAP)[:, None]) & (g > 0.0)
        free = ~active
        g_free = np.where(active, 0.0, g)
        g_active = g - g_free
        # Active edges: gradient step scaled by the Hessian diagonal.
        p = -g / (2.0 * gamma + edge_sums(deg**-2.0, n))
        # Free edges: Newton step through the N x N Woodbury systems, each
        # with a 1 per free edge off the diagonal.
        s = node_matrices(free, 2.0 * gamma * deg * deg + edge_degrees(free, n))
        rhs = edge_degrees(g_free, n)[:, :, None]
        try:
            y = np.linalg.solve(s, rhs)[:, :, 0]
        except np.linalg.LinAlgError:  # a singular system: solve row by row
            y = np.full(deg.shape, np.nan)
            for r in range(len(y)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    y[r] = np.linalg.solve(s[r], rhs[r])[:, 0]
        # A row whose system is singular, or whose y is not finite, keeps
        # the scaled gradient step on all its edges: a non-finite step
        # would halve the step length to 0, and 0 * inf = nan never passes.
        newton = np.isfinite(y).all(axis=1)
        if not newton.all():
            y[~newton] = 0.0
            free &= newton[:, None]
        p = np.where(free, (edge_sums(y, n) - g) / (2.0 * gamma), p)
        newton_decrease = -(g_free * p).sum(axis=1)

        # Projected line search, each row halving its own step length from
        # the damped Newton step. The whole batch is re-evaluated every
        # round; a row that has stopped searching keeps its step length, so
        # it recomputes its own trial.
        lam = np.sqrt(np.maximum(newton_decrease, 0.0))
        a = np.where(newton & (lam > _DAMPED), 1.0 / (1.0 + lam), 1.0)
        searching = np.ones(len(w), dtype=bool)
        while True:
            trial = np.maximum(w + a[:, None] * p, 0.0)
            stuck = (trial == w).all(axis=1)  # no representable step remains
            f_t, deg_t, g_t, res_t = _evaluate(trial, lin, gamma, n)
            decrease = a * newton_decrease + (
                (g_active * (w - trial)).sum(axis=1)
            )
            # A step must lower f: at the rounding floor of f a predicted
            # decrease of rounding size would pass the Armijo test with
            # f_t == f. Near the optimum the decrease drowns in the
            # rounding of f; the KKT residual then decides.
            accept = ((f_t <= f - _ARMIJO * decrease) & (f_t < f)) | (
                (np.abs(f_t - f) <= _ROUNDING * np.maximum(1.0, np.abs(f)))
                & (res_t < res)
            )
            searching &= ~(stuck | accept)
            if not searching.any():
                break
            a[searching] *= 0.5
        w, f, deg, g, res = trial, f_t, deg_t, g_t, res_t
    return out_w, iters, done

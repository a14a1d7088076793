"""Learn one nonnegative edge-weight vector per mode from pairwise distances.

Solves, for a distance vector ``z``::

    minimize_{w >= 0}  f(w) = 2*beta*w'z + gamma*||w||^2 - 1' log(Qw)

with ``Q`` the degree operator. The log barrier keeps every node degree
strictly positive without forbidding individual edges from vanishing. The
problem is strictly convex, and the solver is a projected Newton method with
an active set (Bertsekas, SIAM J. Control Optim. 1982): edges at or near
zero whose gradient pushes them down take a diagonally scaled gradient step
onto exact zeros, the free edges take a Newton step, and a projected Armijo
line search keeps every degree positive. The free-edge Newton system
``(2*gamma*I + Q_F' diag(deg^-2) Q_F) p = -grad_F`` is solved in node space
by the Woodbury identity: one N x N SPD solve plus O(M) work per step.
A solve stops on the KKT residual ``||w - max(w - grad f(w), 0)||_inf``.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import solve

from .errors import DegenerateInputError, DimensionMismatchError, NotConvergedWarning
from .graph_ops import EdgeIndexing, apply_Q, nodes_from_edge_count

_ARMIJO = 1e-4  # fraction of the predicted decrease a step must achieve
_ROUNDING = 1e-13  # relative objective change below which f cannot judge a step
_ACTIVE_CAP = 1e-3  # largest weight an edge may have and still be held at zero


def graph_objective(
    w: np.ndarray, z: np.ndarray, beta: float, gamma: float
) -> float:
    """Evaluate ``2*beta*w'z + gamma*||w||^2 - sum_n log((Qw)_n)``.

    Returns ``+inf`` whenever some node degree is not strictly positive.
    Assumes ``w >= 0``.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if w.shape != z.shape:
        raise DimensionMismatchError("w and z must have the same length")
    degrees = apply_Q(w)
    if np.any(degrees <= 0.0):
        return float("inf")
    return float(
        2.0 * beta * (w @ z) + gamma * (w @ w) - np.sum(np.log(degrees))
    )


def _projected_newton(z, w, beta, gamma, idx, max_iter, eps):
    """Minimize one problem from ``w``; returns ``(w, steps, converged)``."""
    rows, cols, n = idx.rows, idx.cols, idx.n_nodes
    lin = 2.0 * beta * z

    def degrees(v):
        return np.bincount(rows, v, n) + np.bincount(cols, v, n)

    def evaluate(v):
        """Objective, degrees, gradient and KKT residual at ``v``."""
        deg = degrees(v)
        if deg.min() <= 0.0:
            return np.inf, deg, None, np.inf
        inv = 1.0 / deg
        grad = lin + 2.0 * gamma * v - inv[rows] - inv[cols]
        value = lin @ v + gamma * (v @ v) - np.log(deg).sum()
        return value, deg, grad, np.abs(v - np.maximum(v - grad, 0.0)).max()

    w = np.maximum(w, 0.0)
    if degrees(w).min() <= 0.0:
        w = w + 1.0 / (n - 1)  # every node degree becomes at least 1
    f, deg, g, res = evaluate(w)
    for step in range(max_iter + 1):
        if res <= eps * max(1.0, w.max()):
            return w, step, True
        if step == max_iter:
            break
        active = (w <= min(res, _ACTIVE_CAP)) & (g > 0.0)
        rf, cf = rows[~active], cols[~active]
        # Active edges: gradient step scaled by the Hessian diagonal.
        inv_sq = deg**-2.0
        p = -g / (2.0 * gamma + inv_sq[rows] + inv_sq[cols])
        # Free edges: Newton step through the N x N Woodbury system.
        s = np.diag(2.0 * gamma * deg * deg + degrees(~active))
        s[rf, cf] = s[cf, rf] = 1.0
        y = solve(s, degrees(np.where(active, 0.0, g)), assume_a="pos")
        p[~active] = (y[rf] + y[cf] - g[~active]) / (2.0 * gamma)
        newton_decrease = -(g[~active] @ p[~active])
        a = 1.0
        while True:
            trial = np.maximum(w + a * p, 0.0)
            if np.array_equal(trial, w):
                return w, step, False  # no representable step remains
            f_t, deg_t, g_t, res_t = evaluate(trial)
            decrease = a * newton_decrease + g[active] @ (w - trial)[active]
            if f_t <= f - _ARMIJO * decrease:
                break
            # Near the optimum the decrease drowns in the rounding of f;
            # the KKT residual then decides.
            if abs(f_t - f) <= _ROUNDING * max(1.0, abs(f)) and res_t < res:
                break
            a *= 0.5
        w, f, deg, g, res = trial, f_t, deg_t, g_t, res_t
    return w, max_iter, False


def learn_graph_batch(
    zs: np.ndarray,
    beta: float,
    gamma: float,
    w_inits: np.ndarray,
    max_iter: int = 2000,
    eps: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve a batch of independent problems, one per row.

    Each row of ``zs`` / ``w_inits`` is one problem over the same node set,
    solved on its own from its warm start. A row stops once its KKT
    residual is at most ``eps * max(1, max(w))``; a row that reaches
    ``max_iter`` Newton steps, or whose line search cannot move, is returned
    as it stands.

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
    if np.any(zs < 0):
        raise DegenerateInputError("distances must be nonnegative")
    if gamma <= 0:
        raise DegenerateInputError("gamma must be positive")
    if beta < 0:
        raise DegenerateInputError("beta must be nonnegative")
    idx = EdgeIndexing(nodes_from_edge_count(m))
    out_w = np.empty_like(zs)
    iters = np.empty(n_prob, dtype=int)
    done = np.empty(n_prob, dtype=bool)
    for row in range(n_prob):
        out_w[row], iters[row], done[row] = _projected_newton(
            zs[row], w_inits[row], beta, gamma, idx, max_iter, eps
        )
    return out_w, iters, done


def learn_graph(
    z: np.ndarray,
    beta: float,
    gamma: float,
    w_init: np.ndarray | None = None,
    max_iter: int = 2000,
    eps: float = 1e-5,
) -> np.ndarray:
    """Learn edge weights for one distance vector.

    Parameters
    ----------
    z : np.ndarray
        Nonnegative pairwise-distance edge vector of length N(N-1)/2.
    beta : float
        Smoothness weight multiplying ``w'z``; larger values suppress edges
        between dissimilar nodes harder.
    gamma : float
        Weight-magnitude penalty; must be positive (makes f strictly convex).
    w_init : np.ndarray, optional
        Warm start; zeros when omitted.
    max_iter, eps : int, float
        Cap on Newton steps and tolerance on the KKT residual, relative to
        ``max(1, max(w))``.

    Returns
    -------
    np.ndarray
        Learned nonnegative edge weights. If the tolerance is not met a
        :class:`NotConvergedWarning` is emitted and the last iterate is
        returned; its node degrees are still strictly positive.

    Notes
    -----
    The start point changes the path, not the optimum; a warm start that
    leaves a node with degree zero is shifted up by ``1/(N-1)`` per edge.
    Edges whose optimum is zero come out as exact zeros. Where the change
    in ``f`` is below its rounding error, a step is accepted if it lowers
    the KKT residual; a step that cannot move ``w`` ends the solve.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise DimensionMismatchError("z must be one-dimensional")
    if w_init is None:
        w_init = np.zeros_like(z)
    w_init = np.asarray(w_init, dtype=float)
    if w_init.shape != z.shape:
        raise DimensionMismatchError("w_init must match z in length")
    weights, iters, converged = learn_graph_batch(
        z[None, :], beta, gamma, w_init[None, :], max_iter=max_iter, eps=eps
    )
    if not converged[0]:
        warnings.warn(
            f"graph learner stopped at step {iters[0]} before eps={eps}",
            NotConvergedWarning,
            stacklevel=2,
        )
    return weights[0]

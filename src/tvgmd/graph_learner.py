"""Learn one nonnegative edge-weight vector per mode from pairwise distances.

Solves, for a distance vector ``z``::

    minimize_{w >= 0}  2*beta*w'z + gamma*||w||^2 - 1' log(Qw)

with ``Q`` the degree operator. The log barrier keeps every node degree
strictly positive without forbidding individual edges from vanishing. The
solver is a forward-backward-forward primal-dual splitting: two gradient
steps on the smooth ``gamma*||w||^2`` part bracket proximal steps on the
nonnegativity-plus-linear term (primal) and on the conjugate of the log
barrier (dual, in degree space).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, NotConvergedWarning
from .graph_ops import EdgeIndexing, apply_Q, nodes_from_edge_count

_TINY = np.finfo(float).tiny


def fbf_step_size(gamma: float, n_nodes: int) -> float:
    """Step size for the splitting iteration.

    The convergence condition bounds the step by ``1 / (2*gamma + ||Q||_2)``
    where ``||Q||_2 = sqrt(2(N-1))`` because each node touches ``N-1`` edges;
    0.9 of that bound is used.
    """
    return 0.9 / (2.0 * gamma + np.sqrt(2.0 * (n_nodes - 1)))


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


def learn_graph_batch(
    zs: np.ndarray,
    beta: float,
    gamma: float,
    w_inits: np.ndarray,
    max_iter: int = 2000,
    eps: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the splitting solver on a batch of independent problems.

    Each row of ``zs`` / ``w_inits`` is one problem over the same node set.
    A problem stops iterating once both its primal and dual relative changes
    fall below ``eps``; the returned row is then exactly the iterate a
    standalone run would have produced. Rows that never meet the tolerance
    are returned as they stand at ``max_iter``.

    Returns
    -------
    (weights, iterations, converged)
        ``weights`` is ``max(w, 0)`` per row, ``iterations`` the stop index
        per row, ``converged`` a boolean per row.
    """
    zs = np.atleast_2d(np.asarray(zs, dtype=float))
    w = np.atleast_2d(np.asarray(w_inits, dtype=float)).copy()
    if zs.shape != w.shape:
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
    n = nodes_from_edge_count(m)
    idx = EdgeIndexing(n)
    rows, cols = idx.rows, idx.cols
    if m * n <= 1 << 18:
        # Dense incidence matrix: w @ B gives all node degrees in one GEMM.
        B = np.zeros((m, n))
        B[np.arange(m), rows] = 1.0
        B[np.arange(m), cols] = 1.0

        def degrees(mat):
            return mat @ B

    else:
        # Large graphs: O(M) accumulation beats the M x N product.
        def degrees(mat):
            out = np.empty((mat.shape[0], n))
            for row in range(mat.shape[0]):
                out[row] = np.bincount(
                    rows, weights=mat[row], minlength=n
                ) + np.bincount(cols, weights=mat[row], minlength=n)
            return out

    delta = fbf_step_size(gamma, n)
    d = np.ones((n_prob, n))
    thresh = 2.0 * beta * delta * zs
    shrink = 1.0 - 2.0 * gamma * delta  # forward step on the smooth part
    eps_sq = eps * eps
    floor = _TINY  # squared-norm floor against 0/0

    out_w = w.copy()
    iters = np.full(n_prob, max_iter, dtype=int)
    done = np.zeros(n_prob, dtype=bool)

    for i in range(1, max_iter + 1):
        y = shrink * w - delta * (d[:, rows] + d[:, cols])
        yb = d + delta * degrees(w)
        p = np.maximum(0.0, y - thresh)
        pb = 0.5 * (yb - np.sqrt(yb * yb + 4.0 * delta))
        q = shrink * p - delta * (pb[:, rows] + pb[:, cols])
        qb = pb + delta * degrees(p)
        w_new = w - y + q
        d_new = d - yb + qb

        # Relative-change tests in squared form (saves the square roots).
        dw = w_new - w
        dd = d_new - d
        w_ok = np.einsum("km,km->k", dw, dw) < eps_sq * np.maximum(
            np.einsum("km,km->k", w, w), floor
        )
        d_ok = np.einsum("kn,kn->k", dd, dd) < eps_sq * np.maximum(
            np.einsum("kn,kn->k", d, d), floor
        )
        w, d = w_new, d_new
        newly = ~done & w_ok & d_ok
        if newly.any():
            out_w[newly] = w[newly]
            iters[newly] = i
            done |= newly
            if done.all():
                break
    out_w[~done] = w[~done]
    return np.maximum(out_w, 0.0), iters, done


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
        Weight-magnitude penalty; must be positive (it provides the strong
        convexity the step size relies on).
    w_init : np.ndarray, optional
        Warm start; zeros when omitted.
    max_iter, eps : int, float
        Iteration cap and relative-change tolerance applied to the primal
        and dual variables jointly.

    Returns
    -------
    np.ndarray
        Learned nonnegative edge weights. If the tolerance is not met a
        :class:`NotConvergedWarning` is emitted and the best iterate is
        returned; its node degrees are still strictly positive.

    Notes
    -----
    When the optimum drives some node degree very close to zero the dual
    variable for that node approaches ``-1/degree`` only at a square-root
    rate, so the joint stopping rule may not fire even though the weights
    have long stabilized. The returned weights are accurate in that regime;
    the warning is about the dual.
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
            f"graph learner hit max_iter={max_iter} before reaching eps={eps}",
            NotConvergedWarning,
            stacklevel=2,
        )
    return weights[0]

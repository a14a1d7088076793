"""Linear algebra on undirected weighted graphs stored as edge-weight vectors.

Edge weights live in the upper-triangular row-major order: for ``N`` nodes
the vector has ``M = N(N-1)/2`` entries and entry ``e`` corresponds to the
pair ``(m, n)`` with ``m < n``, pairs enumerated as ``(0,1), (0,2), ...,
(N-2, N-1)``. This layout is the canonical one for every file format and
every function in the package. :func:`edge_pairs` gives the node pair of
each edge as ``rows``/``cols`` arrays. The degree operator ``Q``
(:func:`edge_degrees`) and its adjoint (:func:`edge_sums`) work on edge
vectors directly; :func:`node_matrices` is the one place where edge vectors
become N x N matrices, such as ``I + beta L`` in :func:`geodesic_update`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionMismatchError


def n_edges(n_nodes: int) -> int:
    return n_nodes * (n_nodes - 1) // 2


def nodes_from_edge_count(m: int) -> int:
    """Invert ``M = N(N-1)/2``; raises if ``m`` is not a valid edge count."""
    n = int((1 + math.isqrt(1 + 8 * m)) // 2)
    if n < 2 or n_edges(n) != m:
        raise DimensionMismatchError(
            f"{m} is not N(N-1)/2 for any integer N >= 2"
        )
    return n


@functools.lru_cache(maxsize=16)
def edge_pairs(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Node pair ``(rows[e], cols[e])`` of each edge ``e`` of ``n_nodes``.

    Built once per node count and read-only, since every caller shares
    them. No validation: callers pass ``n_nodes >= 2``.
    """
    rows, cols = np.triu_indices(n_nodes, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@functools.lru_cache(maxsize=64)
def _batch_pairs(n_nodes: int, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Node indices of ``batch`` stacked edge vectors, row ``b`` offset by
    ``b * n_nodes``; built once per shape and read-only."""
    rows, cols = edge_pairs(n_nodes)
    offsets = (n_nodes * np.arange(batch))[:, None]
    rows, cols = (rows + offsets).ravel(), (cols + offsets).ravel()
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def edge_degrees(w: np.ndarray, n_nodes: int) -> np.ndarray:
    """Node degrees of each row of a ``(B, M)`` stack of edge vectors.

    This is the degree operator ``Q``: ``(Qw)[n]`` sums ``w`` over the edges
    at node ``n``, which equals ``W 1`` for the adjacency matrix ``W``
    without building it. One ``np.bincount`` over batch-offset node indices
    serves all rows. A row's bins receive only that row's edges, in edge
    order, so each row sums in the same order as it would alone and batch
    rows are bit-identical to single-row calls. No validation: callers pass
    rows of length ``M`` for ``n_nodes``.
    """
    b, n = w.shape[0], n_nodes
    rows, cols = _batch_pairs(n, b)
    flat = w.ravel()
    degrees = np.bincount(rows, flat, b * n) + np.bincount(cols, flat, b * n)
    return degrees.reshape(b, n)


def edge_sums(d: np.ndarray, n_nodes: int) -> np.ndarray:
    """Adjoint of :func:`edge_degrees`: ``d[m] + d[n]`` for each edge.

    ``d`` is a ``(B, N)`` stack of node vectors; the result is ``(B, M)``.
    Gathers through the batch-offset indices of :func:`edge_degrees`, which
    beats indexing the columns of ``d``. No validation.
    """
    b = d.shape[0]
    rows, cols = _batch_pairs(n_nodes, b)
    flat = d.ravel()
    return (flat[rows] + flat[cols]).reshape(b, n_edges(n_nodes))


def node_matrices(edge_values: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Symmetric ``(B, N, N)`` matrices with the ``(B, M)`` edge values at
    both entries of each edge and the ``(B, N)`` diagonals; no validation."""
    b, n = diagonal.shape
    rows, cols = edge_pairs(n)
    matrices = np.zeros((b, n, n))
    matrices[:, rows, cols] = matrices[:, cols, rows] = edge_values
    nodes = np.arange(n)
    matrices[:, nodes, nodes] = diagonal
    return matrices


def pairwise_distances(modes: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all row pairs of N x T matrices.

    Parameters
    ----------
    modes : np.ndarray
        One N x T signal matrix (one time series per row), or a ``(K, N, T)``
        stack of them; a stack is handled in one batched Gram product.

    Returns
    -------
    np.ndarray
        Edge vector ``z`` with ``z[e=(m,n)] = ||row_m - row_n||^2``, shape
        ``(M,)`` for one matrix and ``(K, M)`` for a stack.

    No validation: callers pass float arrays of at least 2 rows. Finite
    rows whose squares overflow give infinite or NaN distances, with
    numpy's warnings.
    """
    rows, cols = edge_pairs(modes.shape[-2])
    G = modes @ modes.swapaxes(-1, -2)
    sq = np.diagonal(G, axis1=-2, axis2=-1)
    z = sq[..., rows] + sq[..., cols] - 2.0 * G[..., rows, cols]
    # Gram-based distances can dip a hair below zero for identical rows.
    return np.maximum(z, 0.0)


def geodesic_update(
    f: np.ndarray, edge_w: np.ndarray, beta: float
) -> np.ndarray:
    """Solve ``(I + beta L_k) U_k = F_k`` for every mode ``k`` at once.

    ``f`` is a ``(K, N, P)`` stack of node-by-coefficient matrices and
    ``edge_w`` the ``(K, M)`` edge weights of the K graphs; ``L_k`` is the
    combinatorial Laplacian of graph ``k``. Returns the ``(K, N, P)``
    solutions as a new array. No validation: callers pass finite float
    arrays with ``M = N(N-1)/2``, nonnegative weights and ``beta >= 0``.

    ``I + beta L`` is symmetric positive definite for ``beta >= 0`` and
    nonnegative weights: its eigenvalues are at least 1, so no check is
    needed. The K inverses are applied as one batched matrix product,
    which for small N and many columns is several times faster than
    triangular solves. The explicit inverse is safe here: the eigenvalues
    of L lie in ``[0, 2 * max degree]``, so ``cond(I + beta L) <= 1 +
    2*beta*max degree`` and the product's error stays within that factor
    of rounding.
    """
    degrees = edge_degrees(edge_w, f.shape[1])
    A = node_matrices(-beta * edge_w, 1.0 + beta * degrees)
    return np.linalg.inv(A) @ f


"""Linear algebra on undirected weighted graphs stored as edge-weight vectors.

Edge weights live in the upper-triangular row-major order: for ``N`` nodes
the vector has ``M = N(N-1)/2`` entries and entry ``e`` corresponds to the
pair ``(m, n)`` with ``m < n``, pairs enumerated as ``(0,1), (0,2), ...,
(N-2, N-1)``. This layout is the canonical one for every file format and
every function in the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    DimensionMismatchError,
    NegativeWeightError,
    NonFiniteInputError,
    SolveFailureError,
)


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
def _triu_pairs(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangular index arrays for ``n_nodes``, built once per node
    count and read-only, since every caller shares them."""
    rows, cols = np.triu_indices(n_nodes, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@dataclass(frozen=True)
class EdgeIndexing:
    """Bijection between edge positions and upper-triangular node pairs."""

    n_nodes: int
    rows: np.ndarray = field(init=False, repr=False)
    cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_nodes < 2:
            raise DimensionMismatchError("a graph needs at least 2 nodes")
        rows, cols = _triu_pairs(self.n_nodes)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def pairs(self) -> np.ndarray:
        """(M, 2) array of node index pairs, row-major upper-triangular."""
        return np.column_stack([self.rows, self.cols])


@dataclass(frozen=True)
class DenseGraph:
    """Adjacency, degree vector and combinatorial Laplacian of one graph."""

    adjacency: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]


def _indexing_for(w: np.ndarray, n_nodes: int | None) -> EdgeIndexing:
    w = np.asarray(w)
    if w.ndim != 1:
        raise DimensionMismatchError("edge vector must be one-dimensional")
    if n_nodes is None:
        n_nodes = nodes_from_edge_count(w.shape[0])
    elif n_edges(n_nodes) != w.shape[0]:
        raise DimensionMismatchError(
            f"edge vector of length {w.shape[0]} does not match "
            f"n_nodes={n_nodes} (expected {n_edges(n_nodes)})"
        )
    return EdgeIndexing(n_nodes)


def apply_Q(w: np.ndarray, n_nodes: int | None = None) -> np.ndarray:
    """Map edge weights to node degrees: ``(Qw)[n] = sum of w over edges at n``.

    Equivalent to densifying ``w`` into the adjacency W and computing ``W 1``,
    but runs in O(M) without materializing anything.
    """
    idx = _indexing_for(w, n_nodes)
    w = np.asarray(w, dtype=float)
    n = idx.n_nodes
    return np.bincount(idx.rows, weights=w, minlength=n) + np.bincount(
        idx.cols, weights=w, minlength=n
    )


def apply_Q_transpose(d: np.ndarray, n_nodes: int | None = None) -> np.ndarray:
    """Adjoint of :func:`apply_Q`: ``(Q^T d)[e=(m,n)] = d[m] + d[n]``."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise DimensionMismatchError("degree vector must be one-dimensional")
    if n_nodes is not None and n_nodes != d.shape[0]:
        raise DimensionMismatchError(
            f"degree vector of length {d.shape[0]} does not match n_nodes={n_nodes}"
        )
    idx = EdgeIndexing(d.shape[0])
    return d[idx.rows] + d[idx.cols]


def pairwise_distances(mode: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Squared Euclidean distances between all row pairs of an N x T matrix.

    Parameters
    ----------
    mode : np.ndarray
        Signal matrix, one time series per row.
    normalize : bool
        Divide the result by its mean (skipped when the mean is zero), which
        makes downstream smoothness weights invariant to the signal scale.

    Returns
    -------
    np.ndarray
        Edge vector ``z`` with ``z[e=(m,n)] = ||row_m - row_n||^2``.
    """
    U = np.asarray(mode, dtype=float)
    if U.ndim != 2:
        raise DimensionMismatchError("mode must be an N x T matrix")
    if not np.all(np.isfinite(U)):
        raise NonFiniteInputError("mode matrix contains non-finite entries")
    idx = EdgeIndexing(U.shape[0])
    G = U @ U.T
    sq = np.diag(G)
    z = sq[idx.rows] + sq[idx.cols] - 2.0 * G[idx.rows, idx.cols]
    # Gram-based distances can dip a hair below zero for identical rows.
    z = np.maximum(z, 0.0)
    if normalize:
        mean = z.mean() if z.size else 0.0
        if mean > 0.0:
            z = z / mean
    return z


def smoothness(mode: np.ndarray, graph: DenseGraph) -> float:
    """Quadratic-form smoothness ``Tr(U^T L U)`` of a signal over a graph.

    Small values mean strongly connected nodes carry similar time series.
    Identical to ``sum_e w[e] * z[e]`` with ``z`` the pairwise distances.
    """
    U = np.asarray(mode, dtype=float)
    if U.ndim != 2 or U.shape[0] != graph.n_nodes:
        raise DimensionMismatchError(
            "mode row count does not match the graph's node count"
        )
    value = float(np.sum(U * (graph.laplacian @ U)))
    if __debug__:
        z = pairwise_distances(U)
        w = vectorize(graph.adjacency)
        alt = float(w @ z)
        assert abs(value - alt) <= 1e-9 * max(1.0, abs(value)), (
            f"smoothness forms disagree: {value} vs {alt}"
        )
    return value


def geodesic_update(
    residual_plus_self: np.ndarray, graph: DenseGraph, beta: float
) -> np.ndarray:
    """Solve ``(I + beta L) U = F`` column-by-column for one graph.

    ``I + beta L`` is symmetric positive definite for ``beta >= 0``, so a
    single Cholesky factorization serves all T columns.
    """
    F = np.asarray(residual_plus_self, dtype=float)
    if F.ndim != 2 or F.shape[0] != graph.n_nodes:
        raise DimensionMismatchError(
            "input row count does not match the graph's node count"
        )
    if beta < 0:
        raise NegativeWeightError("beta must be nonnegative")
    if beta == 0.0:
        return F.copy()
    A = np.eye(graph.n_nodes) + beta * graph.laplacian
    try:
        factor = cho_factor(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - corrupted L only
        raise SolveFailureError(f"(I + beta L) is not SPD: {exc}") from exc
    return cho_solve(factor, F)


def densify(w: np.ndarray, n_nodes: int | None = None) -> DenseGraph:
    """Expand an edge-weight vector into adjacency, degrees and Laplacian."""
    idx = _indexing_for(w, n_nodes)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise NegativeWeightError("edge weights must be nonnegative")
    n = idx.n_nodes
    W = np.zeros((n, n))
    W[idx.rows, idx.cols] = w
    W = W + W.T
    degree = apply_Q(w, n)
    return DenseGraph(adjacency=W, degree=degree, laplacian=np.diag(degree) - W)


def vectorize(adjacency: np.ndarray) -> np.ndarray:
    """Extract the upper-triangular edge vector from a symmetric adjacency."""
    W = np.asarray(adjacency, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionMismatchError("adjacency must be square")
    idx = EdgeIndexing(W.shape[0])
    return W[idx.rows, idx.cols].copy()

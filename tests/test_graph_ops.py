import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgmd.errors import DimensionMismatchError
from tvgmd.graph_ops import (
    edge_degrees,
    edge_pairs,
    edge_sums,
    geodesic_update,
    n_edges,
    node_matrices,
    nodes_from_edge_count,
    pairwise_distances,
)

rng = np.random.default_rng(42)


def node_pairs(n):
    """Node pair ``(m, k)``, ``m < k``, of every edge in row-major
    upper-triangular order, built independently of the package."""
    return [(int(m), int(k)) for m, k in zip(*np.triu_indices(n, k=1))]


def laplacian(w):
    """Dense combinatorial Laplacian ``D - W`` of one edge vector, built
    independently of the package's graph kernels."""
    w = np.asarray(w, dtype=float)
    n = int((1 + np.sqrt(1 + 8 * w.size)) // 2)
    adjacency = np.zeros((n, n))
    adjacency[np.triu_indices(n, k=1)] = w
    adjacency += adjacency.T
    return np.diag(adjacency.sum(axis=1)) - adjacency


def brute_force_distances(U):
    n = U.shape[0]
    out = []
    for m in range(n):
        for k in range(m + 1, n):
            out.append(float(np.sum((U[m] - U[k]) ** 2)))
    return np.array(out)


class TestEdgeIndexing:
    def test_pair_order_is_row_major_upper_triangular(self):
        rows, cols = edge_pairs(4)
        expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert node_pairs(4) == expected
        assert list(zip(rows.tolist(), cols.tolist())) == expected

    def test_edge_count_roundtrip(self):
        for n in range(2, 30):
            assert nodes_from_edge_count(n_edges(n)) == n

    def test_bad_edge_count_rejected(self):
        with pytest.raises(DimensionMismatchError):
            nodes_from_edge_count(4)


def degrees_of(w):
    """Degree operator ``Q w`` of one edge vector through the stacked kernel."""
    w = np.asarray(w, dtype=float)
    return edge_degrees(w[None, :], nodes_from_edge_count(w.size))[0]


def degrees_adjoint(d):
    """Adjoint ``Q' d`` of one node vector through the stacked kernel."""
    d = np.asarray(d, dtype=float)
    return edge_sums(d[None, :], d.size)[0]


class TestApplyQ:
    def test_three_node_incidence(self):
        # edges (0,1), (0,2), (1,2) with weights a, b, c
        a, b, c = 2.0, 5.0, 11.0
        assert np.allclose(degrees_of([a, b, c]), [a + b, a + c, b + c])

    def test_zero_weights_zero_degrees(self):
        assert np.array_equal(degrees_of(np.zeros(10)), np.zeros(5))

    def test_matches_densified_adjacency(self):
        w = rng.random(n_edges(5))
        assert np.allclose(degrees_of(w), np.diag(laplacian(w)))

    def test_transpose_examples(self):
        assert np.allclose(degrees_adjoint(np.ones(4)), 2.0)
        assert np.allclose(
            degrees_adjoint(np.array([1.0, 2.0, 3.0])), [3.0, 4.0, 5.0]
        )

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_adjoint_identity(self, n, seed):
        r = np.random.default_rng(seed)
        w = r.standard_normal(n_edges(n))
        d = r.standard_normal(n)
        assert degrees_of(w) @ d == pytest.approx(
            w @ degrees_adjoint(d), abs=1e-12
        )

    def test_stack_matches_single_rows(self):
        rows, cols = edge_pairs(6)
        w = rng.random((5, n_edges(6)))
        d = rng.random((5, 6))
        degrees, sums = edge_degrees(w, 6), edge_sums(d, 6)
        for row in range(5):
            assert np.array_equal(degrees[row], degrees_of(w[row]))
            assert np.array_equal(sums[row], d[row, rows] + d[row, cols])


class TestNodeMatrices:
    @settings(max_examples=50, deadline=None)
    @given(
        b=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_dense_reference(self, b, n, seed):
        r = np.random.default_rng(seed)
        values = r.standard_normal((b, n_edges(n)))
        diagonal = r.standard_normal((b, n))
        matrices = node_matrices(values, diagonal)
        assert matrices.shape == (b, n, n)
        for row in range(b):
            expected = np.diag(diagonal[row])
            for e, (m, k) in enumerate(node_pairs(n)):
                expected[m, k] = expected[k, m] = values[row, e]
            assert np.array_equal(matrices[row], expected)
        assert np.array_equal(matrices, matrices.swapaxes(1, 2))


class TestPairwiseDistances:
    def test_identical_rows_give_zero(self):
        U = np.tile(rng.random(6), (4, 1))
        assert np.array_equal(pairwise_distances(U), np.zeros(6))

    def test_two_node_example(self):
        U = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert pairwise_distances(U) == pytest.approx([1.0])

    def test_matches_brute_force(self):
        U = rng.standard_normal((4, 8))
        assert pairwise_distances(U) == pytest.approx(
            brute_force_distances(U), abs=1e-10
        )

    def test_stack_matches_per_mode_calls(self):
        U = rng.standard_normal((3, 6, 40))
        U[1] = 1.0  # identical rows: all-zero distances for this mode
        stacked = pairwise_distances(U)
        assert stacked.shape == (3, n_edges(6))
        for mode in range(3):
            single = pairwise_distances(U[mode])
            assert np.abs(stacked[mode] - single).max() <= 1e-12

    def test_takes_only_the_modes(self):
        # one distance rule: there is no switch that rescales the distances
        U = rng.standard_normal((4, 8))
        with pytest.raises(TypeError):
            pairwise_distances(U, True)
        with pytest.raises(TypeError):
            pairwise_distances(U, normalize=True)

    @pytest.mark.parametrize("rows,expected,warned", [
        # squares that overflow: those distances come out infinite
        ([[1e200, 0.0], [0.0, 1.0], [0.0, 0.0]], [np.inf, np.inf, 1.0],
         ("overflow",)),
        # products that overflow with opposite signs: inf - inf
        ([[1e200, 1e200], [1e200, -1e200], [0.0, 1.0]],
         [np.nan, np.inf, np.inf], ("overflow", "invalid value")),
    ])
    def test_finite_squares_that_overflow_are_not_rejected(
            self, rows, expected, warned):
        # finite input is no input error even when its squares overflow,
        # and numpy's warnings still say so
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            z = pairwise_distances(np.array(rows))
        messages = " ".join(str(w.message) for w in caught)
        assert all(word in messages for word in warned)
        np.testing.assert_array_equal(z, expected)


def quadratic_form(U, w):
    """Smoothness ``Tr(U' L U)`` of the rows of ``U`` over the graph ``w``."""
    return float(np.sum(U * (laplacian(w) @ U)))


class TestSmoothness:
    """``Tr(U' L U) = sum_e w[e] * z[e]`` with ``z`` the pairwise distances."""

    def test_zero_graph_gives_zero(self):
        U = rng.standard_normal((4, 7))
        assert quadratic_form(U, np.zeros(6)) == 0.0
        assert np.zeros(6) @ pairwise_distances(U) == 0.0

    def test_constant_rows_give_zero(self):
        U = np.tile(rng.random(5), (3, 1))
        w = rng.random(3)
        assert quadratic_form(U, w) == pytest.approx(0.0, abs=1e-12)
        assert w @ pairwise_distances(U) == pytest.approx(0.0, abs=1e-12)

    def test_two_node_hand_value(self):
        U = np.array([[1.0, 0.0], [0.0, 0.0]])
        w = np.array([2.0])
        assert quadratic_form(U, w) == pytest.approx(2.0)
        assert w @ pairwise_distances(U) == pytest.approx(2.0)

    def test_two_forms_agree(self):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            U = rng.standard_normal((n, 10))
            w = rng.random(n_edges(n))
            assert quadratic_form(U, w) == pytest.approx(
                float(w @ pairwise_distances(U)), abs=1e-9
            )


def smooth_one(F, w, beta):
    """Smoothing solve of one mode through the stacked kernel."""
    return geodesic_update(F[None], w[None], beta)[0]


class TestGeodesicUpdate:
    def test_beta_zero_is_identity(self):
        F = rng.standard_normal((4, 6))
        assert np.array_equal(smooth_one(F, rng.random(6), 0.0), F)

    def test_beta_zero_returns_a_copy(self):
        F = rng.standard_normal((2, 4, 6))
        U = geodesic_update(F, rng.random((2, 6)), 0.0)
        assert U is not F and not np.shares_memory(U, F)

    def test_constant_columns_unchanged(self):
        # constants span the Laplacian null space
        F = np.tile(rng.random(6), (4, 1))
        assert smooth_one(F, rng.random(6), 0.7) == pytest.approx(F, abs=1e-10)

    def test_solve_residual_small(self):
        F = rng.standard_normal((4, 6))
        w = rng.random(6)
        beta = 0.7
        U = smooth_one(F, w, beta)
        A = np.eye(4) + beta * laplacian(w)
        assert np.linalg.norm(A @ U - F) <= 1e-9

    def test_smoothing_is_a_contraction(self):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            F = rng.standard_normal((n, 12))
            w = rng.random(n_edges(n))
            beta = float(rng.random() * 2)
            U = smooth_one(F, w, beta)
            assert quadratic_form(U, w) <= quadratic_form(F, w) + 1e-9

    def test_stack_matches_per_mode_calls(self):
        for n in (2, 5, 8):
            F = rng.standard_normal((4, n, 33))
            w = rng.random((4, n_edges(n))) * 3
            w[1] = 0.0  # an empty graph leaves its mode unchanged
            stacked = geodesic_update(F, w, 0.9)
            for mode in range(4):
                single = smooth_one(F[mode], w[mode], 0.9)
                assert np.abs(stacked[mode] - single).max() <= 1e-12
            assert np.abs(stacked[1] - F[1]).max() <= 1e-12

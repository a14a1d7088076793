import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgmd.errors import DegenerateInputError, NotConvergedWarning
from tvgmd.graph_learner import (
    fbf_step_size,
    graph_objective,
    learn_graph,
    learn_graph_batch,
)
from tvgmd.graph_ops import apply_Q, apply_Q_transpose, n_edges

rng = np.random.default_rng(11)


def closed_form_two_nodes(z, beta, gamma):
    """Stationarity of 2*beta*z*w + gamma*w^2 - 2*log(w):
    gamma*w^2 + beta*z*w - 1 = 0."""
    return (-beta * z + np.sqrt(beta**2 * z**2 + 4 * gamma)) / (2 * gamma)


def projected_gradient_reference(z, beta, gamma, max_iter=200_000, tol=1e-13):
    """Slow independent minimizer: projected gradient with backtracking."""
    n = int((1 + np.sqrt(1 + 8 * len(z))) // 2)

    def objective(w):
        if np.any(w < 0):
            return np.inf
        degrees = apply_Q(w, n)
        if np.any(degrees <= 0):
            return np.inf
        return 2 * beta * w @ z + gamma * w @ w - np.sum(np.log(degrees))

    w = np.full(len(z), 0.5)
    value = objective(w)
    step = 1.0
    for _ in range(max_iter):
        grad = 2 * beta * z + 2 * gamma * w - apply_Q_transpose(1.0 / apply_Q(w, n))
        while True:
            candidate = np.maximum(w - step * grad, 0.0)
            new_value = objective(candidate)
            if new_value <= value - 1e-4 * grad @ (w - candidate) or step < 1e-18:
                break
            step *= 0.5
        moved = np.linalg.norm(candidate - w)
        w, value = candidate, new_value
        step = min(step * 2.0, 100.0)
        if moved <= tol * max(1.0, np.linalg.norm(w)):
            break
    return w


def solve(z, beta=1.0, gamma=1.0, eps=1e-10, max_iter=100_000):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotConvergedWarning)
        return learn_graph(np.asarray(z, float), beta, gamma,
                           max_iter=max_iter, eps=eps)


class TestClosedForms:
    def test_single_edge_zero_distance(self):
        assert solve([0.0]) == pytest.approx([1.0], abs=1e-8)

    def test_single_edge_distance_three(self):
        expected = (-3 + np.sqrt(13)) / 2
        assert solve([3.0]) == pytest.approx([expected], abs=1e-8)

    @pytest.mark.parametrize("z", [0.0, 0.1, 1.0, 5.0, 40.0])
    @pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)])
    def test_sweep_against_stationarity(self, z, beta, gamma):
        expected = closed_form_two_nodes(z, beta, gamma)
        assert solve([z], beta, gamma) == pytest.approx([expected], abs=1e-8)


class TestInvariances:
    def test_symmetric_distances_give_symmetric_weights(self):
        z = np.full(n_edges(5), 2.5)
        w = solve(z)
        assert np.allclose(w, w[0], atol=1e-8)

    def test_only_the_product_beta_z_matters(self):
        z = rng.random(n_edges(4)) * 3
        w_a = solve(z, beta=0.8, gamma=1.2)
        w_b = solve(z / 2, beta=1.6, gamma=1.2)
        assert w_a == pytest.approx(w_b, abs=1e-6)

    def test_step_size_respects_bound(self):
        for n in range(2, 40):
            for gamma in (0.1, 1.0, 10.0):
                mu = 2 * gamma + np.sqrt(2 * (n - 1))
                assert 0 < fbf_step_size(gamma, n) < 1 / mu


class TestObjective:
    def test_zero_degree_is_infinite(self):
        w = np.array([0.0, 0.0, 1.0])  # node 0 isolated
        assert graph_objective(w, np.zeros(3), 1.0, 1.0) == np.inf

    def test_two_node_hand_value(self):
        assert graph_objective(
            np.array([1.0]), np.array([0.0]), 1.0, 1.0
        ) == pytest.approx(1.0)

    def test_learned_point_beats_perturbations(self):
        z = rng.random(n_edges(4)) * 2
        w = solve(z)
        base = graph_objective(w, z, 1.0, 1.0)
        r = np.random.default_rng(0)
        for _ in range(100):
            direction = r.standard_normal(len(w))
            direction /= np.linalg.norm(direction)
            perturbed = np.maximum(w + 1e-2 * direction, 0.0)
            assert base <= graph_objective(perturbed, z, 1.0, 1.0) + 1e-10


class TestSolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        beta=st.floats(min_value=0.01, max_value=3.0),
        gamma=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_weights_nonnegative_degrees_positive(self, n, seed, beta, gamma):
        z = np.random.default_rng(seed).random(n_edges(n)) * 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NotConvergedWarning)
            w = learn_graph(z, beta, gamma)
        assert np.all(w >= 0)
        assert np.all(apply_Q(w, n) > 0)

    def test_objective_trend_non_increasing(self):
        # the splitting iteration is not a strict descent method; allow a
        # 1e-6 relative wobble on the sampled objective values
        for seed in range(5):
            z = np.random.default_rng(seed).random(n_edges(5)) * 2
            values = []
            for cap in range(10, 400, 10):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", NotConvergedWarning)
                    w = learn_graph(z, 1.0, 1.0, max_iter=cap, eps=1e-14)
                values.append(graph_objective(w, z, 1.0, 1.0))
            values = np.array(values)
            slack = 1e-6 * np.maximum(1.0, np.abs(values[:-1]))
            assert np.all(np.diff(values) <= slack)

    def test_larger_distance_never_larger_weight(self):
        others = np.array([0.5, 0.8])
        previous = np.inf
        for z0 in np.linspace(0.0, 6.0, 13):
            w = solve(np.array([z0, *others]))
            assert w[0] <= previous + 1e-7
            previous = w[0]

    def test_matches_projected_gradient_small(self):
        for n in (3, 4):
            for seed in range(4):
                z = np.random.default_rng(seed).random(n_edges(n)) * 2
                mine = solve(z)
                reference = projected_gradient_reference(z, 1.0, 1.0)
                assert mine == pytest.approx(reference, abs=1e-4)

    def test_warm_start_reaches_same_solution(self):
        z = rng.random(n_edges(6)) * 2
        w_cold, _, conv_cold = learn_graph_batch(
            z[None, :], 1.0, 1.0, np.zeros((1, len(z))), max_iter=50_000, eps=1e-9
        )
        w_warm, _, conv_warm = learn_graph_batch(
            z[None, :], 1.0, 1.0, w_cold, max_iter=50_000, eps=1e-9
        )
        assert conv_cold[0] and conv_warm[0]
        assert w_warm[0] == pytest.approx(w_cold[0], abs=1e-7)

    def test_batch_rows_match_single_runs(self):
        # same iterates up to the BLAS reduction order, which is shape
        # dependent; agreement is to the last few ulps, not bit-exact
        zs = np.stack([rng.random(n_edges(5)) * 3 for _ in range(3)])
        batch, iters_b, _ = learn_graph_batch(
            zs, 0.7, 1.1, np.zeros_like(zs), max_iter=5000, eps=1e-8
        )
        for row in range(3):
            single, iters_s, _ = learn_graph_batch(
                zs[row : row + 1],
                0.7,
                1.1,
                np.zeros((1, zs.shape[1])),
                max_iter=5000,
                eps=1e-8,
            )
            assert iters_b[row] == iters_s[0]
            assert batch[row] == pytest.approx(single[0], abs=1e-12)


class TestErrorsAndWarnings:
    def test_degenerate_gamma_rejected(self):
        with pytest.raises(DegenerateInputError):
            learn_graph(np.ones(3), 1.0, 0.0)

    def test_non_finite_distances_rejected(self):
        with pytest.raises(DegenerateInputError):
            learn_graph(np.array([np.inf, 1.0, 1.0]), 1.0, 1.0)

    def test_cap_warns_not_converged(self):
        z = rng.random(n_edges(4))
        with pytest.warns(NotConvergedWarning):
            learn_graph(z, 1.0, 1.0, max_iter=3, eps=1e-12)

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgmd.errors import DegenerateInputError, DimensionMismatchError
from tvgmd.graph_learner import learn_graph_batch
from tvgmd.graph_ops import n_edges

rng = np.random.default_rng(11)


@functools.lru_cache(maxsize=None)
def pairs(n):
    """Node pairs of the upper-triangular edge order, built independently
    of the package and once per node count: the reference solver below
    needs them on every step."""
    return np.triu_indices(n, k=1)


def degrees(w, n):
    """Degree operator ``Q w``, one edge vector at a time."""
    rows, cols = pairs(n)
    return np.bincount(rows, w, n) + np.bincount(cols, w, n)


def degrees_adjoint(d):
    """Adjoint ``Q' d``: ``d[m] + d[n]`` for each edge ``(m, n)``."""
    rows, cols = pairs(len(d))
    return d[rows] + d[cols]


def closed_form_two_nodes(z, beta, gamma):
    """Stationarity of 2*beta*z*w + gamma*w^2 - 2*log(w):
    gamma*w^2 + beta*z*w - 1 = 0."""
    return (-beta * z + np.sqrt(beta**2 * z**2 + 4 * gamma)) / (2 * gamma)


def objective(w, z, beta, gamma, deg=None):
    """The learner's objective ``2*beta*w'z + gamma*||w||^2 - 1'log(W 1)``
    (Kalofolias, AISTATS 2016) of one edge vector, through the dense
    adjacency ``W``; ``+inf`` when a node degree is not positive. Given
    ``deg``, the node degrees are taken from it instead: the dense
    adjacency sums each degree in column order, and :func:`degrees` in
    the solver's, which can round apart."""
    if deg is None:
        n = int((1 + np.sqrt(1 + 8 * len(z))) // 2)
        rows, cols = np.triu_indices(n, k=1)
        adjacency = np.zeros((n, n))
        adjacency[rows, cols] = adjacency[cols, rows] = w
        deg = adjacency.sum(axis=1)
    if np.any(deg <= 0):
        return np.inf
    return (np.sum(2 * beta * z * w) + gamma * np.sum(w * w)
            - np.sum(np.log(deg)))


def projected_gradient_reference(z, beta, gamma, max_iter=200_000, tol=1e-13):
    """Slow independent minimizer: projected gradient with backtracking."""
    n = int((1 + np.sqrt(1 + 8 * len(z))) // 2)
    w = np.full(len(z), 0.5)
    value = objective(w, z, beta, gamma)
    step = 1.0
    for _ in range(max_iter):
        grad = 2 * beta * z + 2 * gamma * w - degrees_adjoint(1.0 / degrees(w, n))
        while True:
            candidate = np.maximum(w - step * grad, 0.0)
            new_value = objective(candidate, z, beta, gamma)
            if new_value <= value - 1e-4 * grad @ (w - candidate) or step < 1e-18:
                break
            step *= 0.5
        moved = np.linalg.norm(candidate - w)
        w, value = candidate, new_value
        step = min(step * 2.0, 100.0)
        if moved <= tol * max(1.0, np.linalg.norm(w)):
            break
    return w


def gradient(w, z, beta, gamma):
    """Gradient of the learner objective, from the degree operator."""
    n = int((1 + np.sqrt(1 + 8 * len(z))) // 2)
    return 2 * beta * z + 2 * gamma * w - degrees_adjoint(1.0 / degrees(w, n))


def assert_kkt(w, z, beta, gamma, tol):
    """Optimality of ``min f(w) s.t. w >= 0``: zero gradient on positive
    edges, nonnegative gradient on zero edges."""
    assert np.all(w >= 0)
    g = gradient(w, z, beta, gamma)
    assert np.all(np.abs(g[w > 0]) <= tol), np.abs(g[w > 0]).max()
    assert np.all(g[w == 0] >= -tol)


def solve(z, beta=1.0, gamma=1.0, eps=1e-10, max_iter=100_000):
    """One graph from a cold start, as it stands when the solve stops."""
    z = np.asarray(z, float)
    w, _, _ = learn_graph_batch(
        z[None], beta, gamma, np.zeros((1, z.size)), max_iter=max_iter, eps=eps
    )
    return w[0]


STOP_CAP = 12


def stop_kind_rows():
    """Four cold-start problems on 4 nodes that stop in every way the
    solver has at eps=1e-16 and cap :data:`STOP_CAP`, each after a
    different number of steps: converged after few and after many steps,
    at the cap, and on a line search that can no longer move w. At that
    eps the KKT test sits at the rounding floor of f. Returns the
    (steps, seed) picks and the distance rows, a C-ordered stack."""
    by_kind = {"converged": [], "capped": [], "stalled": []}
    for seed in range(100):
        z = np.random.default_rng(seed).random(n_edges(4)) * 3
        _, iters, conv = learn_graph_batch(
            z[None], 1.0, 1.0, np.zeros((1, z.size)), max_iter=STOP_CAP,
            eps=1e-16,
        )
        kind = ("converged" if conv[0]
                else "capped" if iters[0] == STOP_CAP else "stalled")
        by_kind[kind].append((int(iters[0]), seed))
    converged = sorted(by_kind["converged"])
    early, late = converged[0], converged[-1]
    stalled = next(
        pick for pick in by_kind["stalled"]
        if pick[0] not in (early[0], late[0])
    )
    picks = [early, late, by_kind["capped"][0], stalled]
    assert len({steps for steps, _ in picks}) == 4
    zs = np.stack(
        [np.random.default_rng(seed).random(n_edges(4)) * 3
         for _, seed in picks]
    )
    return picks, zs


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

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=12),
        t=st.integers(min_value=8, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
        beta=st.floats(min_value=0.1, max_value=1.0),
        gamma=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_node_relabelling_relabels_the_graph(self, n, t, seed, beta, gamma):
        r = np.random.default_rng(seed)
        x = r.standard_normal((n, t))
        perm = r.permutation(n)
        rows, cols = pairs(n)
        # the distances of the relabelled nodes are the same numbers, so
        # only the solver's path can tell the two problems apart
        zs = np.stack([((x[rows] - x[cols]) ** 2).sum(axis=1),
                       ((x[perm[rows]] - x[perm[cols]]) ** 2).sum(axis=1)])
        w, _, converged = learn_graph_batch(zs, beta, gamma, np.zeros_like(zs))
        assert converged.all()
        dense = np.zeros((2, n, n))
        dense[:, rows, cols] = w
        dense += dense.transpose(0, 2, 1)
        relabelled = dense[0][np.ix_(perm, perm)]
        assert np.abs(dense[1] - relabelled).max() <= 1e-9 * w[0].max()


class TestObjective:
    def test_two_node_hand_value(self):
        # z = 0, beta = gamma = 1: the optimum w = 1 gives 0 + 1 - 2 log 1;
        # the cold start is shifted onto it and stops there
        values = np.full(1, np.nan)
        w, _, _ = learn_graph_batch(np.zeros((1, 1)), 1.0, 1.0,
                                    np.zeros((1, 1)), objective=values)
        assert w[0, 0] == 1.0 and values[0] == 1.0

    def test_learned_point_beats_perturbations(self):
        z = rng.random(n_edges(4)) * 2
        w = solve(z)
        base = objective(w, z, 1.0, 1.0)
        r = np.random.default_rng(0)
        for _ in range(100):
            direction = r.standard_normal(len(w))
            direction /= np.linalg.norm(direction)
            perturbed = np.maximum(w + 1e-2 * direction, 0.0)
            assert base <= objective(perturbed, z, 1.0, 1.0) + 1e-10


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
        w = solve(z, beta, gamma, eps=1e-5, max_iter=2000)
        assert np.all(w >= 0)
        assert np.all(degrees(w, n) > 0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        scale=st.floats(min_value=0.01, max_value=100.0),
        beta=st.floats(min_value=0.01, max_value=3.0),
        gamma=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_solution_meets_kkt_conditions(self, n, seed, scale, beta, gamma):
        z = np.random.default_rng(seed).random(n_edges(n)) * scale
        w, _, converged = learn_graph_batch(
            z[None, :], beta, gamma, np.zeros((1, len(z))), eps=1e-10
        )
        assert converged[0]
        assert_kkt(w[0], z, beta, gamma, tol=1e-8)

    def test_kkt_at_64_nodes(self):
        # the Newton system is solved in node space: 64 x 64 here, where
        # the edge-space system would be 2016 x 2016
        z = np.random.default_rng(64).random(n_edges(64)) * 2
        w, iters, converged = learn_graph_batch(
            z[None, :], 1.0, 1.0, np.zeros((1, len(z))), eps=1e-10
        )
        assert converged[0] and iters[0] <= 50
        assert np.any(w[0] == 0) and np.any(w[0] > 0)
        assert_kkt(w[0], z, 1.0, 1.0, tol=1e-8)

    def test_objective_trend_non_increasing(self):
        # a projected Newton method with an Armijo search descends at every
        # step; the only increases it accepts are within 1e-13 relative
        # rounding of f, near the optimum
        for seed in range(5):
            z = np.random.default_rng(seed).random(n_edges(5)) * 2
            values = []
            for cap in range(1, 40):
                w = solve(z, max_iter=cap, eps=1e-14)
                values.append(objective(w, z, 1.0, 1.0))
            values = np.array(values)
            slack = 1e-12 * np.maximum(1.0, np.abs(values[:-1]))
            assert np.all(np.diff(values) <= slack)

    @pytest.mark.parametrize("z", [0.0, 0.4, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)])
    def test_tight_tolerance_does_not_stall(self, z, beta, gamma):
        # criterion 4's closed-form grid: at eps=1e-13 the Armijo decrease
        # drops below the rounding of f before the KKT test fires, so steps
        # must be judged on the residual instead of spinning to the cap
        _, iters, converged = learn_graph_batch(
            np.array([[z]]), beta, gamma, np.zeros((1, 1)),
            max_iter=300_000, eps=1e-13,
        )
        assert converged[0] and iters[0] <= 50

    def test_rounding_floor_ends_the_solve(self):
        # with eps below the rounding floor of f no step can lower f; each
        # solve must end on the no-move guard instead of taking ulp-sized
        # steps that pass the Armijo test with f_t == f until the cap
        zs = np.stack([
            3.0 * np.random.default_rng(seed).uniform(size=6)
            for seed in range(40)
        ])
        _, iters, _ = learn_graph_batch(
            zs, 1.0, 1.0, np.zeros_like(zs), max_iter=1000, eps=1e-16
        )
        assert iters.max() < 1000

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
        # every row is solved on its own, so a batch changes nothing
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
            assert np.array_equal(batch[row], single[0])

    @pytest.mark.parametrize("gamma", [1e-20, 1e-18])
    def test_singular_newton_systems_fall_back(self, gamma):
        # gamma * deg^2 drops below the rounding of the 1s in the node-space
        # Newton matrix, which is then exactly singular for some rows; they
        # take the scaled gradient step, and the batch stays row-exact
        zs = np.stack([
            2.0 * np.random.default_rng(seed).random(n_edges(8))
            for seed in range(10)
        ])
        batch, iters_b, conv_b = learn_graph_batch(
            zs, 1.0, gamma, np.zeros_like(zs)
        )
        assert np.all(np.isfinite(batch)) and np.all(batch >= 0)
        for row in range(len(zs)):
            assert np.all(degrees(batch[row], 8) > 0)
            single, iters_s, conv_s = learn_graph_batch(
                zs[row : row + 1], 1.0, gamma, np.zeros((1, zs.shape[1]))
            )
            assert np.array_equal(batch[row], single[0])
            assert iters_b[row] == iters_s[0] and conv_b[row] == conv_s[0]

    def test_empty_batch_returns_empty_outputs(self):
        zs = np.zeros((0, n_edges(5)))
        w, iters, conv = learn_graph_batch(zs, 0.7, 1.1, zs)
        assert w.shape == zs.shape and iters.shape == conv.shape == (0,)

    def test_lockstep_rows_that_stop_differently_match_single_runs(self):
        # One batch of one row of each stop kind: finished rows leave it
        # while the rest go on, which must not change any row.
        picks, zs = stop_kind_rows()

        def solve_alone(z):
            return learn_graph_batch(
                z[None], 1.0, 1.0, np.zeros((1, z.size)), max_iter=STOP_CAP,
                eps=1e-16,
            )

        batch, iters_b, conv_b = learn_graph_batch(
            zs, 1.0, 1.0, np.zeros_like(zs), max_iter=STOP_CAP, eps=1e-16
        )
        for row in range(4):
            single, iters_s, conv_s = solve_alone(zs[row])
            assert np.array_equal(batch[row], single[0])
            assert iters_b[row] == iters_s[0] == picks[row][0]
            assert conv_b[row] == conv_s[0]
        assert list(conv_b) == [True, True, False, False]
        # the stalled row's count is the steps that moved w: capped there
        # it ends at the same weights, capped one step earlier elsewhere
        stalled_z = zs[3:]
        for steps, same in ((iters_b[3], True), (iters_b[3] - 1, False)):
            capped_w, _, _ = learn_graph_batch(
                stalled_z, 1.0, 1.0, np.zeros_like(stalled_z),
                max_iter=steps, eps=1e-16,
            )
            assert np.array_equal(capped_w[0], batch[3]) == same

    def test_objective_output_is_the_final_objective(self):
        # the objective each row stops with is f at its returned weights:
        # a row that stops at step 0 on its own optimum, then one of each
        # stop kind past it (converged, converged late, capped, stalled),
        # and last a stalled row whose node 1 degree rounds apart in the
        # dense adjacency's order, (w01 + w12) + w13, and the solver's,
        # (w12 + w13) + w01
        picks, zs = stop_kind_rows()
        apart = np.random.default_rng(19).random(n_edges(4)) * 3
        w_inits = np.zeros_like(zs)
        w_opt, _, _ = learn_graph_batch(
            zs[:1], 1.0, 1.0, w_inits[:1], max_iter=STOP_CAP, eps=1e-16
        )
        zs = np.concatenate([zs[:1], zs, apart[None]])
        w_inits = np.concatenate([w_opt, w_inits, np.zeros_like(w_opt)])
        values = np.full(len(zs), np.nan)
        w, iters, conv = learn_graph_batch(
            zs, 1.0, 1.0, w_inits, max_iter=STOP_CAP, eps=1e-16,
            objective=values,
        )
        assert list(iters) == [0] + [steps for steps, _ in picks] + [8]
        assert list(conv) == [True, True, True, False, False, False]
        w01, _, _, w12, w13, _ = w[-1]
        assert (w01 + w12) + w13 != (w12 + w13) + w01
        assert zs.flags.c_contiguous
        for row in range(len(zs)):
            assert values[row] == objective(w[row], zs[row], 1.0, 1.0,
                                            deg=degrees(w[row], 4))

    def test_isolated_warm_start_beside_a_valid_one(self):
        # an all-zero warm start is shifted off zero degree and evaluated
        # again, with the whole batch; the valid row beside it must come
        # out as it does alone, and so must the shifted one
        zs = np.stack([rng.random(n_edges(5)) * 3 for _ in range(2)])
        w_inits = np.stack([np.zeros(n_edges(5)), rng.random(n_edges(5))])
        values = np.empty(2)
        batch = learn_graph_batch(zs, 0.7, 1.1, w_inits, eps=1e-8,
                                  objective=values)
        for row in range(2):
            value = np.empty(1)
            single = learn_graph_batch(zs[row:row + 1], 0.7, 1.1,
                                       w_inits[row:row + 1], eps=1e-8,
                                       objective=value)
            for out_b, out_s in zip(batch, single):
                assert out_b[row].tobytes() == out_s[0].tobytes()
            assert values[row].tobytes() == value[0].tobytes()


class TestErrorsAndWarnings:
    @pytest.mark.parametrize("zs, beta, gamma, w_init, error", [
        (np.ones((1, 3)), 1.0, 0.0, np.zeros((1, 3)), DegenerateInputError),
        (np.ones((1, 3)), -1.0, 1.0, np.zeros((1, 3)), DegenerateInputError),
        (-np.ones((1, 3)), 1.0, 1.0, np.zeros((1, 3)), DegenerateInputError),
        (np.ones((1, 0)), 1.0, 1.0, np.zeros((1, 0)), DegenerateInputError),
        (np.ones((1, 3)), 1.0, 1.0, np.zeros((2, 3)),
         DimensionMismatchError),
    ], ids=["gamma_zero", "beta_negative", "distance_negative", "no_edges",
            "shape_mismatch"])
    def test_degenerate_inputs_rejected(self, zs, beta, gamma, w_init, error):
        with pytest.raises(error):
            learn_graph_batch(zs, beta, gamma, w_init)

    def test_non_finite_distances_rejected(self):
        with pytest.raises(DegenerateInputError):
            learn_graph_batch(
                np.array([[np.inf, 1.0, 1.0]]), 1.0, 1.0, np.zeros((1, 3))
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_warm_start_rejected(self, bad):
        w_init = np.array([[1.0, bad, 1.0]])
        with pytest.raises(DegenerateInputError, match="warm start"):
            learn_graph_batch(np.ones((1, 3)), 1.0, 1.0, w_init)

    def test_overflowing_trials_are_rejected_without_warnings(self):
        # distances near the top of the float range: the products in the
        # objective overflow, every such trial is rejected, and the rows
        # end unconverged at finite weights, with no numpy warning
        zs = 1e300 * np.random.default_rng(3).random((3, n_edges(6)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            w, _, converged = learn_graph_batch(zs, 0.1, 1.0,
                                                np.zeros_like(zs))
        assert not caught
        assert not converged.any()
        assert np.all(np.isfinite(w)) and np.all(w >= 0)

    def test_overflowing_step_stops_its_row(self):
        # with gamma = 1e-300 the Newton step overflows to +inf; halving
        # never makes it finite, so the row stops at its warm start,
        # unconverged, instead of searching forever
        zs = 1e-300 * np.random.default_rng(4).random((2, n_edges(3)))
        w_init = np.full_like(zs, 1e-300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            w, iterations, converged = learn_graph_batch(
                zs, 1e-300, 1e-300, w_init, max_iter=50)
        assert not caught
        assert not converged.any() and iterations.tolist() == [0, 0]
        assert np.array_equal(w, w_init)

    def test_cap_reports_not_converged(self):
        z = rng.random((1, n_edges(4)))
        _, iterations, converged = learn_graph_batch(
            z, 1.0, 1.0, np.zeros_like(z), max_iter=3, eps=1e-12
        )
        assert not converged[0] and iterations[0] == 3

import numpy as np
import pytest

from tvgmd.core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
    objective_value,
)
from tvgmd.decomposer import decompose
from tvgmd.errors import (
    BadDimensionsError,
    BadParameterError,
    DimensionMismatchError,
    NonFiniteInputError,
)
from tvgmd.graph_ops import pairwise_distances
from tvgmd.spectral import to_coefficients

rng = np.random.default_rng(3)


def make_signal(n=3, t=16, fill=None):
    samples = np.zeros((n, t)) if fill == "zeros" else rng.standard_normal((n, t))
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=100.0)


def zero_state(k, n, t):
    """Mode coefficients, duals and centers of an all-zero decomposition
    of n series of length t (mirror-extended layout: t coefficients)."""
    return np.zeros((k, n, t)), np.zeros((n, t)), np.zeros(k)


def input_coefficients(signal):
    """Input coefficients, grid and energy weights, as decompose makes them."""
    return to_coefficients(signal.samples)


def layout(t):
    """Grid and energy weights of the mirror-extended layout for length t."""
    return to_coefficients(np.zeros(t))[1:]


_FLOAT_FIELDS = ("alpha", "beta", "gamma", "tau", "epsilon", "graph_epsilon")


class TestValidateConfig:
    """A config checks itself when built; decompose checks the signal."""

    def test_paper_scale_configuration_passes(self):
        signal = TimeVaryingGraphSignal(
            samples=rng.standard_normal((8, 1024)), sample_rate_hz=512.0
        )
        config = DecompositionConfig(K=4, alpha=200.0, beta=0.1, gamma=1.0,
                                     max_iter=1)
        assert len(decompose(signal, config).modes) == 4

    def test_zero_modes_rejected(self):
        with pytest.raises(BadParameterError, match="K must be >= 1"):
            DecompositionConfig(K=0, alpha=1.0)

    def test_nan_samples_rejected(self):
        samples = rng.standard_normal((3, 16))
        samples[1, 5] = np.nan
        signal = TimeVaryingGraphSignal(samples=samples, sample_rate_hz=1.0)
        with pytest.raises(NonFiniteInputError):
            decompose(signal, DecompositionConfig(K=1, alpha=1.0))

    def test_too_few_nodes_rejected(self):
        signal = TimeVaryingGraphSignal(
            samples=rng.standard_normal((1, 16)), sample_rate_hz=1.0
        )
        with pytest.raises(BadDimensionsError):
            decompose(signal, DecompositionConfig(K=1, alpha=1.0))

    def test_too_few_samples_rejected(self):
        signal = TimeVaryingGraphSignal(
            samples=rng.standard_normal((3, 3)), sample_rate_hz=1.0
        )
        with pytest.raises(BadDimensionsError):
            decompose(signal, DecompositionConfig(K=1, alpha=1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0, "epsilon": 0.0},
            {"alpha": 1.0, "beta": -0.1},
            {"alpha": 1.0, "tau": -1.0},
            {"alpha": 1.0, "omega_init": "random"},
            {"alpha": 1.0, "max_iter": 0},
            {"alpha": 1.0, "beta": 0.5, "gamma": 0.0},
        ]
        + [
            {"alpha": 1.0, name: value}
            for name in _FLOAT_FIELDS
            for value in (np.nan, np.inf, -np.inf)
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(BadParameterError):
            DecompositionConfig(K=2, **kwargs)


class TestDomainTypes:
    def test_signal_is_immutable(self):
        signal = make_signal()
        with pytest.raises(ValueError):
            signal.samples[0, 0] = 1.0

    def test_negative_edge_weights_rejected(self):
        with pytest.raises(BadParameterError):
            GraphMode(
                mode_samples=np.zeros((3, 8)),
                center_freq_hz=1.0,
                edge_weights=np.array([0.5, -0.1, 0.2]),
            )

    def test_wrong_weight_count_rejected(self):
        with pytest.raises(DimensionMismatchError):
            GraphMode(
                mode_samples=np.zeros((3, 8)),
                center_freq_hz=1.0,
                edge_weights=np.ones(4),
            )

    def test_result_reconstruction_identity(self):
        modes = [
            GraphMode(
                mode_samples=rng.standard_normal((3, 8)),
                center_freq_hz=float(k),
                edge_weights=np.empty(0),
            )
            for k in range(2)
        ]
        x = rng.standard_normal((3, 8))
        residual = x - modes[0].mode_samples - modes[1].mode_samples
        result = DecompositionResult(
            modes=tuple(modes),
            residual=residual,
            iterations=5,
            converged=True,
            trace=(IterationSnapshot(1, 0.0, (0.0, 0.0), 0.0),),
        )
        total = np.sum([m.mode_samples for m in result.modes], axis=0)
        assert total + result.residual == pytest.approx(x, abs=1e-12)


class TestObjectiveValue:
    def test_zero_modes_give_input_energy(self):
        signal = make_signal(n=3, t=16)
        config = DecompositionConfig(K=2, alpha=5.0, beta=0.0, tau=0.0)
        value = objective_value(
            *zero_state(2, 3, 16), *input_coefficients(signal), config
        )
        assert value == pytest.approx(float(np.sum(signal.samples**2)), rel=1e-10)

    def test_all_zero_state_is_zero(self):
        signal = make_signal(n=3, t=16, fill="zeros")
        config = DecompositionConfig(K=2, alpha=5.0, beta=0.0)
        value = objective_value(
            *zero_state(2, 3, 16), *input_coefficients(signal), config
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_graph_term(self):
        # zero signal and spectra isolate the graph part:
        # 2*beta*w'z + gamma*w^2 - 2 log(degree) = 0 + 1 - 0 = 1
        config = DecompositionConfig(K=1, alpha=5.0, beta=1.0, gamma=1.0)
        g, lam, omegas = zero_state(1, 2, 8)
        value = objective_value(
            g, lam, omegas, lam, *layout(8), config,
            edge_w=np.array([[1.0]]), zs=np.zeros((1, 1)),
        )
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_zero_degree_maps_to_infinity(self):
        config = DecompositionConfig(K=1, alpha=5.0, beta=1.0, gamma=1.0)
        g, lam, omegas = zero_state(1, 3, 8)
        edge_w = np.array([[0.0, 0.0, 1.0]])  # node 0 isolated
        assert objective_value(
            g, lam, omegas, lam, *layout(8), config,
            edge_w=edge_w, zs=np.zeros((1, 3)),
        ) == np.inf

    def test_invariant_to_mode_order(self):
        signal = make_signal(n=3, t=16)
        config = DecompositionConfig(K=2, alpha=5.0, beta=0.5, gamma=1.0)
        r = np.random.default_rng(5)
        coefficients = r.standard_normal((2, 3, 16))
        duals = r.standard_normal((3, 16))
        zs = np.stack(
            [pairwise_distances(r.standard_normal((3, 16))) for _ in range(2)]
        )
        edge_w = r.random((2, 3)) + 0.1
        omegas = np.array([0.1, 0.3])
        x_c, grid, weights = input_coefficients(signal)

        def value(order):
            order = list(order)
            return objective_value(
                coefficients[order], duals, omegas[order], x_c, grid, weights,
                config, edge_w=edge_w[order], zs=zs[order],
            )

        assert value((0, 1)) == pytest.approx(value((1, 0)), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        signal = make_signal(n=3, t=16)
        x_c, grid, weights = input_coefficients(signal)
        g, lam, _ = zero_state(1, 3, 16)
        config = DecompositionConfig(K=2, alpha=5.0, beta=0.0)
        with pytest.raises(DimensionMismatchError):
            objective_value(g, lam, np.zeros(2), x_c, grid, weights, config)
        with pytest.raises(DimensionMismatchError):
            objective_value(
                g, lam, np.zeros(1), x_c, grid[:-1], weights[:-1], config
            )
        graph_config = DecompositionConfig(K=1, alpha=5.0, beta=1.0)
        with pytest.raises(DimensionMismatchError):
            objective_value(
                g, lam, np.zeros(1), x_c, grid, weights, graph_config,
                edge_w=np.ones((1, 3)), zs=None,
            )

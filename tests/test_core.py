import dataclasses
import sys

import numpy as np
import pytest

import tvgmd.decomposer as decomposer
from tvgmd.core import (
    DecompositionConfig,
    DecompositionResult,
    GraphMode,
    IterationSnapshot,
    TimeVaryingGraphSignal,
)
from tvgmd.decomposer import decompose
from tvgmd.errors import (
    BadDimensionsError,
    BadParameterError,
    DimensionMismatchError,
    NonFiniteInputError,
)
from tvgmd.graph_learner import graph_objective
from tvgmd.graph_ops import pairwise_distances
from tvgmd.spectral import to_coefficients
from tvgmd.synth import generate, paper_preset
from test_coefficient_parity import GRID, SIGNALS, wide_signal

rng = np.random.default_rng(3)


def objective_value(g, lam, omegas, x, grid, weights, config, edge_w=None,
                    zs=None):
    """Reference augmented-Lagrangian value of a decomposition state.

    ``g`` (K, N, P) holds the mode coefficients, ``lam`` (N, P) the duals,
    ``omegas`` the K normalized centers and ``x`` (N, P) the input
    coefficients, all as :func:`~tvgmd.spectral.to_coefficients` lays them
    out; ``grid`` and ``weights`` (P,) are the frequency of each
    coefficient and its energy weight. When ``beta > 0``, ``edge_w`` and
    ``zs`` (K, M) are each mode's edge weights and the pairwise distances
    of its node signals. The spectral part sums the weighted bandwidth
    penalty ``2*alpha*(omega - omega_k)^2 g^2``, the reconstruction
    quadratic and the dual inner product; the graph part adds
    ``2*beta*w'z + gamma*||w||^2 - 1'log(Qw)`` per mode. The decomposer's
    trace assembles the same value from reductions its loop already
    formed; this whole-state formula is what it is checked against.
    """
    if (
        x.shape[-1] != len(grid)
        or weights.shape != grid.shape
        or lam.shape != x.shape
        or g.shape != (len(omegas),) + x.shape
    ):
        raise DimensionMismatchError("coefficients, duals and centers disagree")

    sq = (grid[None, :] - omegas[:, None]) ** 2  # (K, P)
    bandwidth = float(np.sum((g**2).sum(axis=1) * sq * weights))
    resid = x - g.sum(axis=0)
    reconstruction_and_dual = float(np.sum((resid + lam) * resid * weights))
    h1 = 2.0 * config.alpha * bandwidth + reconstruction_and_dual

    h2 = 0.0
    if config.beta > 0:
        if (
            edge_w is None
            or zs is None
            or edge_w.shape != zs.shape
            or edge_w.shape[:-1] != omegas.shape
        ):
            raise DimensionMismatchError(
                "need one edge-weight and one distance vector per mode"
            )
        h2 = float(graph_objective(edge_w, zs, config.beta, config.gamma).sum())
    return h1 + h2


def traced_objectives(signal, config, monkeypatch):
    """Decompose, and at every trace snapshot evaluate the reference
    formula on the loop's own state; returns the trace values (S,), the
    references (S, R) and their tolerances (S, R).

    The loop keeps its state in local variables, so the snapshot class is
    wrapped to read them from the frame that builds each snapshot
    (``decomposer._iterate``, whose comment there names the locals read).
    The first reference is the formula on the whole node-domain state, to
    rtol 1e-12. With ``beta = 0`` the loop state is per-coefficient gains
    ``G`` and dual gains ``Lambda``, one row that every node's
    coefficients are multiplied by, so the modes ``G * x_c`` and duals
    ``Lambda * x_c`` are rebuilt for it. The loop's residual ``1 - sum_k
    G`` and the rebuilt ``x_c - sum_k G * x_c`` round apart by about ``eps
    * |x_c|`` per coefficient, which moves the objective by up to about
    ``eps`` times the size of its fit terms, ``sum(weights * x_c^2)``. On
    the odd-length cells without mirroring the objective cancels to 2e-12
    of those terms, so that reference is held to 1e-12 of the terms where
    they exceed the objective (it stays within 3e-16 of them on the parity
    grid). A second reference, the formula on the gain row itself
    against an input of ones, each coefficient's weight times ``sum_n
    x_c^2``, sums the same terms in the loop's own rounding and is held to
    rtol 1e-12.
    """
    references, tolerances = [], []
    snapshot = decomposer.IterationSnapshot

    def record(**fields):
        state = sys._getframe(1).f_locals
        missing = {"g", "lam", "omegas", "x_c", "grid", "weights", "edge_w",
                   "zs"} - state.keys()
        assert not missing, f"loop state renamed; harness lacks {missing}"
        g, lam, x, weights = (state[name]
                              for name in ("g", "lam", "x_c", "weights"))
        if lam is None:  # tau = 0: the loop carries no duals
            lam = np.zeros_like(g[0])
        states = [(g, lam, x, weights)]
        if config.beta == 0:
            assert lam.shape == (1, x.shape[1])
            node_power = np.sum(x**2, axis=0)
            states = [(g * x, lam * x, x, weights),
                      (g, lam, np.ones_like(lam), weights * node_power)]
        values = [
            objective_value(modes, duals, state["omegas"], data,
                            state["grid"], data_weights, config,
                            state["edge_w"], state["zs"])
            for modes, duals, data, data_weights in states
        ]
        scales = [abs(value) for value in values]
        if config.beta == 0:
            scales[0] = max(scales[0], float(np.sum(weights * node_power)))
        references.append(values)
        tolerances.append([1e-12 * scale for scale in scales])
        return snapshot(**fields)

    monkeypatch.setattr(decomposer, "IterationSnapshot", record)
    result = decompose(signal, config)
    return (np.array([s.objective for s in result.trace]),
            np.array(references), np.array(tolerances))


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

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_sample_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(BadParameterError,
                           match="sample_rate_hz must be finite and positive"):
            TimeVaryingGraphSignal(samples=np.zeros((2, 4)), sample_rate_hz=rate)

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


def held_arrays(array):
    """The arrays each public container holds when built around ``array``
    (3 x 3): signal samples, mode samples, residual, and its first row as
    edge weights."""
    signal = TimeVaryingGraphSignal(samples=array, sample_rate_hz=1.0)
    mode = GraphMode(mode_samples=array, center_freq_hz=1.0,
                     edge_weights=array[0])
    result = DecompositionResult(modes=(mode,), residual=array, iterations=1,
                                 converged=True, trace=())
    return [signal.samples, mode.mode_samples, result.residual,
            mode.edge_weights]


def read_only(array):
    array.flags.writeable = False
    return array


class TestArraySharing:
    def test_writable_array_is_copied(self):
        array = np.arange(9.0).reshape(3, 3)
        held = held_arrays(array)
        array[...] = 7.0
        for copy in held:
            assert not np.shares_memory(copy, array)
            assert copy.ravel()[0] == 0.0

    def test_read_only_view_of_writable_array_is_copied(self):
        owner = np.arange(9.0).reshape(3, 3).copy()
        held = held_arrays(read_only(owner[:, :]))
        owner[...] = 7.0
        for copy in held:
            assert not np.shares_memory(copy, owner)
            assert copy.ravel()[0] == 0.0

    def test_array_over_a_bytearray_is_copied(self):
        buffer = bytearray(np.arange(9.0).tobytes())
        held = held_arrays(read_only(np.frombuffer(buffer).reshape(3, 3)))
        buffer[:8] = np.float64(7.0).tobytes()
        for copy in held:
            assert copy.ravel()[0] == 0.0

    def test_read_only_owner_is_shared(self):
        owner = read_only(np.arange(9.0).reshape(3, 3).copy())
        signal, mode, residual, weights = held_arrays(owner)
        assert signal is mode is residual is owner
        assert np.shares_memory(weights, owner)

    @pytest.mark.parametrize("make", [
        lambda: [[0.0, 1.0, 2.0]] * 3,
        lambda: np.arange(9.0).reshape(3, 3),
        lambda: read_only(np.arange(9.0).reshape(3, 3).copy()),
        lambda: read_only(np.arange(9, dtype=np.int64).reshape(3, 3).copy()),
    ], ids=["list", "writable", "read_only_owner", "read_only_int"])
    def test_every_container_array_is_read_only(self, make):
        for held in held_arrays(make()):
            assert held.dtype == float
            with pytest.raises(ValueError):
                held[0] = 1.0

    def test_decomposition_arrays_are_read_only(self):
        signal = generate(paper_preset())[0]
        result = decompose(signal, DecompositionConfig(K=2, alpha=200.0,
                                                       max_iter=3))
        arrays = [result.residual]
        for mode in result.modes:
            arrays += [mode.mode_samples, mode.edge_weights]
            # a view of a read-only buffer cannot be made writable again
            with pytest.raises(ValueError):
                mode.mode_samples.flags.writeable = True
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 1.0


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

    @pytest.mark.parametrize("name,mirror,beta,tau,init", GRID)
    def test_trace_matches_reference_on_parity_grid(self, monkeypatch, name,
                                                    mirror, beta, tau, init):
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=beta, tau=tau, omega_init=init,
            mirror_extend=mirror, max_iter=20 if beta > 0 and tau > 0 else 500,
        )
        got, expected, tol = traced_objectives(SIGNALS[name](), config,
                                               monkeypatch)
        assert len(got) == len(expected) > 0
        assert np.all(np.abs(got[:, None] - expected) <= tol)

    @pytest.mark.parametrize("snr_db", [None, 6.0])
    def test_trace_matches_reference_on_presets(self, monkeypatch, snr_db):
        signal = generate(
            dataclasses.replace(paper_preset(), snr_db=snr_db, seed=0)
        )[0]
        config = DecompositionConfig(K=4, alpha=200.0, beta=0.1, gamma=1.0)
        got, expected, tol = traced_objectives(signal, config, monkeypatch)
        assert len(got) == len(expected) > 0
        assert np.all(np.abs(got[:, None] - expected) <= tol)

    @pytest.mark.parametrize("mirror", [True, False])
    def test_trace_matches_reference_over_row_blocks(self, monkeypatch,
                                                     mirror):
        # a 64-node input, so the sweep runs over several row blocks
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, tau=0.1,
                                     omega_init="peaks", mirror_extend=mirror,
                                     max_iter=30)
        got, expected, tol = traced_objectives(wide_signal(), config,
                                               monkeypatch)
        assert len(got) == len(expected) == 30
        assert np.all(np.abs(got[:, None] - expected) <= tol)

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

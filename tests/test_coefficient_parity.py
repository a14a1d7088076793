"""Parity of the real-coefficient loop with the complex FFT loop it replaced.

``reference_decompose`` is the earlier form of ``decompose``: it keeps
complex half-spectra of the (mirror-extended) input, and in every
iteration with graphs it goes back to the time domain, crops, smooths,
re-mirrors and transforms forward again. The production loop runs on real
DCT-II (or (re, im)) coefficients instead, so the two must agree to
rounding: same iteration counts and flags, and the centers, modes, edge
weights and trace within tolerances fixed from double precision.

With graphs and dual steps together (beta > 0 and tau > 0) the two-tone
run drifts for hundreds of iterations on a slowly decaying cycle that
amplifies rounding: run on the two-tone input and on a copy with one
sample moved by one ulp, the reference loop itself ends with centers 4e-7
Hz apart after 300 iterations, and its modes already differ by 1e-10 after
30 iterations but by only 5e-13 after 20. Those runs are compared over
their first 20 iterations; every other run is compared to convergence.
"""

import itertools

import numpy as np
import pytest

from tvgmd.core import DecompositionConfig, TimeVaryingGraphSignal
from tvgmd.decomposer import _initial_omegas, _row_blocks, decompose
from tvgmd.errors import DegenerateModeError
from tvgmd.graph_learner import graph_objective, learn_graph_batch
from tvgmd.graph_ops import geodesic_update, n_edges, pairwise_distances
from tvgmd.spectral import (
    frequency_grid,
    mean_frequency,
    mirror_extend,
    parseval_weights,
    to_coefficients,
    wiener_weights,
)

_EPS = np.finfo(float).eps


def _crop_mirrored(series_ext, t):
    start = t // 2
    return series_ext[..., start : start + t]


def _reference_objective(g_hat, lam_hat, omegas, x_hat, t, config, edge_w, zs):
    t_ext = 2 * t if config.mirror_extend else t
    freqs = frequency_grid(t_ext)
    weights = parseval_weights(t_ext)
    scale = t / t_ext / t_ext
    sq = (freqs[None, :] - omegas[:, None]) ** 2
    bandwidth = 2.0 * config.alpha * float(
        np.einsum("kf,knf,f->", sq, np.abs(g_hat) ** 2, weights)
    )
    resid_hat = x_hat - g_hat.sum(axis=0)
    reconstruction = float(np.einsum("nf,f->", np.abs(resid_hat) ** 2, weights))
    dual = float(
        np.einsum("nf,f->", np.real(np.conj(lam_hat) * resid_hat), weights)
    )
    value = scale * (bandwidth + reconstruction + dual)
    if config.beta > 0:
        for w, z in zip(edge_w, zs):
            value += graph_objective(w, z, config.beta, config.gamma)
    return value


def _reference_initial_omegas(config, x_hat, omega_grid, t_ext):
    k = config.K
    if config.omega_init == "zeros":
        return np.zeros(k)
    if config.omega_init == "uniform":
        return 0.5 * (np.arange(k) + 1.0) / (k + 1.0)
    power = (np.abs(x_hat) ** 2).sum(axis=0).copy()
    halfwidth = max(2, t_ext // 100)
    omegas = np.zeros(k)
    for i in range(k):
        top = int(np.argmax(power))
        omegas[i] = omega_grid[top]
        power[max(0, top - halfwidth) : top + halfwidth + 1] = 0.0
    return np.sort(omegas)


def reference_decompose(signal, config):
    """The complex, mirror-extended FFT loop; returns the raw outputs."""
    x = signal.samples
    n, t = x.shape
    k = config.K
    mirror = config.mirror_extend

    x_ext = mirror_extend(x) if mirror else x
    t_ext = x_ext.shape[1]
    omega_grid = frequency_grid(t_ext)
    x_hat = np.fft.rfft(x_ext, axis=1)

    g_hat = np.zeros((k, n, len(omega_grid)), dtype=complex)
    lam_hat = np.zeros((n, len(omega_grid)), dtype=complex)
    omegas = _reference_initial_omegas(config, x_hat, omega_grid, t_ext)
    edge_w = np.zeros((k, n_edges(n)))
    zs = None

    def to_time(spectra):
        series = np.fft.irfft(spectra, n=t_ext, axis=-1)
        return _crop_mirrored(series, t) if mirror else series

    def to_spectra(series):
        return np.fft.rfft(mirror_extend(series) if mirror else series, axis=-1)

    trace = []
    converged = False
    graphs_solved = True
    iteration = 0
    while iteration < config.max_iter:
        iteration += 1
        g_prev = g_hat.copy()
        running_sum = g_hat.sum(axis=0)
        for mode in range(k):
            numerator = x_hat - (running_sum - g_hat[mode]) + lam_hat / 2.0
            updated = numerator * wiener_weights(
                omega_grid, omegas[mode], config.alpha
            )
            running_sum += updated - g_hat[mode]
            g_hat[mode] = updated
        for mode in range(k):
            try:
                omegas[mode] = mean_frequency(np.abs(g_hat[mode]) ** 2, omega_grid)
            except DegenerateModeError:
                pass
        if config.beta > 0:
            smoothed = geodesic_update(to_time(g_hat), edge_w, config.beta)
            zs = pairwise_distances(
                smoothed, normalize=config.normalize_distances
            )
            edge_w, _, solved = learn_graph_batch(
                zs,
                config.beta,
                config.gamma,
                edge_w,
                max_iter=config.graph_max_iter,
                eps=config.graph_epsilon,
            )
            graphs_solved &= bool(solved.all())
            g_hat = to_spectra(smoothed)
        if config.tau != 0.0:
            lam_hat = lam_hat + config.tau * (x_hat - g_hat.sum(axis=0))
        diff = np.sum(np.abs(g_hat - g_prev) ** 2, axis=2)
        prev = np.sum(np.abs(g_prev) ** 2, axis=2)
        rel_change = float(np.sum(diff / (prev + _EPS)))
        objective = _reference_objective(
            g_hat, lam_hat, omegas, x_hat, t, config, edge_w, zs
        )
        trace.append((rel_change, objective))
        if rel_change < config.epsilon:
            converged = True
            break

    order = np.argsort(omegas, kind="stable")
    return {
        "modes": to_time(g_hat)[order],
        "centers": omegas[order] * signal.sample_rate_hz,
        "edge_w": edge_w[order],
        "iterations": iteration,
        "converged": converged and graphs_solved,
        "trace": np.array(trace),
    }


def two_tone_signal():
    """8 Hz on nodes {0,1,2}, 60 Hz on nodes {1,2,3}, 256 samples at 256 Hz."""
    tt = np.arange(256) / 256.0
    low, high = np.cos(2 * np.pi * 8 * tt), np.cos(2 * np.pi * 60 * tt)
    samples = np.stack([low, low + high, low + high, high])
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=256.0)


def odd_length_signal():
    """5 Hz on two nodes, 12 Hz on a third, 63 samples at 63 Hz."""
    tt = np.arange(63) / 63.0
    samples = np.stack([
        np.cos(2 * np.pi * 5 * tt),
        0.5 * np.cos(2 * np.pi * 5 * tt),
        np.cos(2 * np.pi * 12 * tt),
    ])
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=63.0)


def wide_signal():
    """64 nodes x 600 samples at 600 Hz, every node carrying 10.3 Hz and
    90.7 Hz at its own amplitudes and phases."""
    tt = np.arange(600) / 600.0
    node = np.arange(64)[:, None]
    low = (1.0 + 0.01 * node) * np.cos(2 * np.pi * 10.3 * tt + 0.1 * node)
    high = (0.5 + 0.02 * node) * np.cos(2 * np.pi * 90.7 * tt - 0.05 * node)
    return TimeVaryingGraphSignal(samples=low + high, sample_rate_hz=600.0)


SIGNALS = {"two_tone": two_tone_signal, "odd_length": odd_length_signal}
GRID = list(
    itertools.product(
        SIGNALS,
        (True, False),  # mirror
        (0.0, 0.1),  # beta
        (0.0, 0.1),  # tau
        ("zeros", "uniform", "peaks"),
    )
)


@pytest.mark.parametrize("name,mirror,beta,tau,init", GRID)
def test_matches_complex_reference_loop(name, mirror, beta, tau, init):
    signal = SIGNALS[name]()
    config = DecompositionConfig(
        K=2, alpha=200.0, beta=beta, tau=tau, omega_init=init,
        mirror_extend=mirror, max_iter=20 if beta > 0 and tau > 0 else 500,
    )
    ref = reference_decompose(signal, config)
    got = decompose(signal, config)

    assert got.iterations == ref["iterations"]
    assert got.converged == ref["converged"]
    assert np.abs(np.array(got.center_frequencies_hz) - ref["centers"]).max() <= 1e-9
    modes = np.stack([m.mode_samples for m in got.modes])
    x_scale = np.abs(signal.samples).max()
    assert np.abs(modes - ref["modes"]).max() <= 1e-10 * x_scale
    if beta > 0:
        weights = np.stack([m.edge_weights for m in got.modes])
        w_scale = max(1.0, np.abs(ref["edge_w"]).max())
        assert np.abs(weights - ref["edge_w"]).max() <= 1e-9 * w_scale
    trace = np.array([(s.rel_change, s.objective) for s in got.trace])
    assert trace == pytest.approx(ref["trace"], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("mirror", [True, False])
@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_blocked_sweep_matches_reference_loop(mirror, tau):
    # enough nodes that the sweep runs over several row blocks, the last
    # one partial
    signal = wide_signal()
    n, t = signal.samples.shape
    blocks = _row_blocks(n, t if mirror else 2 * (t // 2 + 1))
    assert len(blocks) >= 3
    assert blocks[-1].stop > n
    config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, tau=tau,
                                 omega_init="peaks", mirror_extend=mirror)
    ref = reference_decompose(signal, config)
    got = decompose(signal, config)

    assert got.iterations == ref["iterations"]
    assert got.converged == ref["converged"]
    assert np.abs(np.array(got.center_frequencies_hz) - ref["centers"]).max() <= 1e-9
    modes = np.stack([m.mode_samples for m in got.modes])
    x_scale = np.abs(signal.samples).max()
    assert np.abs(modes - ref["modes"]).max() <= 1e-10 * x_scale
    trace = np.array([(s.rel_change, s.objective) for s in got.trace])
    assert trace == pytest.approx(ref["trace"], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("name", SIGNALS)
@pytest.mark.parametrize("mirror", [True, False])
def test_peaks_pick_the_same_bins(name, mirror):
    signal = SIGNALS[name]()
    config = DecompositionConfig(K=3, alpha=1.0, omega_init="peaks",
                                 mirror_extend=mirror)
    x = signal.samples
    t = x.shape[1]
    t_ext = 2 * t if mirror else t
    x_hat = np.fft.rfft(mirror_extend(x) if mirror else x, axis=1)
    expected = _reference_initial_omegas(config, x_hat, frequency_grid(t_ext), t_ext)
    x_c, grid, _ = to_coefficients(x, mirror)
    assert np.array_equal(_initial_omegas(config, x_c, grid, t_ext), expected)

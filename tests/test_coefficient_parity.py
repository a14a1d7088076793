"""Parity of the real-coefficient loop with the complex FFT loop it replaced.

``reference_decompose`` is the earlier form of ``decompose``: it keeps
complex half-spectra of the mirror-extended input, and in every
iteration with graphs it goes back to the time domain, crops, smooths,
re-mirrors and transforms forward again. The production loop runs on real
DCT-II coefficients instead, so the two must agree to
rounding: same iteration counts and flags, and the centers, modes, edge
weights and trace within tolerances fixed from double precision.

With graphs and dual steps together (beta > 0 and tau > 0) the two-tone
run drifts for hundreds of iterations on a slowly decaying cycle that
amplifies rounding: run on the two-tone input and on a copy with one
sample moved by one ulp, the reference loop itself ends with centers 4e-7
Hz apart after 300 iterations, and its modes already differ by 1e-10 after
30 iterations but by only 5e-13 after 20. So do the runs of three modes
with graphs on the two-tone input, where two modes share the 8 Hz tone
and do not converge in 500 iterations: one ulp moves the reference loop's
own modes by 1.1e-9 after 500 iterations, but by 8.3e-15 after 20. Those
runs are compared over their first 20 iterations; every other run is
compared to convergence or to 500 iterations.

Both loops start their modes at the input's spectral peaks, by one greedy
rule that ``_reference_initial_omegas`` states again. The grid's inputs
take each of its branches: a mode per tone, surplus modes left at 0
because a tone's leakage lobes and a weaker tone within a stronger one's
window seed none, more tones than modes, noise bins that top their
windows, no power at all, and windows at the first and last bins.
"""

import itertools

import numpy as np
import pytest

from tvgmd.core import DecompositionConfig, TimeVaryingGraphSignal
from tvgmd.decomposer import (
    _LOOSEST,
    _RELAX,
    _RELAX_BELOW,
    _initial_omegas,
    decompose,
)
from tvgmd.graph_learner import learn_graph_batch
from tvgmd.graph_ops import geodesic_update, n_edges, pairwise_distances
from tvgmd.spectral import (
    mean_frequency,
    to_coefficients,
    wiener_weights,
)
from test_graph_learner import objective


def mirror_extend(series):
    """Reflect the first T//2 samples before index 0 and the rest after the
    end, along the last axis; length 2T."""
    left = series.shape[-1] // 2
    return np.concatenate(
        [series[..., :left][..., ::-1], series, series[..., left:][..., ::-1]],
        axis=-1,
    )


def frequency_grid(t_ext):
    """Normalized frequencies of the rfft bins of a length-``t_ext`` series."""
    return np.arange(t_ext // 2 + 1) / t_ext


def parseval_weights(t_ext):
    """Multiplicities of the rfft bins in the full-spectrum energy: 2 except
    for the DC bin and, for even lengths, the Nyquist bin."""
    weights = np.full(t_ext // 2 + 1, 2.0)
    weights[0] = 1.0
    if t_ext % 2 == 0:
        weights[-1] = 1.0
    return weights


def _crop_mirrored(series_ext, t):
    start = t // 2
    return series_ext[..., start : start + t]


def _reference_objective(g_hat, lam_hat, omegas, x_hat, t, config, edge_w, zs):
    t_ext = 2 * t
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
            value += objective(w, z, config.beta, config.gamma)
    return value


def _reference_initial_omegas(k, x_hat, omega_grid, t_ext):
    """Greedy starts from the node-summed power: the strongest bin left
    seeds a mode if its power is positive and the largest of the
    unsuppressed power within ``halfwidth``; its window is then
    suppressed, and the first bin that fails ends the search. The other
    modes start at 0."""
    power = (np.abs(x_hat) ** 2).sum(axis=0)
    left = power.copy()
    halfwidth = max(2, t_ext // 100)
    omegas = []
    while len(omegas) < k:
        top = int(np.argmax(left))
        lo, hi = max(0, top - halfwidth), top + halfwidth + 1
        if left[top] <= 0 or power[lo:hi].max() > power[top]:
            break
        omegas.append(omega_grid[top])
        left[lo:hi] = 0.0
    return np.sort(omegas + [0.0] * (k - len(omegas)))


def reference_decompose(signal, config):
    """The complex, mirror-extended FFT loop; returns the raw outputs."""
    x = signal.samples
    n, t = x.shape
    k = config.K

    x_ext = mirror_extend(x)
    t_ext = x_ext.shape[1]
    omega_grid = frequency_grid(t_ext)
    x_hat = np.fft.rfft(x_ext, axis=1)

    g_hat = np.zeros((k, n, len(omega_grid)), dtype=complex)
    lam_hat = np.zeros((n, len(omega_grid)), dtype=complex)
    omegas = _reference_initial_omegas(k, x_hat, omega_grid, t_ext)
    edge_w = np.zeros((k, n_edges(n)))
    zs = None

    def to_time(spectra):
        series = np.fft.irfft(spectra, n=t_ext, axis=-1)
        return _crop_mirrored(series, t)

    def to_spectra(series):
        return np.fft.rfft(mirror_extend(series), axis=-1)

    # each iteration's graph tolerance: the loosest at first, then the
    # previous relative step clipped to [graph_epsilon, loosest], and
    # graph_epsilon once the stop test has passed
    graph_tol = max(config.graph_epsilon, _LOOSEST)
    rel_change = np.inf
    trace = []
    converged = False
    graphs_solved = True
    iteration = 0
    while iteration < config.max_iter:
        iteration += 1
        # once the previous change is small, the finished modes (the
        # sweep's without graphs, the smoothed ones with graphs) step
        # _RELAX times as far from the previous ones
        relax = rel_change < _RELAX_BELOW
        g_prev = g_hat.copy()
        running_sum = g_hat.sum(axis=0)
        for mode in range(k):
            numerator = x_hat - (running_sum - g_hat[mode]) + lam_hat / 2.0
            updated = numerator * wiener_weights(
                omega_grid, omegas[mode], config.alpha
            )
            running_sum += updated - g_hat[mode]
            g_hat[mode] = updated
        mean_frequency((np.abs(g_hat) ** 2).sum(axis=1), omega_grid,
                       out=omegas)
        if config.beta > 0:
            smoothed = geodesic_update(to_time(g_hat), edge_w, config.beta)
            g_hat = to_spectra(smoothed)
            if relax:
                g_hat = g_prev + _RELAX * (g_hat - g_prev)
                smoothed = to_time(g_hat)
            zs = pairwise_distances(smoothed)
            edge_w, _, solved = learn_graph_batch(
                zs,
                config.beta,
                config.gamma,
                edge_w,
                max_iter=config.graph_max_iter,
                eps=graph_tol,
            )
            graphs_solved &= bool(solved.all())
        if relax and config.beta == 0:
            g_hat = g_prev + _RELAX * (g_hat - g_prev)
        if config.tau != 0.0:
            lam_hat = lam_hat + config.tau * (x_hat - g_hat.sum(axis=0))
        # per mode, norms over all nodes; a mode without previous energy
        # counts 1 if it moved, 0 if it stayed at zero
        diff = np.sum(np.abs(g_hat - g_prev) ** 2, axis=(1, 2))
        prev = np.sum(np.abs(g_prev) ** 2, axis=(1, 2))
        rel_change = sum(
            d / p if p > 0 else float(d > 0) for d, p in zip(diff, prev)
        )
        objective = _reference_objective(
            g_hat, lam_hat, omegas, x_hat, t, config, edge_w, zs
        )
        trace.append((rel_change, objective))
        if rel_change < config.epsilon:
            if config.beta == 0 or graph_tol == config.graph_epsilon:
                converged = True
                break
            graph_tol = config.graph_epsilon
        else:
            graph_tol = max(config.graph_epsilon,
                            min(_LOOSEST, np.sqrt(rel_change)))

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


def wide_exact_signal():
    """64 nodes x 600 samples at 600 Hz: 10 Hz and 90 Hz on exact bins, the
    low tone absent from every third node and the high tone from the node
    after each of those."""
    tt = np.arange(600) / 600.0
    node = np.arange(64)[:, None]
    low = (1.0 + 0.01 * node) * np.cos(2 * np.pi * 10 * tt + 0.1 * node)
    high = (0.5 + 0.02 * node) * np.cos(2 * np.pi * 90 * tt - 0.05 * node)
    samples = low * (node % 3 != 0) + high * (node % 3 != 1)
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=600.0)


def off_period_signal():
    """7.3 Hz on nodes {0,1}, 31.7 Hz on nodes {1,2}, 155 samples at 100 Hz:
    neither tone makes whole periods in the window."""
    tt = np.arange(155) / 100.0
    low = np.cos(2 * np.pi * 7.3 * tt + 0.4)
    high = 0.7 * np.cos(2 * np.pi * 31.7 * tt - 1.1)
    samples = np.stack([low, low + high, high])
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=100.0)


def single_tone_signal():
    """8 Hz on three nodes at amplitudes 1, 0.5 and 0.25, 256 samples at
    256 Hz: one mode starts on the tone, and its leakage lobes seed none."""
    tone = np.cos(2 * np.pi * 8 * np.arange(256) / 256.0)
    samples = np.array([[1.0], [0.5], [0.25]]) * tone
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=256.0)


def silent_signal():
    """Three silent nodes, 64 samples at 64 Hz: no bin has power."""
    return TimeVaryingGraphSignal(samples=np.zeros((3, 64)),
                                  sample_rate_hz=64.0)


def close_tones_signal():
    """20 Hz on nodes {0,1}, 22 Hz at 0.6 on nodes {1,2}, 256 samples at
    256 Hz: the weaker tone lies within the stronger one's window."""
    tt = np.arange(256) / 256.0
    low = np.cos(2 * np.pi * 20 * tt)
    high = 0.6 * np.cos(2 * np.pi * 22 * tt + 0.3)
    samples = np.stack([low, low + high, high])
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=256.0)


def edge_bins_signal():
    """An offset of 0.8 on nodes {0,1} and 126 Hz on nodes {1,2}, 128
    samples at 256 Hz: the strongest bin is the first, so its window runs
    past the start, and the tone's window ends at the last bin."""
    tt = np.arange(128) / 256.0
    high = np.cos(2 * np.pi * 126 * tt + 0.2)
    samples = np.stack([np.full(128, 0.8), 0.8 + high, high])
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=256.0)


def three_tones_signal():
    """6 Hz, 30 Hz at 0.7 and 70 Hz at 0.4, each on two of three nodes, 256
    samples at 256 Hz: with two modes, the weakest tone seeds none."""
    tt = np.arange(256) / 256.0
    low = np.cos(2 * np.pi * 6 * tt)
    mid = 0.7 * np.cos(2 * np.pi * 30 * tt + 0.5)
    high = 0.4 * np.cos(2 * np.pi * 70 * tt - 0.8)
    samples = np.stack([low + mid, mid + high, high + low])
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=256.0)


def noisy_tone_signal():
    """12 Hz on three nodes plus seeded noise of standard deviation 0.3,
    128 samples at 128 Hz: noise bins that top their windows seed the
    surplus modes."""
    tt = np.arange(128) / 128.0
    noise = 0.3 * np.random.default_rng(7).standard_normal((3, 128))
    samples = np.cos(2 * np.pi * 12 * tt) + noise
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=128.0)


SIGNALS = {"two_tone": two_tone_signal, "odd_length": odd_length_signal,
           "off_period": off_period_signal,
           "single_tone": single_tone_signal, "silent": silent_signal,
           "close_tones": close_tones_signal,
           "edge_bins": edge_bins_signal, "three_tones": three_tones_signal,
           "noisy_tone": noisy_tone_signal}
WIDE_SIGNALS = {"wide": wide_signal, "wide_exact": wide_exact_signal}
GRID = list(
    itertools.product(
        SIGNALS,
        (2, 3),  # K
        (0.0, 0.1),  # beta
        (0.0, 0.1),  # tau
    )
)


def drifts(name, k, beta, tau):
    """Whether a grid run amplifies rounding (see the module docstring)."""
    return beta > 0 and (tau > 0 or (name, k) == ("two_tone", 3))


@pytest.mark.parametrize("name,k,beta,tau", GRID)
def test_matches_complex_reference_loop(name, k, beta, tau):
    # Two loops whose modes agree to rounding differ by about 1e-16 /
    # sqrt(rel_change) in rel_change, 2e-9 at 2e-14. With graphs the change
    # can fall a hundredfold per iteration, from above the default
    # tolerance to there, so the runs stop at 1e-10 instead: this grid does
    # not cover the default tolerance. test_many_nodes_match_reference_loop
    # runs the beta = 0 loop at it. A run whose stop test first passes on
    # graphs solved looser than graph_epsilon takes one more iteration,
    # held to graph_epsilon, and its change can fall to 1e-15; that one
    # entry is compared within 1e-9 relative or ten times the rounding
    # estimate, 1e-15 / sqrt(rel_change), whichever is larger.
    signal = SIGNALS[name]()
    config = DecompositionConfig(
        K=k, alpha=200.0, beta=beta, tau=tau,
        max_iter=20 if drifts(name, k, beta, tau) else 500, epsilon=1e-10,
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
    # an iteration after a passed stop test can only be the forced last one
    ref_change = ref["trace"][:, 0]
    forced = np.flatnonzero(ref_change[:-1] < config.epsilon) + 1
    assert list(forced) in ([], [len(ref_change) - 1])
    assert forced.size == 0 or beta > 0
    rest = np.setdiff1d(np.arange(len(ref_change)), forced)
    assert trace[rest] == pytest.approx(ref["trace"][rest], rel=1e-9, abs=0.0)
    for i in forced:
        assert got.trace[i].graph_tolerance == config.graph_epsilon
        bound = max(1e-9 * ref_change[i], 1e-15 * np.sqrt(ref_change[i]))
        assert abs(trace[i, 0] - ref_change[i]) <= bound
        assert trace[i, 1] == pytest.approx(ref["trace"][i, 1], rel=1e-9,
                                            abs=0.0)


@pytest.mark.parametrize("name", WIDE_SIGNALS)
@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_many_nodes_match_reference_loop(name, tau):
    # the MVMD loop runs on gains all nodes share
    signal = WIDE_SIGNALS[name]()
    config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, tau=tau)
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
def test_peaks_pick_the_same_bins(name):
    signal = SIGNALS[name]()
    x = signal.samples
    t_ext = 2 * x.shape[1]
    x_hat = np.fft.rfft(mirror_extend(x), axis=1)
    expected = _reference_initial_omegas(3, x_hat, frequency_grid(t_ext), t_ext)
    x_c, grid, _ = to_coefficients(x)
    power = np.einsum("np,np->p", x_c, x_c)
    assert np.array_equal(_initial_omegas(3, power, grid), expected)

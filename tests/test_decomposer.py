import dataclasses
import tracemalloc

import numpy as np
import pytest

from tvgmd import graph_learner
from tvgmd.core import DecompositionConfig, TimeVaryingGraphSignal
from tvgmd.decomposer import _dual_step, _relative_change, _sweep, decompose
from tvgmd.spectral import row_blocks
from tvgmd.synth import generate, paper_preset
from test_graph_ops import node_pairs

FS = 256.0
T = 256


def tone(freq, amplitude=1.0, t_len=T, fs=FS):
    return amplitude * np.cos(2 * np.pi * freq * np.arange(t_len) / fs)


def two_tone_signal():
    """8 Hz on nodes {0,1,2}, 60 Hz on nodes {1,2,3}."""
    samples = np.zeros((4, T))
    samples[0] = tone(8)
    samples[1] = tone(8) + tone(60)
    samples[2] = tone(8) + tone(60)
    samples[3] = tone(60)
    return TimeVaryingGraphSignal(samples=samples, sample_rate_hz=FS)


class TestBasicBehavior:
    def test_zero_signal_converges_immediately(self):
        signal = TimeVaryingGraphSignal(
            samples=np.zeros((3, 64)), sample_rate_hz=64.0
        )
        result = decompose(signal, DecompositionConfig(K=2, alpha=100.0))
        assert result.converged
        assert result.iterations <= 2
        for mode in result.modes:
            assert np.allclose(mode.mode_samples, 0.0)

    def test_single_mode_reproduces_pure_tone(self):
        # the dual ascent polishes reconstruction slowly at leakage bins,
        # so drive the stopping rule tighter than the default here
        fs, t_len = 128.0, 128
        x = np.tile(tone(10, t_len=t_len, fs=fs), (3, 1))
        signal = TimeVaryingGraphSignal(samples=x, sample_rate_hz=fs)
        config = DecompositionConfig(
            K=1, alpha=200.0, beta=0.0, tau=1.0, epsilon=1e-13
        )
        assert config.epsilon < DecompositionConfig(K=1, alpha=1.0).epsilon
        result = decompose(signal, config)
        assert result.converged
        mode = result.modes[0]
        assert mode.center_freq_hz == pytest.approx(10.0, abs=0.1)
        rel = np.linalg.norm(mode.mode_samples - x) / np.linalg.norm(x)
        assert rel <= 1e-3

    def test_two_tone_separation_mvmd(self):
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, tau=0.0)
        result = decompose(two_tone_signal(), config)
        assert result.converged
        freqs = result.center_frequencies_hz
        assert freqs[0] == pytest.approx(8.0, abs=0.5)
        assert freqs[1] == pytest.approx(60.0, abs=0.5)
        for mode in result.modes:
            assert mode.edge_weights.size == 0

    def test_modes_sorted_by_frequency(self):
        result = decompose(
            two_tone_signal(), DecompositionConfig(K=3, alpha=200.0, beta=0.0)
        )
        freqs = result.center_frequencies_hz
        assert list(freqs) == sorted(freqs)

    def test_reconstruction_identity(self):
        signal = two_tone_signal()
        result = decompose(
            signal, DecompositionConfig(K=2, alpha=200.0, beta=0.0)
        )
        total = np.sum([m.mode_samples for m in result.modes], axis=0)
        total += result.residual
        assert total == pytest.approx(signal.samples, abs=1e-9)

    def test_not_converged_flag(self):
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, max_iter=2)
        result = decompose(two_tone_signal(), config)
        assert not result.converged
        assert result.iterations == 2

    def test_trace_records_every_iteration(self):
        result = decompose(
            two_tone_signal(), DecompositionConfig(K=2, alpha=200.0, beta=0.0)
        )
        assert [s.iteration for s in result.trace] == list(
            range(1, result.iterations + 1)
        )
        assert result.trace[-1].rel_change < 1e-7
        assert all(np.isfinite(s.objective) for s in result.trace)

    def test_converged_means_final_rel_change_below_epsilon(self):
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, epsilon=1e-7)
        result = decompose(two_tone_signal(), config)
        assert result.converged
        assert result.trace[-1].rel_change < config.epsilon


@pytest.fixture(scope="module")
def preset():
    return generate(paper_preset())[0]


class TestStoppingRule:
    def test_modes_without_previous_energy(self):
        # finite, and no divide warning: a mode that moved from zero counts
        # 1 and one that stayed at zero counts 0
        change, prev = np.array([0.0, 2.0, 1e-3]), np.array([0.0, 0.0, 1.0])
        assert _relative_change(change, prev) == 1.001
        first = decompose(two_tone_signal(), DecompositionConfig(
            K=2, alpha=200.0, beta=0.0, max_iter=1)).trace[0]
        assert first.rel_change == 2.0

    def test_no_mirror_stops_with_mirrored_run(self, preset):
        # modes that die out at some nodes must not keep the run going on
        # their rounding noise (70 iterations against 36 under a sum of
        # per-(mode, node) ratios)
        config = DecompositionConfig(K=4, alpha=200.0, beta=0.0)
        mirrored = decompose(preset, config)
        plain = decompose(preset,
                          dataclasses.replace(config, mirror_extend=False))
        assert mirrored.converged and plain.converged
        assert abs(plain.iterations - mirrored.iterations) <= 2

    @pytest.mark.parametrize("mirror", [True, False])
    @pytest.mark.parametrize("scale", [1e-3, 2.0, 1e3])
    def test_amplitude_scaling_keeps_the_path(self, preset, scale, mirror):
        # without graphs the modes scale with the input, so the stop must
        # not depend on the input's scale
        config = DecompositionConfig(K=4, alpha=200.0, beta=0.0,
                                     mirror_extend=mirror)
        base = decompose(preset, config)
        scaled = decompose(TimeVaryingGraphSignal(
            scale * preset.samples, preset.sample_rate_hz), config)
        assert scaled.iterations == base.iterations
        assert scaled.converged == base.converged
        bound = 1e-12 * scale * np.abs(preset.samples).max()
        for mode, scaled_mode in zip(base.modes, scaled.modes):
            assert np.abs(
                scaled_mode.mode_samples - scale * mode.mode_samples
            ).max() <= bound

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_default_tolerance_is_accurate(self, preset, beta):
        # against a run converged to 1e-15 the default leaves the modes
        # 1.4e-6 (beta = 0) and 1.0e-6 (beta = 0.1) of max|x| away; 3e-12
        # leaves 2.1e-6 and 1.6e-6, 1e-7 1.6e-4 and 1.5e-4
        config = DecompositionConfig(K=4, alpha=200.0, beta=beta)
        got = decompose(preset, config)
        ref = decompose(preset, dataclasses.replace(config, epsilon=1e-15))
        assert got.converged and ref.converged
        for mode, ref_mode in zip(got.modes, ref.modes):
            assert np.abs(mode.mode_samples - ref_mode.mode_samples).max() <= (
                2e-6 * np.abs(preset.samples).max())


class TestGraphPath:
    def test_clean_preset_learner_work(self, preset, monkeypatch):
        # the damped Newton start spares most line-search halvings (full
        # first steps took 392 objective evaluations), and the trace reads
        # each graph's objective off its solve instead of evaluating it
        # again (255 before): about 220, one more than the solves' own
        # because the cold start's isolated nodes are shifted and the
        # batch evaluated again
        evaluations = []
        evaluate = graph_learner._evaluate

        def counted(*args):
            evaluations.append(None)
            return evaluate(*args)

        monkeypatch.setattr(graph_learner, "_evaluate", counted)
        result = decompose(preset, DecompositionConfig(K=4, alpha=200.0))
        solved = [ok for s in result.trace for ok in s.graph_converged]
        assert result.iterations == 36 and len(solved) == 144
        assert all(solved) and result.converged
        assert len(evaluations) <= 225

    def test_graph_learning_recovers_coactivity(self):
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=0.1, gamma=1.0, tau=0.0
        )
        result = decompose(two_tone_signal(), config)
        assert result.converged
        low = result.modes[0]
        assert low.center_freq_hz == pytest.approx(8.0, abs=0.5)
        assert low.edge_weights.size == 6
        weights = dict(zip(node_pairs(4), low.edge_weights))
        # 8 Hz lives on nodes {0,1,2}; node 3 is silent there
        in_group = [weights[(0, 1)], weights[(0, 2)], weights[(1, 2)]]
        cross = [weights[(0, 3)], weights[(1, 3)], weights[(2, 3)]]
        assert min(in_group) > 3 * max(max(cross), 1e-12)

    def test_capped_graph_solve_is_not_converged(self):
        # one Newton step per solve is too few from the cold start, yet the
        # outer stopping rule still fires; the run must not claim success
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=0.1, graph_max_iter=1
        )
        result = decompose(two_tone_signal(), config)
        assert result.trace[-1].rel_change < config.epsilon
        assert result.iterations < config.max_iter
        assert not result.converged

    @pytest.mark.parametrize("scale", [3e3, 1e4, 1e6])
    def test_singular_newton_systems_do_not_crash(self, scale):
        # at these amplitudes the learned weights reach ~1e-9, gamma*deg^2
        # drowns in rounding and a free-edge Newton system is exactly
        # singular; those rows fall back to the scaled gradient step
        preset = generate(paper_preset())[0]
        signal = TimeVaryingGraphSignal(
            preset.samples * scale, preset.sample_rate_hz
        )
        result = decompose(signal, DecompositionConfig(K=4, alpha=200.0))
        for mode in result.modes:
            assert np.all(np.isfinite(mode.mode_samples))
            assert np.all(np.isfinite(mode.edge_weights))
        assert not result.converged

    def test_trace_records_graph_solves(self):
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=0.1, graph_max_iter=1
        )
        result = decompose(two_tone_signal(), config)
        steps = [n for s in result.trace for n in s.graph_steps]
        solved = [ok for s in result.trace for ok in s.graph_converged]
        assert all(len(s.graph_steps) == len(s.graph_converged) == 2
                   for s in result.trace)
        assert all(n <= 1 for n in steps)
        assert not all(solved) and not result.converged
        # a capped solve took its one step; one that met the tolerance
        # before stepping took none
        assert all(n == 1 for n, ok in zip(steps, solved) if not ok)
        mvmd = decompose(
            two_tone_signal(), dataclasses.replace(config, beta=0.0)
        )
        assert all(s.graph_steps == () and s.graph_converged == ()
                   for s in mvmd.trace)

    def test_residual_monotone_tail_with_duals(self):
        signal = two_tone_signal()
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.0, tau=1.0)
        full = decompose(signal, config)
        assert full.converged
        last = full.iterations
        norms = []
        for cap in range(max(1, last - 9), last + 1):
            capped = decompose(
                signal, dataclasses.replace(config, max_iter=cap)
            )
            norms.append(float(np.linalg.norm(capped.residual)))
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-6)

    def test_duals_with_graphs_still_reconstruct(self):
        # gentle dual steps coexist with graph smoothing; strong ones can
        # keep the iteration on a small limit cycle instead of converging
        signal = two_tone_signal()
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=0.5, gamma=1.0, tau=0.1
        )
        result = decompose(signal, config)
        assert result.converged
        rel = np.linalg.norm(result.residual) / np.linalg.norm(signal.samples)
        assert rel <= 1e-2


class TestDeterminismAndEquivariance:
    def test_bit_identical_reruns(self):
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.1)
        a = decompose(two_tone_signal(), config)
        b = decompose(two_tone_signal(), config)
        for mode_a, mode_b in zip(a.modes, b.modes):
            assert np.array_equal(mode_a.mode_samples, mode_b.mode_samples)
            assert np.array_equal(mode_a.edge_weights, mode_b.edge_weights)
            assert mode_a.center_freq_hz == mode_b.center_freq_hz
        assert np.array_equal(a.residual, b.residual)

    def test_node_permutation_equivariance(self):
        signal = two_tone_signal()
        perm = np.array([2, 0, 3, 1])
        permuted = TimeVaryingGraphSignal(
            samples=signal.samples[perm], sample_rate_hz=FS
        )
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.1)
        base = decompose(signal, config)
        other = decompose(permuted, config)
        for mode_base, mode_perm in zip(base.modes, other.modes):
            assert mode_perm.center_freq_hz == pytest.approx(
                mode_base.center_freq_hz, abs=1e-9
            )
            assert mode_perm.mode_samples == pytest.approx(
                mode_base.mode_samples[perm], abs=1e-8
            )
            base_w = dict(zip(node_pairs(4), mode_base.edge_weights))
            for pair, w in zip(node_pairs(4), mode_perm.edge_weights):
                original = tuple(sorted((perm[pair[0]], perm[pair[1]])))
                assert w == pytest.approx(base_w[original], abs=1e-8)


class TestAwkwardInputs:
    def test_odd_length_signal(self):
        t_len = 63
        t = np.arange(t_len) / 63.0
        x = np.stack([
            np.cos(2 * np.pi * 5 * t),
            0.5 * np.cos(2 * np.pi * 5 * t),
            np.cos(2 * np.pi * 12 * t),
        ])
        signal = TimeVaryingGraphSignal(samples=x, sample_rate_hz=63.0)
        result = decompose(signal, DecompositionConfig(K=2, alpha=100.0, beta=0.1))
        assert result.converged
        assert result.modes[0].mode_samples.shape == (3, t_len)
        assert result.center_frequencies_hz[0] == pytest.approx(5.0, abs=0.5)
        assert result.center_frequencies_hz[1] == pytest.approx(12.0, abs=0.5)

    def test_more_modes_than_tones_degrades_gracefully(self):
        # surplus modes fight over the single tone; the run may not settle
        # but must stay finite, flagged, and centered near the tone
        x = np.tile(tone(8), (3, 1))
        signal = TimeVaryingGraphSignal(samples=x, sample_rate_hz=FS)
        config = DecompositionConfig(K=3, alpha=200.0, beta=0.0, max_iter=50)
        result = decompose(signal, config)
        assert result.iterations == 50 or result.converged
        for mode in result.modes:
            assert np.all(np.isfinite(mode.mode_samples))
            assert mode.center_freq_hz == pytest.approx(8.0, abs=1.0)


class TestOptions:
    def test_mirror_off_still_separates(self):
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=0.0, mirror_extend=False
        )
        result = decompose(two_tone_signal(), config)
        assert result.center_frequencies_hz[0] == pytest.approx(8.0, abs=0.5)
        assert result.center_frequencies_hz[1] == pytest.approx(60.0, abs=0.5)

    @pytest.mark.parametrize("init", ["uniform", "peaks"])
    def test_alternative_initializations(self, init):
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=0.0, omega_init=init
        )
        result = decompose(two_tone_signal(), config)
        assert result.center_frequencies_hz[0] == pytest.approx(8.0, abs=1.0)
        assert result.center_frequencies_hz[1] == pytest.approx(60.0, abs=1.0)

    def test_normalize_distances_path(self):
        config = DecompositionConfig(
            K=2, alpha=200.0, beta=0.1, normalize_distances=True
        )
        result = decompose(two_tone_signal(), config)
        assert result.converged

    def test_spectral_and_time_domain_changes_agree(self):
        # the stopping metric is spectral; with mirrored transforms the same
        # per-mode ratio computed from time-domain modes, norms over all
        # nodes, matches through energy conservation
        signal = two_tone_signal()
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.0)
        full = decompose(signal, config)
        n_iter = full.iterations
        prev = decompose(
            signal, dataclasses.replace(config, max_iter=n_iter - 1)
        )
        time_rel = 0.0
        for mode_now, mode_prev in zip(full.modes, prev.modes):
            now, before = mode_now.mode_samples, mode_prev.mode_samples
            time_rel += float(np.sum((now - before) ** 2)) / float(
                np.sum(before**2))
        spec_rel = full.trace[-1].rel_change
        assert time_rel == pytest.approx(spec_rel, rel=1e-6)


class TestSweep:
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_gain_sweep_matches_per_node_sweep(self, tau):
        # with beta = 0 every mode is its gains times x_c and the duals are
        # dual gains times x_c (nonzero once a tau > 0 step has run); the
        # sweep over the gains against an input of ones must give, times
        # x_c, the modes of the sweep over every node's coefficients, which
        # runs over row blocks, the last one partial, and writes the same
        # values as one whole-array block
        rng = np.random.default_rng(3)
        k, n, p = 3, 64, 600
        blocks = row_blocks(n, p)
        assert len(blocks) >= 3 and blocks[-1].stop > n
        x_c = rng.standard_normal((n, p))
        gains = rng.random((k, 1, p))
        dual = tau * rng.standard_normal((1, p))
        wiener = list(rng.random((k, p)))
        out, whole = np.empty((2, k, n, p))
        out_gains = np.empty_like(gains)

        _sweep(gains * x_c, x_c, dual * x_c, wiener, blocks, out)
        _sweep(gains * x_c, x_c, dual * x_c, wiener, [slice(None)], whole)
        _sweep(gains, np.ones((1, p)), dual, wiener, [slice(None)],
               out_gains)

        assert np.array_equal(out, whole)
        assert np.abs(out_gains * x_c - out).max() <= (
            1e-14 * np.abs(x_c).max())

    def test_no_duals_match_zero_duals(self):
        # with tau = 0 the loop carries no dual array; the sweep and the
        # dual step without one must give what a zero array gives, bit for
        # bit
        rng = np.random.default_rng(4)
        k, n, p = 3, 64, 600
        blocks = row_blocks(n, p)
        g = rng.standard_normal((k, n, p))
        x_c = rng.standard_normal((n, p))
        wiener = rng.random((k, p))
        zeros = np.zeros((n, p))
        with_zeros, without = np.empty((2, k, n, p))
        _sweep(g, x_c, zeros, wiener, blocks, with_zeros)
        _sweep(g, x_c, None, wiener, blocks, without)
        assert with_zeros.tobytes() == without.tobytes()
        weights = rng.random(p)
        fit_zeros = _dual_step(without, x_c, zeros, 0.0, weights)
        fit = _dual_step(without, x_c, None, 0.0, weights)
        assert np.array(fit_zeros).tobytes() == np.array(fit).tobytes()
        assert not zeros.any()


def traced_peak_in_mode_buffers(n, t, k, **options):
    """tracemalloc peak of ``decompose`` on an n x t noise signal, in units
    of one (K, N, P) coefficient buffer."""
    signal = TimeVaryingGraphSignal(
        samples=np.random.default_rng(0).standard_normal((n, t)),
        sample_rate_hz=FS,
    )
    config = DecompositionConfig(K=k, alpha=200.0, max_iter=2, **options)
    p = t if config.mirror_extend else 2 * (t // 2 + 1)
    tracemalloc.start()
    try:
        decompose(signal, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (k * n * p * 8)


class TestMemory:
    @pytest.mark.parametrize("mirror", [True, False])
    def test_mvmd_peak_stays_within_one_and_a_half_mode_buffers(
            self, mirror):
        # With beta = 0 the loop runs on (K, P) gains and keeps only one
        # (N, P) array, the input coefficients. The modes are formed once,
        # into the one (K, N, P) buffer that goes back to the time domain
        # and that the result shares: about 1.44 buffers at the peak, K =
        # 4. A per-node loop, with its mode buffer and the (N, P) duals
        # beside the input coefficients, or a copy of the modes, goes past
        # 1.5.
        peak = traced_peak_in_mode_buffers(32, 8192, 4, beta=0.0,
                                           mirror_extend=mirror)
        assert peak <= 1.5

    @pytest.mark.parametrize("mirror", [True, False])
    def test_graph_peak_frees_squares_before_distances(self, mirror):
        # With graphs an iteration also holds the smoothed modes; the
        # energies' squares and the distances' weighted modes both go into
        # the buffer the sweep wrote, which smoothing leaves free: about
        # 4.1 buffers at the peak. A fresh (K, N, P) temporary for either
        # reaches about 5.0, and keeping the squares alive into the
        # distances adds one more.
        peak = traced_peak_in_mode_buffers(32, 4096, 4, beta=0.1,
                                           graph_max_iter=5,
                                           mirror_extend=mirror)
        assert peak <= 4.5

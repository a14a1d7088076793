import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import tvgmd.decomposer as decomposer
from tvgmd import graph_learner
from tvgmd.core import DecompositionConfig, TimeVaryingGraphSignal
from tvgmd.decomposer import (
    _GRAPH_EPSILON,
    _LOOSEST,
    _RELAX_BELOW,
    _relative_change,
    _sweep,
    decompose,
)
from tvgmd.errors import NonFiniteInputError, TvgmdError
from tvgmd.graph_learner import learn_graph_batch
from tvgmd.spectral import row_blocks
from tvgmd.synth import generate, paper_preset
from test_graph_learner import gradient
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

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_modes_without_power_keep_their_centers(self, beta,
                                                    monkeypatch):
        # a zero input leaves every mode without power in every iteration:
        # mean_frequency flags each row, and each keeps its initial center;
        # the modes start apart here, so a center that moved would show
        initial = (0.5 * np.arange(1, 4) / 4).tolist()
        monkeypatch.setattr(decomposer, "_initial_omegas",
                            lambda k, power, grid: np.array(initial))
        signal = TimeVaryingGraphSignal(
            samples=np.zeros((3, 64)), sample_rate_hz=64.0
        )
        config = DecompositionConfig(K=3, alpha=100.0, beta=beta)
        result = decompose(signal, config)
        assert [list(s.omegas) for s in result.trace] == (
            [initial] * result.iterations)
        assert list(result.center_frequencies_hz) == [
            64.0 * omega for omega in initial]

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


def starts_hz(signal, k):
    """The loop's starting centers in Hz."""
    loop = decomposer._Loop(signal.samples,
                            DecompositionConfig(K=k, alpha=200.0))
    return loop.omegas * signal.sample_rate_hz


class TestInitialCenters:
    @pytest.mark.parametrize(
        "snr_db,seed",
        [(None, 0)] + [(6.0, seed) for seed in range(10)],
        ids=["clean"] + [f"6dB-{seed}" for seed in range(10)],
    )
    def test_one_start_per_tone(self, snr_db, seed):
        # the preset's tones lie 22 Hz and more apart, each seeding one
        # mode within one bin, fs / 2T
        signal, truth = generate(
            dataclasses.replace(paper_preset(), snr_db=snr_db, seed=seed))
        tones = sorted(truth.components)
        bin_hz = signal.sample_rate_hz / (2 * signal.n_samples)
        assert np.abs(starts_hz(signal, len(tones)) - tones).max() <= bin_hz

    @pytest.mark.parametrize("k", [3, 4])
    def test_surplus_modes_start_at_zero(self, k):
        # a tone's leakage lobes lie beside its stronger peak, so they seed
        # no mode
        signal = TimeVaryingGraphSignal(samples=np.tile(tone(8), (3, 1)),
                                        sample_rate_hz=FS)
        assert starts_hz(signal, k).tolist() == [0.0] * (k - 1) + [8.0]

    def test_silent_input_starts_every_mode_at_zero(self):
        signal = TimeVaryingGraphSignal(samples=np.zeros((3, 64)),
                                        sample_rate_hz=64.0)
        assert starts_hz(signal, 3).tolist() == [0.0] * 3


class TestStoppingRule:
    def test_modes_without_previous_energy(self):
        # finite, and no divide warning: a mode that moved from zero counts
        # 1 and one that stayed at zero counts 0
        change, prev = np.array([0.0, 2.0, 1e-3]), np.array([0.0, 0.0, 1.0])
        assert _relative_change(change, prev) == 1.001
        first = decompose(two_tone_signal(), DecompositionConfig(
            K=2, alpha=200.0, beta=0.0, max_iter=1)).trace[0]
        assert first.rel_change == 2.0

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("state", ["change", "energy"])
    def test_step_raises_at_the_first_non_finite_state(self, beta, state,
                                                       monkeypatch):
        # the loop's one overflow exit: an iteration whose change or modes'
        # energy is not finite raises, naming itself, before any distances
        # are formed from its modes; the iterations before it step on
        config = DecompositionConfig(K=2, alpha=200.0, beta=beta)
        loop = decomposer._Loop(two_tone_signal().samples, config)
        assert all(math.isfinite(loop.step(i).rel_change) for i in (1, 2))
        change_of, distances = decomposer._change, []

        def overflowing(g, g_prev, relax, node_power):
            change = change_of(g, g_prev, relax, node_power)
            if state == "change":
                change[1] = np.inf
            else:
                g[1, 0, 0] = 1e300  # its square overflows, the change not
            return change

        monkeypatch.setattr(decomposer, "_change", overflowing)
        monkeypatch.setattr(decomposer, "pairwise_distances",
                            lambda *args, **kw: distances.append(None))
        with pytest.raises(NonFiniteInputError, match="in iteration 3:"):
            loop.step(3)
        assert not distances

    @pytest.mark.parametrize("scale", [1e-3, 2.0, 1e3])
    def test_amplitude_scaling_keeps_the_path(self, preset, scale):
        # without graphs the modes scale with the input, so the stop must
        # not depend on the input's scale
        config = DecompositionConfig(K=4, alpha=200.0, beta=0.0)
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
        # 1.3e-6 (beta = 0) and 8.5e-7 (beta = 0.1) of max|x| away, as 3e-12
        # does; 1e-7 leaves 8.1e-5 and 3.1e-5
        config = DecompositionConfig(K=4, alpha=200.0, beta=beta)
        got = decompose(preset, config)
        ref = decompose(preset, dataclasses.replace(config, epsilon=1e-15))
        assert got.converged and ref.converged
        for mode, ref_mode in zip(got.modes, ref.modes):
            assert np.abs(mode.mode_samples - ref_mode.mode_samples).max() <= (
                2e-6 * np.abs(preset.samples).max())


@pytest.fixture
def capped_solves(monkeypatch):
    """Caps every graph solve of the decomposer at one Newton step."""
    monkeypatch.setattr(decomposer, "learn_graph_batch",
                        functools.partial(learn_graph_batch, max_iter=1))


class TestGraphPath:
    def test_clean_preset_learner_work(self, preset, monkeypatch):
        # early solves are held to the modes' relative step instead of
        # _GRAPH_EPSILON: 210 Newton steps and 187 objective evaluations
        # in 36 iterations, against 345 and 220 with every solve held to
        # _GRAPH_EPSILON. The damped Newton start spares most line-search
        # halvings (full first steps took 392 evaluations at
        # _GRAPH_EPSILON), and the trace reads each graph's objective off
        # its solve instead of evaluating it again (255 at _GRAPH_EPSILON).
        # Over-relaxing the linear tail takes that to 26 iterations, 179
        # Newton steps and 173 evaluations, and raising the loosest early
        # tolerance from 0.1 to 0.25 to 148 Newton steps and 133
        # evaluations in 68 lockstep sweeps, against 83. Shifting an
        # isolated warm start before its first evaluation saves the cold
        # start's second one: 132. Starting the modes at the input's
        # spectral peaks instead of 0 Hz takes that to 21 iterations, 137
        # Newton steps and 122 evaluations
        evaluations = []
        evaluate = graph_learner._evaluate

        def counted(*args):
            evaluations.append(None)
            return evaluate(*args)

        monkeypatch.setattr(graph_learner, "_evaluate", counted)
        result = decompose(preset, DecompositionConfig(K=4, alpha=200.0))
        solved = [ok for s in result.trace for ok in s.graph_converged]
        assert result.iterations == 21 and len(solved) == 84
        assert all(solved) and result.converged
        assert len(evaluations) <= 122
        assert sum(n for s in result.trace for n in s.graph_steps) <= 143

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

    def test_capped_graph_solve_is_not_converged(self, capped_solves):
        # one Newton step per solve is too few from the cold start, yet the
        # outer stopping rule still fires; the run must not claim success
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.1)
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

    def test_trace_records_graph_solves(self, capped_solves):
        config = DecompositionConfig(K=2, alpha=200.0, beta=0.1)
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
                   and s.graph_tolerance is None for s in mvmd.trace)

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

    @pytest.mark.parametrize("beta", [0.1, 0.0])
    def test_overflowing_input_is_an_input_error(self, preset, beta):
        # finite samples whose squares overflow pass the input check; the
        # run must still end in a package error, not in NaN modes or a
        # crash. The graph kernels check nothing, so with graphs the loop
        # stops before the learner sees the non-finite distances, and
        # without graphs on the first change that is not finite
        signal = TimeVaryingGraphSignal(samples=1e160 * preset.samples,
                                        sample_rate_hz=preset.sample_rate_hz)
        config = DecompositionConfig(K=4, alpha=200.0, beta=beta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TvgmdError):
                decompose(signal, config)
        assert all(issubclass(w.category, RuntimeWarning) for w in caught)

    @pytest.mark.parametrize("beta", [0.1, 0.0])
    def test_overflow_names_the_scale_without_warnings(self, preset, beta):
        # with or without graphs, an overflowing input is the same input
        # error, and numpy warns of none of the infinities on the way
        signal = TimeVaryingGraphSignal(samples=1e160 * preset.samples,
                                        sample_rate_hz=preset.sample_rate_hz)
        config = DecompositionConfig(K=4, alpha=200.0, beta=beta)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteInputError, match="scale"):
                decompose(signal, config)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_large_finite_distances_are_flagged_without_warnings(self,
                                                                  preset):
        # at 1e140 the squares and distances stay finite, so the learner
        # runs; its trials overflow and are rejected, solves miss their
        # tolerance, and the run reports that instead of warning
        signal = TimeVaryingGraphSignal(samples=1e140 * preset.samples,
                                        sample_rate_hz=preset.sample_rate_hz)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = decompose(signal, DecompositionConfig(K=4, alpha=200.0))
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not result.converged
        assert not all(ok for s in result.trace for ok in s.graph_converged)
        for mode in result.modes:
            assert np.all(np.isfinite(mode.mode_samples))
            assert np.all(np.isfinite(mode.edge_weights))

    def test_overflowing_line_searches_are_bounded(self, preset,
                                                   monkeypatch):
        # at 1e140 every trial of a first step overflows; each line search
        # tries at most 128 halvings and then the zero step, which stops
        # its row, instead of halving about 1,000 times until the step
        # underflows (3,537 evaluations in 27 calls, against 26,855)
        per_call = []
        learn, evaluate = decomposer.learn_graph_batch, graph_learner._evaluate

        def counted_learn(*args, **kwargs):
            per_call.append(0)
            return learn(*args, **kwargs)

        def counted_evaluate(*args):
            per_call[-1] += 1
            return evaluate(*args)

        monkeypatch.setattr(decomposer, "learn_graph_batch", counted_learn)
        monkeypatch.setattr(graph_learner, "_evaluate", counted_evaluate)
        signal = TimeVaryingGraphSignal(samples=1e140 * preset.samples,
                                        sample_rate_hz=preset.sample_rate_hz)
        result = decompose(signal, DecompositionConfig(K=4, alpha=200.0))
        assert not result.converged and len(per_call) == result.iterations
        for evaluations, snapshot in zip(per_call, result.trace):
            # the start, then at most 130 trials per lockstep sweep, the
            # sweep that finds every row stuck included
            sweeps = 1 + max(snapshot.graph_steps)
            assert evaluations <= 1 + 130 * sweeps

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_overflow_stops_at_the_first_non_finite_change(self, preset,
                                                           beta, monkeypatch):
        # the modes' energy overflows in iteration 1; the run must not step
        # on and count as converged, no snapshot with a non-finite change
        # comes out, and the error names the iteration and the input's
        # scale, not an internal field
        signal = TimeVaryingGraphSignal(samples=1e160 * preset.samples,
                                        sample_rate_hz=preset.sample_rate_hz)
        changes = []
        step = decomposer._Loop.step

        def traced_step(loop, iteration):
            snapshot = step(loop, iteration)
            changes.append(snapshot.rel_change)
            return snapshot

        monkeypatch.setattr(decomposer._Loop, "step", traced_step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteInputError,
                               match="in iteration 1:.*scale") as caught:
                decompose(signal, DecompositionConfig(K=4, alpha=200.0,
                                                      beta=beta))
        assert "mode_samples" not in str(caught.value)
        assert all(math.isfinite(c) for c in changes)


class TestOptions:
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


def six_op_sweep(g, x, lam, gains):
    """The spectral sweep over whole arrays from the modes themselves: each
    mode's numerator ``x - (running_sum - old_k) + lam / 2`` in six
    passes, the running sum of the modes updated by ``new_k - old_k``."""
    running_sum = g.sum(axis=0)
    out = np.empty_like(g)
    for mode, gain in enumerate(gains):
        work = x - (running_sum - g[mode]) + lam / 2.0
        out[mode] = work * gain
        running_sum += out[mode] - g[mode]
    return out


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
        modes = gains * x_c
        resid = x_c - modes.sum(axis=0)

        _sweep(modes, resid, dual * x_c, wiener, blocks, out)
        _sweep(modes, resid, dual * x_c, wiener, [slice(None)], whole)
        _sweep(gains, 1.0 - gains.sum(axis=0), dual, wiener, [slice(None)],
               out_gains)

        assert np.array_equal(out, whole)
        assert np.abs(out_gains * x_c - out).max() <= (
            1e-14 * np.abs(x_c).max())

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_residual_sweep_matches_the_six_op_numerator(self, tau):
        # the sweep reads the carried residual x - sum_k g over row blocks
        # and updates it in three passes per mode; its modes must be those
        # of the numerator formed from the modes themselves, within a few
        # ulps of max|x|
        rng = np.random.default_rng(5)
        k, n, p = 4, 40, 520
        blocks = row_blocks(n, p)
        assert len(blocks) >= 2
        x = rng.standard_normal((n, p))
        g = rng.random((k, 1, p)) * x + 0.1 * rng.standard_normal((k, n, p))
        lam = tau * rng.standard_normal((n, p))
        wiener = rng.random((k, p))
        out = np.empty_like(g)

        _sweep(g, x - g.sum(axis=0), lam, wiener, blocks, out)

        assert np.abs(out - six_op_sweep(g, x, lam, wiener)).max() <= (
            4 * np.finfo(float).eps * np.abs(x).max())

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_carried_residual_is_the_modes_residual(self, beta, tau):
        # the residual the loop carries from its dual step into the next
        # sweep is, after every step, exactly the input less the modes' sum
        config = DecompositionConfig(K=3, alpha=200.0, beta=beta, tau=tau)
        loop = decomposer._Loop(two_tone_signal().samples, config)
        assert np.array_equal(loop.resid, loop.data)
        for iteration in range(1, 7):
            loop.step(iteration)
            assert np.array_equal(loop.resid,
                                  loop.data - loop.g.sum(axis=0))


def kkt_residual(w, x, beta, gamma):
    """KKT residual ``||w - max(w - grad f(w), 0)||_inf`` of the graph
    problem over the distances between the rows of the N x T matrix ``x``."""
    rows, cols = np.triu_indices(x.shape[0], k=1)
    z = ((x[rows] - x[cols]) ** 2).sum(axis=1)
    return np.abs(w - np.maximum(w - gradient(w, z, beta, gamma), 0.0)).max()


@pytest.fixture(scope="module", params=[1e-9, 1e-10, 1e-12])
def graph_runs(request, preset):
    """Clean and 6 dB (seed 0) preset runs at one outer tolerance."""
    config = DecompositionConfig(K=4, alpha=200.0, epsilon=request.param)
    noisy = generate(dataclasses.replace(paper_preset(), snr_db=6.0, seed=0))[0]
    return config, [decompose(x, config) for x in (preset, noisy)]


class TestGraphTolerance:
    def test_tolerance_follows_the_previous_change(self, graph_runs):
        # the first solves are held to the loosest tolerance, each later
        # one to the previous iteration's relative step within
        # [_GRAPH_EPSILON, loosest], and to _GRAPH_EPSILON once the stop
        # test has passed
        config, runs = graph_runs
        for result in runs:
            expected = [_LOOSEST]
            for s in result.trace[:-1]:
                step = math.sqrt(s.rel_change)
                expected.append(
                    _GRAPH_EPSILON if s.rel_change < config.epsilon
                    else max(_GRAPH_EPSILON, min(_LOOSEST, step)))
            assert [s.graph_tolerance for s in result.trace] == expected
            assert len(set(expected)) > 10

    def test_converged_runs_end_on_final_graphs(self, graph_runs):
        # a run ends on the first iteration that passes the stop test
        # with its graphs solved to _GRAPH_EPSILON, and those graphs meet
        # the KKT tolerance over the result's own modes
        config, runs = graph_runs
        eps, graph_eps = config.epsilon, _GRAPH_EPSILON
        for result in runs:
            assert result.converged
            *earlier, last = result.trace
            assert last.rel_change < eps and last.graph_tolerance == graph_eps
            assert not any(s.rel_change < eps and s.graph_tolerance == graph_eps
                           for s in earlier)
            for mode in result.modes:
                w = mode.edge_weights
                assert kkt_residual(w, mode.mode_samples, config.beta,
                                    config.gamma) <= graph_eps * w.max()
        if eps == 1e-9:
            # the stop test passed on looser solves, and the run went on
            assert all(any(s.rel_change < eps for s in result.trace[:-1])
                       for result in runs)


class TestRelaxation:
    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_same_fixed_point(self, preset, beta, monkeypatch):
        # relaxation changes the path, not where it ends: at a tight
        # tolerance the modes agree within 1.1e-8 of max|x| and the
        # weights within 1.3e-6 of the largest weight (measured)
        config = DecompositionConfig(K=4, alpha=200.0, beta=beta,
                                     epsilon=1e-16)
        relaxed = decompose(preset, config)
        monkeypatch.setattr(decomposer, "_RELAX", 1.0)
        plain = decompose(preset, config)
        assert relaxed.converged and plain.converged
        assert relaxed.iterations < plain.iterations
        x_scale = np.abs(preset.samples).max()
        for mode, plain_mode in zip(relaxed.modes, plain.modes):
            assert np.abs(mode.mode_samples - plain_mode.mode_samples).max() \
                <= 1e-7 * x_scale
            if beta > 0:
                w = plain_mode.edge_weights
                assert np.abs(mode.edge_weights - w).max() <= (
                    _GRAPH_EPSILON * w.max())

    @pytest.mark.parametrize("beta", [0.0, 0.1])
    def test_relaxation_waits_for_the_linear_tail(self, preset, beta,
                                                  monkeypatch):
        # no iteration is relaxed before the previous change falls below
        # _RELAX_BELOW, which on the clean preset first happens in
        # iteration 3, so iteration 4 is the first to differ
        config = DecompositionConfig(K=4, alpha=200.0, beta=beta)
        relaxed = decompose(preset, config)
        monkeypatch.setattr(decomposer, "_RELAX_BELOW", 0.0)
        plain = decompose(preset, config)
        opens = next(s.iteration for s in plain.trace
                     if s.rel_change < _RELAX_BELOW) + 1
        assert opens == 4
        assert relaxed.trace[:opens - 1] == plain.trace[:opens - 1]
        assert relaxed.trace[opens - 1] != plain.trace[opens - 1]


def traced_peak_in_mode_buffers(n, t, k, **options):
    """tracemalloc peak of ``decompose`` on an n x t noise signal, in units
    of one (K, N, T) coefficient buffer."""
    signal = TimeVaryingGraphSignal(
        samples=np.random.default_rng(0).standard_normal((n, t)),
        sample_rate_hz=FS,
    )
    config = DecompositionConfig(K=k, alpha=200.0, max_iter=2, **options)
    tracemalloc.start()
    try:
        decompose(signal, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (k * n * t * 8)


class TestMemory:
    def test_mvmd_peak_stays_within_one_and_a_half_mode_buffers(self):
        # With beta = 0 the loop runs on (K, P) gains and keeps only one
        # (N, P) array, the input coefficients. The modes are formed once,
        # into the one (K, N, P) buffer that goes back to the time domain
        # and that the result shares: about 1.44 buffers at the peak, K =
        # 4. A per-node loop, with its mode buffer and the (N, P) duals
        # beside the input coefficients, or a copy of the modes, goes past
        # 1.5.
        peak = traced_peak_in_mode_buffers(32, 8192, 4, beta=0.0)
        assert peak <= 1.5

    def test_graph_peak_frees_squares_before_distances(self, monkeypatch):
        # With graphs an iteration also holds the smoothed modes; the
        # energies' squares and the distances' weighted modes both go into
        # the buffer the sweep wrote, which smoothing leaves free: about
        # 4.1 buffers at the peak. A fresh (K, N, P) temporary for either
        # reaches about 5.0, and keeping the squares alive into the
        # distances adds one more. Five Newton steps per solve keep the
        # run short.
        monkeypatch.setattr(decomposer, "learn_graph_batch",
                            functools.partial(learn_graph_batch, max_iter=5))
        peak = traced_peak_in_mode_buffers(32, 4096, 4, beta=0.1)
        assert peak <= 4.5

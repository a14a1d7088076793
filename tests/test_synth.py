import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgmd.errors import BadParameterError, NyquistViolationError
from tvgmd.synth import SynthSpec, generate, paper_preset

TWO_NODES = (((4.0, 1.0),), ((8.0, 0.5),))


def reference_generate(spec):
    """Node-by-node construction: each term's cosine added on its own, the
    noise drawn one node at a time."""
    n_nodes = len(spec.node_terms)
    t_len = round(spec.duration_s * spec.sample_rate_hz)
    t = np.arange(t_len) / spec.sample_rate_hz
    frequencies = sorted({f for terms in spec.node_terms for f, _ in terms})
    components, partitions = {}, {}
    clean = np.zeros((n_nodes, t_len))
    for freq in frequencies:
        comp = np.zeros((n_nodes, t_len))
        active = []
        for node, terms in enumerate(spec.node_terms):
            for f, amp in terms:
                if f == freq:
                    comp[node] += amp * np.cos(2.0 * np.pi * f * t)
                    active.append(node)
        components[freq] = comp
        partitions[freq] = (
            tuple(active), tuple(n for n in range(n_nodes) if n not in active)
        )
        clean += comp
    samples = clean.copy()
    if spec.snr_db is not None:
        rng = np.random.default_rng(spec.seed)
        clean_power = np.mean(clean**2, axis=1)
        fallback = float(clean_power.mean())
        snr_linear = 10.0 ** (spec.snr_db / 10.0)
        for node in range(n_nodes):
            power = clean_power[node] if clean_power[node] > 0 else fallback
            sigma = np.sqrt(power / snr_linear) if power > 0 else 0.0
            samples[node] += rng.normal(0.0, sigma, t_len)
    return samples, clean, components, partitions


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64),
        np.ascontiguousarray(b).view(np.int64),
    )


@st.composite
def specs(draw):
    """Specs over a 64 Hz, 2 s grid with at most one term per (node,
    frequency): silent nodes, negative and signed-zero amplitudes, and
    SNR None or finite."""
    amplitude = st.one_of(
        st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from([0.0, -0.0])
    )
    node = st.dictionaries(
        st.sampled_from([0.0, 1.0, 4.0, 8.5, 31.0]), amplitude, max_size=4
    )
    nodes = draw(st.lists(node, min_size=2, max_size=5))
    return SynthSpec(
        node_terms=tuple(tuple(terms.items()) for terms in nodes),
        sample_rate_hz=64.0,
        duration_s=2.0,
        snr_db=draw(st.one_of(st.none(), st.floats(-20.0, 40.0))),
        seed=draw(st.integers(0, 2**32)),
    )


class TestPreset:
    def test_node_term_table(self):
        spec = paper_preset()
        assert len(spec.node_terms) == 8
        assert spec.node_terms[0] == ((2.0, 1.0), (128.0, 1.0))
        assert spec.node_terms[1] == ((24.0, -1.0), (48.0, 1.0))
        assert spec.node_terms[4] == (
            (2.0, 1.0),
            (24.0, 1.0),
            (48.0, 1.0),
            (128.0, 1.0),
        )
        assert spec.node_terms[7] == ((2.0, 1.0), (24.0, 1.0), (48.0, -1.0))

    def test_preset_dimensions(self):
        signal, _ = generate(paper_preset())
        assert signal.samples.shape == (8, 1024)
        assert signal.sample_rate_hz == 512.0

    def test_two_hz_partition(self):
        _, truth = generate(paper_preset())
        active, silent = truth.partitions[2.0]
        assert set(active) == {0, 2, 4, 6, 7}
        assert set(silent) == {1, 3, 5}

    def test_twenty_four_hz_partition(self):
        _, truth = generate(paper_preset())
        active, silent = truth.partitions[24.0]
        assert set(active) == {1, 3, 4, 6, 7}
        assert set(silent) == {0, 2, 5}


class TestGenerate:
    def test_clean_signal_is_sum_of_components(self):
        signal, truth = generate(paper_preset())
        total = sum(truth.components.values())
        assert np.array_equal(signal.samples, total)
        assert np.array_equal(truth.clean, total)

    def test_no_noise_without_snr(self):
        a, _ = generate(paper_preset())
        b, _ = generate(dataclasses.replace(paper_preset(), seed=99))
        assert np.array_equal(a.samples, b.samples)

    def test_seed_fixes_noise(self):
        spec = dataclasses.replace(paper_preset(), snr_db=6.0, seed=7)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.samples, b.samples)
        c, _ = generate(dataclasses.replace(spec, seed=8))
        assert not np.array_equal(a.samples, c.samples)

    def test_snr_calibration(self):
        # measured per-node SNR within +-0.5 dB of the target, averaged
        # over ten seeds
        target_db = 6.0
        ratios = []
        for seed in range(10):
            spec = dataclasses.replace(
                paper_preset(), snr_db=target_db, seed=seed
            )
            signal, truth = generate(spec)
            noise = signal.samples - truth.clean
            ratios.append(
                np.sum(truth.clean**2, axis=1) / np.sum(noise**2, axis=1)
            )
        measured_db = 10 * np.log10(np.mean(ratios, axis=0))
        assert np.all(np.abs(measured_db - target_db) <= 0.5)

    def test_silent_node_gets_fallback_noise(self):
        spec = SynthSpec(
            node_terms=(((4.0, 1.0),), ()),
            sample_rate_hz=32.0,
            duration_s=2.0,
            snr_db=10.0,
            seed=1,
        )
        signal, truth = generate(spec)
        assert np.all(truth.clean[1] == 0.0)
        assert np.any(signal.samples[1] != 0.0)

    def test_silent_node_without_noise_is_zero(self):
        spec = SynthSpec(
            node_terms=(((4.0, 1.0),), ()),
            sample_rate_hz=32.0,
            duration_s=2.0,
        )
        signal, _ = generate(spec)
        assert np.all(signal.samples[1] == 0.0)

    def test_nyquist_violation_rejected(self):
        with pytest.raises(NyquistViolationError):
            SynthSpec(
                node_terms=(((16.0, 1.0),), ((1.0, 1.0),)),
                sample_rate_hz=32.0,
                duration_s=1.0,
            )

    def test_non_integral_duration_rejected(self):
        with pytest.raises(BadParameterError):
            SynthSpec(
                node_terms=(((1.0, 1.0),), ((1.0, 1.0),)),
                sample_rate_hz=32.0,
                duration_s=0.33,
            )

    def test_same_frequency_terms_add(self):
        spec = SynthSpec(
            node_terms=(((4.0, 1.0), (4.0, 0.5)), ((8.0, 0.5),)),
            sample_rate_hz=64.0,
            duration_s=2.0,
        )
        signal, truth = generate(spec)
        cosine = np.cos(2.0 * np.pi * 4.0 * np.arange(128) / 64.0)
        assert np.array_equal(truth.components[4.0][0], 1.5 * cosine)
        assert np.array_equal(signal.samples[0], 1.5 * cosine)
        assert truth.partitions[4.0] == ((0,), (1,))

    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_matches_node_by_node_reference(self, spec):
        signal, truth = generate(spec)
        samples, clean, components, partitions = reference_generate(spec)
        assert same_bits(signal.samples, samples)
        assert same_bits(truth.clean, clean)
        assert list(truth.components) == list(components)
        for freq, comp in components.items():
            assert same_bits(truth.components[freq], comp)
        assert truth.partitions == partitions

    def test_integer_cycles_for_preset_tones(self):
        spec = paper_preset()
        t_total = spec.duration_s
        for terms in spec.node_terms:
            for freq, _ in terms:
                cycles = freq * t_total
                assert cycles == int(cycles)


class TestSpecChecks:
    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"node_terms": (((4.0, 1.0),),)}, BadParameterError,
             "a graph signal needs at least 2 nodes"),
            ({"sample_rate_hz": float("inf")}, BadParameterError,
             "sample_rate_hz must be finite and positive"),
            ({"sample_rate_hz": 0.0}, BadParameterError,
             "sample_rate_hz must be finite and positive"),
            ({"duration_s": float("nan")}, BadParameterError,
             "duration_s must be finite and positive"),
            ({"snr_db": float("-inf")}, BadParameterError,
             "snr_db must be finite"),
            ({"seed": -1}, BadParameterError,
             "seed must be a nonnegative integer"),
            ({"seed": 1.0}, BadParameterError,
             "seed must be a nonnegative integer"),
            ({"duration_s": 0.05}, BadParameterError,
             "duration_s * sample_rate_hz must be an integer >= 4"),
            ({"sample_rate_hz": 1e200, "duration_s": 1e200}, BadParameterError,
             "duration_s * sample_rate_hz must be an integer >= 4"),
            ({"node_terms": (((-1.0, 1.0),), ())}, BadParameterError,
             "frequencies must be nonnegative"),
            ({"node_terms": (((32.0, 1.0),), ())}, NyquistViolationError,
             "32.0 Hz is not below the Nyquist rate 32.0 Hz"),
            ({"seed": True}, BadParameterError,
             "seed must be a nonnegative integer"),
            ({"node_terms": (((float("nan"), 1.0),), ())}, BadParameterError,
             "frequencies must be finite"),
            ({"node_terms": (((float("inf"), 1.0),), ())}, BadParameterError,
             "frequencies must be finite"),
            ({"node_terms": (((4.0, float("nan")),), ())}, BadParameterError,
             "amplitudes must be finite"),
            ({"node_terms": ((), ((4.0, float("-inf")),))}, BadParameterError,
             "amplitudes must be finite"),
        ],
        ids=["one_node", "rate_inf", "rate_zero", "duration_nan", "snr_inf",
             "seed_negative", "seed_float", "too_short", "product_overflow",
             "negative_frequency", "nyquist", "seed_bool", "frequency_nan",
             "frequency_inf", "amplitude_nan", "amplitude_minus_inf"],
    )
    def test_bad_spec_raises_when_built(self, fields, error, message):
        values = {"node_terms": TWO_NODES, "sample_rate_hz": 64.0,
                  "duration_s": 2.0, **fields}
        with pytest.raises(error) as excinfo:
            SynthSpec(**values)
        assert str(excinfo.value) == message

    def test_replace_checks_again(self):
        spec = SynthSpec(TWO_NODES, sample_rate_hz=64.0, duration_s=2.0)
        with pytest.raises(BadParameterError, match="snr_db must be finite"):
            dataclasses.replace(spec, snr_db=float("nan"))
        with pytest.raises(NyquistViolationError):
            dataclasses.replace(spec, sample_rate_hz=16.0, duration_s=8.0)

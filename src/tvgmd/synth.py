"""Deterministic multi-tone test signals with planted ground truth.

The built-in eight-node preset places cosines at 2, 24, 48 and 128 Hz on
overlapping node subsets (two of them sign-flipped), so that each tone
defines both a frequency to recover and a co-activity partition of the
nodes. Optional additive Gaussian noise is calibrated per node to a target
signal-to-noise ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeVaryingGraphSignal
from .errors import BadParameterError, NyquistViolationError

# (frequency_hz, amplitude) terms per node of the preset; the sign flips on
# node 2's 24 Hz term and node 8's 48 Hz term put those nodes out of phase
# with the rest of their tone group.
_PRESET_TERMS: tuple[tuple[tuple[float, float], ...], ...] = (
    ((2.0, 1.0), (128.0, 1.0)),
    ((24.0, -1.0), (48.0, 1.0)),
    ((2.0, 1.0), (48.0, 1.0)),
    ((24.0, 1.0), (128.0, 1.0)),
    ((2.0, 1.0), (24.0, 1.0), (48.0, 1.0), (128.0, 1.0)),
    ((48.0, 1.0), (128.0, 1.0)),
    ((2.0, 1.0), (24.0, 1.0)),
    ((2.0, 1.0), (24.0, 1.0), (48.0, -1.0)),
)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic signal.

    ``node_terms[n]`` lists (frequency_hz, amplitude) cosine terms for node
    ``n``; an empty list makes that node silent, and a node's terms at one
    frequency add. ``snr_db=None`` disables noise entirely.

    A spec checks itself when built (``dataclasses.replace`` included): it
    needs 2+ nodes, a finite positive rate and duration whose product is an
    integer >= 4, a finite SNR, a nonnegative integer seed (not a bool),
    finite amplitudes and finite frequencies in [0, Nyquist). Otherwise it
    raises :class:`BadParameterError`, or :class:`NyquistViolationError`
    for a tone at or above Nyquist.
    """

    node_terms: tuple[tuple[tuple[float, float], ...], ...]
    sample_rate_hz: float
    duration_s: float
    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        if len(self.node_terms) < 2:
            raise BadParameterError("a graph signal needs at least 2 nodes")
        if not 0 < self.sample_rate_hz < np.inf:
            raise BadParameterError("sample_rate_hz must be finite and positive")
        if not 0 < self.duration_s < np.inf:
            raise BadParameterError("duration_s must be finite and positive")
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise BadParameterError("snr_db must be finite")
        if not (isinstance(self.seed, (int, np.integer))
                and not isinstance(self.seed, bool) and self.seed >= 0):
            raise BadParameterError("seed must be a nonnegative integer")
        t_float = self.duration_s * self.sample_rate_hz
        if not (np.isfinite(t_float) and abs(t_float - round(t_float)) <= 1e-9
                and round(t_float) >= 4):
            raise BadParameterError(
                "duration_s * sample_rate_hz must be an integer >= 4"
            )
        nyquist = self.sample_rate_hz / 2.0
        for terms in self.node_terms:
            for freq, amp in terms:
                if not np.isfinite(freq):
                    raise BadParameterError("frequencies must be finite")
                if not np.isfinite(amp):
                    raise BadParameterError("amplitudes must be finite")
                if freq < 0:
                    raise BadParameterError("frequencies must be nonnegative")
                if freq >= nyquist:
                    raise NyquistViolationError(
                        f"{freq} Hz is not below the Nyquist rate {nyquist} Hz"
                    )

    @property
    def n_samples(self) -> int:
        """Samples per node: ``duration_s * sample_rate_hz``."""
        return round(self.duration_s * self.sample_rate_hz)


@dataclass(frozen=True)
class GroundTruth:
    """Planted structure of a generated signal.

    ``components`` maps each distinct frequency to its clean N x T
    contribution; ``partitions`` maps it to the (active, silent) node index
    tuples — the co-activity split a graph learner should recover at that
    scale. ``clean`` is the noise-free sum of all components.
    """

    components: dict[float, np.ndarray]
    partitions: dict[float, tuple[tuple[int, ...], tuple[int, ...]]]
    clean: np.ndarray


def paper_preset() -> SynthSpec:
    """The eight-node four-tone preset (512 Hz sampling, 2 s, no noise)."""
    return SynthSpec(
        node_terms=_PRESET_TERMS,
        sample_rate_hz=512.0,
        duration_s=2.0,
    )


def generate(spec: SynthSpec) -> tuple[TimeVaryingGraphSignal, GroundTruth]:
    """Materialize a spec into a signal plus its ground truth.

    Each node's terms are summed per frequency into one amplitude, which
    scales that frequency's cosine. Noise, when enabled, is zero-mean
    Gaussian, independent across nodes and samples, with per-node variance
    set to (clean power) / 10^(snr/10). A silent node falls back to the
    average clean power across nodes so its noise level is still defined.
    Fixing ``seed`` fixes the output.
    """
    n_nodes = len(spec.node_terms)
    t_len = spec.n_samples
    t = np.arange(t_len) / spec.sample_rate_hz
    frequencies = sorted({f for terms in spec.node_terms for f, _ in terms})
    amplitudes = np.zeros((n_nodes, len(frequencies)))
    for node, terms in enumerate(spec.node_terms):
        for freq, amp in terms:
            amplitudes[node, frequencies.index(freq)] += amp

    clean = np.zeros((n_nodes, t_len))
    components: dict[float, np.ndarray] = {}
    partitions: dict[float, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for j, freq in enumerate(frequencies):
        # 0.0 + maps a zero amplitude's -0.0 to a silent node's +0.0
        cosine = np.cos(2.0 * np.pi * freq * t)
        components[freq] = 0.0 + amplitudes[:, j, None] * cosine
        clean += components[freq]
        active = [n for n, ts in enumerate(spec.node_terms) if freq in dict(ts)]
        silent = [n for n in range(n_nodes) if n not in active]
        partitions[freq] = (tuple(active), tuple(silent))

    if spec.snr_db is None:
        samples = clean.copy()  # clean stays writable in the ground truth
    else:
        rng = np.random.default_rng(spec.seed)
        clean_power = np.mean(clean**2, axis=1)
        power = np.where(clean_power > 0, clean_power, clean_power.mean())
        sigma = np.sqrt(power / 10.0 ** (spec.snr_db / 10.0))
        # One (N, T) draw takes the stream node by node, as N draws would.
        samples = rng.normal(0.0, sigma[:, None], clean.shape)
        samples += clean
    # read-only, so the signal shares it (see tvgmd.core)
    samples.flags.writeable = False

    signal = TimeVaryingGraphSignal(
        samples=samples, sample_rate_hz=spec.sample_rate_hz
    )
    return signal, GroundTruth(
        components=components, partitions=partitions, clean=clean
    )

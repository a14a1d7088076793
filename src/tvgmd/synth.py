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
    ``n``; an empty list makes that node silent. ``snr_db=None`` disables
    noise entirely. ``duration_s * sample_rate_hz`` must be an integer.
    """

    node_terms: tuple[tuple[tuple[float, float], ...], ...]
    sample_rate_hz: float
    duration_s: float
    snr_db: float | None = None
    seed: int = 0


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

    Noise, when enabled, is zero-mean Gaussian, independent across nodes
    and samples, with per-node variance set to (clean power) / 10^(snr/10).
    A silent node falls back to the average clean power across nodes so
    its noise level is still defined. Fixing ``seed`` fixes the output.
    """
    n_nodes = len(spec.node_terms)
    if n_nodes < 2:
        raise BadParameterError("a graph signal needs at least 2 nodes")
    if not 0 < spec.sample_rate_hz < np.inf:
        raise BadParameterError("sample_rate_hz must be finite and positive")
    if not 0 < spec.duration_s < np.inf:
        raise BadParameterError("duration_s must be finite and positive")
    if spec.snr_db is not None and not np.isfinite(spec.snr_db):
        raise BadParameterError("snr_db must be finite")
    if not (isinstance(spec.seed, (int, np.integer)) and spec.seed >= 0):
        raise BadParameterError("seed must be a nonnegative integer")
    t_float = spec.duration_s * spec.sample_rate_hz
    t_len = round(t_float)
    if abs(t_float - t_len) > 1e-9 or t_len < 4:
        raise BadParameterError(
            "duration_s * sample_rate_hz must be an integer >= 4"
        )
    nyquist = spec.sample_rate_hz / 2.0
    for terms in spec.node_terms:
        for freq, _amp in terms:
            if freq < 0:
                raise BadParameterError("frequencies must be nonnegative")
            if freq >= nyquist:
                raise NyquistViolationError(
                    f"{freq} Hz is not below the Nyquist rate {nyquist} Hz"
                )

    t = np.arange(t_len) / spec.sample_rate_hz
    frequencies = sorted({f for terms in spec.node_terms for f, _ in terms})
    components: dict[float, np.ndarray] = {}
    partitions: dict[float, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for freq in frequencies:
        comp = np.zeros((n_nodes, t_len))
        active = []
        for node, terms in enumerate(spec.node_terms):
            for f, amp in terms:
                if f == freq:
                    comp[node] += amp * np.cos(2.0 * np.pi * f * t)
            if any(f == freq for f, _ in terms):
                active.append(node)
        silent = tuple(i for i in range(n_nodes) if i not in active)
        components[freq] = comp
        partitions[freq] = (tuple(active), silent)

    clean = np.zeros((n_nodes, t_len))
    for comp in components.values():
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

    signal = TimeVaryingGraphSignal(
        samples=samples, sample_rate_hz=spec.sample_rate_hz
    )
    return signal, GroundTruth(
        components=components, partitions=partitions, clean=clean
    )

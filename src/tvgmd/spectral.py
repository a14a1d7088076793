"""Array kernels of the spectral sweep on real transform coefficients.

The decomposition loop holds every series as real coefficients along the
last axis, together with the normalized frequency (cycles per sample, in
[0, 0.5]) of each coefficient and energy weights ``w`` such that
``sum(w * c**2)`` is the time-domain energy. :func:`to_coefficients` and
:func:`from_coefficients` convert in and out once per run.

Boundary handling: by default a series of length T is analysed as its
mirror extension to length 2T, which suppresses the edge artifacts the
per-bin filters would otherwise smear into the modes. The spectrum of a
mirror-extended series is a real DCT-II coefficient times a fixed unit
phase per bin, and per-bin real gains, mixing along nodes and dual steps
all keep that form (Martucci, IEEE TSP 1994). So the coefficients are the
unnormalized DCT-II: ``|c_j|`` equals the magnitude of bin j of the
mirror-extended FFT for j < T, and bin T, identically zero, is dropped.
Without mirroring the coefficients are the ``np.fft.rfft`` bins viewed as
interleaved (re, im) pairs, each pair sharing its bin's frequency and
weight. This module is the only one that knows the layout: callers that
need a spectrum per frequency bin (the ``peaks`` initialization, ``tvgmd
inspect``) get it from :func:`bin_power`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateModeError, DimensionMismatchError


def _frequency_grid(t_ext: int) -> np.ndarray:
    """Normalized frequencies of the half-spectrum bins for length ``t_ext``."""
    return np.arange(t_ext // 2 + 1) / t_ext


def _parseval_weights(t_ext: int) -> np.ndarray:
    """Multiplicities of the half-spectrum bins in the full-spectrum energy:
    2 everywhere except the DC bin and, for even lengths, the Nyquist bin."""
    f = t_ext // 2 + 1
    weights = np.full(f, 2.0)
    weights[0] = 1.0
    if t_ext % 2 == 0:
        weights[-1] = 1.0
    return weights


def _half_sample_phase(t: int) -> np.ndarray:
    """``exp(i*pi*j/(2t))``, j < t: bin j of the FFT of ``[x, x[::-1]]``
    is this phase times the DCT-II coefficient ``c_j`` of ``x``."""
    return np.exp(1j * np.pi * np.arange(t) / (2 * t))


def to_coefficients(
    series: np.ndarray, mirror: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real coefficients of each series along the last axis.

    Returns ``(coefficients, grid, weights)``: coefficients of shape
    ``(..., P)``, the normalized frequency of each coefficient and the
    energy weights, both of length P. With ``mirror`` the coefficients are
    the unnormalized DCT-II ``c_j = 2 sum_n x_n cos(pi j (2n+1) / 2T)``,
    P = T; otherwise the rfft bins as (re, im) pairs, P = 2 (T//2 + 1).
    """
    x = np.asarray(series, dtype=float)
    t = x.shape[-1]
    if mirror:
        spectrum = np.fft.rfft(np.concatenate([x, x[..., ::-1]], axis=-1))
        spectrum = spectrum[..., :t] * _half_sample_phase(t).conj()
        grid = np.arange(t) / (2 * t)
        weights = np.full(t, 1.0 / (2 * t))
        weights[0] = 1.0 / (4 * t)
        return spectrum.real.copy(), grid, weights
    coefficients = np.fft.rfft(x).view(float)
    grid = np.repeat(_frequency_grid(t), 2)
    weights = np.repeat(_parseval_weights(t) / t, 2)
    return coefficients, grid, weights


def from_coefficients(
    coefficients: np.ndarray, t: int, mirror: bool = True
) -> np.ndarray:
    """Invert :func:`to_coefficients` for series of length ``t``."""
    c = np.asarray(coefficients, dtype=float)
    expected = t if mirror else 2 * (t // 2 + 1)
    if c.shape[-1] != expected:
        raise DimensionMismatchError(
            f"{c.shape[-1]} coefficients do not describe {t} samples "
            f"({expected} expected)"
        )
    if mirror:
        spectrum = np.zeros(c.shape[:-1] + (t + 1,), dtype=complex)
        np.multiply(c, _half_sample_phase(t), out=spectrum[..., :t])
        return np.fft.irfft(spectrum, n=2 * t)[..., :t]
    return np.fft.irfft(np.ascontiguousarray(c).view(complex), n=t)


def bin_power(
    coefficients: np.ndarray, grid: np.ndarray, mirror: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Power of every frequency bin along the last axis, and the bins'
    frequencies, for coefficients and grid from :func:`to_coefficients`.

    With mirroring each coefficient is one bin (T bins); without it the
    (re, im) pair of each rfft bin is summed (T//2 + 1 bins).
    """
    power = np.square(coefficients)
    if mirror:
        return power, grid
    return power[..., 0::2] + power[..., 1::2], grid[::2]


def wiener_weights(
    omega_grid: np.ndarray, omega_k: float, alpha: float
) -> np.ndarray:
    """Per-bin gain ``1 / (1 + 2*alpha*(omega - omega_k)^2)``.

    Times the numerator ``x_hat - (sum of the other modes) + lambda_hat/2``
    it is one mode's update: per bin, the minimizer of
    ``2*alpha*(omega - omega_k)^2 |g|^2 + |num - g|^2``.
    """
    return 1.0 / (1.0 + 2.0 * alpha * (omega_grid - omega_k) ** 2)


def mean_frequency(power: np.ndarray, omega_grid: np.ndarray) -> float:
    """Power-weighted mean of the frequency grid; power may be any shape
    whose last axis matches the grid.

    Raises :class:`DegenerateModeError` when all power is zero; the
    decomposer keeps the previous center in that case.
    """
    total = float(power.sum())
    if total <= 0.0:
        raise DegenerateModeError("all-zero spectra have no center frequency")
    return float((power.sum(axis=tuple(range(power.ndim - 1))) @ omega_grid) / total)

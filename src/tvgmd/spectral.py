"""Array kernels of the spectral sweep on the nonnegative half-spectrum.

Real signals are represented by their nonnegative-frequency bins only
(the ``np.fft.rfft`` layout, last axis); the time series is recovered with
the conjugate-symmetric inverse ``np.fft.irfft``. Frequencies are
normalized to cycles per sample, so the grid spans [0, 0.5].

Boundary handling: before transforming, a series of length T may be
extended to length 2T by reflecting its first half before the start and
its second half after the end. This suppresses the edge artifacts the
per-bin filters would otherwise smear into the modes; cropping the central
T samples after the inverse transform undoes it.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateModeError, DimensionMismatchError


def mirror_extend(series: np.ndarray) -> np.ndarray:
    """Reflect the first T//2 samples before index 0 and the rest after the
    end, along the last axis. Output length is exactly 2T."""
    x = np.asarray(series, dtype=float)
    t = x.shape[-1]
    left = t // 2
    return np.concatenate(
        [x[..., :left][..., ::-1], x, x[..., left:][..., ::-1]], axis=-1
    )


def crop_mirrored(series_ext: np.ndarray, t_original: int) -> np.ndarray:
    """Undo :func:`mirror_extend`: keep the central ``t_original`` samples."""
    x = np.asarray(series_ext)
    if x.shape[-1] != 2 * t_original:
        raise DimensionMismatchError(
            f"extended length {x.shape[-1]} is not twice {t_original}"
        )
    start = t_original // 2
    return x[..., start : start + t_original]


def frequency_grid(t_ext: int) -> np.ndarray:
    """Normalized frequencies of the half-spectrum bins for length ``t_ext``."""
    return np.arange(t_ext // 2 + 1) / t_ext


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


def parseval_weights(t_ext: int) -> np.ndarray:
    """Multiplicities of the half-spectrum bins in the full-spectrum energy:
    2 everywhere except the DC bin and, for even lengths, the Nyquist bin."""
    f = t_ext // 2 + 1
    weights = np.full(f, 2.0)
    weights[0] = 1.0
    if t_ext % 2 == 0:
        weights[-1] = 1.0
    return weights

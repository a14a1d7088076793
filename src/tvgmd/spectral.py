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

# Bytes of one (rows, columns) slice of a row block, so that the slices one
# block touches stay in a core's L2 cache. Blocks hold whole rows, so every
# slice is contiguous whatever the row count.
_BLOCK_BYTES = 128 * 1024


def row_blocks(n_rows: int, n_columns: int) -> list[slice]:
    """Slices of whole rows of an ``(n_rows, n_columns)`` float array, each
    about ``_BLOCK_BYTES``; the last may reach past ``n_rows``. The
    transforms and the decomposition's sweep run over these blocks."""
    height = max(1, _BLOCK_BYTES // (8 * n_columns))
    return [slice(a, a + height) for a in range(0, n_rows, height)]


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
    P = T, formed over blocks of rows (:func:`row_blocks`) so that the
    mirror extension and its spectrum stay block-sized; otherwise the
    rfft bins as (re, im) pairs, P = 2 (T//2 + 1).
    """
    x = np.asarray(series, dtype=float)
    t = x.shape[-1]
    if mirror:
        rows = x.reshape(-1, t)
        coefficients = np.empty(rows.shape)
        phase = _half_sample_phase(t).conj()
        for block in row_blocks(len(rows), t):
            chunk = rows[block]
            spectrum = np.fft.rfft(np.concatenate([chunk, chunk[:, ::-1]], 1))
            coefficients[block] = (spectrum[:, :t] * phase).real
        grid = np.arange(t) / (2 * t)
        weights = np.full(t, 1.0 / (2 * t))
        weights[0] = 1.0 / (4 * t)
        return coefficients.reshape(x.shape), grid, weights
    coefficients = np.fft.rfft(x).view(float)
    grid = np.repeat(_frequency_grid(t), 2)
    weights = np.repeat(_parseval_weights(t) / t, 2)
    return coefficients, grid, weights


def from_coefficients(
    coefficients: np.ndarray, t: int, mirror: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Invert :func:`to_coefficients` for series of length ``t``.

    The inverse runs over blocks of rows (:func:`row_blocks`), so its
    temporaries stay block-sized, and returns ``out`` when given: an array
    of shape ``(rows, t)`` for 2-D coefficients. ``out`` may be the first
    ``t`` columns of the coefficients' own buffer, since every block is
    read in full before it is written.
    """
    c = np.asarray(coefficients, dtype=float)
    expected = t if mirror else 2 * (t // 2 + 1)
    if c.shape[-1] != expected:
        raise DimensionMismatchError(
            f"{c.shape[-1]} coefficients do not describe {t} samples "
            f"({expected} expected)"
        )
    rows = c.reshape(-1, expected)
    series = np.empty((len(rows), t)) if out is None else out
    phase = _half_sample_phase(t) if mirror else None
    for block in row_blocks(len(rows), expected):
        if mirror:
            spectrum = np.zeros((rows[block].shape[0], t + 1), dtype=complex)
            np.multiply(rows[block], phase, out=spectrum[:, :t])
            series[block] = np.fft.irfft(spectrum, n=2 * t)[:, :t]
        else:
            series[block] = np.fft.irfft(
                np.ascontiguousarray(rows[block]).view(complex), n=t)
    return series.reshape(c.shape[:-1] + (t,)) if out is None else out


def bin_power(
    coefficients: np.ndarray, grid: np.ndarray, mirror: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Power of every frequency bin along the last axis, and the bins'
    frequencies, for coefficients and grid from :func:`to_coefficients`.

    With mirroring each coefficient is one bin (T bins); without it the
    (re, im) pair of each rfft bin is summed (T//2 + 1 bins).
    """
    if mirror:
        return np.square(coefficients), grid
    power = np.square(coefficients[..., 0::2])
    power += np.square(coefficients[..., 1::2])
    return power, grid[::2]


def wiener_weights(
    omega_grid: np.ndarray, omega_k: float | np.ndarray, alpha: float
) -> np.ndarray:
    """Per-bin gain ``1 / (1 + 2*alpha*(omega - omega_k)^2)``.

    Times the numerator ``x_hat - (sum of the other modes) + lambda_hat/2``
    it is one mode's update: per bin, the minimizer of
    ``2*alpha*(omega - omega_k)^2 |g|^2 + |num - g|^2``. The centers
    broadcast against the grid, so a column of K centers,
    ``omegas[:, None]``, gives a (K, P) array with one row of gains per
    center, each row equal to that center's own call.
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

"""Array kernels of the spectral sweep on real transform coefficients.

The decomposition loop holds every series as real coefficients along the
last axis, together with the normalized frequency (cycles per sample, in
[0, 0.5)) of each coefficient and energy weights ``w`` such that
``sum(w * c**2)`` is the time-domain energy. :func:`to_coefficients` and
:func:`from_coefficients` convert in and out once per run.

Boundary handling: a series of length T is analysed as its mirror
extension to length 2T, which suppresses the edge artifacts the per-bin
filters would otherwise smear into the modes, as VMD does (Dragomiretskiy
& Zosso, IEEE TSP 2014). The spectrum of a mirror-extended series is a
real DCT-II coefficient times a fixed unit phase per bin, and per-bin
real gains, mixing along nodes and dual steps all keep that form
(Martucci, IEEE TSP 1994). So the coefficients are the unnormalized
DCT-II: ``|c_j|`` equals the magnitude of bin j of the mirror-extended
FFT for j < T, and bin T, identically zero, is dropped. Each coefficient
is one frequency bin, so a bin's power is its coefficient squared.
"""

from __future__ import annotations

import numpy as np

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


def _half_sample_phase(t: int) -> np.ndarray:
    """``exp(i*pi*j/(2t))``, j < t: bin j of the FFT of ``[x, x[::-1]]``
    is this phase times the DCT-II coefficient ``c_j`` of ``x``."""
    return np.exp(1j * np.pi * np.arange(t) / (2 * t))


def to_coefficients(
    series: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real coefficients of each series along the last axis.

    Returns ``(coefficients, grid, weights)``: coefficients of shape
    ``(..., T)``, the unnormalized DCT-II ``c_j = 2 sum_n x_n cos(pi j
    (2n+1) / 2T)``, and the normalized frequency ``j / 2T`` of each
    coefficient and the energy weights, both of length T. They are formed
    over blocks of rows (:func:`row_blocks`), so that the mirror extension
    and its spectrum stay block-sized.
    """
    x = np.asarray(series, dtype=float)
    t = x.shape[-1]
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


def from_coefficients(
    coefficients: np.ndarray, out: np.ndarray | None = None,
) -> np.ndarray:
    """Invert :func:`to_coefficients`: series as long as the coefficients.

    The inverse runs over blocks of rows (:func:`row_blocks`), so its
    temporaries stay block-sized, and returns ``out`` when given: an array
    of the shape of 2-D coefficients. ``out`` may be the coefficients' own
    buffer, since every block is read in full before it is written. No
    validation: callers pass a float array from :func:`to_coefficients`.
    """
    t = coefficients.shape[-1]
    rows = coefficients.reshape(-1, t)
    series = np.empty(rows.shape) if out is None else out
    phase = _half_sample_phase(t)
    for block in row_blocks(len(rows), t):
        spectrum = np.zeros((rows[block].shape[0], t + 1), dtype=complex)
        np.multiply(rows[block], phase, out=spectrum[:, :t])
        series[block] = np.fft.irfft(spectrum, n=2 * t)[:, :t]
    return series.reshape(coefficients.shape) if out is None else out


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


def mean_frequency(
    power: np.ndarray, omega_grid: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Power-weighted mean of the frequency grid along the last axis: one
    center per row of a stack of power spectra, shape ``(..., P)`` to
    ``(...)``; a (K, P) stack gives K centers, each bit-identical to its
    row's own call, since every row is reduced alone.

    Returns ``(centers, empty)``, with ``centers`` written into ``out``
    when given. ``empty`` flags the rows whose power sums to zero, which
    have no center: their entries of ``out`` keep what they held (the
    decomposer's previous centers), and are NaN without ``out``.
    """
    total = power.sum(axis=-1)
    empty = total <= 0.0
    centers = np.full(np.shape(total), np.nan) if out is None else out
    np.divide(np.einsum("...p,p->...", power, omega_grid), total,
              out=centers, where=~empty)
    return centers, empty

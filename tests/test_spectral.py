import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvgmd.core import DecompositionConfig, TimeVaryingGraphSignal
from tvgmd.decomposer import decompose
from tvgmd.errors import (
    BadDimensionsError,
    DegenerateModeError,
    DimensionMismatchError,
)
from tvgmd.spectral import (
    bin_power,
    from_coefficients,
    mean_frequency,
    row_blocks,
    to_coefficients,
    wiener_weights,
)

rng = np.random.default_rng(7)


def frequency_grid(t_ext):
    """Normalized frequencies of the rfft bins of a length-``t_ext`` series."""
    return np.arange(t_ext // 2 + 1) / t_ext


def random_spectrum(n_bins, seed=None):
    r = np.random.default_rng(seed)
    return r.standard_normal(n_bins) + 1j * r.standard_normal(n_bins)


def bin_magnitudes(coefficients):
    """Magnitude per rfft bin of the unmirrored (re, im) layout."""
    return np.hypot(coefficients[0::2], coefficients[1::2])


class TestTransforms:
    def test_constant_series_is_dc_only(self):
        c = 3.25
        coefficients, _, _ = to_coefficients(np.full(16, c), mirror=False)
        assert coefficients[0] == pytest.approx(c * 16)
        assert np.allclose(coefficients[1:], 0.0, atol=1e-12)

    def test_pure_cosine_hits_one_bin(self):
        t = np.arange(32)
        x = np.cos(2 * np.pi * 5 * t / 32)
        mags = bin_magnitudes(to_coefficients(x, mirror=False)[0])
        assert np.argmax(mags) == 5
        mags[5] = 0.0
        assert np.all(mags < 1e-10)

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("t_len", [16, 17, 250])
    def test_roundtrip(self, mirror, t_len):
        x = rng.standard_normal((2, t_len))
        coefficients, grid, weights = to_coefficients(x, mirror)
        assert coefficients.shape[-1] == len(grid) == len(weights)
        back = from_coefficients(coefficients, t_len, mirror)
        assert np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_blocked_transforms_match_whole_array_transforms(self, mirror):
        # 40 rows of 1000 samples span several row blocks, the last one
        # partial; the FFT transforms each row alone, so blocking changes
        # no value, also when the inverse writes into the first T columns
        # of the coefficients' own buffer
        n, t = 40, 1000
        x = rng.standard_normal((n, t))
        coefficients = to_coefficients(x, mirror)[0]
        assert len(row_blocks(n, coefficients.shape[1])) >= 3
        if mirror:
            phase = np.exp(1j * np.pi * np.arange(t) / (2 * t))
            spectrum = np.fft.rfft(np.concatenate([x, x[:, ::-1]], axis=1))
            whole = (spectrum[:, :t] * phase.conj()).real
            spectrum = np.zeros((n, t + 1), dtype=complex)
            spectrum[:, :t] = coefficients * phase
            back = np.fft.irfft(spectrum, n=2 * t)[:, :t]
        else:
            whole = np.fft.rfft(x).view(float)
            back = np.fft.irfft(coefficients.view(complex), n=t)
        assert np.array_equal(coefficients, whole)
        assert np.array_equal(from_coefficients(coefficients, t, mirror), back)
        in_place = from_coefficients(coefficients, t, mirror,
                                     out=coefficients[:, :t])
        assert np.shares_memory(in_place, coefficients)
        assert np.array_equal(in_place, back)

    def test_dc_only_inverts_to_constant(self):
        coefficients = np.zeros(18)
        coefficients[0] = 2.5 * 16
        back = from_coefficients(coefficients, 16, mirror=False)
        assert back == pytest.approx(np.full(16, 2.5))

    def test_zero_spectrum_inverts_to_zero(self):
        back = from_coefficients(np.zeros(16), 16, mirror=True)
        assert np.array_equal(back, np.zeros(16))

    def test_short_series_rejected(self):
        # the spectral sweep is only entered through decompose, which
        # refuses series too short to transform
        signal = TimeVaryingGraphSignal(samples=np.ones((3, 3)), sample_rate_hz=1.0)
        with pytest.raises(BadDimensionsError):
            decompose(signal, DecompositionConfig(K=1, alpha=1.0))

    def test_inconsistent_lengths_rejected(self):
        # unmirrored coefficients cannot be inverted as mirrored ones
        coefficients, _, _ = to_coefficients(np.ones(16), mirror=False)
        with pytest.raises(DimensionMismatchError):
            from_coefficients(coefficients, 16, mirror=True)

    @pytest.mark.parametrize("t_len", [8, 9, 64])
    def test_coefficients_match_mirrored_fft(self, t_len):
        # DCT-II by its definition, and |c_j| equals bin j of the
        # mirror-extended FFT, whose bin T vanishes
        x = rng.standard_normal((3, t_len))
        coefficients, grid, _ = to_coefficients(x, mirror=True)
        n = np.arange(t_len)
        basis = 2.0 * np.cos(np.pi * np.outer(n, 2 * n + 1) / (2 * t_len))
        assert np.allclose(coefficients, x @ basis.T, rtol=0, atol=1e-12)
        # half the series reflected at each end: a circular shift of
        # [x, x[::-1]], so its bin magnitudes are the same
        left = t_len // 2
        spectrum = np.fft.rfft(np.concatenate(
            [x[:, :left][:, ::-1], x, x[:, left:][:, ::-1]], axis=1))
        assert np.allclose(np.abs(coefficients), np.abs(spectrum[:, :t_len]),
                           rtol=0, atol=1e-12)
        assert np.allclose(spectrum[:, t_len], 0.0, atol=1e-12)
        assert np.array_equal(grid, frequency_grid(2 * t_len)[:t_len])

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("t_len", [8, 9, 64])
    def test_bin_power_matches_rfft(self, mirror, t_len):
        x = rng.standard_normal((3, t_len))
        power, freqs = bin_power(*to_coefficients(x, mirror)[:2], mirror)
        ext = np.concatenate([x, x[:, ::-1]], axis=1) if mirror else x
        spectrum = np.fft.rfft(ext)[:, : power.shape[1]]
        assert power.shape == (3, t_len if mirror else t_len // 2 + 1)
        assert np.allclose(power, np.abs(spectrum) ** 2, rtol=1e-12, atol=1e-12)
        assert np.array_equal(freqs, frequency_grid(ext.shape[1])[: power.shape[1]])

    @settings(max_examples=50, deadline=None)
    @given(
        t_len=st.integers(min_value=4, max_value=200),
        mirror=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_parseval(self, t_len, mirror, seed):
        x = np.random.default_rng(seed).standard_normal(t_len)
        coefficients, _, weights = to_coefficients(x, mirror)
        energy = float(weights @ coefficients**2)
        assert energy == pytest.approx(float(x @ x), rel=1e-10)


class TestModeUpdate:
    def test_tiny_alpha_returns_numerator(self):
        numerator = random_spectrum(17, seed=1)
        out = numerator * wiener_weights(frequency_grid(32), 0.25, alpha=1e-12)
        assert np.allclose(out, numerator, rtol=1e-9)

    def test_hand_value_one_third(self):
        # at a bin where 2*alpha*(omega - omega_k)^2 == 2, gain is 1/3
        t_ext = 16
        grid = frequency_grid(t_ext)
        omega_k = 0.0
        target_bin = 4  # omega = 0.25
        alpha = 2.0 / (2.0 * grid[target_bin] ** 2)
        gains = wiener_weights(grid, omega_k, alpha)
        assert gains[target_bin] == pytest.approx(1.0 / 3.0)

    def test_column_of_centers_gives_one_row_each(self):
        # the loop forms all K modes' gains in one call; each row must be
        # that center's own call, bit for bit
        grid = frequency_grid(64)
        omegas = np.array([0.02, 0.13, 0.13, 0.41])
        gains = wiener_weights(grid, omegas[:, None], 200.0)
        assert gains.shape == (4, grid.size)
        for row, omega in zip(gains, omegas):
            assert row.tobytes() == wiener_weights(grid, omega, 200.0).tobytes()

    def test_zero_numerator_gives_zero(self):
        spec = random_spectrum(17, seed=9)
        numerator = spec - spec  # x_hat equal to the other modes, no dual
        out = numerator * wiener_weights(frequency_grid(32), 0.1, alpha=50.0)
        assert np.allclose(out, 0.0)

    def test_minimizes_per_bin_quadratic(self):
        # independent oracle: treat the per-bin objective
        # 2*alpha*(w - w_k)^2 |g|^2 + |num - g|^2 as a black box, recover its
        # quadratic coefficients from point evaluations, minimize exactly
        t_ext = 62
        n_bins = 32
        grid = frequency_grid(t_ext)
        for trial in range(8):
            x_hat = random_spectrum(n_bins, seed=100 + trial)
            others = random_spectrum(n_bins, seed=200 + trial)
            lam = random_spectrum(n_bins, seed=300 + trial)
            omega_k = float(np.random.default_rng(trial).random() * 0.5)
            alpha = 10.0 ** np.random.default_rng(trial).uniform(0, 3)
            numerator = x_hat - others + lam / 2
            out = numerator * wiener_weights(grid, omega_k, alpha)
            for f in range(n_bins):
                c = 2.0 * alpha * (grid[f] - omega_k) ** 2

                def cost(gr, gi):
                    g = gr + 1j * gi
                    return c * abs(g) ** 2 + abs(numerator[f] - g) ** 2

                # J(gr, gi) = A*(gr^2 + gi^2) - 2*B*gr - 2*C*gi + D
                curvature = (cost(1, 0) + cost(-1, 0) - 2 * cost(0, 0)) / 2
                b_re = (cost(-1, 0) - cost(1, 0)) / 4
                b_im = (cost(0, -1) - cost(0, 1)) / 4
                best = (b_re + 1j * b_im) / curvature
                assert abs(out[f] - best) <= 1e-9


class TestCenterFrequency:
    def test_point_mass(self):
        bins = np.zeros(9, dtype=complex)
        bins[2] = 5.0  # omega = 2/16 = 0.125
        power = np.abs(bins) ** 2
        assert mean_frequency(power, frequency_grid(16)) == pytest.approx(0.125)

    def test_symmetric_pair_averages(self):
        bins = np.zeros(21, dtype=complex)
        bins[4] = 3.0  # omega = 0.1
        bins[12] = 3.0  # omega = 0.3
        power = np.abs(bins) ** 2
        assert mean_frequency(power, frequency_grid(40)) == pytest.approx(0.2)

    def test_matches_weighted_mean_oracle(self):
        specs = [random_spectrum(33, seed=s) for s in range(5)]
        grid = frequency_grid(64)
        num = den = 0.0
        for spec in specs:
            for f in range(33):
                p = abs(spec[f]) ** 2
                num += grid[f] * p
                den += p
        power = np.abs(np.stack(specs)) ** 2
        assert mean_frequency(power, grid) == pytest.approx(num / den, rel=1e-12)

    def test_all_zero_raises_degenerate(self):
        with pytest.raises(DegenerateModeError):
            mean_frequency(np.zeros((2, 9)), frequency_grid(16))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_contained_in_support(self, seed):
        r = np.random.default_rng(seed)
        bins = np.zeros(33, dtype=complex)
        support = r.choice(33, size=r.integers(1, 8), replace=False)
        bins[support] = r.standard_normal(len(support)) + 1j
        grid = frequency_grid(64)
        omega = mean_frequency(np.abs(bins) ** 2, grid)
        assert grid[support].min() - 1e-12 <= omega <= grid[support].max() + 1e-12


class TestMirrorInvariance:
    def test_boundary_symmetric_signal(self):
        # a cosine sampled at half-integer phase is exactly even about both
        # series edges, so mirroring must not change the analysis
        t_len = 256
        n = np.arange(t_len)
        x = np.cos(2 * np.pi * 8 * (n + 0.5) / t_len) + 0.5 * np.cos(
            2 * np.pi * 30 * (n + 0.5) / t_len
        )
        gains_args = (0.1, 40.0)
        lo, hi = t_len // 4, 3 * t_len // 4

        outputs = []
        for mirror in (False, True):
            coefficients, grid, _ = to_coefficients(x, mirror)
            mode = coefficients * wiener_weights(grid, *gains_args)
            outputs.append(from_coefficients(mode, t_len, mirror))
        middle_no, middle_yes = outputs[0][lo:hi], outputs[1][lo:hi]
        rel = np.linalg.norm(middle_no - middle_yes) / np.linalg.norm(middle_no)
        assert rel <= 1e-3

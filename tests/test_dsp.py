"""Frontend tests with direct-definition DFT/DCT oracles."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from dekws.dataset import SyntheticSpec, synthesize_dataset
from dekws.dsp import (
    LOG_FLOOR_EPSILON,
    MfccConfig,
    Waveform,
    _dct2_ortho,
    _dct2_plan,
    hann_window,
    hz_to_mel,
    log_mel_energies,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    pad_or_trim,
    stft_power,
)
from dekws.errors import InvalidInputError, InvalidShapeError


def naive_dft_power(frame, fft_size):
    """O(N^2) power spectrum straight from the DFT definition."""
    padded = np.zeros(fft_size, dtype=np.float64)
    padded[: len(frame)] = frame
    n = np.arange(fft_size)
    out = np.zeros(fft_size // 2 + 1)
    for k in range(fft_size // 2 + 1):
        coeff = (padded * np.exp(-2j * np.pi * k * n / fft_size)).sum()
        out[k] = abs(coeff) ** 2
    return out


def naive_dct2_ortho(x):
    """O(N^2) orthonormal type-II DCT straight from the definition."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        total = sum(x[i] * np.cos(np.pi * (i + 0.5) * k / n) for i in range(n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * total
    return out


class TestPadOrTrim:
    def test_exact_length_unchanged(self):
        w = Waveform(np.linspace(-0.5, 0.5, 16000, dtype=np.float32))
        out = pad_or_trim(w, 16000)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_short_input_zero_padded_at_end(self):
        w = Waveform(np.ones(15000, dtype=np.float32) * 0.25)
        out = pad_or_trim(w, 16000)
        assert len(out) == 16000
        np.testing.assert_array_equal(out.samples[:15000], w.samples)
        np.testing.assert_array_equal(out.samples[15000:], np.zeros(1000))

    def test_long_input_truncated_at_end(self):
        samples = np.arange(17000, dtype=np.float32) / 17000
        out = pad_or_trim(Waveform(samples), 16000)
        assert len(out) == 16000
        np.testing.assert_array_equal(out.samples, samples[:16000])

    def test_empty_waveform_rejected(self):
        with pytest.raises(InvalidInputError):
            pad_or_trim(Waveform(np.zeros(0, dtype=np.float32)), 16000)

    def test_non_finite_samples_rejected(self):
        with pytest.raises(InvalidInputError):
            Waveform(np.array([0.0, np.nan], dtype=np.float32))


class TestStftPower:
    def test_zero_signal_gives_zero_spectrogram(self):
        spec = stft_power(Waveform(np.zeros(16000, dtype=np.float32)), MfccConfig())
        assert spec.shape == (98, 257)
        assert np.all(spec == 0.0)

    def test_impulse_at_the_hann_peak_has_a_flat_spectrum(self):
        # The periodic Hann window is exactly 1.0 at frame_length // 2, so a
        # unit impulse there has a flat spectrum: every bin of frame 0 is
        # exactly 1.0.
        cfg = MfccConfig()
        samples = np.zeros(16000, dtype=np.float32)
        samples[cfg.frame_length // 2] = 1.0
        spec = stft_power(Waveform(samples), cfg)
        np.testing.assert_allclose(spec[0], np.ones(cfg.n_bins), atol=1e-12)

    def test_sinusoid_at_bin_matches_hann_leakage(self):
        # frame_length = fft_size, so bin k0's frequency fits the frame
        # exactly: the windowed DFT is (N/4)^2 at k0, (N/8)^2 at k0 +/- 1,
        # and 0 elsewhere.
        n = 512
        cfg = MfccConfig(frame_length=n, fft_size=n, hop_length=n, target_length=n)
        k0 = 32
        t = np.arange(n)
        wave = Waveform(np.cos(2 * np.pi * k0 * t / n).astype(np.float32))
        spec = stft_power(wave, cfg)
        expected = np.zeros(n // 2 + 1)
        expected[k0] = (n / 4) ** 2
        expected[k0 - 1] = expected[k0 + 1] = (n / 8) ** 2
        np.testing.assert_allclose(spec[0], expected, atol=1e-12 * (n / 4) ** 2)

    def test_matches_naive_dft_oracle(self):
        cfg = MfccConfig(frame_length=64, hop_length=32, fft_size=128,
                         target_length=256)
        rng = np.random.default_rng(7)
        wave = Waveform(rng.uniform(-0.5, 0.5, 256).astype(np.float32))
        spec = stft_power(wave, cfg)
        window = hann_window(64)
        x = wave.samples.astype(np.float64)
        for frame_idx in (0, 3, 6):
            frame = x[frame_idx * 32 : frame_idx * 32 + 64] * window
            np.testing.assert_allclose(
                spec[frame_idx], naive_dft_power(frame, 128), rtol=1e-10, atol=1e-12
            )

    def test_frame_longer_than_signal_rejected(self):
        with pytest.raises(InvalidInputError):
            stft_power(Waveform(np.zeros(100, dtype=np.float32)), MfccConfig())

    def test_power_is_float64_and_the_window_a_shared_read_only_array(self):
        wave = Waveform(np.random.default_rng(8).uniform(-0.5, 0.5, 16000)
                        .astype(np.float32))
        assert stft_power(wave, MfccConfig()).dtype == np.float64
        window = hann_window(400)
        assert window is hann_window(400) and not window.flags.writeable


class TestMelFilterbank:
    def test_all_zero_spectrogram_hits_log_floor(self):
        cfg = MfccConfig()
        out = log_mel_energies(np.zeros((3, cfg.n_bins)), cfg)
        np.testing.assert_allclose(out, np.log(LOG_FLOOR_EPSILON))

    def test_one_hot_at_peak_bin(self):
        cfg = MfccConfig()
        weights = mel_filterbank(cfg)
        m = 17
        peak_bin = int(np.argmax(weights[m]))
        assert weights[m, peak_bin] == 1.0
        spec = np.zeros((1, cfg.n_bins))
        spec[0, peak_bin] = 2.5
        out = log_mel_energies(spec, cfg)
        assert out[0, m] == pytest.approx(np.log(2.5 + LOG_FLOOR_EPSILON))
        # Triangles touch zero at a neighbour's peak, so adjacent filters
        # see only the floor.
        assert out[0, m - 1] == pytest.approx(np.log(LOG_FLOOR_EPSILON))
        assert out[0, m + 1] == pytest.approx(np.log(LOG_FLOOR_EPSILON))

    def test_one_hot_between_peaks_gets_hand_computed_weights(self):
        cfg = MfccConfig()
        edges = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
        bins = np.floor((cfg.fft_size + 1) * mel_to_hz(edges) / cfg.sample_rate).astype(int)
        m = 20
        left, peak, right = bins[m], bins[m + 1], bins[m + 2]
        probe = (peak + right) // 2
        assert peak < probe < right
        falling = (right - probe) / (right - peak)
        rising = (probe - peak) / (right - peak)  # filter m+1 rises from `peak`
        spec = np.zeros((1, cfg.n_bins))
        spec[0, probe] = 1.0
        out = log_mel_energies(spec, cfg)
        assert out[0, m] == pytest.approx(np.log(falling + LOG_FLOOR_EPSILON))
        assert out[0, m + 1] == pytest.approx(np.log(rising + LOG_FLOOR_EPSILON))

    @settings(max_examples=40, deadline=None)
    @given(
        n_mels=st.integers(12, 40),
        fft_size=st.sampled_from([512, 1024]),
        fmin=st.floats(0.0, 150.0),
        fmax=st.floats(5000.0, 8000.0),
    )
    def test_peak_weights_are_exactly_one(self, n_mels, fft_size, fmin, fmax):
        cfg = MfccConfig(
            n_mfcc=min(12, n_mels), n_mels=n_mels, frame_length=400,
            fft_size=fft_size, fmin=fmin, fmax=fmax,
        )
        try:
            weights = mel_filterbank(cfg)
        except InvalidInputError:
            return  # bin collision: construction is refused, not silently wrong
        np.testing.assert_array_equal(weights.max(axis=1), np.ones(n_mels))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            log_mel_energies(np.zeros((3, 100)), MfccConfig())

    def test_cached_per_config_and_read_only(self):
        cfg = MfccConfig()
        weights = mel_filterbank(cfg)
        assert mel_filterbank(MfccConfig()) is weights
        assert mel_filterbank(MfccConfig(n_mels=32, n_mfcc=32)) is not weights
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0
        fresh = mel_filterbank.__wrapped__(cfg)
        assert fresh is not weights
        assert fresh.tobytes() == weights.tobytes()


class TestMfcc:
    def test_zero_signal_constant_rows_and_dc_only(self):
        out = mfcc(Waveform(np.zeros(16000, dtype=np.float32)))
        assert out.values.shape == (98, 40)
        # Silence is time-invariant, so every frame is identical.
        np.testing.assert_array_equal(out.values, np.tile(out.values[0], (98, 1)))
        # A constant log-mel row has energy only in coefficient 0.
        assert abs(out.values[0, 0]) > 1.0
        np.testing.assert_allclose(out.values[0, 1:], 0.0, atol=1e-6)

    def test_other_sample_rate_rejected(self):
        with pytest.raises(InvalidInputError, match="sample rate"):
            mfcc(Waveform(np.zeros(8000, dtype=np.float32), sample_rate=8000))

    def test_default_shape_is_98_by_40(self):
        rng = np.random.default_rng(5)
        out = mfcc(Waveform(rng.uniform(-0.9, 0.9, 16000).astype(np.float32)))
        assert out.values.shape == (98, 40)
        assert np.isfinite(out.values).all()

    def test_matches_naive_dct_oracle_and_preserves_energy(self):
        cfg = MfccConfig()
        rng = np.random.default_rng(11)
        wave = Waveform(rng.uniform(-0.9, 0.9, 16000).astype(np.float32))
        logmels = log_mel_energies(stft_power(pad_or_trim(wave, 16000), cfg), cfg)
        out = mfcc(wave, cfg)
        for frame_idx in (0, 49, 97):
            np.testing.assert_allclose(
                out.values[frame_idx], naive_dct2_ortho(logmels[frame_idx]),
                rtol=1e-9, atol=1e-9,
            )
        # Orthonormality: the 40-coefficient transform preserves energy.
        np.testing.assert_allclose(
            (out.values**2).sum(axis=1), (logmels**2).sum(axis=1), rtol=1e-10
        )

    def test_inverse_dct_recovers_log_mels(self):
        cfg = MfccConfig()
        rng = np.random.default_rng(13)
        wave = Waveform(rng.uniform(-0.9, 0.9, 16000).astype(np.float32))
        logmels = log_mel_energies(stft_power(pad_or_trim(wave, 16000), cfg), cfg)
        out = mfcc(wave, cfg)
        recovered = scipy.fft.idct(out.values, type=2, norm="ortho", axis=1)
        np.testing.assert_allclose(recovered, logmels, rtol=1e-5)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(17)
        samples = rng.uniform(-0.9, 0.9, 16000).astype(np.float32)
        a = mfcc(Waveform(samples.copy()))
        b = mfcc(Waveform(samples.copy()))
        assert a.values.tobytes() == b.values.tobytes()

    def test_config_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            MfccConfig(n_mfcc=41)
        with pytest.raises(InvalidInputError):
            MfccConfig(frame_length=600, fft_size=512)
        with pytest.raises(InvalidInputError):
            MfccConfig(fmin=9000.0)


def scipy_dct2_ortho(x):
    """The reference: scipy's pocketfft DCT-II."""
    return scipy.fft.dct(x, type=2, norm="ortho", axis=-1)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


class TestDct:
    """The numpy DCT-II reproduces scipy.fft.dct bit for bit."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-3, 1.0, 1e3, 1e300])
    def test_equals_scipy_for_every_length_up_to_129(self, scale):
        rng = np.random.default_rng(23)
        for n in range(1, 130):
            x = rng.standard_normal((64, n)) * scale
            x[0] = 0.0
            x[1] = scale  # a constant row
            np.testing.assert_array_equal(bits(_dct2_ortho(x)), bits(scipy_dct2_ortho(x)),
                                          err_msg=f"n={n}")

    def test_overflowing_middle_coefficient_equals_scipy(self):
        # At this size pocketfft's middle coefficient of an even length
        # overflows to inf while every other coefficient stays finite.
        n = 4
        x = 5e307 * np.sqrt(2 / n) * np.cos(np.pi * (np.arange(n) + 0.5) / 2)[None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            want = scipy_dct2_ortho(x)
            got = _dct2_ortho(x)
        assert np.isposinf(want[0, 2]) and np.isfinite(want[0, [0, 1, 3]]).all()
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(num_classes=12, examples_per_class=3, noise_amplitude=0.5, seed=0,
                      frequencies=tuple((400.0 + 55.0 * c, 2200.0 + 90.0 * c)
                                        for c in range(12))),
        SyntheticSpec(num_classes=30, examples_per_class=1, noise_amplitude=0.5, seed=7),
        SyntheticSpec(num_classes=30, examples_per_class=1, noise_amplitude=0.0, seed=7),
    ], ids=["desk", "30_class", "30_class_noise_free"])
    def test_mfcc_of_synthetic_clips_equals_scipy_dct_of_their_log_mels(self, spec):
        cfg = MfccConfig()
        waves, _ = synthesize_dataset(spec)
        for wave in waves.values():
            logmels = log_mel_energies(stft_power(pad_or_trim(wave, 16000), cfg), cfg)
            assert mfcc(wave, cfg).values.tobytes() == scipy_dct2_ortho(logmels).tobytes()

    def test_plan_cached_per_shape_and_read_only(self):
        scale, twiddles, middle = _dct2_plan(98, 40)
        assert scale == float(1 / np.sqrt(np.longdouble(80)))
        assert twiddles.shape == (2, 19, 98) and 0 < middle < 1
        assert _dct2_plan(98, 40)[1] is twiddles
        with pytest.raises(ValueError):
            twiddles[0, 0, 0] = 0.0

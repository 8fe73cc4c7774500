"""MFCC frontend: 16 kHz waveforms to 40-coefficient feature matrices.

Pipeline: pad_or_trim -> stft_power -> log_mel_energies -> orthonormal DCT-II
along the mel axis. Under the default config a one-second clip yields a
98 x 40 matrix. All stages are pure functions of their arguments, and the
window, filterbank and DCT plan they share are cached read-only, so
featurization is deterministic and thread-safe: dataset.featurize runs mfcc
on two threads at once.

The DCT-II is pocketfft's algorithm run in numpy: a butterfly, a real
backward FFT through numpy.fft.irfft (the same pocketfft transform since
numpy 2.0) and pocketfft's twiddle pass with pocketfft's own twiddle table.
It rounds as the C++ does, so its coefficients are bit-identical to
scipy.fft.dct(x, type=2, norm="ortho"), and the package needs only numpy.

Conventions fixed here (they vary between toolkits):
  * mel(f) = 2595 * log10(1 + f / 700)  (HTK scale)
  * periodic Hann analysis window
  * triangular mel filters with edge points snapped to FFT bins, which makes
    every filter's peak weight exactly 1.0
  * log floor of 1e-10 before the natural log, bounding silence at a finite
    value
  * short clips are zero-padded at the end, long clips truncated at the end
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidShapeError

LOG_FLOOR_EPSILON = 1e-10


@dataclass
class Waveform:
    """Mono audio clip. Samples are float32 in [-1, 1)."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise InvalidShapeError(
                f"waveform must be 1-D, got shape {self.samples.shape}"
            )
        if self.samples.size and not np.isfinite(self.samples).all():
            raise InvalidInputError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class MfccConfig:
    """Feature-extraction hyperparameters (25 ms frames, 10 ms hop)."""

    n_mfcc: int = 40
    n_mels: int = 40
    frame_length: int = 400
    hop_length: int = 160
    fft_size: int = 512
    fmin: float = 20.0
    fmax: float = 8000.0
    target_length: int = 16000
    sample_rate: int = 16000

    def __post_init__(self):
        if self.n_mfcc > self.n_mels:
            raise InvalidInputError(
                f"n_mfcc ({self.n_mfcc}) must not exceed n_mels ({self.n_mels})"
            )
        if self.frame_length > self.fft_size:
            raise InvalidInputError(
                f"frame_length ({self.frame_length}) must not exceed "
                f"fft_size ({self.fft_size})"
            )
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise InvalidInputError(
                f"need 0 <= fmin < fmax <= sample_rate/2, got "
                f"fmin={self.fmin}, fmax={self.fmax}, rate={self.sample_rate}"
            )

    @property
    def n_frames(self) -> int:
        return (self.target_length - self.frame_length) // self.hop_length + 1

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass
class FeatureMatrix:
    """MFCC features of one utterance: a float64 n_frames x n_mfcc array."""

    values: np.ndarray


def pad_or_trim(w: Waveform, target_length: int) -> Waveform:
    """Zero-pad at the end or truncate at the end to exactly target_length."""
    if len(w) == 0:
        raise InvalidInputError("cannot pad or trim an empty waveform")
    n = len(w)
    if n == target_length:
        return w
    if n > target_length:
        return Waveform(w.samples[:target_length].copy(), w.sample_rate)
    out = np.zeros(target_length, dtype=np.float32)
    out[:n] = w.samples
    return Waveform(out, w.sample_rate)


@functools.lru_cache(maxsize=8)
def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window: 0.5 - 0.5*cos(2*pi*n/N).

    Built once per length and shared by every caller, so it is returned
    read-only.
    """
    n = np.arange(length, dtype=np.float64)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    window.flags.writeable = False
    return window


def stft_power(w: Waveform, cfg: MfccConfig) -> np.ndarray:
    """Power spectrogram, n_frames x (fft_size/2 + 1).

    Frames of frame_length at stride hop_length are windowed (periodic
    Hann), zero-padded to fft_size, and transformed; each entry is the
    squared DFT magnitude.
    """
    if cfg.frame_length > len(w):
        raise InvalidInputError(
            f"frame_length ({cfg.frame_length}) exceeds waveform length ({len(w)})"
        )
    window = hann_window(cfg.frame_length)
    x = w.samples.astype(np.float64)
    n_frames = (len(w) - cfg.frame_length) // cfg.hop_length + 1
    stride = x.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        x,
        shape=(n_frames, cfg.frame_length),
        strides=(cfg.hop_length * stride, stride),
    )
    spectrum = np.fft.rfft(frames * window, n=cfg.fft_size, axis=1)
    # re**2 + im**2, with one temporary fewer for each frontend thread.
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    return power


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: MfccConfig) -> np.ndarray:
    """Triangular mel filters as an (n_mels, n_bins) weight matrix.

    Filter edge frequencies are equally spaced on the mel scale between fmin
    and fmax, then snapped to FFT bin indices; each filter rises linearly to
    weight 1.0 at its peak bin and falls back to 0 at the next filter's peak.
    The matrix is built once per config and shared by every caller, so it
    is returned read-only.
    """
    edges = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    bins = np.floor((cfg.fft_size + 1) * mel_to_hz(edges) / cfg.sample_rate).astype(int)
    if np.any(bins[2:] <= bins[1:-1]):
        raise InvalidInputError(
            "mel filter peaks collide on FFT bins; increase fft_size or "
            "reduce n_mels"
        )
    weights = np.zeros((cfg.n_mels, cfg.n_bins), dtype=np.float64)
    for m in range(cfg.n_mels):
        left, peak, right = bins[m], bins[m + 1], bins[m + 2]
        for i in range(left, peak):
            weights[m, i] = (i - left) / (peak - left)
        for i in range(peak, right):
            weights[m, i] = (right - i) / (right - peak)
    weights.flags.writeable = False
    return weights


def log_mel_energies(spec: np.ndarray, cfg: MfccConfig) -> np.ndarray:
    """Natural log of (mel filterbank energies + floor), n_frames x n_mels."""
    spec = np.asarray(spec, dtype=np.float64)
    if spec.ndim != 2 or spec.shape[1] != cfg.n_bins:
        raise InvalidShapeError(
            f"spectrogram must be (n_frames, {cfg.n_bins}), got {spec.shape}"
        )
    energies = spec @ mel_filterbank(cfg).T
    return np.log(energies + LOG_FLOOR_EPSILON)


def mfcc(w: Waveform, cfg: MfccConfig = MfccConfig()) -> FeatureMatrix:
    """Full frontend: waveform to n_frames x n_mfcc feature matrix."""
    if w.sample_rate != cfg.sample_rate:
        raise InvalidInputError(
            f"waveform sample rate {w.sample_rate} Hz differs from the "
            f"feature config's {cfg.sample_rate} Hz"
        )
    padded = pad_or_trim(w, cfg.target_length)
    spec = stft_power(padded, cfg)
    logmels = log_mel_energies(spec, cfg)
    coeffs = _dct2_ortho(logmels)
    return FeatureMatrix(coeffs[:, : cfg.n_mfcc])


# pi as the long double literal pocketfft builds its twiddle angles from.
_PI = np.longdouble("3.141592653589793238462643383279502884197")


def _pocketfft_cosines(n: int, count: int) -> list[float]:
    """cos(2*pi*i/n) for i = 1..count, bit for bit as the real parts of
    pocketfft's sincos_2pibyn(n) table (count <= n/2).

    pocketfft takes libm's cos and sin of multiples of an eighth-turn
    fraction, folded into the first octant, then multiplies an entry of a
    fine table by one of a coarse table; plain cos(2*pi*i/n) differs from
    it in the last bit for some i.
    """
    ang = float(np.longdouble(0.25) * _PI / n)

    def calc(m):
        x, sign = 8 * m, 1.0
        if x >= 4 * n:
            x, sign = 8 * n - x, -1.0
        if x < 2 * n:
            if x < n:
                return math.cos(x * ang), sign * math.sin(x * ang)
            return math.sin((2 * n - x) * ang), sign * math.cos((2 * n - x) * ang)
        x -= 2 * n
        if x < n:
            return -math.sin(x * ang), sign * math.cos(x * ang)
        return -math.cos((2 * n - x) * ang), sign * math.sin((2 * n - x) * ang)

    half = (n + 2) // 2
    shift = 1
    while 4**shift < half:
        shift += 1
    mask = (1 << shift) - 1
    fine = [(1.0, 0.0)] + [calc(j) for j in range(1, mask + 1)]
    coarse = [(1.0, 0.0)] + [calc(j << shift) for j in range(1, (half + mask) >> shift)]
    out = []
    for i in range(1, count + 1):
        (ar, ai), (br, bi) = fine[i & mask], coarse[i >> shift]
        out.append(ar * br - ai * bi)
    return out


@functools.lru_cache(maxsize=8)
def _dct2_plan(rows: int, n: int):
    """pocketfft's DCT-II plan for rows of length n: the FFT scale
    1/sqrt(2n), rounded from long double as pocketfft does; a (2, m, rows)
    array holding tw[k-1] and tw[n-k-1] for the pairs k = 1..m, m = (n-1)//2,
    each repeated along the rows so a twiddle product is one whole-array
    multiply; and, for even n, the middle twiddle tw[n/2-1].

    Built once per shape and shared by every caller, so it is read-only.
    """
    tw = np.array(_pocketfft_cosines(4 * n, n - 1))
    k = np.arange(1, (n + 1) // 2)
    pair_twiddles = np.repeat(np.stack([tw[k - 1], tw[n - k - 1]])[:, :, None], rows, axis=2)
    pair_twiddles.flags.writeable = False
    scale = float(np.longdouble(1) / np.sqrt(np.longdouble(2 * n)))
    middle = float(tw[n // 2 - 1]) if n % 2 == 0 else None
    return scale, pair_twiddles, middle


def _dct2_ortho(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along axis 1 of a float64 (rows, n) array,
    bit-identical to scipy.fft.dct(x, type=2, norm="ortho", axis=1).

    Each step is a step of pocketfft's T_dcst23 type-2 pass, run on every
    row at once, with every product and sum rounded once as in the C++.
    """
    rows, n = x.shape
    scale, pair_twiddles, middle = _dct2_plan(rows, n)
    # The butterfly: c0 = 2*x0, c(n-1) = 2*x(n-1) for even n, and for odd k
    # (c(k), c(k+1)) = (x(k) + x(k+1), x(k+1) - x(k)). Written as the bins
    # c0, c1 + i*c2, c3 + i*c4, ..., (c(n-1)) of pocketfft's halfcomplex
    # row, the pairs are (1 - i) * (x(k) + i*x(k+1)), whose products by
    # +-1 are exact.
    pairs = (n - 1) // 2
    spectrum = np.empty((rows, n // 2 + 1), np.complex128)
    if n % 2 == 0:
        np.multiply(x[:, :: n - 1], 2.0, out=spectrum[:, :: n // 2])  # columns 0 and n-1
    else:
        np.multiply(x[:, 0], 2.0, out=spectrum[:, 0])
    odd_even = x[:, 1 : 1 + 2 * pairs].view(np.complex128)  # x(k) + i*x(k+1), odd k
    np.multiply(odd_even, 1 - 1j, out=spectrum[:, 1 : 1 + pairs])
    # The real backward FFT, written transposed so the pass below works on
    # contiguous rows.
    y = np.empty((n, rows))
    np.fft.irfft(spectrum, n, axis=1, norm="forward", out=y.T)
    y *= scale
    # pocketfft's pass over the pairs (k, n-k), 1 <= k <= m:
    #   t1 = tw[k-1]*y[n-k] + tw[n-k-1]*y[k],  t2 = tw[k-1]*y[k] - tw[n-k-1]*y[n-k],
    #   y[k] = 0.5*(t1 + t2),  y[n-k] = 0.5*(t1 - t2),
    # then y[n/2] *= tw[n/2-1] for even n, and y[0] *= sqrt(2)/2.
    low, high = y[1 : pairs + 1], y[n - 1 : n - 1 - pairs : -1]  # rows k and n-k
    at_low, at_high = pair_twiddles * low, pair_twiddles * high
    t1 = np.add(at_high[0], at_low[1], out=at_high[0])
    t2 = np.subtract(at_low[0], at_high[1], out=at_low[0])
    np.add(t1, t2, out=low)
    np.subtract(t1, t2, out=high)
    low *= 0.5
    y[n - pairs :] *= 0.5  # high, in ascending order
    if middle is not None:
        y[n // 2] *= middle
    y[0] *= math.sqrt(2.0) * 0.5
    return y.T

"""Dataset ingestion: speech-commands layout, splits, schedules, synthesis.

Real data follows the Google Speech Commands v1 layout (one folder per
keyword, mono 16 kHz 16-bit PCM WAV files). A synthetic surrogate -- two
sinusoids per class plus noise, written through the same WAV format --
exercises the identical ingestion and featurization path at desk scale.

Splits are class-stratified and derived from a stable hash of
(seed, record id), so the same manifest and seed produce the same split on
every platform.
"""

import csv
import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dsp import MfccConfig, Waveform, mfcc
from .errors import (
    InvalidDatasetError,
    InvalidInputError,
    InvalidScheduleError,
    UnsupportedFormatError,
)
from .rng import numpy_stream

GSC_V1_WORDS = (
    "bed", "bird", "cat", "dog", "down", "eight", "five", "four", "go",
    "happy", "house", "left", "marvin", "nine", "no", "off", "on", "one",
    "right", "seven", "sheila", "six", "stop", "three", "tree", "two",
    "up", "wow", "yes", "zero",
)

MFCC_CONFIG = MfccConfig()  # the one feature configuration of every loader


@dataclass(frozen=True)
class ManifestRecord:
    record_id: str
    class_id: int
    class_name: str
    split: str = ""  # "", "train", or "validation"


@dataclass
class Manifest:
    records: list

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "path", "class_id", "class_name", "split"])
            for r in self.records:
                writer.writerow([r.record_id, r.record_id, r.class_id, r.class_name, r.split])


@dataclass(frozen=True)
class TaskSpec:
    """One task of the incremental curriculum: a set of global class ids."""

    task_id: int
    class_ids: tuple


# ---------------------------------------------------------------------------
# WAV I/O (RIFF, PCM format 1, mono, 16-bit little-endian)


def read_wav_pcm16(path) -> Waveform:
    """Parse a mono 16 kHz 16-bit PCM WAV file; sample v maps to v/32768."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise UnsupportedFormatError(f"{path}: not a RIFF/WAVE file (magic)")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        if pos + 8 + chunk_size > len(raw):
            raise UnsupportedFormatError(
                f"{path}: chunk {chunk_id!r} declares {chunk_size} bytes but "
                f"{len(raw) - pos - 8} remain (truncated)"
            )
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)
    if fmt is None or len(fmt) < 16:
        raise UnsupportedFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise UnsupportedFormatError(f"{path}: missing data chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1:
        raise UnsupportedFormatError(
            f"{path}: unsupported audio format code {audio_format} (format)"
        )
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} (channels)")
    if rate != 16000:
        raise UnsupportedFormatError(
            f"{path}: expected 16000 Hz, got {rate} (sample rate)"
        )
    if bits != 16:
        raise UnsupportedFormatError(f"{path}: expected 16-bit, got {bits} (bit depth)")
    samples = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2")
    return Waveform(samples.astype(np.float32) / 32768.0, sample_rate=16000)


def write_wav_pcm16(path, w: Waveform) -> None:
    """Write a Waveform whose samples lie on the int16 grid (k / 32768)."""
    ints = np.round(w.samples.astype(np.float64) * 32768.0)
    if ints.min() < -32768 or ints.max() > 32767:
        raise InvalidInputError("samples out of int16 range after scaling")
    payload = ints.astype("<i2").tobytes()
    rate = w.sample_rate
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# directory scanning and splitting


def scan_gsc_layout(root, expected_words=None) -> Manifest:
    """Enumerate WAVs under one folder per keyword; ids by sorted folder name.

    Raises InvalidDatasetError when expected keyword folders are missing or
    hold no WAV files. The background-noise folder and any unexpected
    folders are ignored.
    """
    root = Path(root)
    if expected_words is None:
        expected_words = GSC_V1_WORDS
    words = sorted(expected_words)
    present = {p.name for p in root.iterdir() if p.is_dir()} if root.is_dir() else set()
    missing = [w for w in words if w not in present]
    if missing:
        raise InvalidDatasetError(
            f"{root}: missing keyword directories: {', '.join(missing)}"
        )
    records = []
    for class_id, word in enumerate(words):
        wavs = sorted((root / word).glob("*.wav"))
        if not wavs:
            raise InvalidDatasetError(f"{root}: keyword directory {word} holds no .wav files")
        records += [ManifestRecord(f"{word}/{wav.name}", class_id, word) for wav in wavs]
    return Manifest(records)


def _split_rank(seed: int, record_id: str) -> bytes:
    return hashlib.sha256(f"{seed}:{record_id}".encode("utf-8")).digest()


def deterministic_split(manifest: Manifest, train_fraction: float = 0.8,
                        seed: int = 0) -> Manifest:
    """Per class, order records by hash rank and cut at train_fraction."""
    if not 0.0 < train_fraction < 1.0:
        raise InvalidInputError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    by_class: dict[int, list] = {}
    for r in manifest.records:
        by_class.setdefault(r.class_id, []).append(r)
    split_of = {}
    for class_id, records in by_class.items():
        if len(records) < 2:
            raise InvalidDatasetError(
                f"class {class_id} ({records[0].class_name}) has fewer than "
                f"2 records; cannot split"
            )
        ranked = sorted(records, key=lambda r: _split_rank(seed, r.record_id))
        cut = int(len(ranked) * train_fraction)
        cut = min(max(cut, 1), len(ranked) - 1)  # both splits non-empty
        for i, r in enumerate(ranked):
            split_of[r.record_id] = "train" if i < cut else "validation"
    out = [
        ManifestRecord(r.record_id, r.class_id, r.class_name, split_of[r.record_id])
        for r in manifest.records
    ]
    return Manifest(out)


# ---------------------------------------------------------------------------
# task schedules


def build_task_schedule(num_classes: int, layout: str, seed: int = 0,
                        first: int | None = None,
                        per_task: int | None = None) -> list[TaskSpec]:
    """Shuffle classes under seed, then partition by layout.

    Layouts: "6task" = 15 + 5x3, "11task" = 10 + 10x2, "21task" = 10 + 20x1
    (each requires 30 classes), or "custom" with explicit first/per_task
    sizes.
    """
    named = {"6task": (15, 3), "11task": (10, 2), "21task": (10, 1)}
    if layout in named:
        first, per_task = named[layout]
    elif layout == "custom":
        if not first or not per_task:
            raise InvalidScheduleError(
                "custom layout needs positive first and per_task sizes"
            )
    else:
        raise InvalidScheduleError(f"unknown schedule layout {layout!r}")
    remaining = num_classes - first
    if first < 1 or remaining < 0 or remaining % per_task != 0:
        raise InvalidScheduleError(
            f"layout {layout!r} does not partition {num_classes} classes "
            f"(first={first}, per_task={per_task})"
        )
    rng = numpy_stream(seed, "schedule")
    order = [int(c) for c in rng.permutation(num_classes)]
    sizes = [first] + [per_task] * (remaining // per_task)
    tasks = []
    start = 0
    for task_id, size in enumerate(sizes):
        tasks.append(TaskSpec(task_id, tuple(order[start : start + size])))
        start += size
    return tasks


# ---------------------------------------------------------------------------
# synthetic surrogate


@dataclass(frozen=True)
class SyntheticSpec:
    """Tone-pair dataset: each class is two sinusoids plus white noise."""

    num_classes: int = 12
    examples_per_class: int = 60
    noise_amplitude: float = 0.05
    amplitude_jitter: float = 0.2
    seed: int = 0
    frequencies: tuple = ()  # (f1, f2) per class; defaulted when empty
    duration_samples: int = 16000
    sample_rate: int = 16000

    def __post_init__(self):
        for name in ("noise_amplitude", "amplitude_jitter"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise InvalidInputError(f"{name} must be finite and >= 0, got {value}")
        freqs = self.frequencies or default_tone_pairs(self.num_classes)
        if len(freqs) != self.num_classes:
            raise InvalidInputError(
                f"need {self.num_classes} frequency pairs, got {len(freqs)}"
            )
        if len(set(freqs)) != len(freqs):
            raise InvalidInputError("class frequency pairs must be distinct")
        for f1, f2 in freqs:
            if not (0 < f1 < 8000 and 0 < f2 < 8000):
                raise InvalidInputError(
                    f"frequencies must lie in (0, 8000) Hz, got ({f1}, {f2})"
                )
        object.__setattr__(self, "frequencies", tuple(freqs))


MAX_DEFAULT_CLASSES = 81  # f1 = 220 + 97c stays below 8 kHz up to class 80


def default_tone_pairs(num_classes: int) -> tuple:
    """Distinct, well-separated (f1, f2) pairs below 8 kHz, for at most
    MAX_DEFAULT_CLASSES classes."""
    if num_classes > MAX_DEFAULT_CLASSES:
        raise InvalidInputError(
            f"num_classes must be at most {MAX_DEFAULT_CLASSES} with the default "
            f"tone pairs, got {num_classes}"
        )
    pairs = []
    for c in range(num_classes):
        f1 = 220.0 + 97.0 * c
        f2 = 1230.0 + 181.0 * c
        if f2 >= 7800.0:
            f2 = 1230.0 + 181.0 * (c % 36) + 13.0 * (c // 36)
        pairs.append((f1, f2))
    return tuple(pairs)


def _synthetic_manifest(spec: SyntheticSpec) -> Manifest:
    """The synthetic set's records, class by class, in _synthetic_clips order."""
    records = []
    for class_id in range(spec.num_classes):
        name = f"class_{class_id:02d}"
        for k in range(spec.examples_per_class):
            records.append(ManifestRecord(f"{name}/{name}_{k:04d}.wav", class_id, name))
    return Manifest(records)


# Clips synthesized before the first of them is handed out. Alternating
# synthesis and the MFCC frontend clip by clip made load_synthetic about 10%
# slower than synthesizing everything first, as each evicts the other's
# working set from the CPU caches; 32 one-second clips hold 2 MB.
_SYNTH_BLOCK = 32


def _synthetic_clips(spec: SyntheticSpec):
    """Yield the waveform of each _synthetic_manifest record, in order,
    synthesizing _SYNTH_BLOCK of them at a time.

    Each example draws a random phase per component, an amplitude jitter of
    +/- amplitude_jitter, and white noise at noise_amplitude, all from the
    "synth" stream of spec.seed. Samples are quantized to the int16 grid so
    a write/read round trip through the WAV writer is bit-exact.
    """
    rng = numpy_stream(spec.seed, "synth")
    t = np.arange(spec.duration_samples, dtype=np.float64) / spec.sample_rate
    block = []
    for record in _synthetic_manifest(spec).records:
        f1, f2 = spec.frequencies[record.class_id]
        phase1, phase2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        jit1, jit2 = 1.0 + rng.uniform(
            -spec.amplitude_jitter, spec.amplitude_jitter, size=2
        )
        signal = 0.28 * (
            jit1 * np.sin(2.0 * np.pi * f1 * t + phase1)
            + jit2 * np.sin(2.0 * np.pi * f2 * t + phase2)
        )
        if spec.noise_amplitude > 0:
            signal = signal + spec.noise_amplitude * rng.standard_normal(t.size)
        # Quantize through int16 (as the WAV writer does) so in-memory
        # samples and a write/read round trip are byte-identical.
        ints = np.clip(np.round(signal * 32768.0), -32768, 32767).astype(np.int16)
        block.append(Waveform(ints.astype(np.float32) / 32768.0, spec.sample_rate))
        if len(block) == _SYNTH_BLOCK:
            yield from block
            block = []
    yield from block


def synthesize_dataset(spec: SyntheticSpec) -> tuple[dict, Manifest]:
    """Generate per-class tone mixtures; returns (waveforms by id, manifest).

    The clips are those of _synthetic_clips, collected in memory.
    """
    manifest = _synthetic_manifest(spec)
    ids = [r.record_id for r in manifest.records]
    return dict(zip(ids, _synthetic_clips(spec))), manifest


def write_synthetic_tree(spec: SyntheticSpec, out_dir) -> Manifest:
    """Materialize the synthetic set as a folder-per-class WAV tree, writing
    the clips as they are synthesized."""
    out_dir = Path(out_dir)
    manifest = _synthetic_manifest(spec)
    for record, waveform in zip(manifest.records, _synthetic_clips(spec)):
        path = out_dir / record.record_id
        path.parent.mkdir(parents=True, exist_ok=True)
        write_wav_pcm16(path, waveform)
    manifest.to_csv(out_dir / "manifest.csv")
    return manifest


# ---------------------------------------------------------------------------
# featurization


@dataclass
class FeaturizedDataset:
    """MFCC features plus labels and split assignment, ready for training."""

    features: np.ndarray  # (n, n_frames, n_mfcc), in the loader's dtype (float64 default)
    labels: np.ndarray  # (n,) int64
    splits: np.ndarray  # (n,) of "train" / "validation"
    num_classes: int
    class_names: list = field(default_factory=list)

    def rows(self, split: str, class_ids) -> np.ndarray:
        """Ascending indices of the split's rows whose label is in class_ids."""
        wanted = np.isin(self.labels, np.asarray(list(class_ids)))
        return np.flatnonzero((self.splits == split) & wanted)

    def subset(self, split: str, class_ids) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the features and labels of rows(split, class_ids)."""
        idx = self.rows(split, class_ids)
        return self.features[idx], self.labels[idx]

    def train_subset(self, class_ids):
        return self.subset("train", class_ids)

    def val_subset(self, class_ids):
        return self.subset("validation", class_ids)


def featurize(manifest: Manifest, loader, dtype=np.float64) -> FeaturizedDataset:
    """Run the MFCC frontend (MFCC_CONFIG) over every record, in manifest order.

    loader maps a record_id to a Waveform (from disk, the in-memory
    synthetic set, or the synthetic stream) and is called once per record,
    in manifest order. Each float64 feature matrix is written straight into
    the dataset's (n, n_frames, n_mfcc) array of dtype, rounding once to
    float32 when dtype is float32 (the cast a float32 model applies to
    float64 input anyway). The records' class ids must be
    0..C-1 with none missing; each class is named after its first record.
    """
    if not manifest.records:
        raise InvalidDatasetError("manifest contains no records")
    names: dict[int, str] = {}
    for record in manifest.records:
        names.setdefault(record.class_id, record.class_name)
    num_classes = len(names)
    if sorted(names) != list(range(num_classes)):
        raise InvalidDatasetError(f"class ids must run from 0 with no gaps, got {sorted(names)}")
    features = np.empty((len(manifest), MFCC_CONFIG.n_frames, MFCC_CONFIG.n_mfcc), dtype)
    labels = []
    splits = []
    for i, record in enumerate(manifest.records):
        features[i] = mfcc(loader(record.record_id), MFCC_CONFIG).values
        labels.append(record.class_id)
        splits.append(record.split)
    return FeaturizedDataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        splits=np.asarray(splits),
        num_classes=num_classes,
        class_names=[names[i] for i in range(num_classes)],
    )


def load_gsc(root, seed: int = 0, train_fraction: float = 0.8,
             expected_words=None, dtype=np.float64) -> FeaturizedDataset:
    """Scan, split, and featurize a speech-commands directory tree into
    features of dtype."""
    root = Path(root)
    manifest = deterministic_split(
        scan_gsc_layout(root, expected_words), train_fraction, seed
    )
    return featurize(manifest, lambda rid: read_wav_pcm16(root / rid), dtype)


def load_synthetic(spec: SyntheticSpec, train_fraction: float = 0.8,
                   split_seed: int = 0, dtype=np.float64) -> FeaturizedDataset:
    """Split the synthetic manifest, then synthesize and featurize the clips
    in a stream (deterministic_split keeps the manifest order) into
    features of dtype."""
    manifest = deterministic_split(_synthetic_manifest(spec), train_fraction, split_seed)
    clips = _synthetic_clips(spec)
    return featurize(manifest, lambda record_id: next(clips), dtype)

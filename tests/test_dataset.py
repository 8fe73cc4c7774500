"""WAV parsing, manifests, splits, schedules, and the synthetic surrogate."""

import hashlib
import os
import re
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dekws import dataset
from dekws.dataset import (
    GSC_V1_WORDS,
    MAX_DEFAULT_CLASSES,
    MFCC_CONFIG,
    Manifest,
    ManifestRecord,
    SyntheticSpec,
    build_task_schedule,
    default_tone_pairs,
    deterministic_split,
    featurize,
    load_gsc,
    load_synthetic,
    read_wav_pcm16,
    scan_gsc_layout,
    synthesize_dataset,
    write_synthetic_tree,
    write_wav_pcm16,
)
from dekws.dsp import Waveform, mfcc
from dekws.errors import (
    InvalidDatasetError,
    InvalidInputError,
    InvalidScheduleError,
    UnsupportedFormatError,
)


def after_path(path, words: str) -> str:
    """A match= pattern for words in the text after the message's path prefix.

    tmp_path is named after the test, so a bare word may match the path.
    """
    return rf"^{re.escape(str(path))}: .*{words}"


def wav_bytes(samples, channels=1, rate=16000, bits=16, audio_format=1):
    payload = np.asarray(samples, dtype="<i2").tobytes()
    out = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    out += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits,
    )
    out += b"data" + struct.pack("<I", len(payload)) + payload
    return out


class TestReadWav:
    def test_scaling_definition(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(wav_bytes([0, 16384, -32768]))
        w = read_wav_pcm16(path)
        np.testing.assert_array_equal(w.samples, [0.0, 0.5, -1.0])
        assert w.sample_rate == 16000

    def test_stereo_rejected_naming_channels(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(wav_bytes([0, 0], channels=2))
        with pytest.raises(UnsupportedFormatError, match="channels"):
            read_wav_pcm16(path)

    def test_wrong_rate_rejected_naming_sample_rate(self, tmp_path):
        path = tmp_path / "slow.wav"
        path.write_bytes(wav_bytes([0], rate=8000))
        with pytest.raises(UnsupportedFormatError, match="sample rate"):
            read_wav_pcm16(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "deep.wav"
        path.write_bytes(wav_bytes([0], bits=32))
        with pytest.raises(UnsupportedFormatError, match="bit depth"):
            read_wav_pcm16(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(wav_bytes([0], audio_format=3))
        with pytest.raises(UnsupportedFormatError, match="format"):
            read_wav_pcm16(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "nope.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 64)
        with pytest.raises(UnsupportedFormatError, match=after_path(path, "magic")):
            read_wav_pcm16(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        write_wav_pcm16(path, Waveform(np.zeros(16000, dtype=np.float32)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(UnsupportedFormatError, match=after_path(path, "truncated")):
            read_wav_pcm16(path)

    def test_write_read_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=1000)
        w = Waveform((ints / 32768.0).astype(np.float32))
        path = tmp_path / "rt.wav"
        write_wav_pcm16(path, w)
        back = read_wav_pcm16(path)
        assert back.samples.tobytes() == w.samples.tobytes()


class TestScanLayout:
    def _make_tree(self, root, words, files_per_word=2):
        for word in words:
            d = root / word
            d.mkdir(parents=True)
            for i in range(files_per_word):
                (d / f"{i}.wav").write_bytes(wav_bytes([0, 1]))

    def test_scan_with_word_override(self, tmp_path):
        words = [f"class_{i:02d}" for i in range(12)]
        self._make_tree(tmp_path, words, files_per_word=3)
        manifest = scan_gsc_layout(tmp_path, expected_words=words)
        assert len(manifest) == 36
        assert manifest.records[0].class_id == 0
        assert manifest.records[0].class_name == "class_00"

    def test_missing_words_listed(self, tmp_path):
        self._make_tree(tmp_path, GSC_V1_WORDS[:28])
        with pytest.raises(InvalidDatasetError, match="yes"):
            scan_gsc_layout(tmp_path)

    def test_extra_directories_ignored(self, tmp_path):
        words = ["alpha", "beta"]
        self._make_tree(tmp_path, words + ["_background_noise_", "junk"])
        manifest = scan_gsc_layout(tmp_path, expected_words=words)
        assert len(manifest) == 4
        assert {r.class_name for r in manifest.records} == {"alpha", "beta"}

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(InvalidDatasetError):
            scan_gsc_layout(tmp_path / "nothing")

    def test_empty_keyword_folder_rejected_by_name(self, tmp_path):
        spec = SyntheticSpec(num_classes=3, examples_per_class=4, seed=5)
        write_synthetic_tree(spec, tmp_path)
        for wav in (tmp_path / "class_01").iterdir():
            wav.unlink()
        words = [f"class_{i:02d}" for i in range(3)]
        with pytest.raises(InvalidDatasetError, match=after_path(tmp_path, "class_01")):
            load_gsc(tmp_path, expected_words=words)

    @pytest.mark.parametrize("make_entry", [
        lambda path: path.mkdir(),                                 # a directory x.wav
        lambda path: path.symlink_to(path.with_name("gone.wav")),  # a dangling symlink
    ], ids=["directory", "dangling-symlink"])
    def test_unreadable_wav_entry_rejected_by_path(self, tmp_path, make_entry):
        spec = SyntheticSpec(num_classes=3, examples_per_class=4, seed=5)
        write_synthetic_tree(spec, tmp_path)
        entry = tmp_path / "class_01" / "x.wav"
        make_entry(entry)
        with pytest.raises(InvalidDatasetError, match=re.escape(f"{entry}: cannot read")):
            load_gsc(tmp_path, expected_words=class_words(spec))

    def test_class_ids_follow_sorted_names(self, tmp_path):
        words = ["zebra", "apple", "mango"]
        self._make_tree(tmp_path, words, files_per_word=1)
        manifest = scan_gsc_layout(tmp_path, expected_words=words)
        by_name = {r.class_name: r.class_id for r in manifest.records}
        assert by_name == {"apple": 0, "mango": 1, "zebra": 2}


def make_manifest(per_class):
    records = []
    for class_id, n in enumerate(per_class):
        for i in range(n):
            records.append(
                ManifestRecord(f"c{class_id}/{i}.wav", class_id, f"c{class_id}")
            )
    return Manifest(records)


class TestDeterministicSplit:
    def test_eighty_twenty_cut(self):
        split = deterministic_split(make_manifest([100]), 0.8, seed=1)
        splits = [r.split for r in split.records]
        assert (splits.count("train"), splits.count("validation")) == (80, 20)

    def test_same_seed_identical_assignment(self):
        m = make_manifest([40, 40])
        a = deterministic_split(m, 0.8, seed=3)
        b = deterministic_split(m, 0.8, seed=3)
        assert [r.split for r in a.records] == [r.split for r in b.records]

    def test_different_seeds_differ(self):
        m = make_manifest([150])
        a = deterministic_split(m, 0.8, seed=1)
        b = deterministic_split(m, 0.8, seed=2)
        assert [r.split for r in a.records] != [r.split for r in b.records]

    def test_every_class_in_both_splits(self):
        split = deterministic_split(make_manifest([5, 5, 5]), 0.8, seed=0)
        for class_id in range(3):
            fractions = {r.split for r in split.records if r.class_id == class_id}
            assert fractions == {"train", "validation"}

    def test_tiny_class_rejected(self):
        with pytest.raises(InvalidDatasetError):
            deterministic_split(make_manifest([10, 1]), 0.8, seed=0)

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvalidInputError):
            deterministic_split(make_manifest([10]), 1.0, seed=0)


class TestSchedules:
    def test_canonical_layouts(self):
        assert [len(t.class_ids) for t in build_task_schedule(30, "6task", 0)] == \
            [15, 3, 3, 3, 3, 3]
        assert [len(t.class_ids) for t in build_task_schedule(30, "11task", 0)] == \
            [10] + [2] * 10
        assert [len(t.class_ids) for t in build_task_schedule(30, "21task", 0)] == \
            [10] + [1] * 20

    def test_custom_layout(self):
        tasks = build_task_schedule(12, "custom", 0, first=3, per_task=3)
        assert [len(t.class_ids) for t in tasks] == [3, 3, 3, 3]

    def test_partition_is_disjoint_and_exhaustive(self):
        for layout in ("6task", "11task", "21task"):
            tasks = build_task_schedule(30, layout, seed=7)
            seen = [c for t in tasks for c in t.class_ids]
            assert sorted(seen) == list(range(30))

    def test_shuffle_depends_on_seed(self):
        a = build_task_schedule(30, "6task", seed=0)
        b = build_task_schedule(30, "6task", seed=1)
        assert a[0].class_ids != b[0].class_ids

    def test_inconsistent_arithmetic_rejected(self):
        with pytest.raises(InvalidScheduleError):
            build_task_schedule(29, "6task", 0)
        with pytest.raises(InvalidScheduleError):
            build_task_schedule(12, "custom", 0, first=5, per_task=4)
        with pytest.raises(InvalidScheduleError):
            build_task_schedule(12, "nope", 0)

    @pytest.mark.parametrize("first, per_task", [(3, -3), (3, 0), (0, 3), (-3, 3)])
    def test_custom_sizes_below_one_rejected(self, first, per_task):
        with pytest.raises(InvalidScheduleError, match="positive first and per_task"):
            build_task_schedule(12, "custom", 0, first=first, per_task=per_task)


class TestSynthesize:
    def test_count_and_balance(self):
        spec = SyntheticSpec(num_classes=12, examples_per_class=60, seed=0)
        waveforms, manifest = synthesize_dataset(spec)
        assert len(manifest) == 720 and len(waveforms) == 720
        counts = {}
        for r in manifest.records:
            counts[r.class_id] = counts.get(r.class_id, 0) + 1
        assert set(counts.values()) == {60}

    def test_noiseless_without_jitter_identical_up_to_phase(self):
        # Integer frequencies sit exactly on 1 Hz DFT bins for a 1 s clip,
        # so the magnitude spectrum is phase-invariant: all examples of a
        # class must share it (up to int16 quantization).
        spec = SyntheticSpec(
            num_classes=2, examples_per_class=4, noise_amplitude=0.0,
            amplitude_jitter=0.0, seed=1,
            frequencies=((300.0, 1500.0), (700.0, 2500.0)),
        )
        waveforms, manifest = synthesize_dataset(spec)
        for class_id in range(2):
            mags = [
                np.abs(np.fft.rfft(waveforms[r.record_id].samples))
                for r in manifest.records if r.class_id == class_id
            ]
            for other in mags[1:]:
                np.testing.assert_allclose(other, mags[0], atol=1.0)

    def test_determinism(self):
        spec = SyntheticSpec(num_classes=3, examples_per_class=5, seed=9)
        first, _ = synthesize_dataset(spec)
        second, _ = synthesize_dataset(spec)
        for key in first:
            assert first[key].samples.tobytes() == second[key].samples.tobytes()

    def test_distinct_frequency_pairs_enforced(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(num_classes=2, frequencies=((440.0, 880.0), (440.0, 880.0)))
        with pytest.raises(InvalidInputError):
            SyntheticSpec(num_classes=1, frequencies=((440.0, 9000.0),))

    def test_default_tone_pairs_cover_81_classes_and_reject_more(self):
        pairs = default_tone_pairs(MAX_DEFAULT_CLASSES)
        assert MAX_DEFAULT_CLASSES == 81
        assert len(set(pairs)) == 81
        assert all(0 < f < 8000 for pair in pairs for f in pair)
        # Defaults written before the limit; reference data depends on them.
        assert (pairs[0], pairs[37], pairs[80]) == (
            (220.0, 1230.0), (3809.0, 1424.0), (7980.0, 2704.0))
        assert SyntheticSpec(num_classes=81).frequencies == pairs
        with pytest.raises(InvalidInputError,
                           match="num_classes must be at most 81 .* got 82"):
            SyntheticSpec(num_classes=82)
        explicit = tuple((100.0 + c, 200.0) for c in range(90))
        assert SyntheticSpec(num_classes=90, frequencies=explicit).frequencies == explicit

    def test_classes_separate_through_the_frontend(self):
        spec = SyntheticSpec(num_classes=4, examples_per_class=12,
                             noise_amplitude=0.05, seed=0)
        data = load_synthetic(spec, split_seed=0)
        centroids = []
        spreads = []
        for c in range(4):
            feats = data.features[data.labels == c].reshape(
                (data.labels == c).sum(), -1
            )
            mu = feats.mean(axis=0)
            centroids.append(mu)
            spreads.append(np.linalg.norm(feats - mu, axis=1).mean())
        for i in range(4):
            for j in range(i + 1, 4):
                gap = np.linalg.norm(centroids[i] - centroids[j])
                assert gap > spreads[i] + spreads[j], (i, j, gap)

    def test_written_tree_rescans_and_round_trips(self, tmp_path):
        spec = SyntheticSpec(num_classes=3, examples_per_class=4, seed=5)
        manifest = write_synthetic_tree(spec, tmp_path)
        assert len(manifest) == 12
        words = [f"class_{i:02d}" for i in range(3)]
        rescanned = scan_gsc_layout(tmp_path, expected_words=words)
        assert len(rescanned) == 12
        waveforms, _ = synthesize_dataset(spec)
        for record in manifest.records:
            back = read_wav_pcm16(tmp_path / record.record_id)
            assert back.samples.tobytes() == waveforms[record.record_id].samples.tobytes()


class TestFeaturize:
    def test_preserves_manifest_order_and_shapes(self):
        spec = SyntheticSpec(num_classes=2, examples_per_class=3, seed=0)
        waveforms, manifest = synthesize_dataset(spec)
        manifest = deterministic_split(manifest, 0.8, seed=0)
        data = featurize(manifest, waveforms.__getitem__)
        assert data.features.shape == (6, 98, 40)
        np.testing.assert_array_equal(
            data.labels, [r.class_id for r in manifest.records]
        )
        assert data.num_classes == 2

    def test_subset_selection(self):
        spec = SyntheticSpec(num_classes=3, examples_per_class=10, seed=2)
        data = load_synthetic(spec, split_seed=0)
        train_x, train_y = data.train_subset([0, 2])
        assert set(train_y) == {0, 2}
        assert len(train_x) == 16  # 8 train per class under the 0.8 cut
        val_x, val_y = data.val_subset([1])
        assert set(val_y) == {1} and len(val_x) == 2

    def test_rows_index_the_subset(self):
        spec = SyntheticSpec(num_classes=3, examples_per_class=10, seed=2)
        data = load_synthetic(spec, split_seed=0)
        rows = data.rows("train", [2, 0])
        assert list(rows) == sorted(rows) and len(rows) == 16
        assert set(data.labels[rows]) == {0, 2}
        assert (data.splits[rows] == "train").all()
        train_x, train_y = data.train_subset([0, 2])
        assert train_x.tobytes() == data.features[rows].tobytes()
        np.testing.assert_array_equal(train_y, data.labels[rows])
        assert list(data.rows("validation", [1])) == list(
            np.flatnonzero((data.labels == 1) & (data.splits == "validation")))

    def test_float32_features_are_the_float64_features_rounded_once(self, tmp_path):
        spec = SyntheticSpec(num_classes=2, examples_per_class=4, seed=5)
        wide = load_synthetic(spec, split_seed=1)
        narrow = load_synthetic(spec, split_seed=1, dtype=np.float32)
        assert narrow.features.dtype == np.float32
        assert narrow.features.tobytes() == wide.features.astype(np.float32).tobytes()
        np.testing.assert_array_equal(narrow.labels, wide.labels)
        np.testing.assert_array_equal(narrow.splits, wide.splits)
        write_synthetic_tree(spec, tmp_path)
        words = wide.class_names
        from_disk = load_gsc(tmp_path, seed=1, expected_words=words, dtype=np.float32)
        assert from_disk.features.tobytes() == narrow.features.tobytes()
        assert load_gsc(tmp_path, seed=1, expected_words=words).features.dtype == np.float64

    def test_empty_manifest_rejected(self):
        with pytest.raises(InvalidDatasetError):
            featurize(Manifest([]), lambda rid: None)

    def test_class_id_gap_rejected(self):
        spec = SyntheticSpec(num_classes=3, examples_per_class=2, seed=0)
        waveforms, manifest = synthesize_dataset(spec)
        without_1 = Manifest([r for r in manifest.records if r.class_id != 1])
        with pytest.raises(InvalidDatasetError, match=r"no gaps, got \[0, 2\]"):
            featurize(without_1, waveforms.__getitem__)


class TestStreamedSynthesis:
    def test_streamed_features_equal_stacked_per_clip_mfcc(self):
        spec = SyntheticSpec(num_classes=3, examples_per_class=7, seed=4)
        data = load_synthetic(spec, split_seed=2)
        waveforms, manifest = synthesize_dataset(spec)
        manifest = deterministic_split(manifest, 0.8, seed=2)
        want = np.stack([mfcc(waveforms[r.record_id], MFCC_CONFIG).values
                         for r in manifest.records])
        assert data.features.dtype == want.dtype and data.features.shape == want.shape
        assert data.features.tobytes() == want.tobytes()
        np.testing.assert_array_equal(data.labels, [r.class_id for r in manifest.records])
        np.testing.assert_array_equal(data.splits, [r.split for r in manifest.records])

    def test_load_holds_the_features_and_one_block_of_clips(self):
        # 120 clips of 62.5 KiB float32 samples (7.3 MiB), 3.6 MiB of
        # features; the bound leaves room for one 16-clip synthesis block
        # (1 MiB) and the temporaries of two frontends running at once
        # (about 1 MiB each).
        spec = SyntheticSpec(num_classes=4, examples_per_class=30, seed=3)
        load_synthetic(spec)  # warm the filterbank and window caches
        tracemalloc.start()
        try:
            data = load_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.features.nbytes + (4 << 20), peak / (1 << 20)


def class_words(spec):
    return [f"class_{c:02d}" for c in range(spec.num_classes)]


# Prints the SHA-256 of load_gsc's and load_synthetic's features after
# pinning the process to one CPU: argv[1] is the tree of SyntheticSpec(3, 7,
# seed=4), whose clips load_synthetic synthesizes again.
_ONE_CPU_SCRIPT = """
import hashlib, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from dekws.dataset import SyntheticSpec, load_gsc, load_synthetic
spec = SyntheticSpec(num_classes=3, examples_per_class=7, seed=4)
words = [f"class_{c:02d}" for c in range(3)]
for data in (load_gsc(sys.argv[1], seed=2, expected_words=words),
             load_synthetic(spec, split_seed=2)):
    print(hashlib.sha256(data.features.tobytes()).hexdigest())
"""


class TestFrontendThreads:
    """featurize runs the frontend on a thread pool, loads on the caller's."""

    def test_load_gsc_features_equal_stacked_per_clip_mfcc(self, tmp_path):
        # 21 clips: five full 4-clip blocks and a last block of one.
        spec = SyntheticSpec(num_classes=3, examples_per_class=7, seed=4)
        write_synthetic_tree(spec, tmp_path)
        words = class_words(spec)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out races
        try:
            data = load_gsc(tmp_path, seed=2, expected_words=words)
        finally:
            sys.setswitchinterval(interval)
        manifest = deterministic_split(scan_gsc_layout(tmp_path, words), 0.8, seed=2)
        want = np.stack([mfcc(read_wav_pcm16(tmp_path / r.record_id), MFCC_CONFIG).values
                         for r in manifest.records])
        assert data.features.dtype == want.dtype and data.features.tobytes() == want.tobytes()

    def test_one_cpu_process_gives_the_same_bytes(self, tmp_path):
        spec = SyntheticSpec(num_classes=3, examples_per_class=7, seed=4)
        write_synthetic_tree(spec, tmp_path)
        want = [hashlib.sha256(data.features.tobytes()).hexdigest() for data in (
            load_gsc(tmp_path, seed=2, expected_words=class_words(spec)),
            load_synthetic(spec, split_seed=2),
        )]
        env = dict(os.environ)
        src = str(Path(dataset.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _ONE_CPU_SCRIPT, str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == want

    @pytest.mark.parametrize("cpu_count", [4, None])
    def test_platform_without_sched_getaffinity_gives_the_same_bytes(
            self, monkeypatch, cpu_count):
        # os.sched_getaffinity is missing off Linux; the pool is then sized
        # from os.cpu_count(), which may not know the count either.
        spec = SyntheticSpec(num_classes=3, examples_per_class=7, seed=4)
        want = load_synthetic(spec, split_seed=2).features.tobytes()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert load_synthetic(spec, split_seed=2).features.tobytes() == want

    @staticmethod
    def failing_loads(bad_rate_at=(), loader_fails_at=None, slow_at=None):
        """A manifest of 24 synthetic records and a loader over it that gives
        record i in bad_rate_at a clip at 8000 + i Hz (which the frontend
        rejects naming its rate) and raises UnsupportedFormatError at
        loader_fails_at; the frontend takes 0.3 s longer on slow_at."""
        spec = SyntheticSpec(num_classes=3, examples_per_class=8, seed=1)
        waveforms, manifest = synthesize_dataset(spec)
        ids = [r.record_id for r in manifest.records]
        slow = None

        def loader(record_id):
            nonlocal slow
            i = ids.index(record_id)
            if i == loader_fails_at:
                raise UnsupportedFormatError(f"record {i} unreadable")
            clip = waveforms[record_id]
            if i in bad_rate_at:
                clip = Waveform(clip.samples, sample_rate=8000 + i)
            if i == slow_at:
                slow = clip
            return clip

        def frontend(clip, cfg):
            if clip is slow:
                time.sleep(0.3)
            return mfcc(clip, cfg)
        return manifest, loader, frontend

    @pytest.mark.parametrize("i, j", [(1, 2), (3, 4), (0, 13), (7, 23), (16, 17)])
    def test_frontend_error_before_a_loader_error_wins(self, monkeypatch, i, j):
        manifest, loader, frontend = self.failing_loads(bad_rate_at={i}, loader_fails_at=j,
                                                        slow_at=i)
        monkeypatch.setattr(dataset, "mfcc", frontend)
        with pytest.raises(InvalidInputError, match=f"rate {8000 + i} Hz"):
            featurize(manifest, loader)

    @pytest.mark.parametrize("i, k", [(2, 9), (5, 6), (4, 20)])
    def test_earliest_frontend_error_wins_over_one_that_ends_first(self, monkeypatch, i, k):
        manifest, loader, frontend = self.failing_loads(bad_rate_at={i, k}, slow_at=i)
        monkeypatch.setattr(dataset, "mfcc", frontend)
        with pytest.raises(InvalidInputError, match=f"rate {8000 + i} Hz"):
            featurize(manifest, loader)

    @pytest.mark.parametrize("j, i", [(3, 4), (9, 14)])
    def test_loader_error_before_a_frontend_error_wins(self, j, i):
        manifest, loader, _ = self.failing_loads(bad_rate_at={i}, loader_fails_at=j)
        with pytest.raises(UnsupportedFormatError, match=f"record {j} unreadable"):
            featurize(manifest, loader)

    def test_no_pool_thread_outlives_featurize(self):
        before = set(threading.enumerate())
        manifest, loader, _ = self.failing_loads()
        featurize(manifest, loader)
        assert not set(threading.enumerate()) - before
        manifest, loader, _ = self.failing_loads(bad_rate_at={2}, loader_fails_at=9)
        with pytest.raises(InvalidInputError):
            featurize(manifest, loader)
        assert not set(threading.enumerate()) - before

    def test_loader_runs_on_the_calling_thread_in_manifest_order(self):
        spec = SyntheticSpec(num_classes=3, examples_per_class=6, seed=0)
        waveforms, manifest = synthesize_dataset(spec)
        manifest = deterministic_split(manifest, 0.8, seed=0)
        calls = []

        def loader(record_id):
            calls.append((threading.get_ident(), record_id))
            return waveforms[record_id]
        featurize(manifest, loader)
        assert calls == [(threading.get_ident(), r.record_id) for r in manifest.records]

"""Checkpoint container: bit-exact round trips for model and buffer."""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dekws.buffer import BufferEntry, ReservoirBuffer
from dekws.checkpoint import load_checkpoint, save_checkpoint
from dekws.errors import CheckpointError
from dekws.model import TcResNet8, TcResNet8Config


def trained_model(num_classes=6, dtype=np.float64):
    model = TcResNet8(TcResNet8Config(num_classes=num_classes), seed=11, dtype=dtype)
    rng = np.random.default_rng(4)
    model.forward(rng.standard_normal((4, 98, 40)), training=True)
    return model


def read_header(path):
    """A saved checkpoint's parsed JSON header and its length in bytes."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[16 : 16 + header_len]), header_len


def rewrite_header(path, edit):
    """Replace a saved checkpoint's JSON header with edit(header)."""
    raw = path.read_bytes()
    header, header_len = read_header(path)
    blob = json.dumps(edit(header)).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + header_len :])


def after_path(path, words: str) -> str:
    """A match= pattern for words in the text after the message's path prefix.

    tmp_path is named after the test, so a bare word may match the path.
    """
    return rf"^{re.escape(str(path))}: .*{words}"


def filled_buffer(n=9, num_classes=6):
    buf = ReservoirBuffer(capacity=6, num_classes=num_classes, seed=2)
    rng = np.random.default_rng(1)
    for i in range(n):
        buf.insert(BufferEntry(
            features=rng.standard_normal((98, 40)),
            label=i % num_classes,
            logits=rng.standard_normal(num_classes),
        ))
    return buf


class TestModelRoundTrip:
    def test_parameters_and_running_stats_bit_exact(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.dkws"
        save_checkpoint(path, model, experiment_config={"seed": 7})
        loaded = load_checkpoint(path)
        original = model.state_arrays()
        restored = loaded.model.state_arrays()
        assert list(original) == list(restored)  # declaration order preserved
        for key in original:
            assert original[key].tobytes() == restored[key].tobytes(), key
        assert loaded.experiment_config == {"seed": 7}
        assert loaded.buffer is None

    def test_float32_dtype_survives(self, tmp_path):
        model = trained_model(dtype=np.float32)
        path = tmp_path / "model32.dkws"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.model.dtype == np.float32
        for key, arr in model.state_arrays().items():
            assert arr.tobytes() == loaded.model.state_arrays()[key].tobytes()

    def test_eval_forward_identical_after_reload(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.dkws"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 98, 40))
        a = model.forward(x, training=False).data
        b = loaded.model.forward(x, training=False).data
        assert a.tobytes() == b.tobytes()


class TestBufferRoundTrip:
    def test_entries_counters_and_rng_state(self, tmp_path):
        model = trained_model()
        buf = filled_buffer()
        path = tmp_path / "with_buffer.dkws"
        save_checkpoint(path, model, buffer=buf)
        loaded = load_checkpoint(path)
        assert loaded.buffer is not None
        n = len(buf)
        assert (len(loaded.buffer), loaded.buffer.num_seen) == (n, buf.num_seen)
        for name in ("labels", "features", "logits"):
            assert getattr(buf, name)[:n].tobytes() == \
                getattr(loaded.buffer, name)[:n].tobytes(), name
        # The restored generator continues the stream identically.
        rng = np.random.default_rng(5)
        for i in range(40):
            entry = BufferEntry(rng.standard_normal((98, 40)), i % 6,
                                rng.standard_normal(6))
            buf.insert(entry)
            loaded.buffer.insert(entry)
        assert buf.logits[:len(buf)].tobytes() == \
            loaded.buffer.logits[:len(loaded.buffer)].tobytes()

    def test_empty_buffer_round_trips(self, tmp_path):
        model = trained_model()
        buf = ReservoirBuffer(capacity=5, num_classes=6, seed=3)
        path = tmp_path / "empty_buffer.dkws"
        save_checkpoint(path, model, buffer=buf)
        loaded = load_checkpoint(path)
        assert (len(loaded.buffer), loaded.buffer.num_seen) == (0, 0)
        assert loaded.buffer.capacity == 5


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.dkws"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match=after_path(path, "magic")):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.dkws"
        save_checkpoint(path, model)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=after_path(path, "version")):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model.dkws"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 200])
        with pytest.raises(CheckpointError, match=after_path(path, "truncated")):
            load_checkpoint(path)

    def test_header_longer_than_the_file_rejected_without_reading_it(self, tmp_path):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + struct.pack("<Q", 1 << 62) + raw[16:])
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=after_path(path, "header length")):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak / (1 << 20)

    def test_empty_array_too_large_for_numpy_rejected(self, tmp_path):
        # Zero elements pass the size check, but numpy cannot shape them.
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())

        def oversized_empty(header):
            header["arrays"][0]["shape"] = [0, 1 << 62]
            return header

        rewrite_header(path, oversized_empty)
        with pytest.raises(CheckpointError, match=after_path(path, "malformed array record")):
            load_checkpoint(path)

    def test_list_header_rejected(self, tmp_path):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())
        rewrite_header(path, lambda header: [header])
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["arrays", "model_config"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())

        def drop(header):
            del header[key]
            return header

        rewrite_header(path, drop)
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    def test_object_dtype_rejected(self, tmp_path):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())

        def to_object(header):
            header["arrays"][0]["dtype"] = "object"
            return header

        rewrite_header(path, to_object)
        with pytest.raises(CheckpointError, match=after_path(path, "dtype")):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["int8", "float16"])
    def test_model_dtype_other_than_float32_or_float64_rejected(self, tmp_path, dtype):
        # Loaded as is, the model would cast its input to dtype and
        # evaluate garbage logits.
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())

        def retype(header):
            header["model_config"]["dtype"] = dtype
            return header

        rewrite_header(path, retype)
        with pytest.raises(CheckpointError, match=after_path(path, "float32 or float64")):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="follow the last declared array"):
            load_checkpoint(path)

    def test_misdeclared_dtype_rejected(self, tmp_path):
        # float64 parameters declared as float32 leave half their bytes unread.
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model(dtype=np.float64))

        def to_float32(header):
            assert header["arrays"][0]["dtype"] == "float64"
            header["arrays"][0]["dtype"] = "float32"
            return header

        rewrite_header(path, to_float32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_header_not_fitting_model_rejected(self, tmp_path):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model(num_classes=6))

        def more_classes(header):
            header["model_config"]["num_classes"] = 7
            return header

        rewrite_header(path, more_classes)
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(path)

    def test_sizes_larger_than_the_arrays_rejected_before_building_the_model(self, tmp_path):
        # Built first, a model with an 8,000-channel stem fills 11.5 MB of
        # float32 weights, drawn in float64, before any shape is compared.
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model(dtype=np.float32))

        def widen(header):
            header["model_config"]["channels"][0] = 8000
            return header

        rewrite_header(path, widen)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match=after_path(path, r"stem\.weight")):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak / (1 << 20)

    def test_running_stat_of_wrong_shape_rejected(self, tmp_path):
        model = trained_model()
        model.stem_bn.running_mean = np.zeros(17)
        path = tmp_path / "model.dkws"
        save_checkpoint(path, model)
        with pytest.raises(CheckpointError, match=after_path(path, r"stem_bn\.running_mean")):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["input_channels", "kernel_block"])
    def test_zero_width_model_rejected(self, tmp_path, key):
        # A bit flip turns "4" into "0"; building that model divided by zero.
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())

        def zero(header):
            header["model_config"][key] = 0
            return header

        rewrite_header(path, zero)
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda mc: {**mc, "width": 16},  # unknown key
        lambda mc: {k: v for k, v in mc.items() if k != "kernel_first"},  # missing key
        lambda mc: list(mc.items()),  # not an object
    ])
    def test_model_config_of_another_shape_rejected(self, tmp_path, edit):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())

        def apply(header):
            header["model_config"] = edit(header["model_config"])
            return header

        rewrite_header(path, apply)
        with pytest.raises(CheckpointError, match="model_config must be an object"):
            load_checkpoint(path)

    def test_model_config_is_the_config_dataclass_and_dtype(self, tmp_path):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())
        assert read_header(path)[0]["model_config"] == {
            "input_channels": 40, "channels": [16, 24, 32, 48], "num_classes": 6,
            "kernel_first": 3, "kernel_block": 9, "dtype": "float64",
        }


class TestLoadMemory:
    def test_load_peak_is_at_most_twice_the_file_size(self, tmp_path):
        # Each array is read into its own array and the buffer rows are
        # copied into the restored buffer once. Reading the whole file into
        # one bytes object and copying each array out of it peaked at 3 times
        # the file size.
        buf = ReservoirBuffer(capacity=200, num_classes=30, seed=2)
        rng = np.random.default_rng(6)
        for i in range(200):
            buf.insert(BufferEntry(rng.standard_normal((98, 40)), i % 30,
                                   rng.standard_normal(30)))
        path = tmp_path / "full.dkws"
        save_checkpoint(path, trained_model(num_classes=30), buffer=buf)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded.buffer) == 200
        assert peak <= 2 * size + (1 << 20), peak / size


class TestAtomicSave:
    def test_failed_save_keeps_previous_file_and_leaves_no_temporary(
            self, tmp_path, monkeypatch):
        path = tmp_path / "model.dkws"
        save_checkpoint(path, trained_model())
        before = path.read_bytes()

        class FailsAfterFirstWrite:
            """A file whose second write raises, as on a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("no space left on device")
                return self.fh.write(data)

        monkeypatch.setattr("dekws.checkpoint.open",
                            lambda *args: FailsAfterFirstWrite(open(*args)), raising=False)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, trained_model(num_classes=7))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestBufferInvariant:
    """A buffer header must describe a state the reservoir can reach."""

    @pytest.mark.parametrize("field, value", [
        ("capacity", 2),     # fewer slots than stored entries
        ("num_seen", 2),     # fewer offers than stored entries
        ("num_entries", 0),  # arrays present but declared empty
        ("num_entries", 3),  # arrays hold more rows than declared
        ("num_classes", 5),  # stored logits are 6 wide
    ])
    def test_broken_invariant_rejected(self, tmp_path, field, value):
        path = tmp_path / "with_buffer.dkws"
        save_checkpoint(path, trained_model(), buffer=filled_buffer(n=4))

        def edit(header):
            header["buffer"][field] = value
            return header

        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        # Restoring allocates every slot; this capacity cannot be allocated.
        lambda buffer: buffer.update(capacity=10**12),
        lambda buffer: buffer["rng_state"][1].__setitem__(0, 2**64),
    ])
    def test_unrepresentable_buffer_rejected(self, tmp_path, edit):
        path = tmp_path / "with_buffer.dkws"
        save_checkpoint(path, trained_model(), buffer=filled_buffer(n=4))

        def apply(header):
            edit(header["buffer"])
            return header

        rewrite_header(path, apply)
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """(path, bytes) of a few-kilobyte checkpoint with a full buffer."""
    cfg = TcResNet8Config(input_channels=4, channels=(2, 2, 2, 2), num_classes=3,
                          kernel_block=3)
    buf = ReservoirBuffer(capacity=3, num_classes=3, seed=1)
    for i in range(5):
        buf.insert(BufferEntry(np.full((5, 4), float(i)), i % 3, np.full(3, float(i))))
    path = tmp_path_factory.mktemp("fuzz") / "small.dkws"
    save_checkpoint(path, TcResNet8(cfg, seed=1), experiment_config={"seed": 1},
                    buffer=buf)
    return path, path.read_bytes()


def loads_or_raises_checkpoint_error(path, blob):
    mutated = path.with_name("mutated.dkws")
    mutated.write_bytes(blob)
    try:
        load_checkpoint(mutated)
    except CheckpointError:
        pass


class TestFuzz:
    """Damaged files either load or raise CheckpointError, nothing else."""

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, 2**31))
    def test_truncated(self, small_checkpoint, cut):
        path, raw = small_checkpoint
        loads_or_raises_checkpoint_error(path, raw[: cut % len(raw)])

    @settings(max_examples=400, deadline=None)
    @given(index=st.integers(0, 2**31), bit=st.integers(0, 7))
    def test_bit_flipped(self, small_checkpoint, index, bit):
        path, raw = small_checkpoint
        blob = bytearray(raw)
        blob[index % len(raw)] ^= 1 << bit
        loads_or_raises_checkpoint_error(path, bytes(blob))

    @settings(max_examples=100, deadline=None)
    @given(garbage=st.binary(min_size=1, max_size=64))
    def test_trailing_garbage(self, small_checkpoint, garbage):
        path, raw = small_checkpoint
        loads_or_raises_checkpoint_error(path, raw + garbage)

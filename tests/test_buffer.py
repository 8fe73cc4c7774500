"""Reservoir buffer: fill semantics, sampling, and immutability."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dekws.buffer import BufferEntry, ReservoirBuffer
from dekws.errors import EmptyBufferError, InvalidInputError, InvalidShapeError


def entry(i, num_classes=3):
    return BufferEntry(
        features=np.array([[float(i)]]),
        label=i % num_classes,
        logits=np.full(num_classes, float(i)),
    )


class TestInsert:
    def test_fill_phase_keeps_offer_order(self):
        buf = ReservoirBuffer(capacity=5, num_classes=3, seed=0)
        for i in range(5):
            buf.insert(entry(i))
        assert list(buf.features[:len(buf), 0, 0]) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert (len(buf), buf.num_seen) == (5, 5)

    def test_capacity_zero_counts_but_stores_nothing(self):
        buf = ReservoirBuffer(capacity=0, num_classes=3, seed=0)
        for i in range(3):
            buf.insert(entry(i))
        assert (len(buf), buf.num_seen) == (0, 3)

    def test_fresh_buffer_occupancy(self):
        buf = ReservoirBuffer(4, 3)
        assert (len(buf), buf.num_seen) == (0, 0)

    def test_overflow_keeps_len_at_capacity(self):
        buf = ReservoirBuffer(capacity=10, num_classes=3, seed=1)
        for i in range(250):
            buf.insert(entry(i))
        assert (len(buf), buf.num_seen) == (10, 250)

    def test_wrong_logit_length_rejected(self):
        buf = ReservoirBuffer(capacity=4, num_classes=5, seed=0)
        with pytest.raises(InvalidShapeError):
            buf.insert(entry(0, num_classes=3))

    def test_features_of_another_shape_rejected(self):
        buf = ReservoirBuffer(capacity=4, num_classes=3, seed=0)
        buf.insert(BufferEntry(np.zeros((98, 40)), 0, np.zeros(3)))
        with pytest.raises(InvalidShapeError, match="features"):
            buf.insert(BufferEntry(np.zeros((1, 40)), 1, np.zeros(3)))
        assert (len(buf), buf.num_seen) == (1, 1)

    def test_stored_arrays_are_insulated_from_caller(self):
        buf = ReservoirBuffer(capacity=4, num_classes=3, seed=0)
        feats = np.ones((2, 2))
        logits = np.array([1.0, 2.0, 3.0])
        buf.insert(BufferEntry(feats, 1, logits))
        feats[:] = -1.0
        logits[:] = -1.0
        np.testing.assert_array_equal(buf.features[0], np.ones((2, 2)))
        np.testing.assert_array_equal(buf.logits[0], [1.0, 2.0, 3.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**31 - 1))
    def test_stream_shorter_than_capacity_retained_in_order(self, n, seed):
        buf = ReservoirBuffer(capacity=30, num_classes=3, seed=seed)
        for i in range(n):
            buf.insert(entry(i))
        assert [int(f) for f in buf.features[:len(buf), 0, 0]] == list(range(n))


class TestSampleBatch:
    def test_clamps_to_buffer_length(self):
        buf = ReservoirBuffer(capacity=8, num_classes=3, seed=0)
        for i in range(3):
            buf.insert(entry(i))
        features, labels, logits = buf.sample_batch(10, random.Random(0))
        assert len(features) == len(labels) == len(logits) == 3
        assert len({int(f[0, 0]) for f in features}) == 3

    def test_large_buffer_draws_distinct_entries(self):
        buf = ReservoirBuffer(capacity=500, num_classes=30, seed=0)
        for i in range(500):
            buf.insert(entry(i, num_classes=30))
        features, _, _ = buf.sample_batch(128, random.Random(7))
        assert len(features) == 128
        assert len({int(f[0, 0]) for f in features}) == 128

    def test_two_draws_are_independent_batches(self):
        buf = ReservoirBuffer(capacity=20, num_classes=3, seed=0)
        for i in range(20):
            buf.insert(entry(i))
        rng = random.Random(3)
        first = {int(f[0, 0]) for f in buf.sample_batch(10, rng)[0]}
        second = {int(f[0, 0]) for f in buf.sample_batch(10, rng)[0]}
        assert len(first) == len(second) == 10
        assert first != second  # overwhelmingly likely under this seed

    def test_empty_buffer_rejected(self):
        with pytest.raises(EmptyBufferError):
            ReservoirBuffer(4, 3).sample_batch(2, random.Random(0))

    def test_invalid_batch_size_rejected(self):
        buf = ReservoirBuffer(4, 3)
        buf.insert(entry(0))
        with pytest.raises(InvalidInputError):
            buf.sample_batch(0, random.Random(0))

    def test_batch_holds_the_rows_of_the_drawn_indices(self):
        buf = ReservoirBuffer(capacity=20, num_classes=3, seed=0)
        for i in range(20):
            buf.insert(entry(i))
        rng, twin = random.Random(5), random.Random(5)
        idx = buf.sample_indices(8, twin)
        features, labels, logits = buf.sample_batch(8, rng)
        assert rng.getstate() == twin.getstate()
        assert len(set(idx)) == 8 and all(0 <= i < 20 for i in idx)
        np.testing.assert_array_equal(features, buf.features[idx])
        np.testing.assert_array_equal(labels, buf.labels[idx])
        np.testing.assert_array_equal(logits, buf.logits[idx])
        assert sorted(buf.sample_indices(30, random.Random(0))) == list(range(20))

    def test_sampled_entries_are_copies(self):
        buf = ReservoirBuffer(capacity=4, num_classes=3, seed=0)
        buf.insert(entry(5))
        features, labels, logits = buf.sample_batch(1, random.Random(0))
        features[:] = 99.0
        labels[:] = 0
        logits[:] = 99.0
        np.testing.assert_array_equal(buf.features[0], [[5.0]])
        assert buf.labels[0] == 2
        np.testing.assert_array_equal(buf.logits[0], [5.0, 5.0, 5.0])


class TestUniformity:
    def test_small_monte_carlo_inclusion_rate(self):
        # 2000 trials of capacity 10 over a 100-long stream; the acceptance
        # suite runs the full-size version of this check.
        capacity, stream, trials = 10, 100, 2000
        counts = np.zeros(stream)
        entries = [entry(i) for i in range(stream)]
        for t in range(trials):
            buf = ReservoirBuffer(capacity, num_classes=3, seed=t)
            for e in entries:
                buf.insert(e)
            for f in buf.features[:len(buf), 0, 0]:
                counts[int(f)] += 1
        rates = counts / trials
        expected = capacity / stream
        assert abs(rates.mean() - expected) < 1e-9  # exactly capacity kept
        assert np.all(np.abs(rates - expected) < 0.04)

    def test_state_round_trip_and_stream_continuation(self):
        buf = ReservoirBuffer(capacity=6, num_classes=3, seed=42)
        for i in range(50):
            buf.insert(entry(i))
        n = len(buf)
        # A full buffer's rows are handed over, not copied, so the clone gets
        # copies of them: it must not share buf's arrays.
        clone = ReservoirBuffer.from_arrays(
            buf.capacity, buf.num_classes, buf.num_seen, buf.rng.getstate(),
            buf.features[:n].copy(), buf.labels[:n].copy(), buf.logits[:n].copy(),
        )
        assert not np.shares_memory(clone.features, buf.features)
        assert (len(clone), clone.num_seen) == (len(buf), buf.num_seen)
        for i in range(50, 120):
            buf.insert(entry(i))
            clone.insert(entry(i))
        for name in ("features", "labels", "logits"):
            assert getattr(buf, name).tobytes() == getattr(clone, name).tobytes(), name

    def test_rows_that_fill_every_slot_are_adopted(self):
        rows = np.arange(4 * 2 * 3, dtype=np.float32).reshape(4, 2, 3)
        labels, logits = np.arange(4, dtype=np.int32), np.ones((4, 3))
        state = ReservoirBuffer(1, 1).rng.getstate()
        full = ReservoirBuffer.from_arrays(4, 3, 9, state, rows, labels, logits)
        assert full.features is rows and full.logits is logits
        assert full.labels.dtype == np.int64 and full.labels.tolist() == [0, 1, 2, 3]
        part = ReservoirBuffer.from_arrays(6, 3, 4, state, rows, labels, logits)
        assert part.features.shape == (6, 2, 3) and part.features.dtype == np.float32
        assert not np.shares_memory(part.features, rows)
        assert part.features[:4].tobytes() == rows.tobytes()

    @pytest.mark.parametrize("capacity, num_classes, num_seen", [
        (4.0, 3, 0), (4, 3.0, 0), (4, 3, 0.0), (True, 3, 0), (4, 3, -1),
    ])
    def test_counters_must_be_integers(self, capacity, num_classes, num_seen):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            ReservoirBuffer.from_arrays(capacity, num_classes, num_seen,
                                        ReservoirBuffer(1, 1).rng.getstate())

    def test_rows_given_for_an_empty_buffer_rejected(self):
        with pytest.raises(InvalidInputError, match="min"):
            ReservoirBuffer.from_arrays(4, 3, 0, ReservoirBuffer(1, 1).rng.getstate(),
                                        labels=np.zeros(0, np.int64))

    def test_invalid_construction_rejected(self):
        with pytest.raises(InvalidInputError):
            ReservoirBuffer(capacity=-1, num_classes=3)
        with pytest.raises(InvalidInputError):
            ReservoirBuffer(capacity=3, num_classes=0)

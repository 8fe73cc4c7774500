"""Fixed-capacity dark-experience memory filled by reservoir sampling.

Every training example ever offered has an equal chance of residing in the
buffer, regardless of stream length or task boundaries. The memory is three
arrays with one row per slot: the example's features, its ground-truth label,
and the pre-softmax logits the network produced when the example was
offered; the logits are frozen at insertion time. Rehearsal and distillation
draw independent batches.
"""

import random
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBufferError, InvalidInputError, InvalidShapeError


@dataclass(frozen=True)
class BufferEntry:
    """One unit of dark experience: (features, label, stored logits).

    The offer type of insert, kept because benchmarks/workloads.py fills the
    ingest-eval buffer with it; it goes with the benchmark revision in
    ROADMAP item 2, after which insert takes (features, label, logits).
    """

    features: np.ndarray
    label: int
    logits: np.ndarray


class ReservoirBuffer:
    """Uniform reservoir over the whole training stream.

    ``features`` (capacity, ...), ``labels`` (capacity,) int64 and
    ``logits`` (capacity, num_classes) are allocated at the first accepted
    offer, with that offer's shapes and dtypes; slots ``[0, len)`` are
    filled. The buffer owns one seeded random stream for replacement
    decisions; batch sampling uses a caller-provided stream so the two can
    be reproduced independently. Offers are copied in and batches are
    copied out, so no caller can mutate the store through them.
    """

    def __init__(self, capacity: int, num_classes: int, seed: int = 0):
        if capacity < 0:
            raise InvalidInputError(f"capacity must be >= 0, got {capacity}")
        if num_classes < 1:
            raise InvalidInputError(f"num_classes must be >= 1, got {num_classes}")
        self.capacity = capacity
        self.num_classes = num_classes
        self.features: np.ndarray | None = None
        self.labels: np.ndarray | None = None
        self.logits: np.ndarray | None = None
        self.num_seen = 0
        self.rng = random.Random(seed)

    def __len__(self) -> int:
        return min(self.num_seen, self.capacity)

    def insert(self, entry: BufferEntry) -> None:
        """Offer one example; it displaces a uniform victim once full.

        With capacity 0 the offer is a no-op that still counts toward
        num_seen. Logits must have shape (num_classes,), and features the
        shape of the rows already stored.
        """
        if entry.logits.shape != (self.num_classes,):
            raise InvalidShapeError(
                f"entry logits have shape {np.shape(entry.logits)}, "
                f"buffer expects ({self.num_classes},)"
            )
        if self.features is not None and entry.features.shape != self.features.shape[1:]:
            raise InvalidShapeError(
                f"entry features have shape {np.shape(entry.features)}, "
                f"buffer rows have {self.features.shape[1:]}"
            )
        if self.num_seen < self.capacity:
            _copy_entry(self, self.num_seen, entry)
        elif self.capacity:
            j = self.rng.randint(0, self.num_seen)
            if j < self.capacity:
                _copy_entry(self, j, entry)
        self.num_seen += 1

    def sample_indices(self, k: int, rng: random.Random) -> list:
        """min(k, len) distinct slots, uniform without replacement."""
        n = len(self)
        if n == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        if k < 1:
            raise InvalidInputError(f"batch size must be >= 1, got {k}")
        return rng.sample(range(n), min(k, n))

    def sample_batch(self, k: int, rng: random.Random):
        """The rows of sample_indices(k, rng), as fresh (features, labels,
        logits) arrays."""
        idx = self.sample_indices(k, rng)
        return self.features[idx], self.labels[idx], self.logits[idx]

    def state(self) -> dict:
        """Counters, generator state and (features, label, logits) rows in
        slot order.

        Kept because benchmarks/workloads.py hashes buffers through it
        (buffer_hash); it goes with the benchmark revision in ROADMAP item 2.
        """
        n = len(self)
        entries = []
        if n:
            entries = list(zip(self.features[:n].copy(), self.labels[:n].copy(),
                               self.logits[:n].copy()))
        return {
            "capacity": self.capacity,
            "num_classes": self.num_classes,
            "num_seen": self.num_seen,
            "rng_state": self.rng.getstate(),
            "entries": entries,
        }

    @classmethod
    def from_arrays(cls, capacity: int, num_classes: int, num_seen: int, rng_state,
                    features=None, labels=None, logits=None) -> "ReservoirBuffer":
        """A buffer whose filled slots hold the given rows, in slot order.

        There must be min(num_seen, capacity) rows, and the logits must have
        num_classes columns; otherwise InvalidInputError.
        """
        buf = cls(capacity, num_classes)
        n = min(num_seen, capacity)
        given = None if features is None else (
            np.shape(features)[:1], np.shape(labels), np.shape(logits))
        if given != (None if n == 0 else ((n,), (n,), (n, num_classes))):
            raise InvalidInputError(
                f"a buffer of capacity {capacity} that has seen {num_seen} offers "
                f"holds min(num_seen, capacity) rows of {num_classes} logits; got "
                f"(rows, labels, logits) shapes {given}"
            )
        buf.num_seen = num_seen
        buf.rng.setstate(_rng_state_tuple(rng_state))
        if n:
            buf._allocate(features[0], logits[0])
            buf.features[:n] = features
            buf.labels[:n] = labels
            buf.logits[:n] = logits
        return buf

    def _allocate(self, features, logits) -> None:
        """Arrays of capacity rows shaped and typed like one entry's;
        InvalidInputError if they cannot be allocated."""
        features = np.asarray(features)
        logits = np.asarray(logits)
        try:
            self.features = np.empty((self.capacity, *features.shape), features.dtype)
            self.labels = np.empty(self.capacity, np.int64)
            self.logits = np.empty((self.capacity, *logits.shape), logits.dtype)
        except (MemoryError, ValueError):  # ValueError: more bytes than an index holds
            self.features = self.labels = self.logits = None
            row_bytes = features.nbytes + 8 + logits.nbytes
            raise InvalidInputError(
                f"cannot allocate a buffer of capacity {self.capacity} at "
                f"{row_bytes} bytes a row"
            ) from None


def _copy_entry(buf: ReservoirBuffer, slot: int, entry: BufferEntry) -> None:
    """Write an accepted offer into its slot, allocating on the first one.

    A module function so benchmarks/tracing.py (COPY_POINT) can count the
    copies; it goes with the benchmark revision in ROADMAP item 2.
    """
    if buf.features is None:
        buf._allocate(entry.features, entry.logits)
    buf.features[slot] = entry.features
    buf.labels[slot] = int(entry.label)
    buf.logits[slot] = entry.logits


def _rng_state_tuple(state):
    """Normalize a possibly JSON-roundtripped random.Random state."""
    version, internal, gauss = state
    return (version, tuple(internal), gauss)

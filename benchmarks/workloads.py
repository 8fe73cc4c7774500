"""The three benchmark workloads: preparation, set-up, one operation, and
its output.

Each workload is a closed loop with one caller: the runner issues the next
operation only after the previous one returned. Operations go through the
library's public API the way ``dekws run`` and ``dekws eval`` do, and call
every library function through its module at call time, so the patch
points in ``tracing`` see them.

A workload has five parts, of which the runner times only ``build`` (the
set-up, ``setup_s``) and ``op`` (one operation, ``run_s``):

- ``prepare(seed, smoke, workdir)`` returns the workload's state and
  computes the reference the operations are checked against;
- ``reset(state)`` undoes a previous ``build`` before the next one;
- ``build(state)`` does the set-up work;
- ``op(state)`` runs one operation and returns its raw result;
- ``output(state, result)`` reduces the result to ``(output, acc)``.
  ``output`` is compared for equality with the workload's reference: the
  first operation's for the desk runs (repeats of one seed must agree bit
  for bit), and the one computed in ``prepare`` from the in-memory data
  and model for ``ingest-eval``.
"""

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dekws import autodiff, buffer, checkpoint, dataset, engine, metrics, model

# Tone pairs of the frozen acceptance desk benchmark (12 classes).
DESK_FREQUENCIES = tuple((400.0 + 55.0 * c, 2200.0 + 90.0 * c) for c in range(12))


@dataclass(frozen=True)
class DeskSize:
    num_classes: int
    examples_per_class: int
    first: int
    per_task: int
    epochs_per_task: int
    batch_size: int
    buffer_capacity: int


# The acceptance desk spec, and a tiny variant that finishes in seconds.
DESK = DeskSize(12, 60, 3, 3, 10, 128, 200)
DESK_SMOKE = DeskSize(4, 20, 2, 2, 2, 8, 16)

# ingest-eval: a 30-class tree in GSC layout and a full float64 checkpoint.
INGEST_PER_CLASS = 20
INGEST_SMOKE_PER_CLASS = 5
INGEST_CAPACITY = 200
INGEST_SMOKE_CAPACITY = 16


def _digest(arrays) -> str:
    """SHA-256 over named arrays, with their dtypes and shapes."""
    h = hashlib.sha256()
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def param_hash(net) -> str:
    """SHA-256 over every parameter and running statistic, in order."""
    return _digest(net.state_arrays().items())


def features_hash(data) -> str:
    """SHA-256 over a featurized dataset's features, labels and splits."""
    return _digest([("features", data.features), ("labels", data.labels),
                    ("splits", data.splits.astype("U10"))])


def buffer_hash(buf) -> str:
    """SHA-256 over a buffer's entries, in slot order, and its seen count."""
    state = buf.state()
    arrays = [("num_seen", np.asarray(state["num_seen"]))]
    for i, (x, y, z) in enumerate(state["entries"]):
        arrays += [(f"x{i}", x), (f"y{i}", np.asarray(y)), (f"z{i}", z)]
    return _digest(arrays)


# ---------------------------------------------------------------------------
# desk-dekws, desk-finetune


@dataclass
class DeskState:
    size: DeskSize
    cfg: object
    data: object = None
    schedule: list = None
    reference: object = None


def desk_prepare(strategy: str, seed: int, smoke: bool, workdir: Path) -> DeskState:
    """The training configuration; the data is built in ``desk_build``.

    The data (seed 0) and the schedule are the frozen desk spec; the run's
    seed drives initialization, shuffling, reservoir and sampler streams.
    """
    size = DESK_SMOKE if smoke else DESK
    replay = strategy == "de_kws"
    cfg = engine.TrainConfig(
        lr=0.01,
        batch_size=size.batch_size,
        epochs_per_task=size.epochs_per_task,
        alpha=0.5 if replay else 0.0,
        beta=1.0 if replay else 0.0,
        buffer_capacity=size.buffer_capacity if replay else 0,
        seed=seed,
        strategy=strategy,
        precision="float32",
    )
    return DeskState(size, cfg)


def desk_reset(state: DeskState) -> None:
    state.data = state.schedule = None


def desk_build(state: DeskState) -> None:
    """Synthesize and featurize the desk data and build its schedule."""
    size = state.size
    spec = dataset.SyntheticSpec(
        num_classes=size.num_classes,
        examples_per_class=size.examples_per_class,
        noise_amplitude=0.5,
        amplitude_jitter=0.2,
        seed=0,
        frequencies=DESK_FREQUENCIES[: size.num_classes],
    )
    state.data = dataset.load_synthetic(spec, split_seed=0)
    state.schedule = dataset.build_task_schedule(
        size.num_classes, "custom", seed=0, first=size.first, per_task=size.per_task
    )


def desk_op(state: DeskState):
    """One full incremental run, dispatched as ``dekws run`` does."""
    if state.cfg.strategy == "de_kws":
        return engine.run_schedule(state.schedule, state.data, state.cfg)
    return engine.run_baseline(state.cfg.strategy, state.schedule, state.data, state.cfg)


def desk_output(state: DeskState, result):
    output = {"matrix": result.matrix.rows, "params_sha256": param_hash(result.model)}
    return output, result.report["acc"]


# ---------------------------------------------------------------------------
# ingest-eval


@dataclass
class IngestState:
    workdir: Path
    root: Path
    checkpoint_path: Path
    spec: object
    words: list
    seed: int
    schedule: list
    net: object
    buf: object
    reference: dict


def ingest_prepare(seed: int, smoke: bool, workdir: Path) -> IngestState:
    """Build the float64 model, its full buffer and the reference in memory.

    The reference holds the digests of the in-memory features, the model
    and the buffer, and the accuracy row of the in-memory model on the
    in-memory features. The synthetic samples lie on the int16 grid, so a
    WAV round trip is bit-exact and every operation must reproduce the
    reference exactly from disk.
    """
    per_class = INGEST_SMOKE_PER_CLASS if smoke else INGEST_PER_CLASS
    capacity = INGEST_SMOKE_CAPACITY if smoke else INGEST_CAPACITY
    spec = dataset.SyntheticSpec(
        num_classes=30, examples_per_class=per_class, noise_amplitude=0.5,
        amplitude_jitter=0.2, seed=seed,
    )
    data = dataset.load_synthetic(spec, split_seed=seed)
    schedule = dataset.build_task_schedule(30, "6task", seed=seed)

    net = model.TcResNet8(model.TcResNet8Config(num_classes=30), seed, dtype=np.float64)
    buf = buffer.ReservoirBuffer(capacity, 30, seed=seed)
    train_x, train_y = data.train_subset(range(30))
    with autodiff.no_grad():
        logits = net.forward(train_x, training=False).data
    for x, y, z in zip(train_x, train_y, logits):
        buf.insert(buffer.BufferEntry(x, int(y), z))

    row = {}
    for task in schedule:
        val_x, val_y = data.val_subset(task.class_ids)
        row[task.task_id] = metrics.evaluate_task_accuracy(net, task, val_x, val_y)
    reference = {
        "features_sha256": features_hash(data),
        "row": row,
        "params_sha256": param_hash(net),
        "buffer_sha256": buffer_hash(buf),
    }
    return IngestState(
        workdir, workdir / "tree", workdir / "checkpoint.dkws", spec,
        list(data.class_names), seed, schedule, net, buf, reference,
    )


def ingest_reset(state: IngestState) -> None:
    shutil.rmtree(state.workdir, ignore_errors=True)


def ingest_build(state: IngestState) -> None:
    """Write the 30-class WAV tree and save the checkpoint with its buffer."""
    dataset.write_synthetic_tree(state.spec, state.root)
    checkpoint.save_checkpoint(
        state.checkpoint_path, state.net, experiment_config={"seed": state.seed},
        buffer=state.buf,
    )


def ingest_op(state: IngestState):
    """Featurize the tree, load the checkpoint, evaluate every task."""
    data = dataset.load_gsc(
        state.root, seed=state.seed, train_fraction=0.8, expected_words=state.words
    )
    loaded = checkpoint.load_checkpoint(state.checkpoint_path)
    row = {}
    for task in state.schedule:
        val_x, val_y = data.val_subset(task.class_ids)
        row[task.task_id] = metrics.evaluate_task_accuracy(loaded.model, task, val_x, val_y)
    return data, loaded, row


def ingest_output(state: IngestState, result):
    data, loaded, row = result
    output = {
        "features_sha256": features_hash(data),
        "row": row,
        "params_sha256": param_hash(loaded.model),
        "buffer_sha256": buffer_hash(loaded.buffer),
    }
    return output, float(np.mean(list(row.values())))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: object
    reset: object
    build: object
    op: object
    output: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-dekws",
            "DE-KWS on the desk spec: 3 train passes over 384 rows, 2 buffer draws and "
            "128 inserts per step, so autodiff, buffer and engine glue dominate",
            lambda seed, smoke, workdir: desk_prepare("de_kws", seed, smoke, workdir),
            desk_reset, desk_build, desk_op, desk_output,
        ),
        Workload(
            "desk-finetune",
            "finetune on the same data: one 128-row pass per step and no buffer draws, "
            "so buffer and pass-fusion changes must not move it while kernel changes do",
            lambda seed, smoke, workdir: desk_prepare("finetune", seed, smoke, workdir),
            desk_reset, desk_build, desk_op, desk_output,
        ),
        Workload(
            "ingest-eval",
            "scan, WAV read and MFCC of a 30-class tree, checkpoint load and float64 "
            "no-grad eval of 6 tasks: dataset, dsp and checkpoint with no backward pass",
            ingest_prepare, ingest_reset, ingest_build, ingest_op, ingest_output,
        ),
    )
}

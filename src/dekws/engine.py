"""Class-incremental training loop with dark-experience replay.

Each optimization step combines three terms: cross-entropy on the current
batch, cross-entropy on a batch replayed from the buffer (weighted alpha),
and mean-squared error between stored logits and the live network's logits
on an independently drawn buffer batch (weighted beta). Buffer terms vanish
while the buffer is empty. A buffer term weighted 0 is skipped: its batch's
indices are still drawn (no rows are copied), so the sampler stream is the
one the full step draws, its loss is recorded as None, and the running
stats its pass would have moved are overwritten by the end-of-phase
recomputation before any evaluation. After the update, every current
example is offered to the reservoir together with the pre-update logits the
step just produced, so the buffer samples the entire training trajectory
rather than task snapshots. At the end of each training phase the
batch-norm running stats used at evaluation are recomputed from one pass
over the buffer.

A DE-KWS step keeps one autodiff graph alive at a time. The current term
runs first for every strategy; naive rehearsal only concatenates a replayed
batch into its input. Rehearsal and distillation then run as one loop over
the replay terms: each draws its batch (only its indices if its weight is
0) and, unless its weight is 0, runs forward pass, finiteness check and
backward pass (seeded with alpha or beta) before the next term's forward,
so sampler draws and running-stat updates happen in the order current,
rehearsal, distillation. The per-term parameter gradients are summed as (g_distill + g_rehearsal) + g_current,
the order in which one combined graph over the three passes accumulated
them, so trajectories are the same bit for bit. The recorded total is
combined_loss over the terms' float values. A TrainingFaultError leaves
parameters, running stats, Adam state, buffer and sampler stream as they
were before the step.

All four strategies run in one loop (run_schedule): finetune is alpha =
beta = 0 with capacity 0, naive rehearsal has no replay terms, and joint is
finetune over one phase that pools all classes. run_schedule and dekws eval
evaluate through one per-task loop, evaluate_tasks.

A run holds its data once: each training batch is gathered from the
dataset's one feature array by row index and cast to the model's dtype
(a no-op when the loader already used it), so a float32 run's batches,
buffer rows and replay draws are float32. The model casts its input to
its dtype anyway, so the bits are those of float64 batches.
"""

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .buffer import BufferEntry, ReservoirBuffer
from .dataset import FeaturizedDataset, TaskSpec
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    InvalidScheduleError,
    TrainingFaultError,
)
from .metrics import (
    AccuracyMatrix,
    class_weighted_acc,
    compute_acc,
    compute_bwt,
    evaluate_task_accuracy,
)
from .model import TcResNet8, TcResNet8Config
from .rng import numpy_stream, python_stream, substream_seed

STRATEGIES = ("de_kws", "finetune", "joint", "naive_rehearsal")
PRECISIONS = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; finetune and joint force alpha = beta = 0, capacity 0."""

    lr: float = 0.1
    batch_size: int = 128
    epochs_per_task: int = 50
    alpha: float = 0.5
    beta: float = 1.0
    buffer_capacity: int = 500
    seed: int = 0
    strategy: str = "de_kws"
    precision: str = "float64"

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise InvalidConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (0.0 <= self.alpha < np.inf and 0.0 <= self.beta < np.inf):
            raise InvalidConfigError(
                f"alpha and beta must be finite and >= 0, got {self.alpha}, {self.beta}"
            )
        if self.batch_size < 1:
            raise InvalidConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs_per_task < 1:
            raise InvalidConfigError(
                f"epochs_per_task must be >= 1, got {self.epochs_per_task}"
            )
        if self.buffer_capacity < 0:
            raise InvalidConfigError(
                f"buffer_capacity must be >= 0, got {self.buffer_capacity}"
            )
        if self.strategy not in STRATEGIES:
            raise InvalidConfigError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.precision not in PRECISIONS:
            raise InvalidConfigError(
                f"precision must be one of {sorted(PRECISIONS)}, got {self.precision!r}"
            )
        if self.strategy in ("finetune", "joint"):
            object.__setattr__(self, "alpha", 0.0)
            object.__setattr__(self, "beta", 0.0)
            object.__setattr__(self, "buffer_capacity", 0)


@dataclass
class StepBreakdown:
    l_total: float
    l_current: float
    l_rehearsal: float | None
    l_distill: float | None


@dataclass
class RunResult:
    model: TcResNet8
    matrix: AccuracyMatrix
    report: dict
    buffer: ReservoirBuffer


def _finite(value: float, label: str) -> float:
    if not np.isfinite(value):
        raise TrainingFaultError(f"non-finite {label} loss component")
    return value


def combined_loss(l_current: float, l_rehearsal: float | None, l_distill: float | None,
                  alpha: float, beta: float) -> float:
    """Total objective: current + alpha * rehearsal + beta * distillation.

    A buffer term that is None (empty buffer, or weight 0) contributes
    nothing. A non-finite component raises TrainingFaultError.
    """
    total = _finite(l_current, "current-task")
    if l_rehearsal is not None:
        total = total + _finite(l_rehearsal, "rehearsal") * alpha
    if l_distill is not None:
        total = total + _finite(l_distill, "distillation") * beta
    return total


@contextmanager
def _restored_on_error(model: TcResNet8, sampler_rng=None):
    """Put every batch-norm running stat, and the sampler stream if one is
    given, back if the block raises."""
    bns = model.batchnorms
    saved = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in bns]
    sampler_state = None if sampler_rng is None else sampler_rng.getstate()
    try:
        yield
    except BaseException:
        for bn, (mean, var) in zip(bns, saved):
            bn.running_mean[:] = mean
            bn.running_var[:] = var
        if sampler_rng is not None:
            sampler_rng.setstate(sampler_state)
        raise


def _term_gradients(loss: ad.Tensor, weight: float, label: str, params) -> tuple:
    """Check one loss term, backpropagate weight * loss, and return the
    term's value and its gradients.

    The term's graph is released by the backward walk and the parameters'
    .grad fields are cleared for the next term.
    """
    value = _finite(loss.item(), label)
    (loss * weight).backward()
    grads = [p.grad for p in params]
    ad.zero_grads(params)
    return value, grads


def train_step(model: TcResNet8, batch, buf: ReservoirBuffer, cfg: TrainConfig,
               adam_state: ad.AdamState, sampler_rng) -> StepBreakdown:
    """One optimization step; mutates model, buffer, and optimizer state.

    batch is (features (N, frames, coeffs), labels (N,)). Returns the loss
    breakdown. The current batch is offered to the buffer with the logits
    it produced before the parameter update. A TrainingFaultError leaves
    parameters, running stats, Adam state, buffer and sampler_rng as they
    were.
    """
    features, labels = batch
    if len(features) == 0:
        raise InvalidInputError("empty training batch")
    params = model.parameters
    ad.zero_grads(params)
    naive = cfg.strategy == "naive_rehearsal"
    replay_terms = () if naive or len(buf) == 0 else (
        ("rehearsal", cfg.alpha), ("distillation", cfg.beta))

    with _restored_on_error(model, sampler_rng):
        x, y = features, labels
        if naive and len(buf) > 0:
            r_features, r_labels, _ = buf.sample_batch(len(features), sampler_rng)
            x, y = np.concatenate([features, r_features]), np.concatenate([labels, r_labels])
        logits = model.forward(x, training=True)
        l_current, grads = _term_gradients(
            ad.cross_entropy_loss(logits, y), 1.0, "current-task", params)
        replay_losses, replay_grads = {}, None
        for label, weight in replay_terms:
            if not weight:
                # Skipped, but its indices are still drawn, so the sampler
                # stream does not depend on alpha, beta.
                buf.sample_indices(cfg.batch_size, sampler_rng)
                continue
            r_features, r_labels, r_logits = buf.sample_batch(cfg.batch_size, sampler_rng)
            out = model.forward(r_features, training=True)
            loss = (ad.cross_entropy_loss(out, r_labels) if label == "rehearsal"
                    else ad.mse_logit_loss(ad.Tensor(r_logits), out))
            replay_losses[label], term_grads = _term_gradients(loss, weight, label, params)
            replay_grads = term_grads if replay_grads is None else [
                d + r for r, d in zip(replay_grads, term_grads)]
        if replay_grads is not None:
            # (d + r) + c, the order one combined graph accumulated them in.
            grads = [b + c for c, b in zip(grads, replay_grads)]
        l_terms = (l_current, replay_losses.get("rehearsal"),
                   replay_losses.get("distillation"))
        breakdown = StepBreakdown(combined_loss(*l_terms, cfg.alpha, cfg.beta), *l_terms)
        ad.adam_step(params, grads, adam_state)

    current_logits = logits.data[: len(features)]
    for i in range(len(features)):
        buf.insert(BufferEntry(features[i], int(labels[i]), current_logits[i]))
    return breakdown


def _validate_schedule(schedule, data: FeaturizedDataset) -> None:
    seen: set[int] = set()
    for task in schedule:
        if seen & set(task.class_ids):
            raise InvalidScheduleError(
                f"task {task.task_id} repeats classes already scheduled"
            )
        seen |= set(task.class_ids)
        if len(data.rows("train", task.class_ids)) == 0:
            raise InvalidScheduleError(
                f"task {task.task_id} has no training examples"
            )
        if len(data.rows("validation", task.class_ids)) == 0:
            raise InvalidScheduleError(
                f"task {task.task_id} has no validation examples"
            )
    if any(c >= data.num_classes or c < 0 for c in seen):
        raise InvalidScheduleError("schedule references classes outside the dataset")


def _deviation_log(cfg: TrainConfig) -> list:
    notes = []
    for f in dataclasses.fields(TrainConfig):
        default = f.default
        value = getattr(cfg, f.name)
        if f.name in ("seed", "strategy", "buffer_capacity"):
            continue
        if value != default:
            notes.append(f"{f.name}={value} (default {default})")
    return notes


def evaluate_tasks(model: TcResNet8, tasks, data: FeaturizedDataset) -> dict:
    """{position in tasks: accuracy on that task's validation split}."""
    return {i: evaluate_task_accuracy(model, task, *data.val_subset(task.class_ids))
            for i, task in enumerate(tasks)}


def _recalibrate_batchnorm(model: TcResNet8, buf: ReservoirBuffer) -> None:
    """Set every batch-norm layer's running stats to the buffer's statistics.

    Runs one train-mode, no-grad pass over all buffer features as a single
    batch with momentum 1, so eval mode then normalizes each layer exactly
    as that pass did. Parameters and buffer are untouched. If the pass
    fails, running stats and momenta are restored before the error
    propagates.
    """
    features = buf.features[:len(buf)]
    bns = model.batchnorms
    momenta = [bn.momentum for bn in bns]
    try:
        for bn in bns:
            bn.momentum = 1.0
        with _restored_on_error(model), ad.no_grad():
            model.forward(features, training=True)
    finally:
        for bn, momentum in zip(bns, momenta):
            bn.momentum = momentum


def _train_phase(model, task, data, cfg, adam_state, buf, shuffle_rng, sampler_rng,
                 loss_curve):
    """Train over one task's training split for cfg.epochs_per_task epochs.

    If the buffer is then non-empty, the batch-norm running stats are
    recomputed from it (see _recalibrate_batchnorm). Each batch is gathered
    from data.features by row index in the model's dtype. A
    TrainingFaultError is re-raised with the task id, epoch and step index
    within the epoch ahead of its message.
    """
    rows = data.rows("train", task.class_ids)
    n = len(rows)
    for epoch in range(cfg.epochs_per_task):
        perm = shuffle_rng.permutation(n)
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = rows[perm[start : start + cfg.batch_size]]
            batch = (data.features[idx].astype(model.dtype, copy=False), data.labels[idx])
            try:
                breakdown = train_step(model, batch, buf, cfg, adam_state, sampler_rng)
            except TrainingFaultError as exc:
                raise TrainingFaultError(
                    f"task {task.task_id}, epoch {epoch}, step {step}: {exc}"
                ) from exc
            loss_curve.append({"task": task.task_id, "epoch": epoch,
                               **dataclasses.asdict(breakdown)})
    if len(buf) > 0:
        _recalibrate_batchnorm(model, buf)


def _assemble_report(cfg, schedule, data, model, matrix, loss_curve, buf) -> dict:
    val_sizes = [len(data.rows("validation", t.class_ids)) for t in schedule]
    buffer_arrays = (buf.features, buf.labels, buf.logits)
    return {
        "strategy": cfg.strategy,
        "config": dataclasses.asdict(cfg),
        "deviation_log": _deviation_log(cfg),
        "num_tasks": len(schedule),
        "task_classes": [list(t.class_ids) for t in schedule],
        "parameter_count": model.count_parameters(),
        "model_bytes": sum(p.data.nbytes for p in model.parameters),
        "buffer_bytes": sum(a.nbytes for a in buffer_arrays if a is not None),
        "accuracy_matrix": matrix.rows,
        "per_task_final": list(matrix.final_row),
        "acc": compute_acc(matrix),
        "acc_class_weighted": class_weighted_acc(matrix, val_sizes),
        "bwt": compute_bwt(matrix) if len(matrix.rows) > 1 else None,
        "buffer_len": len(buf),
        "buffer_num_seen": buf.num_seen,
        "loss_curve": loss_curve,
    }


def run_schedule(schedule, data: FeaturizedDataset, cfg: TrainConfig) -> RunResult:
    """Train cfg.strategy over the schedule; the only training loop.

    de_kws, naive_rehearsal and finetune train task by task and evaluate
    every task i <= t after task t, one matrix row per task. joint trains
    one phase pooling every scheduled class and ends with a single row over
    all tasks (BWT absent). finetune and joint are replay-free (see
    TrainConfig). The report carries ACC, BWT (absent for a single row),
    per-task accuracies, loss curves, buffer accounting, and the bytes the
    parameters and the allocated buffer arrays take.
    """
    _validate_schedule(schedule, data)
    if cfg.strategy == "joint":
        pooled = TaskSpec(0, tuple(c for task in schedule for c in task.class_ids))
        phases = [(pooled, schedule)]
    else:
        phases = [(task, schedule[: t + 1]) for t, task in enumerate(schedule)]
    model = TcResNet8(
        TcResNet8Config(num_classes=data.num_classes),
        cfg.seed,
        dtype=PRECISIONS[cfg.precision],
    )
    adam_state = ad.init_adam(model.parameters, lr=cfg.lr)
    buf = ReservoirBuffer(
        cfg.buffer_capacity, data.num_classes,
        seed=substream_seed(cfg.seed, "reservoir"),
    )
    shuffle_rng = numpy_stream(cfg.seed, "shuffle")
    sampler_rng = python_stream(cfg.seed, "sampler")
    matrix = AccuracyMatrix(len(schedule))
    loss_curve: list = []
    for task, evaluated in phases:
        _train_phase(model, task, data, cfg, adam_state, buf, shuffle_rng, sampler_rng,
                     loss_curve)
        matrix.add_row(evaluate_tasks(model, evaluated, data))
    report = _assemble_report(cfg, schedule, data, model, matrix, loss_curve, buf)
    return RunResult(model, matrix, report, buf)


def run_baseline(strategy: str, schedule, data: FeaturizedDataset,
                 cfg: TrainConfig) -> RunResult:
    """run_schedule with cfg.strategy replaced by strategy.

    Kept because benchmarks/workloads.py (desk_op) calls it for the
    baselines; it goes with the benchmark revision in ROADMAP item 2.
    """
    return run_schedule(schedule, data, dataclasses.replace(cfg, strategy=strategy))

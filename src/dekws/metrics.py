"""Accuracy matrix, average accuracy (ACC), and backward transfer (BWT).

The matrix holds one row per evaluation checkpoint and one column per task;
entry [t][i] is the accuracy on task i after training phase t. Incremental
runs produce a square lower-triangular matrix; the pooled-training baseline
produces a single fully-defined row. ACC is the mean of the defined entries
of the final row; BWT averages final-row accuracy minus the just-trained
diagonal accuracy and is undefined for a single training phase.
"""

from dataclasses import dataclass, field

import numpy as np

from .dataset import TaskSpec
from .errors import InvalidInputError, UndefinedMetricError


@dataclass
class AccuracyMatrix:
    """rows[t][i] is accuracy on task i after phase t, or None if unseen."""

    num_tasks: int
    rows: list = field(default_factory=list)

    def add_row(self, accuracies: dict) -> None:
        """Record one evaluation checkpoint from {task_index: accuracy}."""
        row = [None] * self.num_tasks
        for i, acc in accuracies.items():
            if not 0.0 <= acc <= 1.0:
                raise InvalidInputError(f"accuracy {acc} outside [0, 1]")
            row[i] = float(acc)
        self.rows.append(row)

    @property
    def final_row(self) -> list:
        if not self.rows:
            raise InvalidInputError("accuracy matrix has no rows")
        return self.rows[-1]

    def to_csv(self, path) -> None:
        """Rows = after-phase index, columns = task; blank for undefined."""
        lines = ["after_phase," + ",".join(f"task_{i}" for i in range(self.num_tasks))]
        for t, row in enumerate(self.rows):
            cells = ["" if v is None else repr(v) for v in row]
            lines.append(f"{t}," + ",".join(cells))
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def evaluate_task_accuracy(model, task: TaskSpec, features: np.ndarray,
                           labels: np.ndarray) -> float:
    """Fraction of a task's validation examples whose argmax over all
    classes matches the label. The output space is never restricted to the
    task's own classes.
    """
    if len(features) == 0:
        raise InvalidInputError(
            f"task {task.task_id} has an empty validation set"
        )
    pred = np.argmax(model.forward(features, training=False).data, axis=1)
    return int((pred == labels).sum()) / len(features)


def compute_acc(matrix: AccuracyMatrix) -> float:
    """Mean accuracy over the defined entries of the final row."""
    final = matrix.final_row
    defined = [v for v in final if v is not None]
    if len(defined) != matrix.num_tasks:
        raise InvalidInputError(
            "final row must be fully defined to compute overall accuracy"
        )
    return float(np.mean(defined))


def compute_bwt(matrix: AccuracyMatrix) -> float:
    """Mean of final-row minus diagonal accuracy over tasks 0..T-2."""
    t = len(matrix.rows)
    if t < 2:
        raise UndefinedMetricError(
            "backward transfer is undefined with fewer than 2 training phases"
        )
    final = matrix.final_row
    deltas = []
    for i in range(t - 1):
        diag = matrix.rows[i][i]
        if diag is None or final[i] is None:
            raise InvalidInputError(f"matrix entry for task {i} is undefined")
        deltas.append(final[i] - diag)
    return float(np.mean(deltas))


def class_weighted_acc(matrix: AccuracyMatrix, task_sizes) -> float:
    """Final-row accuracy weighted by per-task validation counts."""
    final = matrix.final_row
    sizes = np.asarray(list(task_sizes), dtype=np.float64)
    if len(sizes) != len(final) or any(v is None for v in final):
        raise InvalidInputError("need one size per fully-defined final entry")
    return float(np.dot(sizes, np.asarray(final)) / sizes.sum())

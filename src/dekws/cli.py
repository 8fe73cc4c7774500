"""Command-line entry point.

Subcommands:
  run        execute an experiment from a config file; writes report.json,
             matrix.csv, and checkpoint.dkws into the output directory
  gradcheck  verify every layer's backward pass (and the full model) against
             central finite differences
  synth      materialize a synthetic dataset as a folder-per-class WAV tree
  eval       re-evaluate a saved checkpoint over a schedule

Exit codes: 0 success, 1 gradcheck failure, 2 config/validation error,
3 training fault.
"""

import argparse
import ctypes
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig, read_experiment_config
from .dataset import (
    FeaturizedDataset,
    build_task_schedule,
    load_gsc,
    load_synthetic,
    write_synthetic_tree,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .engine import PRECISIONS, evaluate_tasks, run_schedule
from .errors import CheckpointError, DekwsError, TrainingFaultError
from .metrics import AccuracyMatrix
from .model import TcResNet8, TcResNet8Config

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_CONFIG = 2
EXIT_TRAINING = 3


def _load_dataset(cfg: ExperimentConfig, dtype=None) -> FeaturizedDataset:
    """The configured dataset, its features in dtype (default: the precision
    of cfg.train)."""
    if dtype is None:
        dtype = PRECISIONS[cfg.train.precision]
    if cfg.dataset_kind == "synthetic":
        return load_synthetic(cfg.synthetic, cfg.train_fraction, split_seed=cfg.seed,
                              dtype=dtype)
    return load_gsc(cfg.gsc_root, seed=cfg.seed, train_fraction=cfg.train_fraction,
                    dtype=dtype)


def _build_schedule(cfg: ExperimentConfig, num_classes: int):
    return build_task_schedule(
        num_classes, cfg.schedule_layout, seed=cfg.seed,
        first=cfg.schedule_first, per_task=cfg.schedule_per_task,
    )


def _sha256(arrays) -> str:
    """SHA-256 over (name, array) pairs: each name, dtype and shape, then the
    array's bytes in C order."""
    h = hashlib.sha256()
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def run_digests(model: TcResNet8, buf) -> dict:
    """report.json's digests of a run's end state.

    params_sha256 covers every parameter and running statistic in
    state_arrays order (the bytes of benchmarks/workloads.py param_hash);
    buffer_sha256 covers num_seen and the filled rows of the features,
    labels and logits.
    """
    filled = [] if buf.features is None else [
        (name, getattr(buf, name)[:len(buf)]) for name in ("features", "labels", "logits")
    ]
    return {
        "params_sha256": _sha256(model.state_arrays().items()),
        "buffer_sha256": _sha256([("num_seen", np.asarray(buf.num_seen))] + filled),
    }


def blas_runtime() -> dict:
    """report.json's record of the BLAS runtime: the kernel set (core) the
    loaded OpenBLAS runs and its thread count, both of which change a run's
    summation order. The library is the OpenBLAS mapped into this process
    (read from /proc/self/maps); each value is None when no mapped library
    exports numpy's scipy_openblas query functions.
    """
    runtime = {"blas_core": None, "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return runtime
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
            core = handle.scipy_openblas_get_corename64_
            threads = handle.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        core.restype, core.argtypes = ctypes.c_char_p, []
        threads.restype, threads.argtypes = ctypes.c_int, []
        return {"blas_core": core().decode(), "blas_threads": int(threads())}
    return runtime


def _writable_dir(out) -> Path:
    """Create the output directory out if needed and check that a file can be
    written in it; DekwsError if not. Called before any data is loaded."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise DekwsError(f"output directory {out} is not writable: {exc}") from exc
    return out_dir


def cmd_run(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    cfg = read_experiment_config(config_path, seed_override=seed, out_override=out)
    if cfg.out_dir is None:
        raise DekwsError("no output directory: set out_dir in the config or pass --out")
    out_dir = _writable_dir(cfg.out_dir)

    started = time.monotonic()
    data = _load_dataset(cfg)
    schedule = _build_schedule(cfg, data.num_classes)
    result = run_schedule(schedule, data, cfg.train)

    report = dict(result.report)
    report["experiment_config"] = cfg.effective_dict()
    report["wall_clock_seconds"] = round(time.monotonic() - started, 3)
    report.update(run_digests(result.model, result.buffer))
    report.update(blas_runtime())
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    result.matrix.to_csv(out_dir / "matrix.csv")
    save_checkpoint(
        out_dir / "checkpoint.dkws", result.model,
        experiment_config=cfg.effective_dict(), buffer=result.buffer,
    )
    print(
        f"run complete: strategy={cfg.train.strategy} acc={report['acc']:.4f} "
        f"bwt={report['bwt'] if report['bwt'] is not None else 'n/a'} "
        f"-> {out_dir}"
    )
    return EXIT_OK


def cmd_eval(checkpoint_path: str, config_path: str, out: str | None = None) -> int:
    cfg = read_experiment_config(config_path, out_override=out)
    out_dir = None if cfg.out_dir is None else _writable_dir(cfg.out_dir)
    loaded = load_checkpoint(checkpoint_path)
    data = _load_dataset(cfg, loaded.model.dtype)
    if loaded.model.cfg.num_classes != data.num_classes:
        raise CheckpointError(
            f"{checkpoint_path}: model has {loaded.model.cfg.num_classes} classes, "
            f"dataset has {data.num_classes}"
        )
    schedule = _build_schedule(cfg, data.num_classes)
    matrix = AccuracyMatrix(len(schedule))
    row = evaluate_tasks(loaded.model, schedule, data)
    matrix.add_row(row)
    accs = ", ".join(f"task_{i}={row[i]:.4f}" for i in sorted(row))
    print(f"eval: {accs}")
    if out_dir is not None:
        matrix.to_csv(out_dir / "eval_matrix.csv")
    return EXIT_OK


def cmd_synth(config_path: str, out: str) -> int:
    cfg = read_experiment_config(config_path)
    if cfg.dataset_kind != "synthetic" or cfg.synthetic is None:
        raise DekwsError("synth requires a config with dataset.kind = synthetic")
    out_dir = _writable_dir(out)
    manifest = write_synthetic_tree(cfg.synthetic, out_dir)
    print(f"wrote {len(manifest)} files across "
          f"{cfg.synthetic.num_classes} classes to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradient-check suite


def _projection_loss(out: ad.Tensor, rng: np.random.Generator) -> ad.Tensor:
    """Scalarize an op output via a fixed random linear functional."""
    coeffs = ad.Tensor(rng.standard_normal(out.shape))
    return ad.tsum(ad.mul(out, coeffs))


def gradcheck_suite() -> dict:
    """Finite-difference checks for every op and the full model.

    Returns {check name: GradCheckReport}; layer ops run at 1e-4 tolerance,
    the whole-model loss at 1e-3 over a random weight slice.
    """
    reports = {}
    rng = np.random.default_rng(20240917)

    x = ad.Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True, name="x")
    w = ad.Tensor(0.4 * rng.standard_normal((4, 3, 3)), requires_grad=True, name="w")
    b = ad.Tensor(0.1 * rng.standard_normal(4), requires_grad=True, name="b")
    reports["conv1d"] = ad.grad_check(
        lambda: _projection_loss(ad.conv1d(x, w, b, stride=1, padding=1),
                                 np.random.default_rng(11)),
        [x, w, b],
    )
    reports["conv1d_strided"] = ad.grad_check(
        lambda: _projection_loss(ad.conv1d(x, w, b, stride=2, padding=2),
                                 np.random.default_rng(12)),
        [x, w, b],
    )

    xb = ad.Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True, name="x")
    gamma = ad.Tensor(1.0 + 0.2 * rng.standard_normal(4), requires_grad=True, name="gamma")
    beta = ad.Tensor(0.1 * rng.standard_normal(4), requires_grad=True, name="beta")
    running_mean = np.zeros(4)
    running_var = np.ones(4)
    reports["batchnorm1d"] = ad.grad_check(
        lambda: _projection_loss(
            ad.batchnorm1d(xb, gamma, beta, running_mean, running_var, True),
            np.random.default_rng(13),
        ),
        [xb, gamma, beta],
    )
    reports["batchnorm1d_eval"] = ad.grad_check(
        lambda: _projection_loss(
            ad.batchnorm1d(xb, gamma, beta, np.full(4, 0.3), np.full(4, 1.7), False),
            np.random.default_rng(14),
        ),
        [xb, gamma, beta],
    )

    pair_rng = np.random.default_rng(19)  # leaves rng's later draws as they were
    xa = ad.Tensor(pair_rng.standard_normal((2, 3, 5)), requires_grad=True, name="a")
    ya = ad.Tensor(pair_rng.standard_normal((2, 3, 5)), requires_grad=True, name="b")
    reports["add"] = ad.grad_check(
        lambda: _projection_loss(ad.add(xa, ya), np.random.default_rng(20)), [xa, ya]
    )
    reports["mul"] = ad.grad_check(
        lambda: _projection_loss(ad.mul(xa, ya), np.random.default_rng(21)), [xa, ya]
    )

    raw = rng.standard_normal((4, 6))
    xr = ad.Tensor(np.sign(raw) * (np.abs(raw) + 0.01), requires_grad=True, name="x")
    reports["relu"] = ad.grad_check(
        lambda: _projection_loss(ad.relu(xr), np.random.default_rng(15)), [xr]
    )

    xp = ad.Tensor(rng.standard_normal((2, 3, 7)), requires_grad=True, name="x")
    reports["global_avg_pool"] = ad.grad_check(
        lambda: _projection_loss(ad.global_avg_pool(xp), np.random.default_rng(16)),
        [xp],
    )

    xl = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True, name="x")
    wl = ad.Tensor(0.5 * rng.standard_normal((5, 4)), requires_grad=True, name="w")
    bl = ad.Tensor(0.1 * rng.standard_normal(5), requires_grad=True, name="b")
    reports["linear"] = ad.grad_check(
        lambda: _projection_loss(ad.linear(xl, wl, bl), np.random.default_rng(17)),
        [xl, wl, bl],
    )

    logits = ad.Tensor(rng.standard_normal((4, 7)), requires_grad=True, name="logits")
    labels = np.array([0, 3, 6, 2])
    reports["cross_entropy_loss"] = ad.grad_check(
        lambda: ad.cross_entropy_loss(logits, labels), [logits]
    )

    stored = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True, name="stored")
    current = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True, name="current")
    reports["mse_logit_loss"] = ad.grad_check(
        lambda: ad.mse_logit_loss(stored, current), [stored, current]
    )

    model = TcResNet8(TcResNet8Config(num_classes=5), seed=99)
    features = rng.standard_normal((2, 24, 40))
    model_labels = np.array([1, 4])
    slice_rng = np.random.default_rng(18)
    checked = [model.blocks[1].conv1.weight, model.head.weight, model.stem_bn.gamma]
    reports["full_model"] = ad.grad_check(
        lambda: ad.cross_entropy_loss(
            model.forward(features, training=True), model_labels
        ),
        checked,
        tolerance=1e-3,
        max_elements=8,
        rng=slice_rng,
    )
    return reports


def cmd_gradcheck() -> int:
    reports = gradcheck_suite()
    failures = []
    for name, report in reports.items():
        status = "pass" if report.passed else "FAIL"
        print(f"{name:24s} max_rel_err={report.max_rel_err:.3e} "
              f"tol={report.tolerance:.0e} {status}")
        if not report.passed:
            failures.append(name)
    if failures:
        print(f"gradient check failed for: {', '.join(failures)}")
        return EXIT_GRADCHECK
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dekws",
        description="Class-incremental keyword spotting with dark-experience replay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to a key=value config")
    p_run.add_argument("--seed", type=int, default=None, help="override the root seed")
    p_run.add_argument("--out", default=None, help="override the output directory")

    sub.add_parser("gradcheck", help="finite-difference check of every op")

    p_synth = sub.add_parser("synth", help="write a synthetic WAV dataset tree")
    p_synth.add_argument("--config", required=True,
                         help="config with dataset.kind = synthetic")
    p_synth.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="re-evaluate a checkpoint over a schedule")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, seed=args.seed, out=args.out)
        if args.command == "gradcheck":
            return cmd_gradcheck()
        if args.command == "synth":
            return cmd_synth(args.config, args.out)
        return cmd_eval(args.checkpoint, args.config, out=args.out)
    except TrainingFaultError as exc:
        print(f"training fault: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except DekwsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

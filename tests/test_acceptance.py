"""Acceptance criteria, one test per criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -s` to watch progress; the
desk-scale benchmark (criteria 6-8) trains 24 models and takes several
minutes. The benchmark is frozen: a 12-class tone-pair dataset (60
examples/class, noise 0.5, data seed 0), a 4-task schedule of 3 classes
each, lr 0.01, batch 128, 10 epochs/task, buffer 200, medians over train
seeds (2, 4, 5).
"""

import hashlib
import os
import time
from statistics import median

import numpy as np
import pytest
import scipy.stats

import dekws.autodiff as ad
from dekws.buffer import BufferEntry, ReservoirBuffer
from dekws.cli import gradcheck_suite, main
from dekws.dataset import (
    SyntheticSpec,
    build_task_schedule,
    load_gsc,
    load_synthetic,
)
from dekws.engine import TrainConfig, run_baseline, run_schedule, train_step
from dekws.metrics import AccuracyMatrix, compute_acc, compute_bwt
from dekws.model import TcResNet8, TcResNet8Config
from dekws.rng import python_stream

BENCH_SEEDS = (2, 4, 5)
BENCH_FREQUENCIES = tuple((400.0 + 55.0 * c, 2200.0 + 90.0 * c) for c in range(12))
BENCH_SPEC = SyntheticSpec(
    num_classes=12,
    examples_per_class=60,
    noise_amplitude=0.5,
    amplitude_jitter=0.2,
    seed=0,
    frequencies=BENCH_FREQUENCIES,
)
BENCH_TRAIN = dict(lr=0.01, batch_size=128, epochs_per_task=10, precision="float32")


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}) failed{suffix}"


@pytest.fixture(scope="session")
def bench_data():
    data = load_synthetic(BENCH_SPEC, split_seed=0)
    schedule = build_task_schedule(12, "custom", seed=0, first=3, per_task=3)
    return data, schedule


@pytest.fixture(scope="session")
def bench_runs(bench_data):
    """All desk-scale runs for criteria 6-8, cached across tests.

    Returns {(label, seed): (acc, bwt, wall_seconds)}.
    """
    data, schedule = bench_data
    jobs = {
        "joint": dict(strategy="joint", alpha=0.0, beta=0.0, buffer_capacity=0),
        "finetune": dict(strategy="finetune", alpha=0.0, beta=0.0, buffer_capacity=0),
        "naive_rehearsal": dict(strategy="naive_rehearsal", alpha=0.5, beta=1.0,
                                buffer_capacity=200),
        "de_kws": dict(strategy="de_kws", alpha=0.5, beta=1.0, buffer_capacity=200),
        "no_rehearsal": dict(strategy="de_kws", alpha=0.0, beta=1.0,
                             buffer_capacity=200),
        "no_distill": dict(strategy="de_kws", alpha=0.5, beta=0.0,
                           buffer_capacity=200),
        "cap50": dict(strategy="de_kws", alpha=0.5, beta=1.0, buffer_capacity=50),
        "cap400": dict(strategy="de_kws", alpha=0.5, beta=1.0, buffer_capacity=400),
    }
    results = {}
    for label, overrides in jobs.items():
        for seed in BENCH_SEEDS:
            cfg = TrainConfig(seed=seed, **overrides, **BENCH_TRAIN)
            start = time.monotonic()
            if cfg.strategy == "de_kws":
                run = run_schedule(schedule, data, cfg)
            else:
                run = run_baseline(cfg.strategy, schedule, data, cfg)
            elapsed = time.monotonic() - start
            results[(label, seed)] = (run.report["acc"], run.report["bwt"], elapsed)
            print(f"  bench {label} seed={seed}: acc={run.report['acc']:.3f} "
                  f"({elapsed:.0f}s)")
    return results


def _median_acc(results, label):
    return median(results[(label, s)][0] for s in BENCH_SEEDS)


def _median_bwt(results, label):
    return median(results[(label, s)][1] for s in BENCH_SEEDS)


class TestCriterion1:
    def test_gradient_correctness(self):
        start = time.monotonic()
        reports = gradcheck_suite()
        elapsed = time.monotonic() - start
        layer_ok = all(
            r.max_rel_err <= 1e-4 for name, r in reports.items()
            if name != "full_model"
        )
        model_ok = reports["full_model"].max_rel_err <= 1e-3
        worst = max(r.max_rel_err for r in reports.values())
        _report(
            1, "gradient correctness",
            layer_ok and model_ok and elapsed < 120.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2:
    def test_reservoir_uniformity(self):
        capacity, stream, trials = 50, 1000, 10000
        entries = [BufferEntry(np.zeros((1, 1)), i, np.zeros(1))
                   for i in range(stream)]
        counts = np.zeros(stream, dtype=np.int64)
        start = time.monotonic()
        for trial in range(trials):
            buf = ReservoirBuffer(capacity, num_classes=1, seed=trial)
            for e in entries:
                buf.insert(e)
            np.add.at(counts, buf.labels[:len(buf)], 1)
        elapsed = time.monotonic() - start
        rates = counts / trials
        in_band = bool(np.all(np.abs(rates - 0.05) <= 0.01))
        chi2_stat, p_value = scipy.stats.chisquare(counts, f_exp=capacity * trials / stream)
        _report(
            2, "reservoir uniformity",
            in_band and p_value >= 0.01 and elapsed < 60.0,
            f"rate range [{rates.min():.3f}, {rates.max():.3f}], "
            f"chi2 p={p_value:.3f}, {elapsed:.1f}s",
        )


class TestCriterion3:
    def test_metric_oracles_exact(self):
        def matrix(rows):
            m = AccuracyMatrix(num_tasks=len(rows[-1]))
            for row in rows:
                m.add_row({i: v for i, v in enumerate(row) if v is not None})
            return m

        acc_cases = [
            (matrix([[0.9, None], [0.8, 0.7]]), 0.75),
            (matrix([[1.0, None], [1.0, 1.0]]), 1.0),
            (matrix([[0.9]]), 0.9),
        ]
        bwt_cases = [
            (matrix([[0.8, None], [0.8, 0.9]]), 0.0),
            (matrix([[0.9, None], [0.8, 0.85]]), -0.1),
            (matrix([[0.9, None, None], [0.6, 0.8, None], [0.6, 0.7, 0.7]]), -0.2),
        ]
        ok = all(abs(compute_acc(m) - want) <= 1e-12 for m, want in acc_cases)
        ok = ok and all(abs(compute_bwt(m) - want) <= 1e-12 for m, want in bwt_cases)
        _report(3, "metric oracles", ok, "ACC and BWT exact to 1e-12")


class TestCriterion4:
    def test_parameter_budget(self):
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=0)
        count = model.count_parameters()
        within = abs(count - 64480) <= 0.05 * 64480
        _report(
            4, "parameter budget",
            within and count == 66390,
            f"count {count}, reported 64.48K, tolerance 5%",
        )


class TestCriterion5:
    def test_reduction_identity_50_steps(self, bench_data):
        data, schedule = bench_data
        features, labels = data.train_subset(schedule[0].class_ids)

        def trajectory(strategy):
            cfg = TrainConfig(strategy=strategy, alpha=0.0, beta=0.0,
                              buffer_capacity=0, seed=7, lr=0.01,
                              batch_size=32, epochs_per_task=1,
                              precision="float64")
            model = TcResNet8(TcResNet8Config(num_classes=data.num_classes), cfg.seed)
            state = ad.init_adam(model.parameters, lr=cfg.lr)
            buf = ReservoirBuffer(0, data.num_classes, seed=1)
            sampler = python_stream(cfg.seed, "sampler")
            digests = []
            for step in range(50):
                lo = (step * 32) % len(features)
                batch = (features[lo : lo + 32], labels[lo : lo + 32])
                train_step(model, batch, buf, cfg, state, sampler)
                h = hashlib.sha256()
                for p in model.parameters:
                    h.update(p.data.tobytes())
                digests.append(h.hexdigest())
            return digests

        de = trajectory("de_kws")
        ft = trajectory("finetune")
        _report(
            5, "reduction identity",
            de == ft,
            "50-step parameter trajectories bit-identical",
        )


class TestCriterion6:
    def test_desk_scale_ordering(self, bench_runs):
        acc = {k: _median_acc(bench_runs, k)
               for k in ("joint", "de_kws", "naive_rehearsal", "finetune")}
        bwt_de = _median_bwt(bench_runs, "de_kws")
        bwt_ft = _median_bwt(bench_runs, "finetune")
        runtime = sum(
            bench_runs[(label, s)][2]
            for label in ("joint", "de_kws", "naive_rehearsal", "finetune")
            for s in BENCH_SEEDS
        )
        ordering = (
            acc["joint"] > acc["de_kws"]
            > acc["naive_rehearsal"] > acc["finetune"]
        )
        margin = acc["de_kws"] - acc["finetune"] >= 0.20
        bwt_ok = bwt_de > bwt_ft
        _report(
            6, "desk-scale CIL ordering",
            ordering and margin and bwt_ok and runtime < 900.0,
            f"joint={acc['joint']:.3f} > de_kws={acc['de_kws']:.3f} > "
            f"nr={acc['naive_rehearsal']:.3f} > ft={acc['finetune']:.3f}; "
            f"gap={acc['de_kws'] - acc['finetune']:.3f}; "
            f"bwt {bwt_de:.3f} vs {bwt_ft:.3f}; {runtime:.0f}s",
        )


class TestCriterion7:
    def test_ablation_direction(self, bench_runs):
        full = _median_acc(bench_runs, "de_kws")
        no_rehearsal = _median_acc(bench_runs, "no_rehearsal")
        no_distill = _median_acc(bench_runs, "no_distill")
        drop_rehearsal = full - no_rehearsal
        drop_distill = full - no_distill
        _report(
            7, "ablation direction",
            drop_rehearsal >= 0.0 and drop_distill >= 0.0
            and drop_distill > drop_rehearsal,
            f"full={full:.3f}, w/o rehearsal={no_rehearsal:.3f} "
            f"(drop {drop_rehearsal:.3f}), w/o distillation={no_distill:.3f} "
            f"(drop {drop_distill:.3f})",
        )


class TestCriterion8:
    def test_buffer_size_trend(self, bench_runs):
        accs = [
            _median_acc(bench_runs, "cap50"),
            _median_acc(bench_runs, "de_kws"),
            _median_acc(bench_runs, "cap400"),
        ]
        _report(
            8, "buffer-size trend",
            accs[0] <= accs[1] <= accs[2],
            f"cap 50/200/400 medians {accs[0]:.3f} <= {accs[1]:.3f} <= {accs[2]:.3f}",
        )


class TestCriterion9:
    def test_cmd_run_determinism(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "seed = 11\n"
            "dataset.kind = synthetic\n"
            "dataset.synthetic.num_classes = 4\n"
            "dataset.synthetic.examples_per_class = 12\n"
            "dataset.synthetic.noise_amplitude = 0.3\n"
            "schedule.layout = custom\n"
            "schedule.first = 2\n"
            "schedule.per_task = 2\n"
            "train.strategy = de_kws\n"
            "train.lr = 0.01\n"
            "train.batch_size = 16\n"
            "train.epochs_per_task = 2\n"
            "train.buffer_capacity = 32\n"
            "train.precision = float32\n"
        )
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        code1 = main(["run", "--config", str(config), "--out", str(out1)])
        code2 = main(["run", "--config", str(config), "--out", str(out2)])
        identical = (out1 / "matrix.csv").read_bytes() == (out2 / "matrix.csv").read_bytes()
        _report(
            9, "run determinism",
            code1 == 0 and code2 == 0 and identical,
            "matrix.csv byte-identical across repeat runs",
        )


class TestCriterion10:
    def test_full_scale_gsc(self):
        root = os.environ.get("DEKWS_GSC_ROOT")
        if not root:
            pytest.skip(
                "optional full-scale check: set DEKWS_GSC_ROOT to a Google "
                "Speech Commands v1 tree (long-running integration test)"
            )
        data = load_gsc(root, seed=0)
        schedule = build_task_schedule(30, "6task", seed=0)
        cfg = TrainConfig(lr=0.01, batch_size=128, epochs_per_task=50,
                          alpha=0.5, beta=1.0, buffer_capacity=500, seed=0,
                          strategy="de_kws", precision="float32")
        run = run_schedule(schedule, data, cfg)
        acc = run.report["acc"]
        _report(
            10, "full-scale GSC",
            abs(acc * 100.0 - 89.24) <= 3.0,
            f"6-task buffer-500 ACC {acc * 100.0:.2f} vs reported 89.24",
        )

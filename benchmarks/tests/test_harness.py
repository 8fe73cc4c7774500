"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/tests

Runs every workload at its smoke size through the same command line the
benchmark is run with, and checks the result schema, the metric names and
units against BENCHMARK.json, and the per-layer counts the workloads are
defined by.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD_NAMES = list(workloads.WORKLOADS)
REPORT_KEYS = {
    "workload", "why", "seed", "seconds", "trace", "smoke", "loop", "machine",
    "setup_s_samples", "op_s_samples", "failures", "reference_output",
    "end_to_end",
}
FIGURE_KEYS = {
    "setup_s", "run_s", "eval_clips_per_s", "peak_rss_mb", "ingest_clips_per_s",
    "train_examples_per_s", "step_ms_p50", "step_ms_tail", "step_tail_percentile",
    "step_samples", "acc", "failed_ops_ratio",
}
MACHINE_KEYS = {
    "nproc", "cpu_model", "blas_name", "blas_version", "blas_config",
    "blas_threads_env", "blas_threads_in_effect", "python", "numpy", "scipy",
    "git_commit",
}


def _run(*args, cwd=ROOT):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, time.monotonic() - start


_CACHE: dict = {}


def smoke(workload: str, trace: int, seed: int = 3):
    """(result object, report, seconds) of one smoke run, cached."""
    key = (workload, trace, seed)
    if key not in _CACHE:
        proc, seconds = _run("--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report_path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
        _CACHE[key] = (result, json.loads(report_path.read_text()), seconds)
    return _CACHE[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_result_schema_is_stable(workload, trace):
    result, report, _ = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= run.MIN_OPS
    assert result["failed"] == 0
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    expected = REPORT_KEYS | ({"per_layer"} if trace else set())
    assert set(report) == expected
    assert set(report["machine"]) == MACHINE_KEYS
    projection = {"projected_gsc_6task_dekws_h"} if workload == "desk-dekws" else set()
    assert set(report["end_to_end"]) == FIGURE_KEYS | projection
    assert report["machine"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["end_to_end"]["failed_ops_ratio"]["value"] == 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_benchmark_metric_is_emitted_with_its_unit(workload, trace):
    result, _, _ = smoke(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_configuration_finishes_in_seconds(workload):
    for trace in (0, 1):
        assert smoke(workload, trace)[2] < 60


def test_workload_why_is_recorded_in_benchmark_json():
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert "\n" not in entry["why"] and 0 < len(entry["why"]) <= 200


def test_desk_dekws_runs_three_passes_and_two_draws_per_step():
    result, _, _ = smoke("desk-dekws", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    size = workloads.DESK_SMOKE
    train_per_task = size.per_task * size.examples_per_class * 8 // 10
    steps = (size.num_classes // size.per_task) * size.epochs_per_task * (
        -(-train_per_task // size.batch_size))
    assert m["model.forward.train.calls_per_step"] == 3
    assert m["model.forward.train.rows_per_step"] == 3 * size.batch_size
    assert m["buffer.sample_batch.calls"] == 2 * (steps - 1)
    assert m["buffer.insert.calls"] == steps * size.batch_size
    assert 0 < m["buffer.insert.accept_ratio"] <= 1
    assert m["computed.buffer_bytes_per_step"] > 0


def test_desk_finetune_bypasses_the_buffer():
    result, _, _ = smoke("desk-finetune", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["model.forward.train.calls_per_step"] == 1
    assert m["buffer.sample_batch.calls"] == 0
    assert m["buffer.insert.accept_ratio"] == 0
    assert m["computed.buffer_bytes_per_step"] == 0


def test_ingest_eval_runs_no_backward_and_no_sampling():
    result, _, _ = smoke("ingest-eval", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["autodiff.adam_step.ms"] == 0
    assert m["buffer.sample_batch.calls"] == 0
    assert all(m[f"autodiff.{op}.bwd_ms"] == 0 for op in tracing.AUTODIFF_OPS)
    assert m["checkpoint.bytes"] > 0 and m["dsp.mfcc.calls"] > 0


def _op(wl, state):
    return wl.output(state, wl.op(state))


def _prepared(workload, tmp_path, seed=5):
    wl = workloads.WORKLOADS[workload]
    state = wl.prepare(seed, True, tmp_path / workload)
    wl.reset(state)
    wl.build(state)
    return wl, state


@pytest.mark.parametrize("workload", ["desk-dekws", "desk-finetune"])
def test_traced_run_matches_untraced_bit_for_bit(workload, tmp_path):
    wl, state = _prepared(workload, tmp_path)
    plain, plain_acc = _op(wl, state)
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer, full=True):
        traced, traced_acc = _op(wl, state)
    assert traced == plain and traced_acc == plain_acc
    assert any(s[tracing.NAME] == "autodiff.conv1d.bwd" for s in tracer.spans)
    # The patch points are gone again.
    again, _ = _op(wl, state)
    assert again == plain


def test_ingest_eval_check_catches_wrong_features(tmp_path, monkeypatch):
    wl, state = _prepared("ingest-eval", tmp_path)
    assert _op(wl, state)[0] == state.reference
    mfcc = workloads.dataset.mfcc

    def off_by_a_little(w, cfg):
        out = mfcc(w, cfg)
        out.values[0, 0] += 1e-9
        return out
    monkeypatch.setattr(workloads.dataset, "mfcc", off_by_a_little)
    output, _ = _op(wl, state)
    assert output["features_sha256"] != state.reference["features_sha256"]


def test_missing_patch_point_fails_and_restores(monkeypatch):
    from dekws import buffer

    original = workloads.dataset.load_gsc
    monkeypatch.delattr(buffer, "_copy_entry")
    with pytest.raises(AttributeError):
        with tracing.Instrumented(tracing.Tracer(), full=True):
            pass
    assert workloads.dataset.load_gsc is original


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 81))
    value, pct, n = run.tail(samples)
    assert n == 80 and pct == 87
    assert sum(1 for s in samples if s > value) == 10
    assert run.tail(list(range(10))) == (None, None, 10)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _run("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

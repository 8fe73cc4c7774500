"""dekws benchmark: one closed-loop workload per invocation.

    python3 benchmarks/run.py --workload desk-dekws --seed 1 --seconds 50 --trace 0

Prepares the workload and its reference output (untimed), sets it up, then
issues operations one after another, each only after the previous one
returned: at least two, and no further one that would likely end after
``--seconds``. The set-up is repeated between operations, and
``setup_s`` is the median over all set-ups of the run. Every operation's
output is checked, outside its timed span, against the workload's
reference; a ``DekwsError`` or a mismatch counts as a failed operation.
BLAS is pinned to one thread before numpy is imported.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` sets up once
with every patch point installed, alternates untraced and traced
operations, and reports the per-layer metrics; each traced operation must
reproduce the untraced ones bit for bit. The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``. The lines before
it list every measured and derived figure by name and unit. The full report
is written to ``.bench_out/`` at the root of the checkout, with the span log
of a traced run beside it.

The library is imported from ``src/`` of the checkout this file sits in;
without it the script exits with code 2.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import (
    AUTODIFF_OPS, END, NAME, PARENT, RUN, SIZE, START, Instrumented, Tracer, self_times,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Share of the operations' time spent repeating the set-up between them.
SETUP_SHARE = 0.2
MIN_OPS = 2
# Full-scale GSC v1 6task DE-KWS: ~51.8k training clips / batch 128 x 50 epochs.
GSC_6TASK_STEPS = 20_000
FEATURE_BYTES = 98 * 40 * 8  # one float64 (98, 40) MFCC matrix

# Gated end-to-end metrics: defined and non-zero on every workload. The
# other figures are reported beside them.
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")


def _parse_args(argv):
    p = argparse.ArgumentParser(description="dekws closed-loop benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the harness self-tests")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine record


def _blas_threads_in_effect():
    """Ask the loaded OpenBLAS for its thread count; None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_threads_in_effect": _blas_threads_in_effect(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def _timed_build(workload, state, tracer, full, run_id):
    """Undo the previous set-up, then time one set-up; returns seconds."""
    workload.reset(state)
    tracer.run_id = run_id
    with Instrumented(tracer, full=full):
        t0 = time.perf_counter()
        workload.build(state)
        return time.perf_counter() - t0


def measure(workload, args, tracer):
    """Prepare, set up, then run operations in a closed loop; returns a dict
    of raw timings, per-operation run ids and the failure tally.

    Untraced, the set-up is repeated after an operation whenever set-ups
    have taken less than SETUP_SHARE of the operations' time so far, so the
    median ``setup_s`` samples the whole run rather than its first seconds.
    """
    from dekws.errors import DekwsError

    state = workload.prepare(args.seed, args.smoke, WORK_DIR / args.workload)
    setup_s, setup_runs = [], []

    def build(full):
        setup_runs.append(f"setup{len(setup_runs)}")
        setup_s.append(_timed_build(workload, state, tracer, full, setup_runs[-1]))
        return setup_s[-1]

    build(bool(args.trace))
    ops, failures, acc = [], {}, None
    reference = state.reference
    op_total = build_total = last_builds = 0.0
    loop_start = time.perf_counter()
    while True:
        # Past the minimum, start no operation that would likely end after
        # --seconds, judged by the last operation and its set-ups.
        elapsed = time.perf_counter() - loop_start
        if len(ops) >= MIN_OPS and elapsed + ops[-1]["seconds"] + last_builds > args.seconds:
            break
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 1
        tracer.run_id = f"op{k}"
        error = None
        with Instrumented(tracer, full=traced):
            t0 = time.perf_counter()
            try:
                result = workload.op(state)
            except DekwsError as exc:
                error = type(exc).__name__
            seconds = time.perf_counter() - t0
        if error is None:
            output, op_acc = workload.output(state, result)
            result = None
            if reference is None:
                reference = output
            if output != reference:
                error = "OutputMismatch"
            acc = op_acc if acc is None else acc
        if error is not None:
            failures[error] = failures.get(error, 0) + 1
        ops.append({"run": f"op{k}", "seconds": seconds, "traced": traced})
        op_total += seconds
        last_builds = 0.0
        while not args.trace and build_total + last_builds < SETUP_SHARE * op_total:
            last_builds += build(False)
        build_total += last_builds
    return {
        "setup_s": setup_s,
        "setup_runs": setup_runs,
        "ops": ops,
        "failures": failures,
        "acc": acc,
        "reference": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# figures from spans


def tail(samples):
    """(value, percentile, count): the highest whole percentile with at least
    ten samples beyond its nearest-rank value; no value below 11 samples."""
    n = len(samples)
    if n < 11:
        return None, None, n
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return sorted(samples)[rank - 1], pct, n


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _rate(spans):
    """Sum of span sizes over the sum of their durations, per second."""
    busy = sum(s[END] - s[START] for s in spans)
    return sum(s[SIZE] for s in spans) / busy if spans and busy > 0 else None


def _spans_by_run(tracer):
    runs: dict = {}
    for s in tracer.spans:
        runs.setdefault(s[RUN], []).append(s)
    return runs


def figures(m, tracer) -> dict:
    """Every end-to-end figure, as name -> (value, unit), from the probe
    spans of the set-ups and the untraced operations."""
    runs = _spans_by_run(tracer)
    untraced = [op for op in m["ops"] if not op["traced"]]
    op_spans = [runs.get(op["run"], []) for op in untraced]

    def named(spans, name):
        return [s for s in spans if s[NAME] == name]

    step_ms, train_rates = [], []
    for spans in op_spans:
        steps = named(spans, "engine.train_step")
        full = max((s[SIZE] for s in steps), default=0)
        step_ms += [1e3 * (s[END] - s[START]) for s in steps if s[SIZE] == full]
        train_rates.append(_rate(steps))
    tail_ms, tail_pct, n_steps = tail(step_ms)
    # Median over single calls: one call is short, so a median of many is
    # steadier than a total over a few operations.
    eval_rates = [_rate([s]) for spans in op_spans
                  for s in named(spans, "metrics.evaluate_task_accuracy")]
    ingest_rates = [_rate(named(spans, "dataset.load_gsc")) for spans in op_spans]
    if not any(ingest_rates):  # the desk workloads featurize in set-up only
        ingest_rates = [_rate(named(runs.get(r, []), "dataset.load_synthetic"))
                        for r in m["setup_runs"]]
    attempted = len(m["ops"])
    return {
        "setup_s": (_median(m["setup_s"]), "s"),
        # A mean, not a median: the host's speed switches between levels for
        # tens of seconds, and a mean over the whole run averages them.
        "run_s": (statistics.mean([op["seconds"] for op in untraced]), "s"),
        "eval_clips_per_s": (_median(eval_rates), "1/s"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "ingest_clips_per_s": (_median(ingest_rates), "1/s"),
        "train_examples_per_s": (_median(train_rates), "1/s"),
        "step_ms_p50": (_median(step_ms), "ms"),
        "step_ms_tail": (tail_ms, "ms"),
        "step_tail_percentile": (tail_pct, "%"),
        "step_samples": (n_steps, "count"),
        "acc": (m["acc"], "ratio"),
        "failed_ops_ratio": (sum(m["failures"].values()) / attempted, "ratio"),
    }


def _train_step_structure(spans, op_runs):
    """Train-mode passes, rows and conv1d+linear FLOPs per full-batch step,
    over the steps after each operation's first."""
    step_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if s[NAME] == "engine.train_step":
            step_of[i] = i
        elif p >= 0:
            step_of[i] = step_of[p]
    steps = {}
    for run in op_runs:
        ids = [i for i, s in enumerate(spans) if s[RUN] == run and s[NAME] == "engine.train_step"]
        full = max((spans[i][SIZE] for i in ids), default=0)
        steps.update({i: [0, 0, 0] for i in ids[1:] if spans[i][SIZE] == full})
    for i, s in enumerate(spans):
        st = steps.get(step_of[i])
        if st is None:
            continue
        if s[NAME] == "model.forward.train" and spans[s[PARENT]][NAME] == "engine.train_step":
            st[0] += 1
            st[1] += s[SIZE]
        elif s[NAME] in ("autodiff.conv1d.fwd", "autodiff.conv1d.bwd",
                         "autodiff.linear.fwd", "autodiff.linear.bwd"):
            st[2] += s[SIZE]
    if not steps:
        return 0.0, 0.0, 0.0
    return tuple(sum(v[j] for v in steps.values()) / len(steps) for j in range(3))


def per_layer(m, tracer, untraced_p50_ms):
    """Per-layer metrics over one traced set-up plus one traced operation.

    Totals and counts add the set-up's share to the mean over the traced
    operations; per-call and per-clip figures divide total time by total
    count over the same spans.
    """
    op_runs = [op["run"] for op in m["ops"] if op["traced"]]
    share = {r: 1 for r in m["setup_runs"]}
    share.update({r: len(op_runs) for r in op_runs})
    spans = tracer.spans
    raw: dict = {}  # (name, divisor) -> [calls, seconds, self seconds, size]
    for s, self_s in zip(spans, self_times(spans)):
        divisor = share.get(s[RUN])
        if divisor is not None:
            a = raw.setdefault((s[NAME], divisor), [0, 0.0, 0.0, 0])
            a[0] += 1
            a[1] += s[END] - s[START]
            a[2] += self_s
            a[3] += s[SIZE]
    agg: dict = {}  # name -> set-up total plus the mean over traced operations
    for (name, divisor), a in raw.items():
        t = agg.setdefault(name, [0.0, 0.0, 0.0, 0.0])
        for j in range(4):
            t[j] += a[j] / divisor

    def calls(name):
        return agg.get(name, [0.0] * 4)[0]

    def ms(name):
        return 1e3 * agg.get(name, [0.0] * 4)[1]

    def self_ms(name):
        return 1e3 * agg.get(name, [0.0] * 4)[2]

    def per_call(name, scale):
        return scale * agg[name][1] / agg[name][0] if calls(name) else 0.0

    def per_unit(name, scale):
        return scale * agg[name][1] / agg[name][3] if name in agg and agg[name][3] else 0.0

    out = {}
    for op in AUTODIFF_OPS:
        out[f"autodiff.{op}.fwd_ms"] = (ms(f"autodiff.{op}.fwd"), "ms")
        out[f"autodiff.{op}.bwd_ms"] = (ms(f"autodiff.{op}.bwd"), "ms")
        out[f"autodiff.{op}.calls"] = (calls(f"autodiff.{op}.fwd"), "count")
    out["autodiff.backward.self_ms"] = (self_ms("autodiff.backward"), "ms")
    out["autodiff.adam_step.ms"] = (ms("autodiff.adam_step"), "ms")

    passes, rows, flops = _train_step_structure(spans, op_runs)
    out["model.forward.train.calls_per_step"] = (passes, "count")
    out["model.forward.train.rows_per_step"] = (rows, "rows")
    out["model.forward.eval.ms_per_clip"] = (per_unit("model.forward.eval", 1e3), "ms")

    offers = sum(1 for s in spans if s[NAME] == "buffer.insert" and s[RUN] in share)
    copies = {(where, run): n for (c, where, run), n in tracer.counts.items()
              if c == "buffer.copy" and run in share}
    written = sum(n for (where, _), n in copies.items() if where == "buffer.insert")
    out["buffer.insert.calls"] = (calls("buffer.insert"), "count")
    out["buffer.insert.us_per_call"] = (per_call("buffer.insert", 1e6), "us")
    out["buffer.insert.accept_ratio"] = (written / offers if offers else 0.0, "ratio")
    out["buffer.sample_batch.calls"] = (calls("buffer.sample_batch"), "count")
    out["buffer.sample_batch.ms_per_call"] = (per_call("buffer.sample_batch", 1e3), "ms")
    out["engine.train_step.self_ms"] = (self_ms("engine.train_step"), "ms")
    out["metrics.evaluate_task_accuracy.calls"] = (
        calls("metrics.evaluate_task_accuracy"), "count")
    out["metrics.evaluate_task_accuracy.ms_per_clip"] = (
        per_unit("metrics.evaluate_task_accuracy", 1e3), "ms")
    out["dataset.subset.calls"] = (calls("dataset.subset"), "count")
    out["dataset.subset.ms"] = (ms("dataset.subset"), "ms")
    out["dataset.read_wav_pcm16.us_per_call"] = (
        per_call("dataset.read_wav_pcm16", 1e6), "us")
    out["dataset.featurize.self_s"] = (self_ms("dataset.featurize") / 1e3, "s")
    out["dataset.deterministic_split.ms"] = (ms("dataset.deterministic_split"), "ms")
    out["dsp.mfcc.calls"] = (calls("dsp.mfcc"), "count")
    out["dsp.mfcc.ms_per_call"] = (per_call("dsp.mfcc", 1e3), "ms")
    out["checkpoint.save_checkpoint.ms"] = (ms("checkpoint.save_checkpoint"), "ms")
    out["checkpoint.load_checkpoint.ms"] = (ms("checkpoint.load_checkpoint"), "ms")
    out["checkpoint.bytes"] = (agg.get("checkpoint.save_checkpoint", [0.0] * 4)[3], "B")

    # Computed from shapes and counts, not timed.
    op_copies = sum(n for (_, run), n in copies.items() if run in op_runs)
    op_steps = sum(1 for s in spans if s[NAME] == "engine.train_step" and s[RUN] in op_runs)
    out["computed.train_flops_per_step"] = (flops, "flop")
    out["computed.gflop_per_s"] = (
        flops / (untraced_p50_ms * 1e6) if flops and untraced_p50_ms else 0.0, "GFLOP/s")
    out["computed.buffer_bytes_per_step"] = (
        op_copies * FEATURE_BYTES / op_steps if op_steps else 0.0, "B")

    untraced = statistics.mean([op["seconds"] for op in m["ops"] if not op["traced"]])
    traced = statistics.mean([op["seconds"] for op in m["ops"] if op["traced"]])
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "dekws" / "__init__.py").is_file():
        print(f"error: no dekws source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = Tracer()
    try:
        m = measure(workload, args, tracer)
    finally:
        shutil.rmtree(WORK_DIR / args.workload, ignore_errors=True)

    figs = figures(m, tracer)
    p50 = figs["step_ms_p50"][0]
    if args.workload == "desk-dekws" and p50 is not None:
        figs["projected_gsc_6task_dekws_h"] = (GSC_6TASK_STEPS * p50 / 3.6e6, "h")
    if args.trace:
        metrics = per_layer(m, tracer, p50)
    else:
        metrics = {name: figs[name] for name in END_TO_END}

    attempted = len(m["ops"])
    failed = sum(m["failures"].values())
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, 1 caller",
        "machine": machine_record(),
        "setup_s_samples": m["setup_s"],
        "op_s_samples": [op["seconds"] for op in m["ops"]],
        "failures": m["failures"],
        "reference_output": m["reference"],
        "end_to_end": {k: {"value": v, "unit": u, "gated": k in END_TO_END}
                       for k, (v, u) in figs.items()},
    }
    if args.trace:
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed {m['failures'] or ''}")
    print(f"machine: {json.dumps(report['machine'])}")
    for name, (value, unit) in {**figs, **metrics}.items():
        print(f"  {name} = {value} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

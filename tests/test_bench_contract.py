"""The names the benchmark harness reaches into must keep existing.

``benchmarks/tracing.py`` patches ``dekws`` functions by name and counts
``buffer._copy_entry`` calls inside ``ReservoirBuffer.insert``;
``benchmarks/workloads.py`` hashes buffers through ``ReservoirBuffer.state``.
Both modules are imported here as they are, and every workload runs once at
smoke size, so renaming a patch point, a name a workload calls, or changing
the buffer snapshot fails this suite, not only the benchmark.
"""

import importlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

import dekws.autodiff as ad  # noqa: E402
import dekws.engine as engine  # noqa: E402
from dekws.buffer import BufferEntry, ReservoirBuffer  # noqa: E402
from dekws.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from dekws.cli import main  # noqa: E402
from dekws.engine import TrainConfig, train_step  # noqa: E402
from dekws.model import TcResNet8, TcResNet8Config  # noqa: E402


def resolve(path):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, owner = path.rsplit(".", 1)
        return getattr(importlib.import_module(module), owner)


def patch_points():
    points = [(owner, attr) for owner, attr, _ in tracing.PROBE_POINTS + tracing.TRACE_POINTS]
    points.append(("dekws.model.TcResNet8", "forward"))
    points += [("dekws.autodiff", op) for op in tracing.AUTODIFF_OPS]
    points.append(tracing.COPY_POINT)
    return points


def filled_buffer(offers, capacity=5, num_classes=4, seed=3):
    buf = ReservoirBuffer(capacity, num_classes, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(offers):
        buf.insert(BufferEntry(rng.standard_normal((98, 40)), i % num_classes,
                               rng.standard_normal(num_classes)))
    return buf


def accepted_offers(offers, capacity, seed):
    """Offers Algorithm R writes into a slot, replayed on the buffer's stream."""
    rng = random.Random(seed)
    return sum(1 for seen in range(offers)
               if seen < capacity or rng.randint(0, seen) < capacity)


def test_every_patch_point_installs_and_restores():
    originals = {point: getattr(resolve(point[0]), point[1]) for point in patch_points()}
    with tracing.Instrumented(tracing.Tracer(), full=True):
        for (owner, attr), original in originals.items():
            assert getattr(resolve(owner), attr) is not original, (owner, attr)
    for (owner, attr), original in originals.items():
        assert getattr(resolve(owner), attr) is original, (owner, attr)


def test_copy_counter_sees_each_accepted_offer_inside_insert():
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer, full=True):
        filled_buffer(offers=40)
    inserts = sum(1 for s in tracer.spans if s[tracing.NAME] == "buffer.insert")
    assert inserts == 40
    assert tracer.counts == {("buffer.copy", "buffer.insert", ""): accepted_offers(40, 5, 3)}


def test_de_kws_step_draws_two_batches_and_offers_every_row():
    net = TcResNet8(TcResNet8Config(num_classes=4), seed=0)
    buf = filled_buffer(offers=8)
    cfg = TrainConfig(batch_size=4, buffer_capacity=5)
    rng = np.random.default_rng(0)
    batch = (rng.standard_normal((4, 98, 40)), np.arange(4))
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer, full=True):
        train_step(net, batch, buf, cfg, ad.init_adam(net.parameters, cfg.lr),
                   random.Random(0))
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names.count("buffer.sample_batch") == 2
    assert names.count("buffer.insert") == 4


def test_buffer_hash_survives_a_checkpoint_round_trip(tmp_path):
    buf = filled_buffer(offers=12)
    assert set(buf.state()) == {"capacity", "num_classes", "num_seen", "rng_state",
                                "entries"}
    path = tmp_path / "with_buffer.dkws"
    save_checkpoint(path, TcResNet8(TcResNet8Config(num_classes=4), seed=0), buffer=buf)
    assert workloads.buffer_hash(load_checkpoint(path).buffer) == workloads.buffer_hash(buf)


def test_de_kws_step_runs_three_train_passes_inside_the_step():
    # The harness reads calls_per_step = 3 and rows_per_step = 3 x batch from
    # these spans; a fused or threaded step would change them.
    batch = 4
    net = TcResNet8(TcResNet8Config(num_classes=4), seed=0)
    buf = filled_buffer(offers=8)
    cfg = TrainConfig(batch_size=batch, buffer_capacity=5)
    rng = np.random.default_rng(0)
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer, full=True):
        # Looked up on the module, where the harness patches it.
        engine.train_step(net, (rng.standard_normal((batch, 98, 40)), np.arange(batch)),
                          buf, cfg, ad.init_adam(net.parameters, cfg.lr), random.Random(0))
    steps = [i for i, s in enumerate(tracer.spans) if s[tracing.NAME] == "engine.train_step"]
    passes = [s for s in tracer.spans if s[tracing.NAME].startswith("model.forward")]
    assert len(steps) == 1
    assert [s[tracing.NAME] for s in passes] == ["model.forward.train"] * 3
    assert all(s[tracing.PARENT] == steps[0] for s in passes)
    assert sum(s[tracing.SIZE] for s in passes) == 3 * batch


def test_chunked_eval_forward_opens_one_span():
    # model.forward.eval.ms_per_clip divides the eval spans' time by their
    # sizes; a span per chunk inside the call's span would count rows twice.
    net = TcResNet8(TcResNet8Config(num_classes=4), seed=0)
    features = np.random.default_rng(0).standard_normal((600, 98, 40))
    tracer = tracing.Tracer()
    with tracing.Instrumented(tracer, full=True):
        net.forward(features, training=False)
    forwards = [i for i, s in enumerate(tracer.spans) if s[tracing.NAME].startswith("model.")]
    assert [tracer.spans[i][tracing.NAME] for i in forwards] == ["model.forward.eval"]
    assert tracer.spans[forwards[0]][tracing.SIZE] == 600
    convs = [s for s in tracer.spans if s[tracing.NAME] == "autodiff.conv1d.fwd"]
    assert len(convs) == 10 * 3  # ten convs, in chunks of 256, 256 and 88 rows
    assert all(s[tracing.PARENT] == forwards[0] for s in convs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_runs_at_smoke_size(name, tmp_path):
    # Goes through run_baseline, BufferEntry inserts and buffer_hash as the
    # benchmark does, so removing a name it calls fails tier-1 too.
    wl = workloads.WORKLOADS[name]
    state = wl.prepare(3, True, tmp_path / name)
    wl.reset(state)
    wl.build(state)
    first, acc = wl.output(state, wl.op(state))
    assert 0.0 <= acc <= 1.0
    if name == "ingest-eval":
        assert first == state.reference
    else:
        assert wl.output(state, wl.op(state))[0] == first


def test_report_params_digest_is_the_benchmark_param_hash(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("\n".join([
        "seed = 3", "dataset.kind = synthetic", "dataset.synthetic.num_classes = 4",
        "dataset.synthetic.examples_per_class = 10", "schedule.layout = custom",
        "schedule.first = 2", "schedule.per_task = 2", "train.batch_size = 16",
        "train.epochs_per_task = 1", "train.buffer_capacity = 24",
        "train.precision = float32",
    ]) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    model = load_checkpoint(out / "checkpoint.dkws").model
    assert report["params_sha256"] == workloads.param_hash(model)

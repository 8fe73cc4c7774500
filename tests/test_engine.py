"""Training-loop semantics: loss composition, reductions, determinism."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import dekws.autodiff as ad
import dekws.engine as engine
from dekws.buffer import BufferEntry, ReservoirBuffer
from dekws.dataset import SyntheticSpec, build_task_schedule, load_synthetic
from dekws.engine import (
    TrainConfig,
    combined_loss,
    run_baseline,
    run_schedule,
    train_step,
)
from dekws.errors import (
    InvalidConfigError,
    InvalidInputError,
    InvalidScheduleError,
    TrainingFaultError,
)
from dekws.model import TcResNet8, TcResNet8Config
from dekws.rng import numpy_stream, python_stream


@pytest.fixture(scope="module")
def tiny_data():
    """4 classes x 12 examples, featurized once for the whole module."""
    spec = SyntheticSpec(num_classes=4, examples_per_class=12,
                         noise_amplitude=0.1, seed=0)
    return load_synthetic(spec, split_seed=0)


@pytest.fixture(scope="module")
def tiny_schedule():
    return build_task_schedule(4, "custom", seed=0, first=2, per_task=2)


def tiny_cfg(**overrides):
    defaults = dict(lr=0.01, batch_size=16, epochs_per_task=1, alpha=0.5,
                    beta=1.0, buffer_capacity=24, seed=0, strategy="de_kws",
                    precision="float64")
    defaults.update(overrides)
    return TrainConfig(**defaults)


def param_digest(model):
    h = hashlib.sha256()
    for p in model.parameters:
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestCombinedLoss:
    def test_hand_arithmetic(self):
        total = combined_loss(2.0, 1.0, 0.5, alpha=0.5, beta=1.0)
        assert total.item() == pytest.approx(3.0, abs=1e-12)

    def test_zero_weights_reduce_to_current(self):
        total = combined_loss(2.0, 1.0, 0.5, alpha=0.0, beta=0.0)
        assert total.item() == pytest.approx(2.0, abs=1e-12)

    def test_absent_terms_contribute_nothing(self):
        total = combined_loss(2.0, None, None, alpha=0.5, beta=1.0)
        assert total.item() == pytest.approx(2.0, abs=1e-12)

    def test_monotone_in_alpha_and_beta(self):
        base = combined_loss(2.0, 1.0, 0.5, alpha=0.1, beta=0.1).item()
        more_alpha = combined_loss(2.0, 1.0, 0.5, alpha=0.9, beta=0.1).item()
        more_beta = combined_loss(2.0, 1.0, 0.5, alpha=0.1, beta=0.9).item()
        assert more_alpha > base and more_beta > base

    def test_non_finite_component_faults(self):
        with pytest.raises(TrainingFaultError):
            combined_loss(float("nan"), None, None, 0.5, 1.0)
        with pytest.raises(TrainingFaultError):
            combined_loss(1.0, float("inf"), None, 0.5, 1.0)

    def test_gradient_flows_through_weights(self):
        l_c = ad.Tensor(np.asarray(2.0), requires_grad=True)
        l_r = ad.Tensor(np.asarray(1.0), requires_grad=True)
        total = combined_loss(l_c, l_r, None, alpha=0.25, beta=1.0)
        total.backward()
        assert float(l_c.grad) == 1.0
        assert float(l_r.grad) == 0.25


class TestTrainStep:
    def _setup(self, data, cfg):
        model = TcResNet8(TcResNet8Config(num_classes=data.num_classes), cfg.seed)
        state = ad.init_adam(model.parameters, lr=cfg.lr)
        buf = ReservoirBuffer(cfg.buffer_capacity, data.num_classes, seed=1)
        return model, state, buf

    def test_finetune_reduction_keeps_buffer_empty(self, tiny_data):
        cfg = tiny_cfg(strategy="finetune", alpha=0.0, beta=0.0, buffer_capacity=0)
        model, state, buf = self._setup(tiny_data, cfg)
        x, y = tiny_data.train_subset([0, 1])
        breakdown = train_step(model, (x[:8], y[:8]), buf, cfg, state,
                               python_stream(0, "sampler"))
        assert breakdown.l_rehearsal is None and breakdown.l_distill is None
        assert breakdown.l_total == breakdown.l_current
        assert (len(buf), buf.num_seen) == (0, 8)

    def test_cold_start_has_no_buffer_terms_then_fills(self, tiny_data):
        cfg = tiny_cfg()
        model, state, buf = self._setup(tiny_data, cfg)
        x, y = tiny_data.train_subset([0, 1])
        first = train_step(model, (x[:10], y[:10]), buf, cfg, state,
                           python_stream(0, "sampler"))
        assert first.l_rehearsal is None and first.l_distill is None
        assert (len(buf), buf.num_seen) == (10, 10)
        second = train_step(model, (x[:10], y[:10]), buf, cfg, state,
                            python_stream(1, "sampler"))
        assert second.l_rehearsal is not None and second.l_distill is not None

    def test_stored_logits_are_pre_update_outputs(self, tiny_data):
        cfg = tiny_cfg()
        model, state, buf = self._setup(tiny_data, cfg)
        x, y = tiny_data.train_subset([0, 1])
        with ad.no_grad():
            expected = model.forward(x[:4], training=True).data.copy()
        # Re-seed stats (the probe forward above touched running stats, not
        # parameters; batch stats normalization makes logits identical).
        model2, state2, buf2 = self._setup(tiny_data, cfg)
        train_step(model2, (x[:4], y[:4]), buf2, cfg, state2,
                   python_stream(0, "sampler"))
        np.testing.assert_array_equal(buf2.logits[:len(buf2)], expected)

    def test_empty_batch_rejected(self, tiny_data):
        cfg = tiny_cfg()
        model, state, buf = self._setup(tiny_data, cfg)
        with pytest.raises(InvalidInputError):
            train_step(model, (np.zeros((0, 98, 40)), np.zeros(0, dtype=int)),
                       buf, cfg, state, python_stream(0, "sampler"))

    def test_naive_rehearsal_concatenates_once_buffer_fills(self, tiny_data):
        cfg = tiny_cfg(strategy="naive_rehearsal")
        model, state, buf = self._setup(tiny_data, cfg)
        x, y = tiny_data.train_subset([0, 1])
        train_step(model, (x[:6], y[:6]), buf, cfg, state,
                   python_stream(0, "sampler"))
        out = train_step(model, (x[6:12], y[6:12]), buf, cfg, state,
                         python_stream(1, "sampler"))
        assert out.l_rehearsal is None and out.l_distill is None
        assert buf.num_seen == 12


class TestRunSchedule:
    def test_matrix_is_lower_triangular_and_report_complete(self, tiny_data, tiny_schedule):
        cfg = tiny_cfg()
        result = run_schedule(tiny_schedule, tiny_data, cfg)
        rows = result.matrix.rows
        assert len(rows) == 2
        assert rows[0][0] is not None and rows[0][1] is None
        assert all(v is not None for v in rows[1])
        report = result.report
        assert 0.0 <= report["acc"] <= 1.0
        assert report["bwt"] is not None
        assert report["parameter_count"] == result.model.count_parameters()
        assert report["strategy"] == "de_kws"
        assert len(report["loss_curve"]) > 0

    def test_buffer_accounting_counts_every_offer(self, tiny_data, tiny_schedule):
        cfg = tiny_cfg(epochs_per_task=2)
        result = run_schedule(tiny_schedule, tiny_data, cfg)
        n_train = sum(
            len(tiny_data.train_subset(t.class_ids)[0]) for t in tiny_schedule
        )
        assert result.buffer.num_seen == 2 * n_train

    def test_determinism_two_runs_bit_identical(self, tiny_data, tiny_schedule):
        cfg = tiny_cfg()
        a = run_schedule(tiny_schedule, tiny_data, cfg)
        b = run_schedule(tiny_schedule, tiny_data, cfg)
        assert param_digest(a.model) == param_digest(b.model)
        la = [s["l_total"] for s in a.report["loss_curve"]]
        lb = [s["l_total"] for s in b.report["loss_curve"]]
        assert la == lb
        assert a.matrix.rows == b.matrix.rows

    def test_unknown_classes_rejected(self, tiny_data):
        bad = build_task_schedule(6, "custom", seed=0, first=3, per_task=3)
        with pytest.raises(InvalidScheduleError):
            run_schedule(bad, tiny_data, tiny_cfg())

    def test_single_task_schedule_has_no_bwt(self, tiny_data):
        schedule = build_task_schedule(4, "custom", seed=0, first=4, per_task=1)
        # first=4 consumes all classes; per_task is irrelevant at remaining 0.
        result = run_schedule(schedule[:1], tiny_data, tiny_cfg())
        assert result.report["bwt"] is None
        assert len(result.matrix.rows) == 1


class TestFaultLocation:
    def test_nan_feature_names_task_epoch_and_step_and_leaves_state(
            self, tiny_data, tiny_schedule, monkeypatch):
        cfg = tiny_cfg(batch_size=4)
        n0, n1 = (len(tiny_data.train_subset(t.class_ids)[0]) for t in tiny_schedule)
        shuffle = numpy_stream(cfg.seed, "shuffle")
        shuffle.permutation(n0)  # task 0's one epoch
        perm = shuffle.permutation(n1)
        # A NaN in the row task 1 visits in its last step, so the index is not 0.
        rows = np.flatnonzero((tiny_data.splits == "train")
                              & np.isin(tiny_data.labels, tiny_schedule[1].class_ids))
        data = dataclasses.replace(tiny_data, features=tiny_data.features.copy())
        data.features[rows[perm[-1]], 5, 3] = np.nan
        expected_step = (n1 - 1) // cfg.batch_size
        assert expected_step > 0

        calls = []
        real_step = engine.train_step

        def recording_step(model, batch, buf, step_cfg, adam_state, sampler_rng):
            calls.append((model, adam_state, buf, step_state_digest(model, adam_state, buf)))
            return real_step(model, batch, buf, step_cfg, adam_state, sampler_rng)

        monkeypatch.setattr(engine, "train_step", recording_step)
        with pytest.raises(TrainingFaultError) as caught:
            run_schedule(tiny_schedule, data, cfg)
        assert str(caught.value) == (
            f"task 1, epoch 0, step {expected_step}: non-finite current-task loss component"
        )
        assert len(calls) == -(-n0 // cfg.batch_size) + expected_step + 1
        model, adam_state, buf, before = calls[-1]
        assert step_state_digest(model, adam_state, buf) == before


def buffer_digest(buf):
    """SHA-256 of the buffer's filled rows."""
    h = hashlib.sha256()
    if len(buf):
        for column in (buf.features, buf.labels, buf.logits):
            h.update(column[:len(buf)].tobytes())
    return h.hexdigest()


class TestBatchNormRecalibration:
    def test_eval_logits_match_one_train_mode_pass_over_buffer(
            self, tiny_data, tiny_schedule):
        result = run_schedule(tiny_schedule, tiny_data, tiny_cfg())
        assert len(result.buffer) > 0
        features = result.buffer.features[:len(result.buffer)]
        with ad.no_grad():
            eval_logits = result.model.forward(features, training=False).data
            train_logits = result.model.forward(features, training=True).data
        np.testing.assert_array_equal(eval_logits, train_logits)

    def test_leaves_parameters_buffer_and_momentum_unchanged(
            self, tiny_data, tiny_schedule):
        result = run_schedule(tiny_schedule, tiny_data, tiny_cfg())
        model, buf = result.model, result.buffer
        before = (param_digest(model), buffer_digest(buf), buf.num_seen,
                  buf.rng.getstate(), [bn.momentum for bn in model.batchnorms])
        engine._recalibrate_batchnorm(model, buf)
        after = (param_digest(model), buffer_digest(buf), buf.num_seen,
                 buf.rng.getstate(), [bn.momentum for bn in model.batchnorms])
        assert after == before

    def test_fault_inside_pass_restores_running_stats_and_momentum(
            self, tiny_data, tiny_schedule, monkeypatch):
        buf = run_schedule(tiny_schedule, tiny_data, tiny_cfg()).buffer
        model = TcResNet8(TcResNet8Config(num_classes=tiny_data.num_classes), 0)
        stats = [(bn.running_mean.copy(), bn.running_var.copy())
                 for bn in model.batchnorms]

        def fail(x):
            raise RuntimeError("injected fault after the last batch norm")

        monkeypatch.setattr(ad, "global_avg_pool", fail)
        with pytest.raises(RuntimeError, match="injected"):
            engine._recalibrate_batchnorm(model, buf)
        for bn, (mean, var) in zip(model.batchnorms, stats):
            assert bn.momentum == 0.1
            np.testing.assert_array_equal(bn.running_mean, mean)
            np.testing.assert_array_equal(bn.running_var, var)

    def test_runs_once_per_phase_and_never_with_an_empty_buffer(
            self, tiny_data, tiny_schedule, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "_recalibrate_batchnorm",
                            lambda model, buf: calls.append(len(buf)))
        run_schedule(tiny_schedule, tiny_data, tiny_cfg())
        assert len(calls) == len(tiny_schedule) and all(n > 0 for n in calls)
        calls.clear()
        for strategy in ("finetune", "joint"):
            run_baseline(strategy, tiny_schedule, tiny_data,
                         tiny_cfg(strategy=strategy, alpha=0.0, beta=0.0,
                                  buffer_capacity=0))
        assert calls == []


class TestReductionIdentity:
    def test_de_kws_with_zero_weights_matches_finetune(self, tiny_data, tiny_schedule):
        cfg_de = tiny_cfg(alpha=0.0, beta=0.0, buffer_capacity=0, strategy="de_kws")
        de = run_schedule(tiny_schedule, tiny_data, cfg_de)
        ft = run_baseline("finetune", tiny_schedule, tiny_data,
                          tiny_cfg(strategy="finetune", alpha=0.0, beta=0.0,
                                   buffer_capacity=0))
        assert param_digest(de.model) == param_digest(ft.model)
        assert de.matrix.rows == ft.matrix.rows

    def test_ablation_switches_share_the_code_path(self, tiny_data, tiny_schedule):
        no_rehearsal = run_schedule(tiny_schedule, tiny_data, tiny_cfg(alpha=0.0))
        no_distill = run_schedule(tiny_schedule, tiny_data, tiny_cfg(beta=0.0))
        assert no_rehearsal.report["acc"] >= 0.0
        assert no_distill.report["acc"] >= 0.0


class TestReplayFreeStrategies:
    @pytest.mark.parametrize("strategy", ["finetune", "joint"])
    def test_run_schedule_matches_run_baseline(self, tiny_data, tiny_schedule, strategy):
        # tiny_cfg keeps alpha, beta and a buffer capacity; both entry points
        # must still train without replay.
        direct = run_schedule(tiny_schedule, tiny_data, tiny_cfg(strategy=strategy))
        baseline = run_baseline(strategy, tiny_schedule, tiny_data, tiny_cfg())
        assert param_digest(direct.model) == param_digest(baseline.model)
        assert direct.matrix.rows == baseline.matrix.rows
        assert len(direct.buffer) == len(baseline.buffer) == 0
        assert direct.buffer.num_seen == baseline.buffer.num_seen > 0
        assert direct.report == baseline.report
        config = direct.report["config"]
        assert (config["alpha"], config["beta"], config["buffer_capacity"]) == (0, 0, 0)
        assert all(s["l_rehearsal"] is None and s["l_distill"] is None
                   for s in direct.report["loss_curve"])
        assert len(direct.matrix.rows) == (1 if strategy == "joint" else len(tiny_schedule))


class TestRunBaseline:
    def test_joint_single_row_fully_defined_without_bwt(self, tiny_data, tiny_schedule):
        cfg = tiny_cfg(strategy="joint", alpha=0.0, beta=0.0, buffer_capacity=0)
        result = run_baseline("joint", tiny_schedule, tiny_data, cfg)
        assert len(result.matrix.rows) == 1
        assert all(v is not None for v in result.matrix.rows[0])
        assert result.report["bwt"] is None
        assert 0.0 <= result.report["acc"] <= 1.0

    def test_naive_rehearsal_fills_buffer(self, tiny_data, tiny_schedule):
        cfg = tiny_cfg(strategy="naive_rehearsal")
        result = run_baseline("naive_rehearsal", tiny_schedule, tiny_data, cfg)
        assert len(result.buffer) > 0
        assert result.report["strategy"] == "naive_rehearsal"

    def test_unknown_strategy_rejected(self, tiny_data, tiny_schedule):
        with pytest.raises(InvalidConfigError):
            run_baseline("icarl", tiny_schedule, tiny_data, tiny_cfg())

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            TrainConfig(alpha=-0.1)
        with pytest.raises(InvalidConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidConfigError):
            TrainConfig(strategy="sgd")
        with pytest.raises(InvalidConfigError):
            TrainConfig(precision="float16")

    @pytest.mark.parametrize("strategy", ["finetune", "joint"])
    def test_replay_free_rule_lives_in_train_config(self, strategy):
        cfg = TrainConfig(strategy=strategy, alpha=0.7, beta=2.0, buffer_capacity=9)
        assert (cfg.alpha, cfg.beta, cfg.buffer_capacity) == (0.0, 0.0, 0)
        assert dataclasses.replace(TrainConfig(), strategy=strategy).buffer_capacity == 0

    def test_deviation_log_reports_non_default_lr(self, tiny_data, tiny_schedule):
        result = run_schedule(tiny_schedule, tiny_data, tiny_cfg())
        assert any("lr=0.01" in note for note in result.report["deviation_log"])


# ---------------------------------------------------------------------------
# one live graph per step: equivalence with one combined graph, atomicity and
# memory


def single_graph_step(model, batch, buf, cfg, adam_state, sampler_rng):
    """Reference DE-KWS step: all terms' forward passes, one combined backward."""
    features, labels = batch
    params = model.parameters
    ad.zero_grads(params)
    if cfg.strategy == "naive_rehearsal" and len(buf) > 0:
        r_features, r_labels, _ = buf.sample_batch(len(features), sampler_rng)
        logits = model.forward(np.concatenate([features, r_features]), training=True)
        total = combined_loss(
            ad.cross_entropy_loss(logits, np.concatenate([labels, r_labels])),
            None, None, cfg.alpha, cfg.beta,
        )
        current_logits = logits.data[: len(features)]
        breakdown = engine.StepBreakdown(total.item(), total.item(), None, None)
    else:
        logits = model.forward(features, training=True)
        l_current = ad.cross_entropy_loss(logits, labels)
        l_rehearsal = l_distill = None
        if len(buf) > 0:
            r_features, r_labels, _ = buf.sample_batch(cfg.batch_size, sampler_rng)
            l_rehearsal = ad.cross_entropy_loss(
                model.forward(r_features, training=True), r_labels)
            d_features, _, d_logits = buf.sample_batch(cfg.batch_size, sampler_rng)
            l_distill = ad.mse_logit_loss(
                ad.Tensor(d_logits), model.forward(d_features, training=True))
        total = combined_loss(l_current, l_rehearsal, l_distill, cfg.alpha, cfg.beta)
        current_logits = logits.data
        breakdown = engine.StepBreakdown(
            total.item(), l_current.item(),
            None if l_rehearsal is None else l_rehearsal.item(),
            None if l_distill is None else l_distill.item(),
        )
    total.backward()
    ad.adam_step(params, [p.grad for p in params], adam_state)
    for i in range(len(features)):
        buf.insert(BufferEntry(features[i], int(labels[i]), current_logits[i]))
    return breakdown


def step_state_digest(model, adam_state, buf):
    """SHA-256 of parameters, running stats, Adam t/m/v and the buffer state."""
    h = hashlib.sha256()
    for arr in model.state_arrays().values():
        h.update(arr.tobytes())
    h.update(np.int64(adam_state.t).tobytes())
    for arr in adam_state.m + adam_state.v:
        h.update(arr.tobytes())
    h.update(repr((buf.capacity, buf.num_seen, buf.rng.getstate())).encode())
    h.update(buffer_digest(buf).encode())
    return h.hexdigest()


def step_fixture(cfg, num_classes):
    model = TcResNet8(TcResNet8Config(num_classes=num_classes), cfg.seed,
                      dtype=engine.PRECISIONS[cfg.precision])
    state = ad.init_adam(model.parameters, lr=cfg.lr)
    buf = ReservoirBuffer(cfg.buffer_capacity, num_classes, seed=1)
    return model, state, buf


class TestOneLiveGraphPerStep:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("strategy, alpha, beta", [
        ("de_kws", 0.5, 1.0), ("naive_rehearsal", 0.5, 1.0),
    ])
    def test_twenty_steps_equal_the_single_graph_step(
            self, tiny_data, precision, strategy, alpha, beta):
        cfg = tiny_cfg(batch_size=8, alpha=alpha, beta=beta, strategy=strategy,
                       precision=precision)
        x, y = tiny_data.train_subset(range(tiny_data.num_classes))
        shuffle = np.random.default_rng(0)
        batches = [shuffle.choice(len(x), size=8, replace=False) for _ in range(20)]
        runs = []
        for step in (train_step, single_graph_step):
            model, state, buf = step_fixture(cfg, tiny_data.num_classes)
            sampler = python_stream(0, "sampler")
            breakdowns, digests = [], []
            for idx in batches:
                breakdowns.append(step(model, (x[idx], y[idx]), buf, cfg, state, sampler))
                digests.append(step_state_digest(model, state, buf))
            runs.append((breakdowns, digests))
        assert len(buf) == cfg.buffer_capacity
        assert runs[0] == runs[1]

    def test_fault_leaves_every_state_unchanged(self, tiny_data):
        cfg = tiny_cfg(batch_size=8)
        model, state, buf = step_fixture(cfg, tiny_data.num_classes)
        x, y = tiny_data.train_subset(range(tiny_data.num_classes))
        sampler = python_stream(0, "sampler")
        for start in range(0, 32, 8):
            train_step(model, (x[start:start + 8], y[start:start + 8]), buf, cfg,
                       state, sampler)
        assert len(buf) == cfg.buffer_capacity
        buf.logits[:] = np.nan
        before = step_state_digest(model, state, buf), sampler.getstate()
        with pytest.raises(TrainingFaultError, match="distillation"):
            train_step(model, (x[32:40], y[32:40]), buf, cfg, state, sampler)
        assert (step_state_digest(model, state, buf), sampler.getstate()) == before

    def test_step_peak_memory_is_close_to_one_pass(self):
        batch, num_classes = 32, 4
        cfg = tiny_cfg(batch_size=batch, buffer_capacity=64, precision="float32")
        model, state, buf = step_fixture(cfg, num_classes)
        rng = np.random.default_rng(0)
        features = rng.standard_normal((batch, 98, 40)).astype(np.float32)
        labels = np.arange(batch) % num_classes
        for i in range(cfg.buffer_capacity):
            buf.insert(BufferEntry(features[i % batch], i % num_classes,
                                   rng.standard_normal(num_classes)))
        sampler = python_stream(0, "sampler")

        def traced_peak(fn):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fn()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        def one_pass():
            ad.cross_entropy_loss(model.forward(features, training=True), labels).backward()

        one_pass()
        pass_peak = traced_peak(one_pass)
        step_peak = traced_peak(
            lambda: train_step(model, (features, labels), buf, cfg, state, sampler))
        assert step_peak <= 1.5 * pass_peak, (step_peak, pass_peak)


def trained_state_digest(model, adam_state, buf, sampler):
    """step_state_digest without the running stats, plus the sampler stream."""
    h = hashlib.sha256(param_digest(model).encode())
    for arr in adam_state.m + adam_state.v:
        h.update(arr.tobytes())
    h.update(repr((adam_state.t, buf.num_seen, buf.rng.getstate(),
                   sampler.getstate())).encode())
    h.update(buffer_digest(buf).encode())
    return h.hexdigest()


class TestZeroWeightedTerms:
    """A term weighted 0 is skipped; its batch is still drawn."""

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (0.5, 0.0)],
                             ids=["no_rehearsal", "no_distill"])
    def test_twenty_steps_equal_the_step_that_runs_the_pass(
            self, tiny_data, precision, alpha, beta):
        cfg = tiny_cfg(batch_size=8, alpha=alpha, beta=beta, precision=precision)
        x, y = tiny_data.train_subset(range(tiny_data.num_classes))
        shuffle = np.random.default_rng(0)
        batches = [shuffle.choice(len(x), size=8, replace=False) for _ in range(20)]
        runs = []
        for step in (train_step, single_graph_step):
            model, state, buf = step_fixture(cfg, tiny_data.num_classes)
            sampler = python_stream(0, "sampler")
            losses, digests = [], []
            for idx in batches:
                losses.append(step(model, (x[idx], y[idx]), buf, cfg, state, sampler))
                digests.append(trained_state_digest(model, state, buf, sampler))
            # The running stats the skipped passes would have moved are
            # replaced at the end of every phase.
            engine._recalibrate_batchnorm(model, buf)
            runs.append((losses, digests, step_state_digest(model, state, buf)))
        (got, got_digests, got_end), (want, want_digests, want_end) = runs
        assert len(buf) == cfg.buffer_capacity
        assert got_digests == want_digests
        assert got_end == want_end
        skipped = "l_rehearsal" if alpha == 0 else "l_distill"
        kept = "l_distill" if alpha == 0 else "l_rehearsal"
        assert got[0] == want[0]  # empty buffer: no buffer terms
        for g, w in zip(got[1:], want[1:]):
            assert getattr(g, skipped) is None and getattr(w, skipped) is not None
            assert (g.l_total, g.l_current, getattr(g, kept)) == (
                w.l_total, w.l_current, getattr(w, kept))

    def test_loss_curve_records_the_skipped_term_as_none(self, tiny_data, tiny_schedule):
        result = run_schedule(tiny_schedule, tiny_data, tiny_cfg(alpha=0.0))
        replayed = [e for e in result.report["loss_curve"] if e["l_distill"] is not None]
        assert replayed
        assert all(e["l_rehearsal"] is None for e in result.report["loss_curve"])

"""Config parsing diagnostics and CLI subcommand behavior."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dekws.autodiff
import dekws.cli
import dekws.engine
from dekws.checkpoint import load_checkpoint
from dekws.cli import cmd_eval, main, run_digests
from dekws.config import _KNOWN_KEYS, parse_experiment_config, read_experiment_config
from dekws.dataset import GSC_V1_WORDS, SyntheticSpec, scan_gsc_layout, write_wav_pcm16
from dekws.dsp import Waveform
from dekws.engine import TrainConfig, train_step
from dekws.errors import CheckpointError, InvalidConfigError

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_RUN_CONFIG = """
# tiny smoke experiment
seed = 3
dataset.kind = synthetic
dataset.synthetic.num_classes = 4
dataset.synthetic.examples_per_class = 10
dataset.synthetic.noise_amplitude = 0.1
schedule.layout = custom
schedule.first = 2
schedule.per_task = 2
train.strategy = de_kws
train.lr = 0.01
train.batch_size = 16
train.epochs_per_task = 1
train.alpha = 0.5
train.beta = 1.0
train.buffer_capacity = 24
train.precision = float32
"""


class TestConfigParsing:
    def test_effective_dict_echoes_defaults(self):
        cfg = parse_experiment_config(TINY_RUN_CONFIG)
        echo = cfg.effective_dict()
        assert echo["dataset.train_fraction"] == 0.8
        assert echo["train"]["lr"] == 0.01
        assert echo["train"]["strategy"] == "de_kws"
        assert echo["dataset.synthetic"]["num_classes"] == 4

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(InvalidConfigError, match=r"<config>:3: unknown key"):
            parse_experiment_config("seed = 1\ndataset.kind = synthetic\nbogus = 2\n")

    def test_bad_type_reports_field_and_line(self):
        text = "dataset.kind = synthetic\ntrain.lr = fast\n"
        with pytest.raises(InvalidConfigError, match=r"<config>:2.*train.lr"):
            parse_experiment_config(text)

    def test_missing_equals_rejected(self):
        with pytest.raises(InvalidConfigError, match=r"<config>:1"):
            parse_experiment_config("just a line\n")

    def test_duplicate_key_rejected(self):
        text = "dataset.kind = synthetic\nseed = 1\nseed = 2\n"
        with pytest.raises(InvalidConfigError, match="duplicate"):
            parse_experiment_config(text)

    def test_finetune_with_nonzero_alpha_contradicts(self):
        text = (
            "dataset.kind = synthetic\n"
            "train.strategy = finetune\n"
            "train.alpha = 0.5\n"
        )
        with pytest.raises(InvalidConfigError,
                           match=r"<config>:3: train.alpha = 0.5 contradicts"):
            parse_experiment_config(text)

    def test_joint_with_a_buffer_contradicts(self):
        text = (
            "dataset.kind = synthetic\n"
            "train.buffer_capacity = 10\n"
            "train.strategy = joint\n"
        )
        with pytest.raises(InvalidConfigError,
                           match=r"<config>:2: train.buffer_capacity = 10 contradicts"):
            parse_experiment_config(text)

    def test_finetune_with_explicit_zero_weights_accepted(self):
        text = (
            "dataset.kind = synthetic\n"
            "train.strategy = finetune\n"
            "train.alpha = 0\n"
            "train.buffer_capacity = 0\n"
        )
        assert parse_experiment_config(text).train.alpha == 0.0

    @pytest.mark.parametrize("key", ["schedule.first", "schedule.per_task"])
    def test_custom_sizes_under_a_named_layout_rejected(self, key):
        text = f"dataset.kind = synthetic\nschedule.layout = 6task\n{key} = 5\n"
        with pytest.raises(InvalidConfigError, match=rf"<config>:3: {key} applies to"):
            parse_experiment_config(text)

    def test_finetune_defaults_to_replay_free(self):
        text = "dataset.kind = synthetic\ntrain.strategy = finetune\n"
        cfg = parse_experiment_config(text)
        assert cfg.train.alpha == 0.0
        assert cfg.train.beta == 0.0
        assert cfg.train.buffer_capacity == 0

    def test_naive_rehearsal_rejects_alpha(self):
        text = (
            "dataset.kind = synthetic\n"
            "train.strategy = naive_rehearsal\n"
            "train.alpha = 0.5\n"
        )
        with pytest.raises(InvalidConfigError, match="unused"):
            parse_experiment_config(text)

    def test_gsc_requires_existing_root(self):
        text = "dataset.kind = gsc\ndataset.gsc.root = /no/such/dir\n"
        with pytest.raises(InvalidConfigError, match="does not exist"):
            parse_experiment_config(text)

    def test_seed_override_wins(self):
        cfg = parse_experiment_config(TINY_RUN_CONFIG, seed_override=99)
        assert cfg.seed == 99
        assert cfg.train.seed == 99


def readme_config_block() -> dict:
    """{key: value text} of the ini block under the README's "Config format"."""
    section = README.read_text().split("## Config format", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    pairs = [line.split("#", 1)[0].partition("=") for line in block.splitlines()]
    return {key.strip(): value.strip() for key, _, value in pairs if key.strip()}


class TestReadmeConfigBlock:
    def test_lists_exactly_the_parser_keys(self):
        assert sorted(readme_config_block()) == sorted(_KNOWN_KEYS)

    def test_shows_the_dataclass_defaults(self):
        defaults = {f"train.{f.name}": f.default for f in dataclasses.fields(TrainConfig)}
        defaults.update({f"dataset.synthetic.{f.name}": f.default
                         for f in dataclasses.fields(SyntheticSpec)})
        del defaults["dataset.synthetic.seed"]  # defaults to the root seed
        shown = {key: _KNOWN_KEYS[key](text)
                 for key, text in readme_config_block().items() if key in defaults}
        assert shown == {key: defaults[key] for key in shown}
        assert len(shown) == 12


class TestCmdRun:
    def test_run_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["acc"] <= 1.0
        assert report["experiment_config"]["seed"] == 3
        assert (out / "matrix.csv").exists()
        assert (out / "checkpoint.dkws").exists()
        assert "run complete" in capsys.readouterr().out

    def test_repeat_run_identical_matrix_csv(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "matrix.csv").read_bytes() == (out2 / "matrix.csv").read_bytes()

    def test_contradictory_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(
            "dataset.kind = synthetic\n"
            "train.strategy = finetune\n"
            "train.alpha = 1.0\n"
        )
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("dataset.synthetic.amplitude_jitter", "nan"),
        ("dataset.synthetic.amplitude_jitter", "-0.2"),
        ("dataset.synthetic.noise_amplitude", "nan"),
        ("dataset.synthetic.noise_amplitude", "-0.5"),
        ("train.alpha", "nan"),
        ("train.beta", "inf"),
        ("train.lr", "nan"),
        ("train.lr", "-1"),
    ])
    def test_out_of_range_number_exits_2(self, tmp_path, capsys, key, value):
        lines = [line for line in TINY_RUN_CONFIG.splitlines()
                 if not line.startswith(f"{key} ")]
        config = tmp_path / "bad.cfg"
        config.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert key.rsplit(".", 1)[1] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_per_task_exits_2(self, tmp_path, capsys):
        config = tmp_path / "neg.cfg"
        config.write_text(TINY_RUN_CONFIG.replace(
            "schedule.per_task = 2", "schedule.per_task = -2"))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "positive first and per_task sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_schedule_that_does_not_partition_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command):
        def no_work(*args):
            raise AssertionError("work started before the schedule was checked")

        for name in ("_load_dataset", "load_checkpoint"):
            monkeypatch.setattr(dekws.cli, name, no_work)
        config = tmp_path / "five.cfg"
        config.write_text(TINY_RUN_CONFIG.replace(
            "schedule.per_task = 2", "schedule.per_task = 5"))
        extra = ["--checkpoint", str(tmp_path / "none.dkws")] if command == "eval" else []
        code = main([command, "--config", str(config), "--out", str(tmp_path / "o"), *extra])
        assert code == 2
        assert "does not partition 4 classes" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_more_classes_than_default_tone_pairs_exits_2(self, tmp_path, capsys):
        config = tmp_path / "hundred.cfg"
        config.write_text(TINY_RUN_CONFIG.replace(
            "dataset.synthetic.num_classes = 4", "dataset.synthetic.num_classes = 100"))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "num_classes must be at most 81" in err and "got 100" in err
        assert "Hz" not in err
        assert not (tmp_path / "o").exists()

    def test_training_fault_exits_3_naming_where_it_happened(
            self, tmp_path, capsys, monkeypatch):
        load = dekws.cli._load_dataset

        def nan_task_rows(cfg):
            data = load(cfg)
            task = dekws.cli._build_schedule(cfg)[1]
            data.features[data.labels == task.class_ids[0]] = np.nan
            return data

        monkeypatch.setattr(dekws.cli, "_load_dataset", nan_task_rows)
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "training fault: task 1, epoch 0, step 0: non-finite" in capsys.readouterr().err

    def test_report_digests_identify_the_end_state(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        reports = []
        for out in (tmp_path / "o1", tmp_path / "o2"):
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        digests = [{k: r[k] for k in ("params_sha256", "buffer_sha256")} for r in reports]
        assert digests[0] == digests[1]
        loaded = load_checkpoint(tmp_path / "o1" / "checkpoint.dkws")
        assert run_digests(loaded.model, loaded.buffer) == digests[0]
        loaded.model.parameters[3].data.view(np.uint8)[0] ^= 1
        flipped = run_digests(loaded.model, loaded.buffer)
        assert flipped["params_sha256"] != digests[0]["params_sha256"]
        assert flipped["buffer_sha256"] == digests[0]["buffer_sha256"]

    def test_run_files_do_not_depend_on_the_output_directory(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        outs = (tmp_path / "o1", tmp_path / "elsewhere" / "o2")
        for out in outs:
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        checkpoints = [(out / "checkpoint.dkws").read_bytes() for out in outs]
        assert checkpoints[0] == checkpoints[1]
        reports = [json.loads((out / "report.json").read_text()) for out in outs]
        for report in reports:
            del report["wall_clock_seconds"]
        assert reports[0] == reports[1]

    # numpy raises MemoryError at 10**12 rows and ValueError ("array is too
    # big") at 10**15.
    @pytest.mark.parametrize("capacity", [10**12, 10**15])
    def test_buffer_too_large_to_allocate_exits_2(self, tmp_path, capsys, capacity):
        config = tmp_path / "huge.cfg"
        config.write_text(TINY_RUN_CONFIG.replace(
            "train.buffer_capacity = 24", f"train.buffer_capacity = {capacity}"))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"capacity {capacity}" in err and "Traceback" not in err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(TINY_RUN_CONFIG.encode() + b"# \xff\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{config}: cannot read" in err and "Traceback" not in err

    def test_config_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        text = TINY_RUN_CONFIG.replace("# tiny smoke experiment\n", "").lstrip()
        assert text.startswith("seed = 3")
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_experiment_config(marked) == read_experiment_config(plain)

    def test_config_with_a_byte_order_mark_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bom-latin1.cfg"
        config.write_bytes(b"\xef\xbb\xbf" + TINY_RUN_CONFIG.encode() + b"# \xff\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{config}: cannot read" in err and "Traceback" not in err

    def test_gsc_tree_with_an_unreadable_wav_exits_2(self, tmp_path, capsys):
        root = tmp_path / "gsc"
        for word in GSC_V1_WORDS:
            (root / word).mkdir(parents=True)
            for i in range(2):
                write_wav_pcm16(root / word / f"{i}.wav", Waveform(np.zeros(16000), 16000))
        entry = root / GSC_V1_WORDS[0] / "x.wav"
        entry.mkdir()
        config = tmp_path / "gsc.cfg"
        config.write_text(f"dataset.kind = gsc\ndataset.gsc.root = {root}\n")
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{entry}: cannot read" in err and "Traceback" not in err

    def test_eval_on_saved_checkpoint(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        code = main([
            "eval", "--checkpoint", str(out / "checkpoint.dkws"),
            "--config", str(config), "--out", str(tmp_path / "eval_out"),
        ])
        assert code == 0
        assert "task_0" in capsys.readouterr().out
        assert (tmp_path / "eval_out" / "eval_matrix.csv").exists()
        # The checkpoint carries the batch-norm stats the run evaluated with,
        # so re-evaluating it reproduces the run's final matrix row exactly.
        eval_csv = (tmp_path / "eval_out" / "eval_matrix.csv").read_text()
        eval_row = eval_csv.splitlines()[-1]
        run_row = (out / "matrix.csv").read_text().splitlines()[-1]
        assert eval_row.split(",")[1:] == run_row.split(",")[1:]

    def test_eval_with_another_class_count_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        eight = tmp_path / "eight.cfg"
        eight.write_text(TINY_RUN_CONFIG.replace(
            "dataset.synthetic.num_classes = 4", "dataset.synthetic.num_classes = 8"))
        capsys.readouterr()
        with pytest.raises(CheckpointError, match="4 classes, dataset has 8"):
            cmd_eval(str(out / "checkpoint.dkws"), str(eight))
        code = main(["eval", "--checkpoint", str(out / "checkpoint.dkws"),
                     "--config", str(eight)])
        assert code == 2
        assert "4 classes, dataset has 8" in capsys.readouterr().err

    def test_eval_on_missing_checkpoint_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        missing = tmp_path / "none.dkws"
        code = main(["eval", "--checkpoint", str(missing), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{missing}: cannot read" in err
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path)  # a directory is not readable as a file

    def test_eval_on_malformed_checkpoint_exits_2(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        header = b"[]"
        ckpt = tmp_path / "list_header.dkws"
        ckpt.write_bytes(
            b"DKWS" + (1).to_bytes(4, "little") + len(header).to_bytes(8, "little") + header
        )
        code = main(["eval", "--checkpoint", str(ckpt), "--config", str(config)])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err


def copying_train_phase(model, task, data, cfg, adam_state, buf, shuffle_rng, sampler_rng,
                        loss_curve):
    """Reference for engine._train_phase: the same loop over a copy of the
    task's training rows, in the dataset's dtype."""
    train_x, train_y = data.train_subset(task.class_ids)
    for epoch in range(cfg.epochs_per_task):
        perm = shuffle_rng.permutation(len(train_x))
        for start in range(0, len(train_x), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            breakdown = train_step(model, (train_x[idx], train_y[idx]), buf, cfg,
                                   adam_state, sampler_rng)
            loss_curve.append({"task": task.task_id, "epoch": epoch,
                               **dataclasses.asdict(breakdown)})
    if len(buf) > 0:
        dekws.engine._recalibrate_batchnorm(model, buf)


class TestRunPrecision:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_run_keeps_the_bits_of_float64_copied_batches(
            self, tmp_path, monkeypatch, precision):
        # Both runs write to one output path, which the report and the
        # checkpoint echo.
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG.replace("float32", precision))
        out = tmp_path / "out"
        artifacts = []
        for reference in (False, True):
            if reference:
                load = dekws.cli._load_dataset
                monkeypatch.setattr(dekws.cli, "_load_dataset",
                                    lambda cfg, dtype=None: load(cfg, np.float64))
                monkeypatch.setattr(dekws.engine, "_train_phase", copying_train_phase)
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["wall_clock_seconds"]
            artifacts.append((report, (out / "matrix.csv").read_bytes(),
                              (out / "checkpoint.dkws").read_bytes()))
        (got, got_csv, got_ckpt), (want, want_csv, want_ckpt) = artifacts
        assert got_csv == want_csv
        assert got["params_sha256"] == want["params_sha256"]
        if precision == "float64":
            assert got == want and got_ckpt == want_ckpt
        else:
            assert got["buffer_bytes"] < want["buffer_bytes"]
            differ = {k for k in got if got[k] != want[k]}
            assert differ == {"buffer_bytes", "buffer_sha256"}

    def test_float32_checkpoint_keeps_float32_rows_and_evaluates_to_the_run(
            self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        loaded = load_checkpoint(out / "checkpoint.dkws")
        buf = loaded.buffer
        assert loaded.model.dtype == buf.features.dtype == buf.logits.dtype == np.float32
        assert len(buf) == 24
        assert run_digests(loaded.model, buf)["buffer_sha256"] == report["buffer_sha256"]
        filled = sum(getattr(buf, name)[:len(buf)].nbytes
                     for name in ("features", "labels", "logits"))
        assert filled == report["buffer_bytes"]  # the buffer is full
        eval_out = tmp_path / "eval_out"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.dkws"),
                     "--config", str(config), "--out", str(eval_out)]) == 0
        eval_row = (eval_out / "eval_matrix.csv").read_text().splitlines()[-1]
        run_row = (out / "matrix.csv").read_text().splitlines()[-1]
        assert eval_row.split(",")[1:] == run_row.split(",")[1:]

    def test_eval_loads_features_in_the_checkpoint_dtype(self, tmp_path, monkeypatch):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        load, dtypes = dekws.cli._load_dataset, []

        def recording_load(cfg, dtype=None):
            data = load(cfg, dtype)
            dtypes.append(data.features.dtype)
            return data

        monkeypatch.setattr(dekws.cli, "_load_dataset", recording_load)
        wide = tmp_path / "wide.cfg"
        wide.write_text(TINY_RUN_CONFIG.replace("float32", "float64"))
        assert main(["eval", "--checkpoint", str(out / "checkpoint.dkws"),
                     "--config", str(wide)]) == 0
        assert dtypes == [np.float32]

    def test_report_names_the_blas_runtime(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out = tmp_path / "out"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(dekws.cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "dekws.cli", "run", "--config", str(config),
                        "--out", str(out)], env=env, capture_output=True, check=True)
        report = json.loads((out / "report.json").read_text())
        assert report["blas_threads"] == 1
        assert isinstance(report["blas_core"], str) and report["blas_core"]


class TestOutputDirectory:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
    @pytest.mark.parametrize("command", ["run", "eval", "synth"])
    def test_blocked_by_a_file_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, below):
        def no_work(*args):
            raise AssertionError("work started before the output directory was checked")

        for name in ("_load_dataset", "load_checkpoint", "write_synthetic_tree"):
            monkeypatch.setattr(dekws.cli, name, no_work)
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        taken = tmp_path / "taken"
        taken.write_text("a file")
        out = taken / "sub" if below else taken
        extra = ["--checkpoint", str(tmp_path / "none.dkws")] if command == "eval" else []
        code = main([command, "--config", str(config), "--out", str(out), *extra])
        assert code == 2
        assert f"output directory {out} is not writable" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "taken"]
        assert taken.read_text() == "a file"


class TestCmdSynth:
    SYNTH_CONFIG = (
        "dataset.kind = synthetic\n"
        "dataset.synthetic.num_classes = 4\n"
        "dataset.synthetic.examples_per_class = 6\n"
        "seed = 5\n"
    )

    def test_writes_tree_and_rescans(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text(self.SYNTH_CONFIG)
        out = tmp_path / "tree"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        wavs = sorted(out.rglob("*.wav"))
        assert len(wavs) == 24
        words = [f"class_{i:02d}" for i in range(4)]
        manifest = scan_gsc_layout(out, expected_words=words)
        assert len(manifest) == 24
        assert (out / "manifest.csv").exists()

    def test_regeneration_is_bit_identical(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text(self.SYNTH_CONFIG)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["synth", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["synth", "--config", str(config), "--out", str(out2)]) == 0
        for wav1 in sorted(out1.rglob("*.wav")):
            wav2 = out2 / wav1.relative_to(out1)
            assert wav1.read_bytes() == wav2.read_bytes()

    def test_gsc_config_rejected(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text(f"dataset.kind = gsc\ndataset.gsc.root = {tmp_path}\n")
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "t")]) == 2


class TestCmdGradcheck:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "conv1d" in out and "full_model" in out
        assert "FAIL" not in out

    def test_corrupted_conv_backward_is_caught_and_named(self, capsys, monkeypatch):
        real_conv1d = dekws.autodiff.conv1d

        def corrupted(x, weight, bias, stride=1, padding=0):
            out = real_conv1d(x, weight, bias, stride, padding)
            if out._backward is not None:
                inner = out._backward
                out._backward = lambda g: inner(g * 1.01)
            return out

        monkeypatch.setattr(dekws.autodiff, "conv1d", corrupted)
        assert main(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert "gradient check failed for:" in out
        assert "conv1d" in out.split("gradient check failed for:")[1]

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_corrupted_two_tensor_backward_is_caught_and_named(self, op, capsys, monkeypatch):
        real_op = getattr(dekws.autodiff, op)

        def corrupted(a, b):
            out = real_op(a, b)
            # Only calls whose second input takes a gradient: the projection
            # each check ends in multiplies by coefficients that take none.
            if out._backward is not None and getattr(b, "requires_grad", False):
                inner = out._backward
                out._backward = lambda g: inner(g * 1.01)
            return out

        monkeypatch.setattr(dekws.autodiff, op, corrupted)
        assert main(["gradcheck"]) == 1
        failed = capsys.readouterr().out.split("gradient check failed for:")[1]
        assert op in failed.strip().split(", ")

    def test_runs_as_python_dash_m_dekws(self):
        src = str(Path(dekws.cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "dekws", "gradcheck"], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert "full_model" in done.stdout

    def test_repeat_runs_report_identical_errors(self, capsys):
        from dekws.cli import gradcheck_suite

        first = {k: v.max_rel_err for k, v in gradcheck_suite().items()}
        second = {k: v.max_rel_err for k, v in gradcheck_suite().items()}
        assert first == second


_IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import dekws
for module in pkgutil.iter_modules(dekws.__path__):
    importlib.import_module("dekws." + module.name)
"""

_LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

# A finder ahead of every other that refuses scipy and its submodules.
_BLOCK_SCIPY = """
import importlib.abc, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ModuleNotFoundError:
    print("scipy blocked")
"""

_SYNTH_RUN_EVAL = """
from dekws.cli import main
config, work = sys.argv[1], sys.argv[2]
codes = [
    main(["synth", "--config", config, "--out", work + "/tree"]),
    main(["run", "--config", config, "--out", work + "/run"]),
    main(["eval", "--checkpoint", work + "/run/checkpoint.dkws", "--config", config,
          "--out", work + "/eval"]),
]
print("exit codes", codes, "scipy modules", %s)
""" % _LOADED_SCIPY


def _child(script, *args, **env_vars):
    """Run script in a fresh interpreter that imports dekws from this tree."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **env_vars)
    src = str(Path(dekws.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)


class TestNumpyOnlyRuntime:
    """dekws needs numpy alone: scipy is only the tests' reference."""

    def test_importing_every_module_loads_no_scipy(self):
        out = _child(_IMPORT_EVERY_MODULE + f"print({_LOADED_SCIPY})")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_synth_run_eval_complete_with_scipy_blocked(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(TINY_RUN_CONFIG)
        out = _child(_BLOCK_SCIPY + _IMPORT_EVERY_MODULE + _SYNTH_RUN_EVAL,
                     str(config), str(tmp_path))
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "scipy blocked"
        assert lines[-1] == "exit codes [0, 0, 0] scipy modules []"
        assert len(list((tmp_path / "tree").rglob("*.wav"))) == 40
        run_row = (tmp_path / "run" / "matrix.csv").read_text().splitlines()[-1]
        eval_row = (tmp_path / "eval" / "eval_matrix.csv").read_text().splitlines()[-1]
        assert eval_row.split(",")[1:] == run_row.split(",")[1:]


_RUN = """
import sys
from dekws.cli import main
sys.exit(main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="MALLOC_PERTURB_ is a glibc setting")
def test_run_does_not_depend_on_the_contents_of_fresh_memory(tmp_path):
    # MALLOC_PERTURB_ makes glibc fill every block malloc hands out with one
    # byte (0 turns it off), so a read of np.empty contents before they are
    # written changes the digests or the matrix.
    config = tmp_path / "exp.cfg"
    config.write_text(TINY_RUN_CONFIG)
    runs = []
    for perturb in ("0", "165"):
        out = tmp_path / f"perturb{perturb}"
        child = _child(_RUN, str(config), str(out), MALLOC_PERTURB_=perturb)
        assert child.returncode == 0, child.stderr
        report = json.loads((out / "report.json").read_text())
        runs.append((report["params_sha256"], report["buffer_sha256"],
                     (out / "matrix.csv").read_bytes()))
    assert runs[0] == runs[1]

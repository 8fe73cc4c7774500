"""Backbone wiring: parameter budget, shapes, determinism, eval purity."""

import numpy as np
import pytest

import dekws.autodiff as ad
from dekws.errors import InvalidInputError, InvalidShapeError
from dekws.model import TcResNet8, TcResNet8Config, state_shapes

# Reconstructed budget for 30 classes: stem 1,968 + blocks (9,240 + 17,184 +
# 36,528) + head 1,470 = 66,390, within 5% of the reported 64.48K.
EXACT_PARAM_COUNT = 66390


class TestBuild:
    def test_parameter_count_in_reported_budget(self):
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=0)
        count = model.count_parameters()
        assert count == EXACT_PARAM_COUNT
        assert abs(count - 64480) <= 0.05 * 64480

    def test_same_seed_gives_bit_identical_parameters(self):
        a = TcResNet8(TcResNet8Config(), seed=42)
        b = TcResNet8(TcResNet8Config(), seed=42)
        for pa, pb in zip(a.parameters, b.parameters):
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_different_seeds_differ(self):
        a = TcResNet8(TcResNet8Config(), seed=1)
        b = TcResNet8(TcResNet8Config(), seed=2)
        assert any(
            pa.data.tobytes() != pb.data.tobytes()
            for pa, pb in zip(a.parameters, b.parameters)
        )

    def test_head_size_for_12_classes(self):
        model = TcResNet8(TcResNet8Config(num_classes=12), seed=0)
        head_params = model.head.weight.size + model.head.bias.size
        assert head_params == 48 * 12 + 12 == 588

    def test_doubling_classes_adds_exactly_head_delta(self):
        small = TcResNet8(TcResNet8Config(num_classes=30), seed=0).count_parameters()
        large = TcResNet8(TcResNet8Config(num_classes=60), seed=0).count_parameters()
        assert large - small == 48 * 30 + 30 == 1470

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            TcResNet8Config(channels=(16, 24, 32))
        with pytest.raises(InvalidInputError):
            TcResNet8Config(num_classes=1)

    @pytest.mark.parametrize("field", [
        dict(input_channels=0), dict(channels=(16, 0, 32, 48)),
        dict(kernel_first=0), dict(kernel_block=0),
    ])
    def test_zero_width_rejected(self, field):
        with pytest.raises(InvalidInputError, match=">= 1"):
            TcResNet8Config(**field)


class TestForward:
    def test_output_shape_for_default_batch(self):
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=0, dtype=np.float32)
        rng = np.random.default_rng(0)
        out = model.forward(rng.standard_normal((128, 98, 40)), training=False)
        assert out.shape == (128, 30)

    def test_identical_inputs_give_identical_rows_in_eval(self):
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=0)
        rng = np.random.default_rng(1)
        one = rng.standard_normal((1, 98, 40))
        out = model.forward(np.concatenate([one, one]), training=False)
        assert out.data[0].tobytes() == out.data[1].tobytes()

    def test_eval_logits_do_not_depend_on_batch_composition(self):
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=3)
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((5, 98, 40))
        alone = model.forward(xs[:1], training=False).data[0]
        in_batch = model.forward(xs, training=False).data[0]
        assert alone.tobytes() == in_batch.tobytes()

    def test_temporal_length_traversal(self):
        # 98 -> 49 -> 25 -> 13 through the three stride-2 blocks.
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=0)
        x = ad.Tensor(np.zeros((1, 40, 98)))
        h = ad.relu(model.stem_bn(model.stem_conv(x), False))
        assert h.shape[2] == 98
        lengths = []
        for block in model.blocks:
            h = block(h, False)
            lengths.append(h.shape[2])
        assert lengths == [49, 25, 13]

    def test_shortcut_and_main_paths_agree_structurally(self):
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=0)
        x = ad.Tensor(np.zeros((2, 40, 98)))
        h = ad.relu(model.stem_bn(model.stem_conv(x), False))
        for block in model.blocks:
            main = block.bn2(block.conv2(
                ad.relu(block.bn1(block.conv1(h, ), False))), False)
            skip = block.bn_skip(block.conv_skip(h), False)
            assert main.shape == skip.shape
            h = block(h, False)

    def test_wrong_feature_width_rejected(self):
        model = TcResNet8(TcResNet8Config(num_classes=30), seed=0)
        with pytest.raises(InvalidShapeError):
            model.forward(np.zeros((2, 98, 39)), training=False)

    def test_eval_forward_is_pure(self):
        model = TcResNet8(TcResNet8Config(num_classes=12), seed=5)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 98, 40))
        before_means = [bn.running_mean.copy() for bn in model.batchnorms]
        first = model.forward(x, training=False).data
        second = model.forward(x, training=False).data
        assert first.tobytes() == second.tobytes()
        for bn, mean in zip(model.batchnorms, before_means):
            np.testing.assert_array_equal(bn.running_mean, mean)

    def test_train_mode_updates_running_stats(self):
        model = TcResNet8(TcResNet8Config(num_classes=12), seed=5)
        rng = np.random.default_rng(4)
        before = model.stem_bn.running_mean.copy()
        model.forward(rng.standard_normal((4, 98, 40)), training=True)
        assert not np.array_equal(model.stem_bn.running_mean, before)

    def test_float32_model_emits_float32(self):
        model = TcResNet8(TcResNet8Config(num_classes=12), seed=0, dtype=np.float32)
        out = model.forward(np.zeros((2, 98, 40)), training=False)
        assert out.data.dtype == np.float32


class TestStateArrays:
    def test_round_trip_is_bit_exact(self):
        model = TcResNet8(TcResNet8Config(num_classes=12), seed=9)
        rng = np.random.default_rng(5)
        model.forward(rng.standard_normal((4, 98, 40)), training=True)
        state = {k: v.copy() for k, v in model.state_arrays().items()}
        other = TcResNet8(TcResNet8Config(num_classes=12), seed=17)
        other.load_state_arrays(state)
        for k, v in other.state_arrays().items():
            assert v.tobytes() == state[k].tobytes(), k

    def test_state_order_is_pinned(self):
        model = TcResNet8(TcResNet8Config(num_classes=4), seed=0)
        layers = ["stem", "stem_bn"] + [
            f"block{i}.{layer}" for i in (1, 2, 3)
            for layer in ("conv1", "bn1", "conv2", "bn2", "skip", "bn_skip")
        ] + ["head"]
        bns = [layer for layer in layers if "bn" in layer]
        params = [f"{layer}.{name}" for layer in layers
                  for name in (("gamma", "beta") if layer in bns else ("weight", "bias"))]
        stats = [f"{bn}.{stat}" for bn in bns for stat in ("running_mean", "running_var")]
        assert (len(params), len(stats)) == (42, 20)
        assert list(model.state_arrays()) == params + stats
        assert [p.name for p in model.parameters] == params
        assert [bn.name for bn in model.batchnorms] == bns

    @pytest.mark.parametrize("cfg", [
        TcResNet8Config(),
        TcResNet8Config(input_channels=7, channels=(3, 5, 6, 9), num_classes=4,
                        kernel_first=5, kernel_block=3),
    ])
    def test_state_shapes_are_the_built_model_shapes(self, cfg):
        built = [(name, arr.shape) for name, arr in TcResNet8(cfg, seed=0).state_arrays().items()]
        assert list(state_shapes(cfg).items()) == built

    def test_wrong_shape_rejected_before_anything_is_written(self):
        model = TcResNet8(TcResNet8Config(num_classes=12), seed=0)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        state = {k: v + 1.0 for k, v in before.items()}
        state["stem_bn.running_mean"] = np.zeros(17)
        with pytest.raises(InvalidShapeError, match=r"stem_bn\.running_mean"):
            model.load_state_arrays(state)
        for k, v in model.state_arrays().items():
            assert v.tobytes() == before[k].tobytes(), k

    def test_mismatched_keys_rejected(self):
        model = TcResNet8(TcResNet8Config(num_classes=12), seed=0)
        state = model.state_arrays()
        state.pop("head.bias")
        with pytest.raises(InvalidInputError):
            model.load_state_arrays(state)

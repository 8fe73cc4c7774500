"""TC-ResNet-8 backbone: 1-D temporal convolutions with MFCC bins as channels.

Wiring: a k=3 stem conv (40 -> 16 channels) with batch norm and ReLU, then
three residual blocks with out-channels (24, 32, 48). Each block runs
conv(k=9, s=2) + BN + ReLU + conv(k=9, s=1) + BN on the main path and
conv(k=1, s=2) + BN on the shortcut, adds the two, and applies ReLU. Global
average pooling over time feeds a linear head that emits pre-softmax logits.
Padding is 4 for the k=9 convs and 1 for the stem so temporal length is
controlled by stride alone (98 -> 49 -> 25 -> 13 on default features).

With 30 output classes the model has exactly 66,390 trainable parameters
(conv weights and biases, batch-norm scales and shifts, head weight and
bias; running stats excluded).

TcResNet8.layers lists every layer once, in declaration order, and the
model's parameters and batch norms are read from it. That order is the
order of the Adam slots, of state_arrays (parameters, then each batch
norm's running mean and variance) and so of the checkpoint and the digests.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import InvalidInputError, InvalidShapeError
from .rng import numpy_stream


@dataclass(frozen=True)
class TcResNet8Config:
    input_channels: int = 40
    channels: tuple = (16, 24, 32, 48)
    num_classes: int = 30
    kernel_first: int = 3
    kernel_block: int = 9

    def __post_init__(self):
        if len(self.channels) != 4:
            raise InvalidInputError(
                f"channels must have exactly 4 entries, got {self.channels}"
            )
        if min(self.input_channels, *self.channels, self.kernel_first, self.kernel_block) < 1:
            raise InvalidInputError(
                f"channel counts and kernel sizes must be >= 1, got {self}"
            )
        if self.num_classes < 2:
            raise InvalidInputError(
                f"num_classes must be >= 2, got {self.num_classes}"
            )


def state_shapes(cfg: TcResNet8Config) -> dict:
    """The shape of each state_arrays entry of a TcResNet8 of cfg, in the
    same order, worked out without building the model."""
    c, k = cfg.channels, cfg.kernel_block
    layers = [("stem", (c[0], cfg.input_channels, cfg.kernel_first)), ("stem_bn", c[0])]
    for i in range(3):
        b = f"block{i + 1}"
        layers += [(f"{b}.conv1", (c[i + 1], c[i], k)), (f"{b}.bn1", c[i + 1]),
                   (f"{b}.conv2", (c[i + 1], c[i + 1], k)), (f"{b}.bn2", c[i + 1]),
                   (f"{b}.skip", (c[i + 1], c[i], 1)), (f"{b}.bn_skip", c[i + 1])]
    layers.append(("head", (cfg.num_classes, c[3])))
    params, stats = {}, {}
    for name, shape in layers:
        if isinstance(shape, tuple):  # a conv or linear weight
            params |= {f"{name}.weight": shape, f"{name}.bias": shape[:1]}
        else:  # a batch norm over shape channels
            params |= {f"{name}.gamma": (shape,), f"{name}.beta": (shape,)}
            stats |= {f"{name}.running_mean": (shape,), f"{name}.running_var": (shape,)}
    return params | stats


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Conv1d:
    def __init__(self, rng, name, c_in, c_out, kernel, stride, padding, dtype):
        self.stride = stride
        self.padding = padding
        self.weight = ad.Tensor(
            _kaiming_uniform(rng, (c_out, c_in, kernel), c_in * kernel, dtype),
            requires_grad=True,
            name=f"{name}.weight",
        )
        self.bias = ad.Tensor(
            np.zeros(c_out, dtype=dtype), requires_grad=True, name=f"{name}.bias"
        )
        self.parameters = [self.weight, self.bias]

    def __call__(self, x):
        return ad.conv1d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm1d:
    def __init__(self, name, channels, dtype):
        self.name = name
        self.momentum = 0.1  # engine._recalibrate_batchnorm sets 1 for one pass
        self.gamma = ad.Tensor(
            np.ones(channels, dtype=dtype), requires_grad=True, name=f"{name}.gamma"
        )
        self.beta = ad.Tensor(
            np.zeros(channels, dtype=dtype), requires_grad=True, name=f"{name}.beta"
        )
        self.parameters = [self.gamma, self.beta]
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def __call__(self, x, training):
        return ad.batchnorm1d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training, self.momentum,
        )


class Linear:
    def __init__(self, rng, name, d_in, d_out, dtype):
        self.weight = ad.Tensor(
            _kaiming_uniform(rng, (d_out, d_in), d_in, dtype),
            requires_grad=True,
            name=f"{name}.weight",
        )
        self.bias = ad.Tensor(
            np.zeros(d_out, dtype=dtype), requires_grad=True, name=f"{name}.bias"
        )
        self.parameters = [self.weight, self.bias]

    def __call__(self, x):
        return ad.linear(x, self.weight, self.bias)


class _ResidualBlock:
    def __init__(self, rng, name, c_in, c_out, kernel, dtype):
        pad = kernel // 2
        self.conv1 = Conv1d(rng, f"{name}.conv1", c_in, c_out, kernel, 2, pad, dtype)
        self.bn1 = BatchNorm1d(f"{name}.bn1", c_out, dtype)
        self.conv2 = Conv1d(rng, f"{name}.conv2", c_out, c_out, kernel, 1, pad, dtype)
        self.bn2 = BatchNorm1d(f"{name}.bn2", c_out, dtype)
        self.conv_skip = Conv1d(rng, f"{name}.skip", c_in, c_out, 1, 2, 0, dtype)
        self.bn_skip = BatchNorm1d(f"{name}.bn_skip", c_out, dtype)
        self.layers = [self.conv1, self.bn1, self.conv2, self.bn2, self.conv_skip, self.bn_skip]

    def __call__(self, x, training):
        main = ad.relu(self.bn1(self.conv1(x), training))
        main = self.bn2(self.conv2(main), training)
        skip = self.bn_skip(self.conv_skip(x), training)
        return ad.relu(ad.add(main, skip))


class TcResNet8:
    """Backbone model, initialized deterministically under seed; its
    parameters and activations are float32 or float64."""

    def __init__(self, cfg: TcResNet8Config, seed: int, dtype=np.float64):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise InvalidInputError(f"model dtype must be float32 or float64, got {self.dtype}")
        rng = numpy_stream(seed, "init")
        c = cfg.channels
        self.stem_conv = Conv1d(
            rng, "stem", cfg.input_channels, c[0],
            cfg.kernel_first, 1, cfg.kernel_first // 2, self.dtype,
        )
        self.stem_bn = BatchNorm1d("stem_bn", c[0], self.dtype)
        self.blocks = [
            _ResidualBlock(rng, f"block{i + 1}", c[i], c[i + 1], cfg.kernel_block, self.dtype)
            for i in range(3)
        ]
        self.head = Linear(rng, "head", c[3], cfg.num_classes, self.dtype)
        self.layers = [self.stem_conv, self.stem_bn,
                       *(layer for block in self.blocks for layer in block.layers), self.head]
        self.parameters = [p for layer in self.layers for p in layer.parameters]
        self.batchnorms = [layer for layer in self.layers if isinstance(layer, BatchNorm1d)]

    def forward(self, features: np.ndarray, training: bool = False) -> ad.Tensor:
        """Features (N, n_frames, n_coeffs) to pre-softmax logits (N, classes).

        Coefficients map to channels, so convolutions run along time. Train
        mode uses batch statistics and updates the running stats; eval mode
        is a pure function of (parameters, running stats, input). After each
        training phase with a non-empty buffer the engine sets the running
        stats to those of one train-mode pass over the buffer, so eval mode
        on the buffer's features reproduces that pass exactly. DER's
        reference code keeps the framework's momentum average instead.
        """
        features = np.asarray(features)
        if features.ndim != 3 or features.shape[2] != self.cfg.input_channels:
            raise InvalidShapeError(
                f"expected features (N, frames, {self.cfg.input_channels}), "
                f"got {features.shape}"
            )
        x = ad.Tensor(features.transpose(0, 2, 1).astype(self.dtype, copy=False))
        h = ad.relu(self.stem_bn(self.stem_conv(x), training))
        for block in self.blocks:
            h = block(h, training)
        pooled = ad.global_avg_pool(h)
        return self.head(pooled)

    def count_parameters(self) -> int:
        """Trainable elements; batch-norm running stats do not count."""
        return sum(p.size for p in self.parameters)

    def state_arrays(self) -> dict:
        """Named arrays in declaration order: parameters plus running stats."""
        arrays = {p.name: p.data for p in self.parameters}
        for bn in self.batchnorms:
            arrays[f"{bn.name}.running_mean"] = bn.running_mean
            arrays[f"{bn.name}.running_var"] = bn.running_var
        return arrays

    def load_state_arrays(self, arrays: dict) -> None:
        """Copy arrays into the model's own; every key and shape is checked
        first, so a mismatch changes nothing."""
        own = self.state_arrays()
        if set(own) != set(arrays):
            missing = sorted(set(own) ^ set(arrays))
            raise InvalidInputError(f"state mismatch on keys: {missing}")
        for name, dst in own.items():
            shape = np.shape(arrays[name])
            if shape != dst.shape:
                raise InvalidShapeError(f"{name}: expected shape {dst.shape}, got {shape}")
        for name, dst in own.items():
            dst[...] = arrays[name]

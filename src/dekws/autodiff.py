"""Minimal reverse-mode autodiff: exactly the ops the backbone and losses need.

A Tensor wraps a numpy array. A leaf (a parameter or an input) is its own
graph node. An op result built while gradients are enabled keeps its values
and points to a small graph node: the gradient arriving at it, its dtype,
its parents (nodes, or leaf tensors) and the backward closure. A graph thus
holds nodes plus the arrays its closures saved (padded conv inputs,
normalized activations, masks, a linear input), never a result's values:
those live exactly as long as the caller holds the result tensor, so a
conv output read only by a batch norm, or a batch-norm output read only
by a ReLU, is freed as soon as the next op returns. Calling .backward() on
a scalar walks the graph in reverse topological order and accumulates .grad
on every leaf tensor with requires_grad set. The walk releases the graph as
it goes: once an interior node's closure has run, the node drops its .grad,
its parents and the closure, so the arrays the closure saved are freed
before the walk reaches the layers below. Only leaves keep their .grad.
Walking a released graph again raises InvalidInputError.

Scope is deliberately narrow: 1-D convolution, batch norm, ReLU, global
average pooling, an affine head, the two losses, and Adam. No broadcasting
beyond what those ops need, no GPU, no fusion. Activations may be float32
or float64; losses and Adam moments always accumulate in float64.

Memory order: every op keeps the logical (N, C, L) shape, but conv1d and
batchnorm1d store activations channel-major, as an (N, C, L) transposed view
of a C-contiguous (C, N, L) array, and elementwise ops preserve that order;
their gradients flow back channel-major too. Each channel is then one
contiguous row of N*L values, so batch-norm statistics reduce contiguous
rows and conv1d's weight and input-column gradients are single GEMMs over
all N*L output positions. Inputs in any memory order are accepted: conv1d's
padding/im2col copy and batchnorm1d's row view absorb the layout, and their
outputs do not depend on it. The conv1d forward product and linear's einsum
still run one reduction per example, so eval outputs do not depend on
batch composition.

Conv1d columns: no whole-batch im2col array exists in the forward pass,
with or without gradients. The forward gathers each example's
(C_in*K, L_out) columns contiguously, CONV_CHUNK examples at a time, and
runs one GEMM per example into the channel-major output. The graph saves
the padded (C_in, N, L_pad) input, a view of x when padding is 0, and the
backward rebuilds the (C_in*K, N*L_out) columns once for its GEMMs and
drops them before col2im. Every per-example GEMM multiplies the same
matrices as a GEMM over strided whole-batch columns did, only with a
smaller leading dimension, so outputs and gradients keep their bits.

Training kernels: col2im runs position-major for every kernel width: the
column gradient is taken over (l, n)-ordered columns, each tap adds into a
zeroed (C_in, L_pad, N) accumulator (whole (C_in, L_out*N) blocks at
stride 1, N-long rows at stride 2), and the result is copied back
channel-major once. The order contract: each padded position adds its K
terms in ascending tap order, starting from +0.0, as a (C_in, N, L_pad)
scatter would, so the bits do not depend on the accumulator's layout. For
kernels wider than 1 the weight gradient is (cols2 @ g2.T).T, a GEMM with
C_in*K rows instead of C_out. k = 1 convs (the residual shortcuts) keep
g2 @ cols2.T: at 2 BLAS threads the tall product differs in the last bits
for block 1's shortcut at N = 144 and 200. Train-mode batch norm takes its
float64 mean and variance from one float64 copy of the rows, subtracting
and squaring in place.

Allocation: a training step allocates and frees tens of megabytes of
activations, columns and gradients in arrays of up to a few megabytes
each. glibc's malloc serves a block from fresh mmap pages, one page fault
per page, when it exceeds an adaptive threshold, and returns the top of
the heap to the system when more than twice that threshold is free there;
the threshold starts at 128 KiB and rises to the size of each mmapped
block freed. Which arrays fault then depends on the order of earlier
frees, so identical runs took several times more faults, and more time,
than others. Importing this module pins the mmap threshold at 16 MiB and
the trim threshold at 64 MiB, in every run: a step's arrays come from the
heap, and the heap keeps a step's worth of freed pages for the next step.
Blocks above 16 MiB, such as a whole dataset's features, still get their
own mapping and give it back when freed, so they do not fragment the
heap. A MALLOC_MMAP_THRESHOLD_ or MALLOC_TRIM_THRESHOLD_ set in the
environment is left in force.
"""

import ctypes
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidShapeError, TrainingFaultError

_FLOAT_DTYPES = (np.float32, np.float64)

# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 16 * 1024 * 1024
_TRIM_THRESHOLD = 64 * 1024 * 1024
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds (see the module docstring).

    Returns whether they were set: False off Linux, without glibc's
    mallopt, or when the environment already sets either threshold.
    """
    if not sys.platform.startswith("linux") or any(v in os.environ for v in _MALLOC_ENV):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


MALLOC_PINNED = _pin_malloc_thresholds()

_grad_enabled = True


def grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable graph construction (e.g. during evaluation)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """n-dimensional float array, optionally part of a gradient graph.

    A Tensor made by the caller is a leaf and its own graph node. An op
    result in a graph is a _Result, whose grad, requires_grad, _parents and
    _backward read and write through to its _Node; the graph never refers
    to the result's values.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str = ""):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise InvalidShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def backward(self):
        """Backpropagate from a scalar, accumulating into leaf .grad fields.

        Releases the graph while walking it (see the module docstring).
        """
        if self.data.size != 1:
            raise InvalidShapeError(
                f"backward() needs a scalar root, got shape {self.shape}"
            )
        order = _topological_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._parents = ()
                node._backward = _released


class _Node:
    """The graph half of an op result: what the backward walk reads and
    writes. It holds none of the result's values."""

    __slots__ = ("grad", "requires_grad", "dtype", "_parents", "_backward")

    def __init__(self, dtype, parents: tuple, backward_fn):
        self.grad: np.ndarray | None = None
        self.requires_grad = True
        self.dtype = dtype
        self._parents = parents
        self._backward = backward_fn


def _through_node(field: str) -> property:
    return property(lambda t: getattr(t.node, field),
                    lambda t, value: setattr(t.node, field, value))


class _Result(Tensor):
    """An op result in a graph: its values here, its graph fields in node."""

    __slots__ = ("node",)
    grad = _through_node("grad")
    requires_grad = _through_node("requires_grad")
    _parents = _through_node("_parents")
    _backward = _through_node("_backward")

    def __init__(self, data: np.ndarray, node: _Node):
        self.data = data
        self.name = ""
        self.node = node


def _released(g):
    raise InvalidInputError(
        "backward() reached a graph that an earlier backward() already released"
    )


def _topological_order(root: Tensor) -> list:
    order: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, 0)]
    while stack:
        node, idx = stack.pop()
        if idx == 0:
            if id(node) in seen:
                continue
            seen.add(id(node))
        if idx < len(node._parents):
            stack.append((node, idx + 1))
            stack.append((node._parents[idx], 0))
        else:
            order.append(node)
    return order


def _ref(t: Tensor):
    """What a graph keeps of an op input: its node if it is an op result in
    a graph, the tensor itself if it is a leaf taking a gradient, else None."""
    if not t.requires_grad:
        return None
    return t.node if isinstance(t, _Result) else t


def _accumulate(ref, g: np.ndarray) -> None:
    """Add g into the .grad of a node or leaf from _ref; None takes none."""
    if ref is None:
        return
    if g.dtype != ref.dtype:
        g = g.astype(ref.dtype)
    ref.grad = g if ref.grad is None else ref.grad + g


def _node(data: np.ndarray, refs: tuple, backward_fn) -> Tensor:
    """An op result; while gradients are enabled and some input takes a
    gradient, a _Result whose node records backward_fn and the inputs' refs
    (those not None), so a graph does not hold an input it sends no
    gradient to."""
    parents = tuple(r for r in refs if r is not None)
    if grad_enabled() and parents:
        data = np.asarray(data)  # a 0-d op can return a numpy scalar
        return _Result(data, _Node(data.dtype, parents, backward_fn))
    return Tensor(data)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for same-shape tensors."""
    if a.shape != b.shape:
        raise InvalidShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    a_ref, b_ref = _ref(a), _ref(b)

    def backward(g):
        _accumulate(a_ref, g)
        _accumulate(b_ref, g)

    return _node(a.data + b.data, (a_ref, b_ref), backward)


def mul(a: Tensor, b) -> Tensor:
    """a * b for same-shape tensors, or tensor * python scalar."""
    if not isinstance(b, Tensor):
        const = float(b)
        out_data = a.data * np.asarray(const, dtype=a.data.dtype)
        a_ref = _ref(a)

        def backward_const(g):
            _accumulate(a_ref, g * np.asarray(const, dtype=g.dtype))

        return _node(out_data, (a_ref,), backward_const)

    if a.shape != b.shape:
        raise InvalidShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data
    a_ref, b_ref = _ref(a), _ref(b)

    def backward(g):
        _accumulate(a_ref, g * b_data)
        _accumulate(b_ref, g * a_data)

    return _node(a_data * b_data, (a_ref, b_ref), backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a float64 scalar."""
    out_data = np.asarray(x.data.sum(dtype=np.float64))
    shape, dtype, x_ref = x.shape, x.dtype, _ref(x)

    def backward(g):
        _accumulate(x_ref, np.full(shape, float(g), dtype=dtype))

    return _node(out_data, (x_ref,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0. NaN propagates."""
    mask = x.data > 0
    x_ref = _ref(x)

    def backward(g):
        _accumulate(x_ref, g * mask)

    return _node(np.maximum(x.data, x.data.dtype.type(0)), (x_ref,), backward)


# ---------------------------------------------------------------------------
# network layers


# Examples per conv1d forward column chunk. The stem's float64 columns take
# 94 KB per example, so a chunk of 32 holds 3 MB: far below one layer's
# activations, and enough columns per chunk that the loop costs nothing.
CONV_CHUNK = 32


def _windows(xp: np.ndarray, k: int, l_out: int, stride: int) -> np.ndarray:
    """(N, C_in, K, L_out) view of a channel-major (C_in, N, L_pad) padded
    input: element [i, c, j, l] is xp[c, i, j + stride * l]."""
    s_c, s_n, s_l = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(xp.shape[1], xp.shape[0], k, l_out),
        strides=(s_n, s_c, s_l, stride * s_l), writeable=False,
    )


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation along the last axis.

    x is (N, C_in, L); weight is (C_out, C_in, K); bias is (C_out,). Output
    length is floor((L + 2*padding - K)/stride) + 1.
    """
    if stride < 1:
        raise InvalidInputError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise InvalidInputError(f"padding must be >= 0, got {padding}")
    xd, wd, bd = x.data, weight.data, bias.data
    if xd.ndim != 3 or wd.ndim != 3:
        raise InvalidShapeError(
            f"conv1d expects (N, C_in, L) and (C_out, C_in, K), got "
            f"{x.shape} and {weight.shape}"
        )
    n, c_in, length = xd.shape
    c_out, wc_in, k = wd.shape
    if wc_in != c_in:
        raise InvalidShapeError(
            f"conv1d channel mismatch: input has {c_in}, weight expects {wc_in}"
        )
    if bd.shape != (c_out,):
        raise InvalidShapeError(f"bias must be ({c_out},), got {bias.shape}")
    if k > length + 2 * padding:
        raise InvalidShapeError(
            f"kernel {k} exceeds padded length {length + 2 * padding}"
        )
    l_pad = length + 2 * padding
    l_out = (l_pad - k) // stride + 1

    xc = xd.transpose(1, 0, 2)
    if padding:
        xp = np.zeros((c_in, n, l_pad), dtype=xd.dtype)
        xp[:, :, padding : padding + length] = xc
    else:
        xp = xc
    w2 = wd.reshape(c_out, c_in * k)
    out_c = np.empty((c_out, n, l_out), dtype=np.result_type(wd, xd))
    # One GEMM per example keeps each output's reduction order independent
    # of the batch it sits in; the columns exist one chunk at a time.
    chunk = min(n, CONV_CHUNK)
    chunk_cols = np.empty((chunk, c_in, k, l_out), dtype=xd.dtype)
    for start in range(0, n, chunk):
        m = min(chunk, n - start)
        np.copyto(chunk_cols[:m], _windows(xp[:, start : start + m], k, l_out, stride))
        np.matmul(w2, chunk_cols[:m].reshape(m, c_in * k, l_out),
                  out=out_c[:, start : start + m].transpose(1, 0, 2))
    out_c += bd[:, None, None]
    x_ref, w_ref, b_ref = _ref(x), _ref(weight), _ref(bias)

    def backward(g):
        g2 = g.transpose(1, 0, 2).reshape(c_out, n * l_out)
        cols2 = np.ascontiguousarray(
            _windows(xp, k, l_out, stride).transpose(1, 2, 0, 3)
        ).reshape(c_in * k, n * l_out)
        _accumulate(b_ref, g2.sum(axis=1))
        if k == 1:  # the shortcut convs; see "Training kernels" above
            _accumulate(w_ref, (g2 @ cols2.T).reshape(wd.shape))
        else:
            _accumulate(w_ref, (cols2 @ g2.T).T.reshape(wd.shape))
        del cols2  # col2im does not read the columns
        if x_ref is not None:
            # Position-major col2im over (l, n)-ordered columns.
            g_ln = g.transpose(1, 2, 0).reshape(c_out, l_out * n)
            grad_cols = (w2.T @ g_ln).reshape(c_in, k, l_out, n)
            grad_xp = np.zeros((c_in, l_pad, n), dtype=grad_cols.dtype)
            for j in range(k):
                grad_xp[:, j : j + stride * l_out : stride] += grad_cols[:, j]
            grad_x = np.ascontiguousarray(
                grad_xp[:, padding : padding + length].transpose(0, 2, 1)
            )
            _accumulate(x_ref, grad_x.transpose(1, 0, 2))

    return _node(out_c.transpose(1, 0, 2), (x_ref, w_ref, b_ref), backward)


def batchnorm1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Per-channel batch normalization over the batch and time axes.

    x is (N, C, L). Train mode normalizes by the batch mean and biased batch
    variance and folds them into the float64 running stats as
    running <- (1 - momentum) * running + momentum * batch; momentum 1
    replaces them with this batch's stats exactly. Eval mode normalizes by
    the running stats. The running arrays are mutated in place and are not
    part of the gradient graph. The training loop overwrites them after each
    phase with the stats of one momentum-1 pass over the replay buffer
    (dekws.engine), so the decayed average only reaches evaluation while
    the buffer is empty.
    """
    xd = x.data
    if xd.ndim != 3:
        raise InvalidShapeError(f"batchnorm1d expects (N, C, L), got {x.shape}")
    n, c, length = xd.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise InvalidShapeError(
            f"gamma/beta must be ({c},), got {gamma.shape} and {beta.shape}"
        )
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise InvalidShapeError(
            f"running stats must be ({c},), got {running_mean.shape} "
            f"and {running_var.shape}"
        )
    dt = xd.dtype
    count = n * length
    rows = xd.transpose(1, 0, 2).reshape(c, count)
    if training:
        if count < 2:
            raise InvalidInputError(
                f"train-mode batch norm needs N*L >= 2, got N={n}, L={length}"
            )
        sq_dev = rows.astype(np.float64)
        mean = sq_dev.mean(axis=1)
        sq_dev -= mean[:, None]
        np.square(sq_dev, out=sq_dev)
        var = sq_dev.mean(axis=1)
        running_mean[:] = (1.0 - momentum) * running_mean + momentum * mean
        running_var[:] = (1.0 - momentum) * running_var + momentum * var
    else:
        mean = running_mean
        var = running_var
    inv_std = (1.0 / np.sqrt(var + eps)).astype(dt)
    xhat = np.subtract(rows, mean.astype(dt)[:, None])
    xhat *= inv_std[:, None]
    out = xhat * gamma.data[:, None]
    out += beta.data[:, None]
    x_ref, gamma_ref, beta_ref = _ref(x), _ref(gamma), _ref(beta)

    def backward(g):
        g2 = g.transpose(1, 0, 2).reshape(c, count)
        _accumulate(beta_ref, g2.sum(axis=1))
        scratch = g2 * xhat
        _accumulate(gamma_ref, scratch.sum(axis=1))
        if x_ref is None:
            return
        if training:
            # dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
            # built in place in dxhat's buffer with one scratch array.
            dxhat = g2 * gamma.data[:, None]
            mean_dxhat = dxhat.mean(axis=1, keepdims=True)
            np.multiply(dxhat, xhat, out=scratch)
            mean_dxhat_xhat = scratch.mean(axis=1, keepdims=True)
            np.multiply(xhat, mean_dxhat_xhat, out=scratch)
            dx = dxhat
            dx -= mean_dxhat
            dx -= scratch
            dx *= inv_std[:, None]
        else:
            dx = g2 * (gamma.data * inv_std)[:, None]
        _accumulate(x_ref, dx.reshape(c, n, length).transpose(1, 0, 2))

    return _node(out.reshape(c, n, length).transpose(1, 0, 2),
                 (x_ref, gamma_ref, beta_ref), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the temporal axis: (N, C, L) -> (N, C)."""
    xd = x.data
    if xd.ndim != 3:
        raise InvalidShapeError(f"global_avg_pool expects (N, C, L), got {x.shape}")
    length = xd.shape[2]
    if length == 0:
        raise InvalidShapeError("global_avg_pool needs L >= 1")
    x_ref = _ref(x)

    def backward(g):
        grad_c = np.repeat((g.T / length)[:, :, None], length, axis=2)
        _accumulate(x_ref, grad_c.transpose(1, 0, 2))

    return _node(xd.mean(axis=2), (x_ref,), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: (N, D) @ (M, D).T + (M,) -> (N, M).

    The forward product uses einsum on a C-contiguous x so each row's
    reduction order is fixed, making eval logits independent of batch
    composition and of the memory order x arrives in.
    """
    xd, wd, bd = np.ascontiguousarray(x.data), weight.data, bias.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise InvalidShapeError(
            f"linear expects (N, D) and (M, D), got {x.shape} and {weight.shape}"
        )
    if bd.shape != (wd.shape[0],):
        raise InvalidShapeError(f"bias must be ({wd.shape[0]},), got {bias.shape}")
    x_ref, w_ref, b_ref = _ref(x), _ref(weight), _ref(bias)

    def backward(g):
        _accumulate(b_ref, g.sum(axis=0))
        _accumulate(w_ref, g.T @ xd)
        _accumulate(x_ref, g @ wd)

    return _node(np.einsum("nd,md->nm", xd, wd) + bd, (x_ref, w_ref, b_ref), backward)


# ---------------------------------------------------------------------------
# losses (float64 accumulation regardless of activation dtype)


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    zd = logits.data
    if zd.ndim != 2:
        raise InvalidShapeError(f"logits must be (N, C), got {logits.shape}")
    n, c = zd.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InvalidShapeError(f"labels must be ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidInputError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise InvalidInputError(
            f"labels must lie in [0, {c}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    z = zd.astype(np.float64)
    z_shift = z - z.max(axis=1, keepdims=True)
    exp_z = np.exp(z_shift)
    total = exp_z.sum(axis=1, keepdims=True)
    log_probs = z_shift - np.log(total)
    loss = -log_probs[np.arange(n), labels].mean()
    logits_ref = _ref(logits)

    def backward(g):
        grad = exp_z / total
        grad[np.arange(n), labels] -= 1.0
        _accumulate(logits_ref, grad * (float(g) / n))

    return _node(np.asarray(loss), (logits_ref,), backward)


def mse_logit_loss(stored: Tensor, current: Tensor) -> Tensor:
    """Mean over all entries of the squared logit difference."""
    if stored.shape != current.shape:
        raise InvalidShapeError(
            f"logit shape mismatch: stored {stored.shape} vs current {current.shape}"
        )
    diff = current.data.astype(np.float64) - stored.data.astype(np.float64)
    loss = np.asarray((diff * diff).mean())
    scale = 2.0 / diff.size
    stored_ref, current_ref = _ref(stored), _ref(current)

    def backward(g):
        d = diff * (scale * float(g))
        _accumulate(current_ref, d)
        _accumulate(stored_ref, -d)

    return _node(loss, (stored_ref, current_ref), backward)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam step size, moments and step counter; moments are always float64."""

    lr: float
    m: list
    v: list
    t: int = 0


def init_adam(params, lr: float) -> AdamState:
    return AdamState(
        lr=lr,
        m=[np.zeros(p.shape, dtype=np.float64) for p in params],
        v=[np.zeros(p.shape, dtype=np.float64) for p in params],
    )


def adam_step(params, grads, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to params in place.

    Raises TrainingFaultError (before touching any state) if a gradient is
    non-finite.
    """
    if len(params) != len(state.m):
        raise InvalidShapeError(
            f"optimizer state holds {len(state.m)} slots, got {len(params)} params"
        )
    if len(grads) != len(params):
        raise InvalidShapeError(
            f"got {len(grads)} gradients for {len(params)} params"
        )
    for p, g in zip(params, grads):
        if g is None:
            raise InvalidInputError(f"missing gradient for parameter {p.name!r}")
        if g.shape != p.shape:
            raise InvalidShapeError(
                f"gradient shape {g.shape} does not match parameter "
                f"{p.name!r} shape {p.shape}"
            )
        if not np.isfinite(g).all():
            raise TrainingFaultError(
                f"non-finite gradient for parameter {p.name!r}; step aborted"
            )
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g64 = g.astype(np.float64)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g64
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g64)
        update = state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= update.astype(p.data.dtype)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Per-tensor and overall max relative error vs central differences."""

    max_rel_err: float
    per_input: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def grad_check(fn, inputs, tolerance: float = 1e-4, step: float = 1e-5,
               max_elements: int | None = None, rng=None) -> GradCheckReport:
    """Compare fn's analytic gradients to central finite differences.

    fn must take no arguments, read the given input tensors, and return a
    scalar Tensor; it is re-evaluated twice per checked element. Inputs
    should be float64 for the differences to resolve at the default step.
    The relative error per element is |analytic - numeric| /
    max(|analytic|, |numeric|, 1e-6). When max_elements is given, at most
    that many elements per tensor are checked (a random slice drawn from
    rng), which keeps whole-model checks affordable.
    """
    checked = [t for t in inputs if t.requires_grad]
    if not checked:
        raise InvalidInputError("grad_check needs at least one requires_grad input")
    zero_grads(checked)
    out = fn()
    if out.size != 1:
        raise InvalidShapeError(f"fn must return a scalar, got shape {out.shape}")
    out.backward()
    analytic = []
    for t in checked:
        if t.grad is None:
            analytic.append(np.zeros(t.shape, dtype=np.float64))
        else:
            analytic.append(t.grad.astype(np.float64))

    per_input = {}
    overall = 0.0
    with no_grad():
        for idx, t in enumerate(checked):
            flat_indices = np.arange(t.size)
            if max_elements is not None and t.size > max_elements:
                if rng is None:
                    rng = np.random.default_rng(0)
                flat_indices = rng.choice(t.size, size=max_elements, replace=False)
                flat_indices.sort()
            a_flat = analytic[idx].reshape(-1)
            err = 0.0
            for j in flat_indices:
                mi = np.unravel_index(j, t.shape) if t.shape else ()
                orig = t.data[mi]
                t.data[mi] = orig + step
                f_plus = fn().item()
                t.data[mi] = orig - step
                f_minus = fn().item()
                t.data[mi] = orig
                numeric = (f_plus - f_minus) / (2.0 * step)
                denom = max(abs(a_flat[j]), abs(numeric), 1e-6)
                err = max(err, abs(a_flat[j] - numeric) / denom)
            key = t.name or f"input_{idx}"
            per_input[key] = err
            overall = max(overall, err)
    return GradCheckReport(max_rel_err=overall, per_input=per_input, tolerance=tolerance)

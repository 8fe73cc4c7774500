"""Minimal reverse-mode autodiff: exactly the ops the backbone and losses need.

A Tensor wraps a numpy array. A tensor that takes a gradient owns a small
graph node: the gradient arriving at it, its dtype, its parent nodes and
its backward closure. A leaf made with requires_grad (a parameter or an
input) has a node with no parents and no closure; an op result built while
gradients are enabled has one whose parents are its inputs' nodes. A graph
thus holds nodes plus the arrays its closures saved (conv inputs,
normalized activations, masks, a linear input), never a result's values:
those live exactly as long as the caller holds the result tensor, so a
conv output read only by a batch norm, or a batch-norm output read only
by a ReLU, is freed as soon as the next op returns. Calling .backward() on
a scalar walks the graph in reverse topological order and accumulates the
gradient of every leaf node. The walk releases the graph as it goes: once
an interior node's closure has run, the node drops its gradient, its
parents and the closure, so the arrays the closure saved are freed before
the walk reaches the layers below. Only leaves keep their gradient.
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

Conv1d columns: no pass builds a whole-batch im2col array or padded
input. The forward zero-pads CONV_CHUNK examples at a time, gathers each
example's (C_in*K, L_out) columns contiguously, and runs one GEMM per
example into the channel-major output. The graph saves the (C_in, N, L)
view of x.data itself, so a block input read by two convs is held once;
the backward pads the same chunks again to build the (C_in*K, N*L_out)
columns once for its GEMMs and drops them before col2im. Every
per-example GEMM multiplies the same matrices as a GEMM over strided
whole-batch columns did, only with a smaller leading dimension, so
outputs and gradients keep their bits.

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
and squaring in place, and frees it before normalizing.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvalidShapeError, TrainingFaultError

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


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
    """n-dimensional float array; node is its graph node if it takes a
    gradient, else None."""

    __slots__ = ("data", "name", "node")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.name = name
        self.node = _Node(arr.dtype, (), None) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @property
    def _backward(self):
        return None if self.node is None else self.node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self.node.backward = fn

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
        """Backpropagate from a scalar, accumulating into the leaves' grads.

        Releases the graph while walking it (see the module docstring).
        """
        if self.data.size != 1:
            raise InvalidShapeError(
                f"backward() needs a scalar root, got shape {self.shape}"
            )
        if self.node is None:
            raise InvalidInputError("backward() needs a tensor that takes a gradient")
        order = _topological_order(self.node)
        self.node.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node.backward is not None:
                node.backward(node.grad)
                node.grad = None
                node.parents = ()
                node.backward = _released


class _Node:
    """The graph half of a tensor that takes a gradient: what the backward
    walk reads and writes. It holds none of the tensor's values."""

    __slots__ = ("grad", "dtype", "parents", "backward")

    def __init__(self, dtype, parents: tuple, backward_fn):
        self.grad: np.ndarray | None = None
        self.dtype = dtype
        self.parents = parents
        self.backward = backward_fn


def _released(g):
    raise InvalidInputError(
        "backward() reached a graph that an earlier backward() already released"
    )


def _topological_order(root: _Node) -> list:
    order: list = []
    seen: set[int] = set()
    stack: list[tuple] = [(root, 0)]
    while stack:
        node, idx = stack.pop()
        if idx == 0:
            if id(node) in seen:
                continue
            seen.add(id(node))
        if idx < len(node.parents):
            stack.append((node, idx + 1))
            stack.append((node.parents[idx], 0))
        else:
            order.append(node)
    return order


def _accumulate(node: _Node | None, g: np.ndarray) -> None:
    """Add g into a node's gradient; None takes none."""
    if node is None:
        return
    if g.dtype != node.dtype:
        g = g.astype(node.dtype)
    node.grad = g if node.grad is None else node.grad + g


def _node(data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """An op result; while gradients are enabled and some input takes a
    gradient, its node records backward_fn and the inputs' nodes (those
    not None), so a graph does not hold an input it sends no gradient to."""
    out = Tensor(data)
    parents = tuple(n for n in inputs if n is not None)
    if _grad_enabled and parents:
        out.node = _Node(out.data.dtype, parents, backward_fn)
    return out


def zero_grads(params) -> None:
    for p in params:
        p.node.grad = None


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for same-shape tensors."""
    if a.shape != b.shape:
        raise InvalidShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    a_node, b_node = a.node, b.node

    def backward(g):
        _accumulate(a_node, g)
        _accumulate(b_node, g)

    return _node(a.data + b.data, (a_node, b_node), backward)


def mul(a: Tensor, b) -> Tensor:
    """a * b for same-shape tensors, or tensor * python scalar."""
    if not isinstance(b, Tensor):
        const = float(b)
        out_data = a.data * np.asarray(const, dtype=a.data.dtype)
        a_node = a.node

        def backward_const(g):
            _accumulate(a_node, g * np.asarray(const, dtype=g.dtype))

        return _node(out_data, (a_node,), backward_const)

    if a.shape != b.shape:
        raise InvalidShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data
    a_node, b_node = a.node, b.node

    def backward(g):
        _accumulate(a_node, g * b_data)
        _accumulate(b_node, g * a_data)

    return _node(a_data * b_data, (a_node, b_node), backward)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a float64 scalar."""
    out_data = np.asarray(x.data.sum(dtype=np.float64))
    shape, dtype, x_node = x.shape, x.dtype, x.node

    def backward(g):
        _accumulate(x_node, np.full(shape, float(g), dtype=dtype))

    return _node(out_data, (x_node,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0. NaN propagates."""
    mask = x.data > 0
    x_node = x.node

    def backward(g):
        _accumulate(x_node, g * mask)

    return _node(np.maximum(x.data, x.data.dtype.type(0)), (x_node,), backward)


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


def _padded_chunks(xc: np.ndarray, padding: int):
    """(start, chunk) pairs over a channel-major (C_in, N, L) input, CONV_CHUNK
    examples a chunk, zero-padded into one reused buffer (a view if padding is 0)."""
    c_in, n, length = xc.shape
    if padding:
        xp = np.zeros((c_in, min(n, CONV_CHUNK), length + 2 * padding), dtype=xc.dtype)
    for start in range(0, n, CONV_CHUNK):
        part = xc[:, start : start + CONV_CHUNK]
        if padding:
            xp[:, : part.shape[1], padding : padding + length] = part
            part = xp[:, : part.shape[1]]
        yield start, part


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """1-D cross-correlation along the last axis.

    x is (N, C_in, L); weight is (C_out, C_in, K); bias is (C_out,). Output
    length is floor((L + 2*padding - K)/stride) + 1. The graph keeps x.data
    itself, so it must not be changed in place before the backward pass.
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
    w2 = wd.reshape(c_out, c_in * k)
    out_c = np.empty((c_out, n, l_out), dtype=np.result_type(wd, xd))
    # One GEMM per example keeps each output's reduction order independent
    # of the batch it sits in; the columns exist one chunk at a time.
    chunk_cols = np.empty((min(n, CONV_CHUNK), c_in, k, l_out), dtype=xd.dtype)
    for start, xp in _padded_chunks(xc, padding):
        m = xp.shape[1]
        np.copyto(chunk_cols[:m], _windows(xp, k, l_out, stride))
        np.matmul(w2, chunk_cols[:m].reshape(m, c_in * k, l_out),
                  out=out_c[:, start : start + m].transpose(1, 0, 2))
    out_c += bd[:, None, None]
    x_node, w_node, b_node = x.node, weight.node, bias.node

    def backward(g):
        g2 = g.transpose(1, 0, 2).reshape(c_out, n * l_out)
        cols = np.empty((c_in, k, n, l_out), dtype=xd.dtype)
        for start, xp in _padded_chunks(xc, padding):
            np.copyto(cols[:, :, start : start + xp.shape[1]],
                      _windows(xp, k, l_out, stride).transpose(1, 2, 0, 3))
        cols2 = cols.reshape(c_in * k, n * l_out)
        _accumulate(b_node, g2.sum(axis=1))
        if k == 1:  # the shortcut convs; see "Training kernels" above
            _accumulate(w_node, (g2 @ cols2.T).reshape(wd.shape))
        else:
            _accumulate(w_node, (cols2 @ g2.T).T.reshape(wd.shape))
        del cols, cols2  # col2im does not read the columns
        if x_node is not None:
            # Position-major col2im over (l, n)-ordered columns.
            g_ln = g.transpose(1, 2, 0).reshape(c_out, l_out * n)
            grad_cols = (w2.T @ g_ln).reshape(c_in, k, l_out, n)
            del g_ln
            grad_xp = np.zeros((c_in, l_pad, n), dtype=grad_cols.dtype)
            for j in range(k):
                grad_xp[:, j : j + stride * l_out : stride] += grad_cols[:, j]
            del grad_cols
            grad_x = np.ascontiguousarray(
                grad_xp[:, padding : padding + length].transpose(0, 2, 1)
            )
            _accumulate(x_node, grad_x.transpose(1, 0, 2))

    return _node(out_c.transpose(1, 0, 2), (x_node, w_node, b_node), backward)


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
        del sq_dev
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
    x_node, gamma_node, beta_node = x.node, gamma.node, beta.node

    def backward(g):
        g2 = g.transpose(1, 0, 2).reshape(c, count)
        _accumulate(beta_node, g2.sum(axis=1))
        scratch = g2 * xhat
        _accumulate(gamma_node, scratch.sum(axis=1))
        if x_node is None:
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
        _accumulate(x_node, dx.reshape(c, n, length).transpose(1, 0, 2))

    return _node(out.reshape(c, n, length).transpose(1, 0, 2),
                 (x_node, gamma_node, beta_node), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the temporal axis: (N, C, L) -> (N, C)."""
    xd = x.data
    if xd.ndim != 3:
        raise InvalidShapeError(f"global_avg_pool expects (N, C, L), got {x.shape}")
    length = xd.shape[2]
    if length == 0:
        raise InvalidShapeError("global_avg_pool needs L >= 1")
    x_node = x.node

    def backward(g):
        grad_c = np.repeat((g.T / length)[:, :, None], length, axis=2)
        _accumulate(x_node, grad_c.transpose(1, 0, 2))

    return _node(xd.mean(axis=2), (x_node,), backward)


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
    x_node, w_node, b_node = x.node, weight.node, bias.node

    def backward(g):
        _accumulate(b_node, g.sum(axis=0))
        _accumulate(w_node, g.T @ xd)
        _accumulate(x_node, g @ wd)

    return _node(np.einsum("nd,md->nm", xd, wd) + bd, (x_node, w_node, b_node), backward)


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
    logits_node = logits.node

    def backward(g):
        grad = exp_z / total
        grad[np.arange(n), labels] -= 1.0
        _accumulate(logits_node, grad * (float(g) / n))

    return _node(np.asarray(loss), (logits_node,), backward)


def mse_logit_loss(stored: Tensor, current: Tensor) -> Tensor:
    """Mean over all entries of the squared logit difference."""
    if stored.shape != current.shape:
        raise InvalidShapeError(
            f"logit shape mismatch: stored {stored.shape} vs current {current.shape}"
        )
    diff = current.data.astype(np.float64) - stored.data.astype(np.float64)
    loss = np.asarray((diff * diff).mean())
    scale = 2.0 / diff.size
    stored_node, current_node = stored.node, current.node

    def backward(g):
        d = diff * (scale * float(g))
        _accumulate(current_node, d)
        _accumulate(stored_node, -d)

    return _node(loss, (stored_node, current_node), backward)


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

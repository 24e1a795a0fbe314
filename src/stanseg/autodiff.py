"""Minimal reverse-mode autodiff on float64 numpy arrays.

Implements exactly the differentiable operations the segmentation
networks need: same-padded convolution, 2x2 max pooling, stride-2
transposed convolution, channel concatenation, relu/sigmoid, and the
elementwise arithmetic + global sum used by the dice loss. Tensors are
value-semantic; a computation graph is recorded only while gradients
are enabled and is consumed by a single backward pass.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible; the message names the offending axes."""


class GraphConsumedError(RuntimeError):
    """backward() was called twice on the same computation graph."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the context (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """Producing operation of a non-leaf tensor.

    ``backward_fn(grad_out)`` returns one gradient array per parent
    (None for parents that do not need one).
    """

    __slots__ = ("op", "parents", "backward_fn", "consumed")

    def __init__(self, op: str, parents: tuple, backward_fn: Callable):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn
        self.consumed = False


class Tensor:
    """N-d float64 array, optionally tracked in a computation graph.

    Leaf tensors are created directly and carry ``requires_grad``;
    tensors produced by operations carry a ``node`` recording the
    producing op and its inputs. ``grad`` is populated on leaves by
    :func:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic (same-shape operands only; python scalars are constants) --

    def __add__(self, other):
        other = _as_tensor(other)
        _check_same_shape("add", self, other)
        return _result(self.data + other.data, "add", (self, other),
                       lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_tensor(other)
        _check_same_shape("sub", self, other)
        return _result(self.data - other.data, "sub", (self, other),
                       lambda g: (g, -g))

    def __rsub__(self, other):
        other = _as_tensor(other)
        _check_same_shape("sub", other, self)
        return _result(other.data - self.data, "sub", (other, self),
                       lambda g: (g, -g))

    def __mul__(self, other):
        other = _as_tensor(other)
        _check_same_shape("mul", self, other)
        a, b = self, other
        return _result(a.data * b.data, "mul", (a, b),
                       lambda g: (g * b.data, g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other)
        _check_same_shape("div", self, other)
        a, b = self, other
        return _result(a.data / b.data, "div", (a, b),
                       lambda g: (g / b.data, -g * a.data / (b.data * b.data)))

    def sum(self) -> "Tensor":
        """Global sum, returning a scalar tensor."""
        shape = self.data.shape
        return _result(np.asarray(self.data.sum()), "sum", (self,),
                       lambda g: (np.full(shape, float(g)),))


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (int, float, np.floating, np.integer)):
        return Tensor(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as a tensor operand")


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"{op}: operand shapes {a.shape} and {b.shape} differ")


def _result(data: np.ndarray, op: str, parents: tuple, backward_fn: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p.node is not None for p in parents):
        out.node = _Node(op, parents, backward_fn)
    return out


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


@dataclass
class ConvParams:
    """Weights and bias of one (transposed) convolution layer.

    ``weights`` has shape (out_channels, in_channels, k, k) and ``bias``
    shape (out_channels,); kernels are square.
    """

    weights: Tensor
    bias: Tensor

    def __post_init__(self):
        w, b = self.weights, self.bias
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeMismatchError(
                f"conv weights must be (out, in, k, k) with square kernel, got {w.shape}")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ShapeMismatchError(
                f"bias shape {b.shape} does not match out_channels {w.shape[0]}")

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


def _check_input_4d(op: str, x: Tensor) -> None:
    if x.ndim != 4:
        raise ShapeMismatchError(f"{op}: input must be 4-D (B, C, H, W), got {x.shape}")


def _windows(a: np.ndarray, k: int) -> np.ndarray:
    """(B, C, H, W, k, k) view of the k x k windows of same-padded ``a``."""
    pad = (k - 1) // 2
    ap = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(ap, (k, k), axis=(2, 3))


def _correlate(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded cross-correlation of ``a`` (B, Cin, H, W) with ``w``
    (Cout, Cin, k, k), giving (B, Cout, H, W)."""
    out = np.tensordot(_windows(a, w.shape[2]), w, axes=((1, 4, 5), (1, 2, 3)))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Same-padded stride-1 convolution with an odd square kernel."""
    _check_input_4d("conv2d", x)
    w, bias = params.weights, params.bias
    k = params.kernel_size
    if k % 2 != 1:
        raise ShapeMismatchError(f"conv2d: kernel size {k} must be odd for same padding")
    if x.shape[1] != params.in_channels:
        raise ShapeMismatchError(
            f"conv2d: input channel axis 1 has {x.shape[1]} channels, "
            f"kernel expects {params.in_channels}")
    out = _correlate(x.data, w.data) + bias.data[None, :, None, None]

    need_x, need_w, need_b = _needs_grad(x), _needs_grad(w), _needs_grad(bias)

    def backward_fn(g: np.ndarray):
        gx = gw = gb = None
        if need_b:
            gb = g.sum(axis=(0, 2, 3))
        if need_w:
            gw = np.tensordot(_windows(x.data, k), g,
                              axes=((0, 2, 3), (0, 2, 3)))  # (Cin, k, k, Cout)
            gw = np.ascontiguousarray(gw.transpose(3, 0, 1, 2))
        if need_x:
            # correlate g with the flipped kernel, input/output channels swapped
            gx = _correlate(g, w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        return gx, gw, gb

    return _result(out, "conv2d", (x, w, bias), backward_fn)


def deconv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Transposed convolution with 2x2 kernel and stride 2: exact 2x upsampling."""
    _check_input_4d("deconv2d", x)
    w, bias = params.weights, params.bias
    if params.kernel_size != 2:
        raise ShapeMismatchError(
            f"deconv2d: kernel size must be 2, got {params.kernel_size}")
    if x.shape[1] != params.in_channels:
        raise ShapeMismatchError(
            f"deconv2d: input channel axis 1 has {x.shape[1]} channels, "
            f"kernel expects {params.in_channels}")
    b, _, h, ww = x.shape
    cout = params.out_channels
    out = np.empty((b, cout, 2 * h, 2 * ww))
    # stride equals kernel size, so output positions never overlap
    for i in (0, 1):
        for j in (0, 1):
            t = np.tensordot(x.data, w.data[:, :, i, j], axes=((1,), (1,)))  # (B, H, W, Cout)
            out[:, :, i::2, j::2] = t.transpose(0, 3, 1, 2)
    out += bias.data[None, :, None, None]

    need_x, need_w, need_b = _needs_grad(x), _needs_grad(w), _needs_grad(bias)

    def backward_fn(g: np.ndarray):
        gx = gw = gb = None
        if need_b:
            gb = g.sum(axis=(0, 2, 3))
        if need_x:
            gx = np.zeros_like(x.data)
        if need_w:
            gw = np.empty_like(w.data)
        for i in (0, 1):
            for j in (0, 1):
                gij = g[:, :, i::2, j::2]  # (B, Cout, H, W)
                if need_x:
                    t = np.tensordot(gij, w.data[:, :, i, j], axes=((1,), (0,)))
                    gx += t.transpose(0, 3, 1, 2)
                if need_w:
                    gw[:, :, i, j] = np.tensordot(gij, x.data, axes=((0, 2, 3), (0, 2, 3)))
        return gx, gw, gb

    return _result(out, "deconv2d", (x, w, bias), backward_fn)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route the gradient to the first
    maximal element in row-major window order."""
    _check_input_4d("maxpool2d", x)
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"maxpool2d: spatial extents ({h}, {w}) must be even")
    hh, wh = h // 2, w // 2
    win = x.data.reshape(b, c, hh, 2, wh, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, hh, wh, 4)
    idx = win.argmax(axis=4)
    out = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]

    def backward_fn(g: np.ndarray):
        z = np.zeros((b, c, hh, wh, 4))
        np.put_along_axis(z, idx[..., None], g[..., None], axis=4)
        gx = z.reshape(b, c, hh, wh, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(b, c, h, w)
        return (gx,)

    return _result(out, "maxpool2d", (x,), backward_fn)


def concat_channels(*tensors: Tensor) -> Tensor:
    """Concatenate 4-D tensors along the channel axis, in argument order."""
    if not tensors:
        raise ValueError("concat_channels needs at least one input")
    if len(tensors) == 1:
        return tensors[0]
    for t in tensors:
        _check_input_4d("concat_channels", t)
    ref = tensors[0].shape
    for i, t in enumerate(tensors[1:], start=1):
        s = t.shape
        if s[0] != ref[0] or s[2:] != ref[2:]:
            raise ShapeMismatchError(
                f"concat_channels: input {i} has batch/spatial {s[0], s[2], s[3]}, "
                f"expected {ref[0], ref[2], ref[3]}")
    sizes = [t.shape[1] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=1)

    def backward_fn(g: np.ndarray):
        offsets = np.cumsum([0] + sizes)
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    return _result(out, "concat", tuple(tensors), backward_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at 0 is taken as 0."""
    mask = x.data > 0

    def backward_fn(g: np.ndarray):
        return (g * mask,)

    return _result(np.where(mask, x.data, 0.0), "relu", (x,), backward_fn)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # split by sign to avoid overflow in exp
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function 1 / (1 + exp(-x))."""
    s = _sigmoid(np.atleast_1d(x.data)).reshape(x.data.shape)

    def backward_fn(g: np.ndarray):
        return (g * s * (1.0 - s),)

    return _result(s, "sigmoid", (x,), backward_fn)


def backward(loss: Tensor) -> None:
    """Reverse-mode gradient propagation from a scalar loss.

    Populates ``grad`` on every requires_grad leaf reachable from
    ``loss``. The graph is consumed: a second call on the same graph
    raises :class:`GraphConsumedError`.
    """
    if loss.size != 1:
        raise ShapeMismatchError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
        return
    if loss.node.consumed:
        raise GraphConsumedError("this computation graph has already been differentiated")

    # iterative post-order over tensors that carry nodes
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        for p in t.node.parents:
            if p.node is not None and id(p) not in visited:
                stack.append((p, False))

    # fresh gradient buffers for this pass
    for t in order:
        t.grad = None
        for p in t.node.parents:
            if p.node is None and p.requires_grad:
                p.grad = None
    loss.grad = np.ones_like(loss.data)

    for t in reversed(order):
        node = t.node
        node.consumed = True
        if t.grad is None:
            continue
        parent_grads = node.backward_fn(t.grad)
        for p, pg in zip(node.parents, parent_grads):
            if pg is None or not _needs_grad(p):
                continue
            p.grad = pg if p.grad is None else p.grad + pg

    # keep gradients only on leaves
    for t in order:
        if not t.requires_grad:
            t.grad = None


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare the analytic gradient of scalar-valued ``f`` at ``x`` against
    central finite differences.

    Returns max over elements of |analytic - numeric| / max(1, |analytic|).
    """
    prev_flag = x.requires_grad
    x.requires_grad = True
    try:
        out = f(x)
        backward(out)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

        numeric = np.empty_like(x.data)
        with no_grad():
            for idx in np.ndindex(x.data.shape):
                orig = x.data[idx]
                x.data[idx] = orig + h
                fp = float(f(x).data)
                x.data[idx] = orig - h
                fm = float(f(x).data)
                x.data[idx] = orig
                numeric[idx] = (fp - fm) / (2.0 * h)
    finally:
        x.requires_grad = prev_flag

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max())

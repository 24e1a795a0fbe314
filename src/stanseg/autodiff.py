"""Minimal reverse-mode autodiff on float64 numpy arrays.

Implements exactly the differentiable operations the segmentation
networks need: same-padded convolution, 2x2 max pooling, stride-2
transposed convolution, channel concatenation, relu/sigmoid, and the
elementwise arithmetic + global sum used by the dice loss. Tensors are
value-semantic; a computation graph is recorded only while gradients
are enabled, and a single backward pass consumes it, releasing each
node once it has run.

A convolution copies its input once into a flat zero-padded grid, whose tap view
holds each tap of a run of positions as one window (MEC, Cho & Brand 2017); blocks
of positions under an element cap are copied from it for one GEMM each. The input
gradient flips and channel-swaps the weights; the weight gradient is a GEMM per tap
of both views, where the output gradient is 0 off the output, so an inf or nan input
can give 0*inf there. deconv2d's backward undoes its forward's depth-to-space shuffle.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible; the message names the offending axes."""


class GraphConsumedError(RuntimeError):
    """backward() reached a node that an earlier backward() has run and released."""


_grad_enabled = True
_CHUNK_ELEMENTS = 1 << 22  # float64 elements of a column-matrix chunk (32 MB), padding included
_BLOCK_ELEMENTS = 1 << 16  # float64 elements of a weight-gradient block (512 KB), kept in cache


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
    (None for parents that do not need one). backward() sets it to None,
    and ``parents`` to (), once it has run.
    """

    __slots__ = ("op", "parents", "backward_fn")

    def __init__(self, op: str, parents: tuple, backward_fn: Callable):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn


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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic (same-shape operands only; python scalars are constants) --

    def __add__(self, other):
        other = _as_tensor(other)
        _check_same_shape("add", self, other)
        return _result(self.data + other.data, "add", (self, other),
                       lambda g: (g, g))

    __radd__ = __add__

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
    if _grad_enabled and any(_needs_grad(p) for p in parents):
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


def _grid(a: np.ndarray, p: int) -> np.ndarray:
    """(C, B*hp*wp + 2p(wp+1)) zeros holding (B, C, H, W) ``a`` as images of hp = H+p
    rows of wp = W+p, whose p trailing zeros pad both neighbours. Output (b, i, j) is
    position n = b*hp*wp + i*wp + j, its tap (di, dj) n + di*wp + dj, its pixel n + p*wp + p."""
    bs, c, h, w = a.shape
    hp, wp = h + p, w + p
    flat = np.zeros((c, bs * hp * wp + 2 * p * (wp + 1)))
    flat[:, p * wp + p:p * wp + p + bs * hp * wp].reshape(c, bs, hp, wp)[:, :, :h, :w] = \
        a.transpose(1, 0, 2, 3)
    return flat


def _taps(flat: np.ndarray, k: int, wp: int) -> np.ndarray:
    """(C, k, k, n) view of grid ``flat`` whose [:, di, dj, s] is tap (di, dj) of position s."""
    n = flat.shape[1] - (k - 1) * (wp + 1)
    return np.lib.stride_tricks.as_strided(
        flat, (len(flat), k, k, n), (flat.strides[0], wp * 8, 8, 8), writeable=False)


def _correlate(flat: np.ndarray, shape: tuple, w: np.ndarray) -> np.ndarray:
    """Same-padded correlation of the ``shape`` array in grid ``flat`` with ``w``, as a view."""
    (bs, c, h, wd), k = shape, w.shape[2]
    hp, wp, ck = h + k // 2, wd + k // 2, c * k * k
    n, step, taps = bs * hp * wp, max(1, _CHUNK_ELEMENTS // max(1, ck)), _taps(flat, k, wp)
    buf, res, wm = np.empty(ck * min(step, n)), np.empty((len(w), n)), w.reshape(len(w), ck)
    for s in range(0, n, step):
        m = min(step, n - s)
        cols = buf[:ck * m].reshape(c, k, k, m)
        cols[...] = taps[..., s:s + m]
        np.matmul(wm, cols.reshape(ck, m), out=res[:, s:s + m])
    return res.reshape(len(w), bs, hp, wp)[:, :, :h, :wd].transpose(1, 0, 2, 3)


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
    p = k // 2
    out = _correlate(_grid(x.data, p), x.shape, w.data)
    out = np.add(out, bias.data[None, :, None, None], order="C")  # reads the view into C order

    need_x, need_w, need_b = _needs_grad(x), _needs_grad(w), _needs_grad(bias)

    def backward_fn(g: np.ndarray):
        gx = gw = gb = None
        if need_b:
            gb = g.sum(axis=(0, 2, 3))
        gg = _grid(g, p)
        if need_x:
            # correlate g with the flipped kernel, input/output channels swapped
            gx = np.ascontiguousarray(
                _correlate(gg, g.shape, w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)))
        if need_w:  # g's grid at tap (p, p) is g at each output, else 0
            wp, gw = x.shape[3] + p, np.zeros(w.shape)
            xt, gt = _taps(_grid(x.data, p), k, wp), _taps(gg, k, wp)[:, p, p]
            step = max(1, _BLOCK_ELEMENTS // (len(gt) + len(xt) + 1))
            for s in range(0, gt.shape[1], step):
                for di, dj in np.ndindex(k, k):
                    gw[:, :, di, dj] += gt[:, s:s + step] @ xt[:, di, dj, s:s + step].T
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
    (b, cin, h, ww), cout = x.shape, params.out_channels

    def operands():  # the GEMM's weight rows (i, j, Cout) and input columns (B, H, W)
        return (w.data.transpose(2, 3, 0, 1).reshape(4 * cout, cin),
                x.data.transpose(1, 0, 2, 3).reshape(cin, b * h * ww))

    # outputs never overlap: one GEMM gives all four taps, a depth-to-space shuffle places them
    t = np.matmul(*operands()).reshape(2, 2, cout, b, h, ww)
    out = t.transpose(3, 2, 4, 0, 5, 1).reshape(b, cout, 2 * h, 2 * ww)
    out += bias.data[None, :, None, None]

    need_x, need_w, need_b = _needs_grad(x), _needs_grad(w), _needs_grad(bias)

    def backward_fn(g: np.ndarray):
        gx = gw = gb = None
        if need_b:
            gb = g.sum(axis=(0, 2, 3))
        w4, x4 = operands()
        g4 = g.reshape(b, cout, h, 2, ww, 2).transpose(3, 5, 1, 0, 2, 4).reshape(
            4 * cout, b * h * ww)  # space-to-depth, the inverse of the forward's shuffle
        if need_x:
            gx = np.ascontiguousarray((w4.T @ g4).reshape(cin, b, h, ww).transpose(1, 0, 2, 3))
        if need_w:
            gw = (g4 @ x4.T).reshape(2, 2, cout, cin).transpose(2, 3, 0, 1)
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
    idx = win.argmax(axis=4).astype(np.uint8)  # 0..3
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
    out = np.where(x.data > 0, x.data, 0.0)
    # out > 0 equals x > 0 elementwise, NaN included, so no mask is kept
    return _result(out, "relu", (x,), lambda g: (g * (out > 0),))


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function 1 / (1 + exp(-x))."""
    e = np.exp(np.minimum(x.data, -x.data))  # exp(-|x|) never overflows
    s = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _result(s, "sigmoid", (x,), lambda g: (g * s * (1.0 - s),))


def backward(loss: Tensor) -> None:
    """Reverse-mode gradient propagation from a scalar loss.

    Populates ``grad`` on every requires_grad leaf reachable from
    ``loss``. Each node is released once it has run, so the graph's
    memory goes as the pass goes; a second call on the same graph, or on
    a graph built on one of its tensors, raises :class:`GraphConsumedError`.
    """
    if loss.size != 1:
        raise ShapeMismatchError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        if loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
        return

    # iterative post-order over tensors that carry nodes
    order: list[Tensor] = []
    visited: set[int] = set()  # ids: a set of tensors would keep each alive to the end
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in visited:
            continue
        if t.node.backward_fn is None:
            raise GraphConsumedError(f"a {t.node.op} node has already been differentiated")
        visited.add(id(t))
        stack.append((t, True))
        for p in t.node.parents:
            if p.node is not None and id(p) not in visited:
                stack.append((p, False))

    # Tensor defines no __eq__, so its dict keys compare by identity
    grads = {loss: np.ones_like(loss.data)}
    while order:
        t = order.pop()
        node, g = t.node, grads.pop(t)  # a tensor with a node always gets a gradient
        backward_fn, parents = node.backward_fn, node.parents
        node.backward_fn, node.parents = None, ()
        for p, pg in zip(parents, backward_fn(g)):
            if pg is not None and _needs_grad(p):
                # out of place: add's backward hands both parents the same array
                grads[p] = grads[p] + pg if p in grads else pg
    for leaf, g in grads.items():  # only leaves are left
        leaf.grad = g

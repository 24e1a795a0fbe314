"""Network builders and forward pass.

Two architectures assembled from the autodiff primitives:

* ``stan``: a dual-branch encoder (plain 3x3 path alongside a fused
  1x1/5x5 multi-scale path), a three-path bottleneck mixing kernel
  sizes 5/1/3, and a decoder that consumes three skip tensors per
  block.
* ``unet``: the single-branch baseline with one pre-pool skip per
  block.

Channel plan: encoder block k (k = 1..4) works at F_k = base_filters *
2**(k-1) channels and at resolution input_size / 2**(k-1); the
bottleneck uses F5 = base_filters * 16. Branch-2 paths run at F_k/2 so
their fusion matches branch 1's width. All convolutions are
same-padded and followed by ReLU except the 1-channel head and the
stride-2 upsampling layers; the head ends in a sigmoid, so the output
is a per-pixel probability map the size of the input.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ConvParams,
    ShapeMismatchError,
    Tensor,
    concat_channels,
    conv2d,
    deconv2d,
    maxpool2d,
    no_grad,
    relu,
    sigmoid,
)

ARCHITECTURES = ("stan", "unet")

_MAGIC = b"STAN"
_FORMAT_VERSION = 1
_ARCH_TAGS = {"stan": 0, "unet": 1}
_TAG_ARCHS = {v: k for k, v in _ARCH_TAGS.items()}


class WeightFileError(Exception):
    """Base class for weight-file problems."""


class WeightMagicError(WeightFileError):
    """File does not start with the expected magic bytes."""


class WeightVersionError(WeightFileError):
    """Unsupported format version."""


class WeightTruncatedError(WeightFileError):
    """File ended before the declared content was read."""


class WeightMismatchError(WeightFileError):
    """Stored parameters are inconsistent with the stored config."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``input_size`` must be divisible by 16 (four 2x poolings);
    ``base_filters`` must be divisible by 4 (half widths in the
    branch-2 paths, quarter widths in the bottleneck).
    """

    input_size: int = 256
    base_filters: int = 32
    arch: str = "stan"
    seed: int = 0

    def __post_init__(self):
        if self.input_size <= 0 or self.input_size % 16 != 0:
            raise ValueError(
                f"input_size must be a positive multiple of 16, got {self.input_size}")
        if self.base_filters <= 0 or self.base_filters % 4 != 0:
            raise ValueError(
                "base_filters must be a positive multiple of 4 "
                f"(half and quarter widths must be whole), got {self.base_filters}")
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in an unsigned 64-bit int, got {self.seed}")


@dataclass
class Model:
    """An instantiated network: config and named parameters.

    ``params`` preserves creation order, which is also the
    serialization order: the order in which the forward pass first
    uses each layer.
    """

    config: ModelConfig
    params: dict[str, ConvParams]

    @property
    def wiring(self) -> tuple[tuple[str, int, int, int], ...]:
        """(name, out_channels, in_channels, kernel) per layer, in
        creation order; kernel 2 marks a stride-2 transposed convolution."""
        return tuple((name, p.out_channels, p.in_channels, p.kernel_size)
                     for name, p in self.params.items())

    def forward(self, batch: Tensor, trace: dict | None = None) -> Tensor:
        """Probability map for ``batch`` of shape (B, 1, size, size).

        When ``trace`` is a dict it receives the named intermediate
        tensors (skip tensors and decoder concatenations), which lets
        callers inspect the recorded graph.
        """
        if batch.ndim != 4 or batch.shape[1] != 1:
            raise ShapeMismatchError(
                f"expected batch of shape (B, 1, H, W), got {batch.shape}")
        size = self.config.input_size
        if batch.shape[2] != size or batch.shape[3] != size:
            raise ShapeMismatchError(
                f"spatial extents {batch.shape[2:]} do not match input_size {size}")
        return _FORWARD[self.config.arch](
            batch, self.config.base_filters,
            lambda name, cin, cout, k: self.params[name],
            trace if trace is not None else {})


# A layer lookup maps (name, in_channels, out_channels, kernel) to the
# layer's parameters. Each forward pass below declares every layer once,
# at its call site, and takes in_channels from the tensor the layer reads.

def _forward_stan(batch: Tensor, f1: int, layer, tr: dict) -> Tensor:
    def conv(x, name, cout, k):
        return relu(conv2d(x, layer(name, x.shape[1], cout, k)))

    x1 = x2 = batch
    for k in range(1, 5):
        fk = f1 * 2 ** (k - 1)
        a1 = conv(x1, f"enc{k}_b1_conv3a", fk, 3)
        a2 = conv(a1, f"enc{k}_b1_conv3b", fk, 3)
        b1 = conv(conv(x2, f"enc{k}_b2_conv1", fk // 2, 1), f"enc{k}_b2_conv1_3", fk // 2, 3)
        b2 = conv(conv(x2, f"enc{k}_b2_conv5", fk // 2, 5), f"enc{k}_b2_conv5_3", fk // 2, 3)
        sb = concat_channels(b1, b2)
        tr[f"enc{k}_skip_a"] = a1
        tr[f"enc{k}_skip_b"] = sb
        x1 = maxpool2d(a2)
        x2 = maxpool2d(sb)

    f5 = f1 * 16
    m5 = conv(conv(x1, "mid_conv5a", f5 // 2, 5), "mid_conv5b", f5 // 2, 5)
    m1 = conv(conv(x2, "mid_conv1a", f5 // 4, 1), "mid_conv1b", f5 // 4, 1)
    m3 = conv(conv(x2, "mid_conv3a", f5 // 4, 3), "mid_conv3b", f5 // 4, 3)
    u = concat_channels(m5, m1, m3)

    for k in range(4, 0, -1):
        fk = f1 * 2 ** (k - 1)
        up = deconv2d(u, layer(f"dec{k}_up", u.shape[1], fk, 2))
        cat_up = concat_channels(up, tr[f"enc{k}_skip_a"])
        t1 = conv(cat_up, f"dec{k}_conv3a", fk, 3)
        s5 = conv(tr[f"enc{k}_skip_a"], f"dec{k}_skip_conv5", fk // 2, 5)
        cat_mid = concat_channels(t1, s5)
        t2 = conv(cat_mid, f"dec{k}_conv3b", fk, 3)
        u = concat_channels(t2, tr[f"enc{k}_skip_b"])
        tr[f"dec{k}_cat_up"] = cat_up
        tr[f"dec{k}_cat_mid"] = cat_mid
        tr[f"dec{k}_out"] = u

    return sigmoid(conv2d(u, layer("head_conv1", u.shape[1], 1, 1)))


def _forward_unet(batch: Tensor, f1: int, layer, tr: dict) -> Tensor:
    def conv(x, name, cout, k):
        return relu(conv2d(x, layer(name, x.shape[1], cout, k)))

    x = batch
    for k in range(1, 5):
        fk = f1 * 2 ** (k - 1)
        a = conv(conv(x, f"enc{k}_conv3a", fk, 3), f"enc{k}_conv3b", fk, 3)
        tr[f"enc{k}_skip"] = a
        x = maxpool2d(a)

    x = conv(conv(x, "mid_conv3a", f1 * 16, 3), "mid_conv3b", f1 * 16, 3)

    for k in range(4, 0, -1):
        fk = f1 * 2 ** (k - 1)
        up = deconv2d(x, layer(f"dec{k}_up", x.shape[1], fk, 2))
        cat = concat_channels(up, tr[f"enc{k}_skip"])
        x = conv(conv(cat, f"dec{k}_conv3a", fk, 3), f"dec{k}_conv3b", fk, 3)
        tr[f"dec{k}_cat_up"] = cat
        tr[f"dec{k}_out"] = x

    return sigmoid(conv2d(x, layer("head_conv1", x.shape[1], 1, 1)))


_FORWARD = {"stan": _forward_stan, "unet": _forward_unet}


def build_model(config: ModelConfig) -> Model:
    """Instantiate the network named by ``config.arch`` with seeded
    parameters.

    Runs the forward pass once on an empty batch; each layer is created
    when first used, with fan-in-scaled uniform weights drawn from the
    seeded generator in that order, and zero biases.
    """
    rng = np.random.default_rng(config.seed)
    params: dict[str, ConvParams] = {}

    def create(name, cin, cout, k):
        if name not in params:
            bound = np.sqrt(6.0 / (cin * k * k))
            w = rng.uniform(-bound, bound, size=(cout, cin, k, k))
            params[name] = ConvParams(Tensor(w, requires_grad=True),
                                      Tensor(np.zeros(cout), requires_grad=True))
        return params[name]

    size = config.input_size
    with no_grad():
        _FORWARD[config.arch](Tensor(np.zeros((0, 1, size, size))),
                              config.base_filters, create, {})
    return Model(config=config, params=params)


def build_stan(config: ModelConfig) -> Model:
    """Dual-branch network; ``config.arch`` must be 'stan'."""
    if config.arch != "stan":
        raise ValueError(f"build_stan called with arch {config.arch!r}")
    return build_model(config)


def build_unet(config: ModelConfig) -> Model:
    """Single-branch baseline; ``config.arch`` must be 'unet'."""
    if config.arch != "unet":
        raise ValueError(f"build_unet called with arch {config.arch!r}")
    return build_model(config)


def param_count(model: Model) -> int:
    """Total number of scalar parameters (weights + biases)."""
    return sum(p.weights.size + p.bias.size for p in model.params.values())


def named_arrays(model: Model):
    """Yield ('layer.weights', tensor) / ('layer.bias', tensor) pairs in the
    deterministic parameter order used by the optimizer and weight files."""
    for name, p in model.params.items():
        yield f"{name}.weights", p.weights
        yield f"{name}.bias", p.bias


def save_weights(model: Model, path) -> None:
    """Write parameters to ``path`` in the little-endian binary format.

    Header: magic "STAN", format version u32, arch tag u32, input_size
    u32, base_filters u32, seed u64, array count u32. Then per array:
    name length u32 + UTF-8 name, rank u32, extents u32[], f64 data.
    """
    cfg = model.config
    arrays = list(named_arrays(model))
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIIIQI", _FORMAT_VERSION, _ARCH_TAGS[cfg.arch],
                            cfg.input_size, cfg.base_filters, cfg.seed,
                            len(arrays)))
        for name, tensor in arrays:
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", tensor.ndim))
            f.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            f.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def _read_exact(f, n: int) -> bytes:
    # check the declared length against the file before allocating it
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < n:
        raise WeightTruncatedError(
            f"weight file ended early: wanted {n} bytes, got {left}")
    return f.read(n)


def load_weights(path) -> Model:
    """Rebuild a model from a weight file written by :func:`save_weights`."""
    with open(path, "rb") as f:
        magic = _read_exact(f, 4)
        if magic != _MAGIC:
            raise WeightMagicError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        version, arch_tag, input_size, base_filters, seed, count = struct.unpack(
            "<IIIIQI", _read_exact(f, 28))
        if version != _FORMAT_VERSION:
            raise WeightVersionError(f"unsupported format version {version}")
        if arch_tag not in _TAG_ARCHS:
            raise WeightMismatchError(f"unknown architecture tag {arch_tag}")
        try:
            config = ModelConfig(input_size=input_size, base_filters=base_filters,
                                 arch=_TAG_ARCHS[arch_tag], seed=seed)
        except ValueError as exc:
            raise WeightMismatchError(f"stored config invalid: {exc}") from exc
        model = build_model(config)
        expected = dict(named_arrays(model))
        if count != len(expected):
            raise WeightMismatchError(
                f"file declares {count} arrays, config implies {len(expected)}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4))
            name = _read_exact(f, name_len).decode("utf-8", errors="replace")
            if name not in expected:
                raise WeightMismatchError(f"unexpected parameter {name!r}")
            (rank,) = struct.unpack("<I", _read_exact(f, 4))
            extents = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
            target = expected.pop(name)
            if extents != target.shape:
                raise WeightMismatchError(
                    f"{name}: stored shape {extents} does not match config "
                    f"shape {target.shape}")
            n = int(np.prod(extents)) if rank else 1
            data = np.frombuffer(_read_exact(f, 8 * n), dtype="<f8")
            target.data = data.reshape(extents).astype(np.float64)
        if expected:
            raise WeightMismatchError(
                f"file is missing parameters: {sorted(expected)[:3]}...")
        if f.read(1):
            raise WeightMismatchError("trailing bytes after declared arrays")
    return model

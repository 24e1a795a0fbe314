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

import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    ConvParams,
    ShapeMismatchError,
    Tensor,
    concat_channels,
    conv2d,
    deconv2d,
    maxpool2d,
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


def _stan_layer_specs(base_filters: int) -> list[tuple[str, int, int, int]]:
    """(name, out_channels, in_channels, kernel) in creation order; kernel 2
    marks a stride-2 transposed convolution."""
    f = [base_filters * 2 ** k for k in range(4)]
    f5 = base_filters * 16
    specs = []
    cin = 1
    for k in range(1, 5):
        fk = f[k - 1]
        specs += [
            (f"enc{k}_b1_conv3a", fk, cin, 3),
            (f"enc{k}_b1_conv3b", fk, fk, 3),
            (f"enc{k}_b2_conv1", fk // 2, cin, 1),
            (f"enc{k}_b2_conv1_3", fk // 2, fk // 2, 3),
            (f"enc{k}_b2_conv5", fk // 2, cin, 5),
            (f"enc{k}_b2_conv5_3", fk // 2, fk // 2, 3),
        ]
        cin = fk
    specs += [
        ("mid_conv5a", f5 // 2, f[3], 5),
        ("mid_conv5b", f5 // 2, f5 // 2, 5),
        ("mid_conv1a", f5 // 4, f[3], 1),
        ("mid_conv1b", f5 // 4, f5 // 4, 1),
        ("mid_conv3a", f5 // 4, f[3], 3),
        ("mid_conv3b", f5 // 4, f5 // 4, 3),
    ]
    up_in = f5
    for k in range(4, 0, -1):
        fk = f[k - 1]
        specs += [
            (f"dec{k}_up", fk, up_in, 2),
            (f"dec{k}_conv3a", fk, 2 * fk, 3),
            (f"dec{k}_skip_conv5", fk // 2, fk, 5),
            (f"dec{k}_conv3b", fk, 3 * fk // 2, 3),
        ]
        up_in = 2 * fk
    specs.append(("head_conv1", 1, 2 * base_filters, 1))
    return specs


def _unet_layer_specs(base_filters: int) -> list[tuple[str, int, int, int]]:
    f = [base_filters * 2 ** k for k in range(4)]
    f5 = base_filters * 16
    specs = []
    cin = 1
    for k in range(1, 5):
        fk = f[k - 1]
        specs += [
            (f"enc{k}_conv3a", fk, cin, 3),
            (f"enc{k}_conv3b", fk, fk, 3),
        ]
        cin = fk
    specs += [
        ("mid_conv3a", f5, f[3], 3),
        ("mid_conv3b", f5, f5, 3),
    ]
    up_in = f5
    for k in range(4, 0, -1):
        fk = f[k - 1]
        specs += [
            (f"dec{k}_up", fk, up_in, 2),
            (f"dec{k}_conv3a", fk, 2 * fk, 3),
            (f"dec{k}_conv3b", fk, fk, 3),
        ]
        up_in = fk
    specs.append(("head_conv1", 1, base_filters, 1))
    return specs


def _layer_specs(config: ModelConfig) -> list[tuple[str, int, int, int]]:
    if config.arch == "stan":
        return _stan_layer_specs(config.base_filters)
    return _unet_layer_specs(config.base_filters)


def _init_params(specs, seed: int) -> dict[str, ConvParams]:
    """Fan-in-scaled uniform weights, zero biases, in layer-table order."""
    rng = np.random.default_rng(seed)
    params: dict[str, ConvParams] = {}
    for name, cout, cin, k in specs:
        bound = np.sqrt(6.0 / (cin * k * k))
        w = rng.uniform(-bound, bound, size=(cout, cin, k, k))
        params[name] = ConvParams(Tensor(w, requires_grad=True),
                                  Tensor(np.zeros(cout), requires_grad=True))
    return params


@dataclass
class Model:
    """An instantiated network: config, named parameters, and wiring.

    ``params`` preserves creation order, which is also the
    serialization order. ``wiring`` is the per-layer
    (name, out_channels, in_channels, kernel) table.
    """

    config: ModelConfig
    params: dict[str, ConvParams]
    wiring: tuple = field(repr=False)

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
        if self.config.arch == "stan":
            return self._forward_stan(batch, trace)
        return self._forward_unet(batch, trace)

    def _conv(self, x: Tensor, name: str) -> Tensor:
        return relu(conv2d(x, self.params[name]))

    def _forward_stan(self, batch: Tensor, trace: dict | None) -> Tensor:
        p = self.params
        tr = trace if trace is not None else {}
        x1 = x2 = batch
        for k in range(1, 5):
            a1 = self._conv(x1, f"enc{k}_b1_conv3a")
            a2 = self._conv(a1, f"enc{k}_b1_conv3b")
            b1 = self._conv(self._conv(x2, f"enc{k}_b2_conv1"), f"enc{k}_b2_conv1_3")
            b2 = self._conv(self._conv(x2, f"enc{k}_b2_conv5"), f"enc{k}_b2_conv5_3")
            sb = concat_channels(b1, b2)
            tr[f"enc{k}_skip_a"] = a1
            tr[f"enc{k}_skip_b"] = sb
            x1 = maxpool2d(a2)
            x2 = maxpool2d(sb)

        m5 = self._conv(self._conv(x1, "mid_conv5a"), "mid_conv5b")
        m1 = self._conv(self._conv(x2, "mid_conv1a"), "mid_conv1b")
        m3 = self._conv(self._conv(x2, "mid_conv3a"), "mid_conv3b")
        u = concat_channels(m5, m1, m3)

        for k in range(4, 0, -1):
            up = deconv2d(u, p[f"dec{k}_up"])
            cat_up = concat_channels(up, tr[f"enc{k}_skip_a"])
            t1 = self._conv(cat_up, f"dec{k}_conv3a")
            s5 = self._conv(tr[f"enc{k}_skip_a"], f"dec{k}_skip_conv5")
            cat_mid = concat_channels(t1, s5)
            t2 = self._conv(cat_mid, f"dec{k}_conv3b")
            u = concat_channels(t2, tr[f"enc{k}_skip_b"])
            tr[f"dec{k}_cat_up"] = cat_up
            tr[f"dec{k}_cat_mid"] = cat_mid
            tr[f"dec{k}_out"] = u

        return sigmoid(conv2d(u, p["head_conv1"]))

    def _forward_unet(self, batch: Tensor, trace: dict | None) -> Tensor:
        p = self.params
        tr = trace if trace is not None else {}
        x = batch
        for k in range(1, 5):
            a = self._conv(self._conv(x, f"enc{k}_conv3a"), f"enc{k}_conv3b")
            tr[f"enc{k}_skip"] = a
            x = maxpool2d(a)

        x = self._conv(self._conv(x, "mid_conv3a"), "mid_conv3b")

        for k in range(4, 0, -1):
            up = deconv2d(x, p[f"dec{k}_up"])
            cat = concat_channels(up, tr[f"enc{k}_skip"])
            x = self._conv(self._conv(cat, f"dec{k}_conv3a"), f"dec{k}_conv3b")
            tr[f"dec{k}_cat_up"] = cat
            tr[f"dec{k}_out"] = x

        return sigmoid(conv2d(x, p["head_conv1"]))


def build_model(config: ModelConfig) -> Model:
    """Instantiate the network named by ``config.arch`` with seeded
    parameters."""
    specs = _layer_specs(config)
    params = _init_params(specs, config.seed)
    return Model(config=config, params=params, wiring=tuple(specs))


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
    buf = f.read(n)
    if len(buf) != n:
        raise WeightTruncatedError(
            f"weight file ended early: wanted {n} bytes, got {len(buf)}")
    return buf


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
            name = _read_exact(f, name_len).decode("utf-8")
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

"""Dice loss, bias-corrected Adam, shift augmentation, the training loop,
and k-fold cross-validation.

Reproducibility contract: everything that draws randomness derives its
generator from explicit integer seed lists, so a (seed, dataset,
config) triple fixes the whole trajectory bitwise. Per-sample
augmentation streams are seeded by (seed, epoch, sample index) and are
therefore independent of batch assembly order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ShapeMismatchError, Tensor, backward
from .data_io import Sample
from .metrics import MetricsReport, aggregate_rows, evaluate
from .model import Model, ModelConfig, build_model, named_arrays


class TrainingDivergedError(RuntimeError):
    """The loss became non-finite; names the offending epoch and step."""


class MissingGradientError(RuntimeError):
    """adam_step ran before backward populated a parameter's gradient."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 4
    epochs: int = 50
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shift_fraction: float = 0.1
    seed: int = 0
    folds: int = 5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for name, value in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0.0 <= self.shift_fraction < 0.5:
            raise ValueError(
                f"shift_fraction must be in [0, 0.5), got {self.shift_fraction}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


@dataclass
class AdamState:
    """First/second-moment buffers keyed like the weight-file array names."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_model(cls, model: Model) -> "AdamState":
        m = {name: np.zeros_like(t.data) for name, t in named_arrays(model)}
        v = {name: np.zeros_like(t.data) for name, t in named_arrays(model)}
        return cls(m=m, v=v)


@dataclass
class TrainHistory:
    """Per-epoch record of one training run."""

    seed: int
    epoch_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    fold: int | None = None
    validation: MetricsReport | None = None


def dice_loss(pred: Tensor, target: Tensor) -> Tensor:
    """1 - (1 + 2*sum(p*g)) / (1 + sum(p*p) + sum(g*g)), summed jointly
    over every element of the batch. ``target`` must be binary."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(
            f"prediction shape {pred.shape} vs target shape {target.shape}")
    tdata = target.data
    if not np.all((tdata == 0.0) | (tdata == 1.0)):
        raise ValueError("dice_loss target must contain only 0 and 1")
    pg = (pred * target).sum()
    pp = (pred * pred).sum()
    gg = (target * target).sum()
    return 1.0 - (1.0 + 2.0 * pg) / (1.0 + pp + gg)


def adam_step(model: Model, state: AdamState, cfg: TrainConfig) -> None:
    """One in-place bias-corrected Adam update from the gradients stored on
    the model parameters."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    # scalar bias corrections in python floats keep runs bit-reproducible
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, tensor in named_arrays(model):
        g = tensor.grad
        if g is None:
            raise MissingGradientError(f"no gradient for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        tensor.data -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.eps)


def _translate(arr: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift content by (dy, dx), zero-filling vacated pixels."""
    out = np.zeros_like(arr)
    h, w = arr.shape
    if abs(dy) >= h or abs(dx) >= w:
        return out
    dst_y = slice(max(dy, 0), h + min(dy, 0))
    dst_x = slice(max(dx, 0), w + min(dx, 0))
    src_y = slice(max(-dy, 0), h + min(-dy, 0))
    src_x = slice(max(-dx, 0), w + min(-dx, 0))
    out[dst_y, dst_x] = arr[src_y, src_x]
    return out


def shift_sample(sample: Sample, dy: int, dx: int) -> Sample:
    """Translate image and mask by the same integer offsets."""
    return replace(sample,
                   image=_translate(sample.image, dy, dx),
                   mask=_translate(sample.mask, dy, dx))


def augment_shift(sample: Sample, shift_fraction: float, rng) -> Sample:
    """Random joint translation with offsets drawn uniformly from
    +-shift_fraction of each dimension."""
    h, w = sample.image.shape
    max_dy = int(shift_fraction * h)
    max_dx = int(shift_fraction * w)
    dy = int(rng.integers(-max_dy, max_dy + 1))
    dx = int(rng.integers(-max_dx, max_dx + 1))
    return shift_sample(sample, dy, dx)


def kfold_split(dataset, k: int = 5, seed: int = 0):
    """Shuffle ids and partition into k near-equal folds.

    Returns k (train_ids, test_ids) pairs, ids sorted within each side;
    every id appears in exactly one test set.
    """
    n = len(dataset)
    if n < k:
        raise ValueError(f"need at least {k} samples for {k} folds, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(perm, k)
    folds = []
    for i, part in enumerate(parts):
        test_ids = sorted(int(x) for x in part)
        train_ids = sorted(int(x) for p in parts[:i] + parts[i + 1:] for x in p)
        folds.append((train_ids, test_ids))
    return folds


def _assemble_batch(samples, indices, epoch: int, cfg: TrainConfig):
    images = []
    masks = []
    for i in indices:
        rng = np.random.default_rng([cfg.seed, epoch, int(i)])
        aug = augment_shift(samples[i], cfg.shift_fraction, rng)
        images.append(aug.image)
        masks.append(aug.mask.astype(np.float64))
    x = np.stack(images)[:, None, :, :]
    g = np.stack(masks)[:, None, :, :]
    return Tensor(x), Tensor(g)


def train(model: Model, dataset: list[Sample], cfg: TrainConfig):
    """Run the full loop: per epoch, shuffle, then for each batch augment,
    forward, dice loss, backward, Adam. Returns (model, history)."""
    size = model.config.input_size
    for s in dataset:
        if s.image.shape != (size, size):
            raise ShapeMismatchError(
                f"sample {s.id!r} is {s.image.shape}, model wants {(size, size)}")
    if not dataset and cfg.epochs > 0:
        raise ValueError("cannot train on an empty dataset")
    state = AdamState.for_model(model)
    history = TrainHistory(seed=cfg.seed)
    n = len(dataset)
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        step_losses = []
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            indices = order[start:start + cfg.batch_size]
            x, g = _assemble_batch(dataset, indices, epoch, cfg)
            loss = dice_loss(model.forward(x), g)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} at epoch {epoch}, step {step}")
            backward(loss)
            adam_step(model, state, cfg)
            step_losses.append(value)
        history.epoch_losses.append(float(np.mean(step_losses)))
        history.epoch_seconds.append(time.perf_counter() - started)
    return model, history


def fold_seed(seed: int, fold: int) -> int:
    """Deterministic per-fold seed derived from (seed, fold index)."""
    return int(np.random.SeedSequence([seed, fold]).generate_state(1)[0])


def cross_validate(model_config: ModelConfig, dataset: list[Sample],
                   cfg: TrainConfig, threshold: float = 0.5,
                   small_axis: float = 120.0):
    """Train one fresh model per fold and evaluate it on the held-out fold.

    Returns (fold_reports, overall_report, histories); the overall
    report aggregates the per-image rows of every fold, so each sample
    is evaluated exactly once.
    """
    folds = kfold_split(dataset, cfg.folds, cfg.seed)
    fold_reports = []
    histories = []
    all_rows = []
    all_excluded = []
    for fold, (train_ids, test_ids) in enumerate(folds):
        seed = fold_seed(cfg.seed, fold)
        fold_model = build_model(replace(model_config, seed=seed))
        fold_cfg = replace(cfg, seed=seed)
        _, history = train(fold_model, [dataset[i] for i in train_ids], fold_cfg)
        report = evaluate(fold_model, [dataset[i] for i in test_ids],
                          threshold=threshold, small_axis=small_axis,
                          provenance={"fold": fold, "fold_seed": seed})
        history.fold = fold
        history.validation = report
        fold_reports.append(report)
        histories.append(history)
        all_rows.extend(report.rows)
        all_excluded.extend(report.excluded)
    overall = MetricsReport(
        rows=all_rows, aggregates=aggregate_rows(all_rows),
        provenance={"arch": model_config.arch,
                    "input_size": model_config.input_size,
                    "base_filters": model_config.base_filters,
                    "seed": cfg.seed, "folds": cfg.folds,
                    "threshold": threshold, "small_axis": small_axis},
        excluded=all_excluded)
    return fold_reports, overall, histories


def history_to_dict(history: TrainHistory) -> dict:
    """JSON-ready dict of one run's seed, fold, epochs and validation."""
    payload = {
        "seed": history.seed,
        "fold": history.fold,
        "epoch_losses": history.epoch_losses,
        "epoch_seconds": history.epoch_seconds,
    }
    if history.validation is not None:
        payload["validation_aggregates"] = history.validation.aggregates
    return payload

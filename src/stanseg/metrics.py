"""Binary-mask evaluation.

Five area ratios (tpr, fpr, ji, dsc, aer), two boundary distances (he,
mae), longest-axis measurement with small-region stratification, and
report aggregation with JSON/CSV serialization.

Conventions: all counts are normalized by the ground-truth area, and
aer is computed as fpr + (1 - tpr), which makes the identity
aer = fpr + 1 - tpr hold bitwise. Boundary distances are measured
between centres of 4-connectivity boundary pixels, symmetrically in
both directions. The longest axis is the maximum pairwise distance
between foreground pixel centres, taken over the leftmost and rightmost
pixel of each row, which include every vertex of the convex hull.
Squared distances between pixel centres are integers: they are reduced
as int64, in blocks of at most ``_BLOCK_ELEMENTS`` so that memory does
not grow with the product of two point counts, and the square root
(monotone, correctly rounded) is taken last, which is bitwise the same
as taking it first.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError, Tensor, no_grad

METRIC_NAMES = ("tpr", "fpr", "ji", "dsc", "aer", "he", "mae")


class EmptyGroundTruthError(ValueError):
    """Ground truth has no foreground; ratios normalized by |G| are undefined."""


class EmptyMaskError(ValueError):
    """A boundary or axis query was made on an empty mask."""


def binarize(prob_map: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Boolean mask of pixels with probability >= threshold (ties are
    foreground)."""
    return np.asarray(prob_map) >= threshold


def region_metrics(pred: np.ndarray, gt: np.ndarray):
    """(tpr, fpr, ji, dsc, aer) from pixel counts.

    Remains defined for empty predictions; raises on empty ground
    truth.
    """
    a = np.asarray(pred, dtype=bool)
    g = np.asarray(gt, dtype=bool)
    if a.shape != g.shape:
        raise ShapeMismatchError(f"mask shapes {a.shape} and {g.shape} differ")
    gsz = int(np.count_nonzero(g))
    if gsz == 0:
        raise EmptyGroundTruthError("empty ground truth")
    tp = int(np.count_nonzero(a & g))
    fp = int(np.count_nonzero(a & ~g))
    fn = gsz - tp
    area = tp + fp
    tpr = tp / gsz
    fpr = fp / gsz
    ji = tp / (tp + fp + fn)
    dsc = 2 * tp / (area + gsz)
    aer = fpr + (1.0 - tpr)
    return tpr, fpr, ji, dsc, aer


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """(N, 2) integer coordinates of foreground pixels with a 4-neighbour
    outside the region (off-image counts as outside), in row-major order."""
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        raise EmptyMaskError("empty mask has no boundary")
    padded = np.pad(m, 1)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1] &
                padded[1:-1, :-2] & padded[1:-1, 2:])
    return np.argwhere(m & ~interior)


_BLOCK_ELEMENTS = 1 << 16  # 512 KB of int64 per block, which stays in cache


def _squared_distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield int64 squared distances from consecutive rows of ``a`` to all of
    ``b``, in blocks of at most ``_BLOCK_ELEMENTS`` (at least one row)."""
    step = max(1, _BLOCK_ELEMENTS // len(b))
    for start in range(0, len(a), step):
        d2 = a[start:start + step, 0, None] - b[None, :, 0]
        d2 *= d2
        dx = a[start:start + step, 1, None] - b[None, :, 1]
        dx *= dx
        d2 += dx
        yield d2


def boundary_errors(pred: np.ndarray, gt: np.ndarray):
    """(he, mae): max and symmetric-mean distance between the two boundary
    point sets. Raises :class:`EmptyMaskError` if either mask is empty."""
    pa = boundary_points(pred)
    pg = boundary_points(gt)
    row_min = []
    col_min = np.full(len(pg), np.iinfo(np.int64).max)
    for d2 in _squared_distance_blocks(pa, pg):
        row_min.append(d2.min(axis=1))
        np.minimum(col_min, d2.min(axis=0), out=col_min)
    d_ag = np.sqrt(np.concatenate(row_min))
    d_ga = np.sqrt(col_min)
    he = max(float(d_ag.max()), float(d_ga.max()))
    mae = 0.5 * (float(np.mean(d_ag)) + float(np.mean(d_ga)))
    return he, mae


def longest_axis(mask: np.ndarray) -> float:
    """Maximum pairwise Euclidean distance between foreground pixel centres,
    taken over the leftmost and rightmost pixels of each row; squared
    distances are integers, so it is bitwise equal to an all-pairs scan."""
    m = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(m.any(axis=1))
    if rows.size == 0:
        raise EmptyMaskError("empty mask has no axis")
    left = m[rows].argmax(axis=1)
    right = m.shape[1] - 1 - m[rows, ::-1].argmax(axis=1)
    ends = np.column_stack([np.tile(rows, 2), np.concatenate([left, right])])
    best = max(int(d2.max()) for d2 in _squared_distance_blocks(ends, ends))
    return math.sqrt(best)


def is_small(mask: np.ndarray, threshold: float = 120.0) -> bool:
    """Longest axis at most ``threshold`` pixels (inclusive)."""
    return longest_axis(mask) <= threshold


@dataclass
class ImageMetrics:
    """Per-image metric row."""

    sample_id: str
    tpr: float
    fpr: float
    ji: float
    dsc: float
    aer: float
    he: float
    mae: float
    longest_axis: float
    is_small: bool
    pred_empty: bool = False


@dataclass
class MetricsReport:
    """Per-image rows plus stratified aggregate means.

    ``aggregates`` maps stratum name (all / small / large) to a dict of
    metric means and the stratum size ``n``; strata partition the rows
    by ``is_small``. ``excluded`` lists samples skipped for empty
    ground truth.
    """

    rows: list[ImageMetrics]
    aggregates: dict
    provenance: dict = field(default_factory=dict)
    excluded: list[str] = field(default_factory=list)


def aggregate_rows(rows: list[ImageMetrics]) -> dict:
    """Arithmetic means of each metric for all / small / large strata."""
    out = {}
    strata = (
        ("all", rows),
        ("small", [r for r in rows if r.is_small]),
        ("large", [r for r in rows if not r.is_small]),
    )
    for name, subset in strata:
        entry: dict = {"n": len(subset)}
        for metric in METRIC_NAMES:
            if subset:
                entry[metric] = float(np.mean([getattr(r, metric) for r in subset]))
            else:
                entry[metric] = None
        out[name] = entry
    return out


def evaluate(model, samples, threshold: float = 0.5,
             small_axis: float = 120.0, provenance: dict | None = None) -> MetricsReport:
    """Forward each sample, binarize, and collect the seven metrics.

    Samples with empty ground truth are excluded (listed in the
    report). An empty prediction keeps its area metrics and records the
    image diagonal as a flagged sentinel for the boundary metrics.
    """
    rows = []
    excluded = []
    for sample in samples:
        try:
            gt_axis = longest_axis(sample.mask)
        except EmptyMaskError:
            excluded.append(sample.id)
            continue
        with no_grad():
            out = model.forward(Tensor(sample.image[None, None, :, :]))
        pred = binarize(out.data[0, 0], threshold)
        tpr, fpr, ji, dsc, aer = region_metrics(pred, sample.mask)
        if pred.any():
            he, mae = boundary_errors(pred, sample.mask)
            pred_empty = False
        else:
            h, w = pred.shape
            he = mae = math.sqrt(h * h + w * w)
            pred_empty = True
        rows.append(ImageMetrics(
            sample_id=sample.id, tpr=tpr, fpr=fpr, ji=ji, dsc=dsc, aer=aer,
            he=he, mae=mae, longest_axis=gt_axis,
            is_small=bool(gt_axis <= small_axis), pred_empty=pred_empty))
    prov = dict(provenance or {})
    cfg = model.config
    prov.setdefault("arch", cfg.arch)
    prov.setdefault("input_size", cfg.input_size)
    prov.setdefault("base_filters", cfg.base_filters)
    prov.setdefault("model_seed", cfg.seed)
    prov.setdefault("threshold", threshold)
    prov.setdefault("small_axis", small_axis)
    return MetricsReport(rows=rows, aggregates=aggregate_rows(rows),
                         provenance=prov, excluded=excluded)


def report_to_json(report: MetricsReport) -> str:
    payload = {
        "provenance": report.provenance,
        "aggregates": report.aggregates,
        "excluded": report.excluded,
        "rows": [asdict(r) for r in report.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_CSV_HEADER = ("id", "TPR", "FPR", "JI", "DSC", "AER", "HE", "MAE",
               "longest_axis", "is_small")


def report_to_csv(report: MetricsReport) -> str:
    """One row per image: id, the seven metrics, longest_axis, is_small."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in report.rows:
        writer.writerow([r.sample_id] +
                        [repr(getattr(r, m)) for m in METRIC_NAMES] +
                        [repr(r.longest_axis), r.is_small])
    return buf.getvalue()

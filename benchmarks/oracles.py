"""Independent computations that the benchmark checks the program against.

Where the brute-force oracles in ``tests/reference.py`` are affordable
the workloads call them directly. The functions here cover the inputs
where they are not (512px masks, speckled predictions, large lesions):
they compute the same quantities by a different route, in bounded
memory, and are exact, so results must match the program bitwise.

* Squared distances between pixel centres are integers. They are
  reduced in int32 blocks and the square root is taken last; sqrt is
  correctly rounded and monotone, so min-then-sqrt equals the program's
  sqrt-then-min.
* Every vertex of the convex hull of a pixel set is the leftmost or
  rightmost pixel of its row, so the longest axis is the largest
  distance between row extremes.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 16384  # boundary points per block: 16384 x |G| int32 values


def region(pred: np.ndarray, gt: np.ndarray):
    """(tpr, fpr, ji, dsc, aer) from confusion counts, with the float
    operations of ``reference.region_scores_ref``."""
    code = 2 * np.asarray(pred, dtype=np.int8) + np.asarray(gt, dtype=np.int8)
    counts = np.bincount(code.ravel(), minlength=4)
    fn, fp, tp = int(counts[1]), int(counts[2]), int(counts[3])
    gsz = tp + fn
    tpr = tp / gsz
    fpr = fp / gsz
    ji = tp / (tp + fp + fn)
    dsc = 2 * tp / (tp + fp + gsz)
    aer = fpr + (1.0 - tpr)
    return tpr, fpr, ji, dsc, aer


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """(N, 2) int32 row-major centres of foreground pixels with fewer than
    four foreground 4-neighbours (off-image counts as background)."""
    m = np.pad(np.asarray(mask, dtype=np.uint8), 1)
    neighbours = m[:-2, 1:-1] + m[2:, 1:-1] + m[1:-1, :-2] + m[1:-1, 2:]
    inner = m[1:-1, 1:-1]
    rows, cols = np.nonzero((inner == 1) & (neighbours < 4))
    return np.stack([rows, cols], axis=1).astype(np.int32)


def nearest_sq(a: np.ndarray, g: np.ndarray):
    """Squared distance from each point of ``a`` to its nearest point of
    ``g`` and back, computed block by block."""
    d_ag = np.empty(len(a), dtype=np.int64)
    d_ga = np.full(len(g), np.iinfo(np.int32).max, dtype=np.int64)
    gy, gx = g[:, 0][None, :], g[:, 1][None, :]
    for lo in range(0, len(a), _BLOCK):
        blk = a[lo:lo + _BLOCK]
        dy = blk[:, 0][:, None] - gy
        dx = blk[:, 1][:, None] - gx
        d2 = dy * dy + dx * dx
        d_ag[lo:lo + len(blk)] = d2.min(axis=1)
        np.minimum(d_ga, d2.min(axis=0), out=d_ga)
    return d_ag, d_ga


def boundary_errors(pred: np.ndarray, gt: np.ndarray):
    """(he, mae) between the 4-connectivity boundaries of two masks."""
    d_ag2, d_ga2 = nearest_sq(boundary_points(pred), boundary_points(gt))
    d_ag = np.sqrt(d_ag2.astype(np.float64))
    d_ga = np.sqrt(d_ga2.astype(np.float64))
    he = max(float(d_ag.max()), float(d_ga.max()))
    mae = 0.5 * (float(np.mean(d_ag)) + float(np.mean(d_ga)))
    return he, mae


def boundary_pairs(pred: np.ndarray, gt: np.ndarray) -> int:
    """|A| * |G|: the size of the all-pairs boundary distance problem."""
    return len(boundary_points(pred)) * len(boundary_points(gt))


def longest_axis(mask: np.ndarray) -> float:
    """Largest distance between the row extremes of a non-empty mask."""
    m = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(m.any(axis=1))
    first = m[rows].argmax(axis=1)
    last = m.shape[1] - 1 - m[rows, ::-1].argmax(axis=1)
    ys = np.concatenate([rows, rows]).astype(np.int64)
    xs = np.concatenate([first, last]).astype(np.int64)
    dy = ys[:, None] - ys[None, :]
    dx = xs[:, None] - xs[None, :]
    return math.sqrt(int((dy * dy + dx * dx).max()))

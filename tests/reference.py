"""Brute-force reference implementations used only by the tests.

Everything here trades speed for obviousness: plain Python loops and
elementary formulas, independent of the vectorised code under test.
Where a test asserts bitwise equality, the reference performs the same
IEEE-754 operations per element (sums reduced with np.mean/np.max are
noted explicitly). The last section holds checks that call the library
itself: finite differences through its autodiff, sizes of a built model,
and the small/large split.
"""

import math
from fractions import Fraction

import numpy as np

from stanseg.autodiff import backward, no_grad
from stanseg.metrics import longest_axis


# ---------------------------------------------------------------- layer ops

def conv2d_ref(x, w, b):
    """Direct same-padded stride-1 convolution, O(B*Cout*H*W*Cin*k*k)."""
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = (k - 1) // 2
    out = np.zeros((bs, cout, h, wd))
    for n in range(bs):
        for co in range(cout):
            for i in range(h):
                for j in range(wd):
                    acc = b[co]
                    for ci in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                ii = i + di - pad
                                jj = j + dj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += x[n, ci, ii, jj] * w[co, ci, di, dj]
                    out[n, co, i, j] = acc
    return out


def conv2d_grads_ref(x, w, g):
    """Gradients (x, w, bias) of sum(g * conv2d(x, w, b)), accumulated
    term by term over the same loops as conv2d_ref."""
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    pad = (k - 1) // 2
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    gb = np.zeros(cout)
    for n in range(bs):
        for co in range(cout):
            for i in range(h):
                for j in range(wd):
                    gb[co] += g[n, co, i, j]
                    for ci in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                ii = i + di - pad
                                jj = j + dj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    gx[n, ci, ii, jj] += g[n, co, i, j] * w[co, ci, di, dj]
                                    gw[co, ci, di, dj] += g[n, co, i, j] * x[n, ci, ii, jj]
    return gx, gw, gb


def deconv2d_ref(x, w, b):
    """Transposed convolution, kernel 2 stride 2, by explicit scatter."""
    bs, cin, h, wd = x.shape
    cout = w.shape[0]
    out = np.zeros((bs, cout, 2 * h, 2 * wd))
    for n in range(bs):
        for co in range(cout):
            for ci in range(cin):
                for i in range(h):
                    for j in range(wd):
                        v = x[n, ci, i, j]
                        for di in range(2):
                            for dj in range(2):
                                out[n, co, 2 * i + di, 2 * j + dj] += v * w[co, ci, di, dj]
    for co in range(cout):
        out[:, co] += b[co]
    return out


def deconv2d_grads_ref(x, w, g):
    """Gradients (x, w, bias) of sum(g * deconv2d(x, w, b)), accumulated
    term by term over the same loops as deconv2d_ref."""
    bs, cin, h, wd = x.shape
    cout = w.shape[0]
    gx = np.zeros(x.shape)
    gw = np.zeros(w.shape)
    gb = np.zeros(cout)
    for n in range(bs):
        for co in range(cout):
            for i in range(2 * h):
                for j in range(2 * wd):
                    gb[co] += g[n, co, i, j]
            for ci in range(cin):
                for i in range(h):
                    for j in range(wd):
                        for di in range(2):
                            for dj in range(2):
                                go = g[n, co, 2 * i + di, 2 * j + dj]
                                gx[n, ci, i, j] += go * w[co, ci, di, dj]
                                gw[co, ci, di, dj] += go * x[n, ci, i, j]
    return gx, gw, gb


def maxpool2d_ref(x):
    """2x2 stride-2 max pooling via per-window max()."""
    bs, c, h, wd = x.shape
    out = np.zeros((bs, c, h // 2, wd // 2))
    for n in range(bs):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(wd // 2):
                    out[n, ci, i, j] = max(
                        x[n, ci, 2 * i, 2 * j], x[n, ci, 2 * i, 2 * j + 1],
                        x[n, ci, 2 * i + 1, 2 * j], x[n, ci, 2 * i + 1, 2 * j + 1])
    return out


def maxpool2d_first_argmax_ref(x):
    """Index (0..3, row-major within the window) of the first maximum."""
    bs, c, h, wd = x.shape
    idx = np.zeros((bs, c, h // 2, wd // 2), dtype=int)
    for n in range(bs):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(wd // 2):
                    vals = [x[n, ci, 2 * i, 2 * j], x[n, ci, 2 * i, 2 * j + 1],
                            x[n, ci, 2 * i + 1, 2 * j], x[n, ci, 2 * i + 1, 2 * j + 1]]
                    idx[n, ci, i, j] = vals.index(max(vals))
    return idx


# ------------------------------------------------------------ optimisation

def adam_scalar_ref(theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam recurrence for one scalar parameter."""
    m = 0.0
    v = 0.0
    th = theta0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        th = th - lr * mhat / (math.sqrt(vhat) + eps)
    return th


def dice_loss_ref(p, g):
    """1 - (1 + 2*sum(p*g)) / (1 + sum(p*p) + sum(g*g)) over all elements."""
    pg = pp = gg = 0.0
    for a, b in zip(p.reshape(-1).tolist(), g.reshape(-1).tolist()):
        pg += a * b
        pp += a * a
        gg += b * b
    return 1.0 - (1.0 + 2.0 * pg) / (1.0 + pp + gg)


# ------------------------------------------------------------- model sizes

def stan_layer_table(base_filters, in_channels=1):
    """(out_channels, in_channels, kernel) of every parameterised layer of
    the dual-branch network, in creation order (``STAN_LAYER_NAMES``)."""
    f = [base_filters * 2 ** k for k in range(4)]
    f5 = base_filters * 16
    layers = []
    cin = in_channels
    for fk in f:
        layers += [(fk, cin, 3), (fk, fk, 3)]                    # branch 1
        layers += [(fk // 2, cin, 1), (fk // 2, fk // 2, 3),     # branch 2, 1x1 path
                   (fk // 2, cin, 5), (fk // 2, fk // 2, 3)]     # branch 2, 5x5 path
        cin = fk
    layers += [(f5 // 2, f[3], 5), (f5 // 2, f5 // 2, 5),        # bottleneck paths
               (f5 // 4, f[3], 1), (f5 // 4, f5 // 4, 1),
               (f5 // 4, f[3], 3), (f5 // 4, f5 // 4, 3)]
    up_in = f5
    for fk in reversed(f):
        layers += [(fk, up_in, 2),                               # upsample
                   (fk, 2 * fk, 3), (fk // 2, fk, 5), (fk, 3 * fk // 2, 3)]
        up_in = 2 * fk
    layers += [(1, 2 * base_filters, 1)]                         # head
    return layers


def unet_layer_table(base_filters, in_channels=1):
    """Layer sizes of the single-branch baseline, in creation order
    (``UNET_LAYER_NAMES``)."""
    f = [base_filters * 2 ** k for k in range(4)]
    f5 = base_filters * 16
    layers = []
    cin = in_channels
    for fk in f:
        layers += [(fk, cin, 3), (fk, fk, 3)]
        cin = fk
    layers += [(f5, f[3], 3), (f5, f5, 3)]
    up_in = f5
    for fk in reversed(f):
        layers += [(fk, up_in, 2), (fk, 2 * fk, 3), (fk, fk, 3)]
        up_in = fk
    layers += [(1, base_filters, 1)]
    return layers


# Layer names in creation order, which is also the order of the arrays in a
# weight file and of the initial RNG draws; frozen, not derived.
STAN_LAYER_NAMES = [
    "enc1_b1_conv3a", "enc1_b1_conv3b", "enc1_b2_conv1", "enc1_b2_conv1_3",
    "enc1_b2_conv5", "enc1_b2_conv5_3",
    "enc2_b1_conv3a", "enc2_b1_conv3b", "enc2_b2_conv1", "enc2_b2_conv1_3",
    "enc2_b2_conv5", "enc2_b2_conv5_3",
    "enc3_b1_conv3a", "enc3_b1_conv3b", "enc3_b2_conv1", "enc3_b2_conv1_3",
    "enc3_b2_conv5", "enc3_b2_conv5_3",
    "enc4_b1_conv3a", "enc4_b1_conv3b", "enc4_b2_conv1", "enc4_b2_conv1_3",
    "enc4_b2_conv5", "enc4_b2_conv5_3",
    "mid_conv5a", "mid_conv5b", "mid_conv1a", "mid_conv1b", "mid_conv3a", "mid_conv3b",
    "dec4_up", "dec4_conv3a", "dec4_skip_conv5", "dec4_conv3b",
    "dec3_up", "dec3_conv3a", "dec3_skip_conv5", "dec3_conv3b",
    "dec2_up", "dec2_conv3a", "dec2_skip_conv5", "dec2_conv3b",
    "dec1_up", "dec1_conv3a", "dec1_skip_conv5", "dec1_conv3b",
    "head_conv1",
]

UNET_LAYER_NAMES = [
    "enc1_conv3a", "enc1_conv3b", "enc2_conv3a", "enc2_conv3b",
    "enc3_conv3a", "enc3_conv3b", "enc4_conv3a", "enc4_conv3b",
    "mid_conv3a", "mid_conv3b",
    "dec4_up", "dec4_conv3a", "dec4_conv3b", "dec3_up", "dec3_conv3a", "dec3_conv3b",
    "dec2_up", "dec2_conv3a", "dec2_conv3b", "dec1_up", "dec1_conv3a", "dec1_conv3b",
    "head_conv1",
]


def param_count_ref(layer_table):
    return sum(co * ci * k * k + co for co, ci, k in layer_table)


# ------------------------------------------------------ published baselines

# Reported (tpr, fpr, aer) rows for four segmentation methods on the BUSIS
# and Dataset B breast-ultrasound benchmarks, transcribed at their published
# 3-decimal rounding. "overall" covers every tumor, "small" the small-tumor
# stratum. aer is defined so that aer = fpr + 1 - tpr. That identity holds
# on the unrounded values; each figure is rounded to 3 decimals on its own,
# so the rounded figures of a row may miss it by up to three half-units.
# The rows have not been checked against the source tables, which this
# repository does not hold.
PUBLISHED_ROWS = [
    # stratum, dataset, method, tpr, fpr, aer
    ("overall", "busis", "fcn-alexnet", 0.950, 0.336, 0.386),
    ("overall", "busis", "segnet", 0.938, 0.158, 0.220),
    ("overall", "busis", "unet", 0.920, 0.138, 0.218),
    ("overall", "busis", "stan", 0.917, 0.093, 0.176),
    ("overall", "datasetb", "fcn-alexnet", 0.868, 1.167, 1.299),
    ("overall", "datasetb", "segnet", 0.852, 0.834, 0.982),
    ("overall", "datasetb", "unet", 0.776, 0.406, 0.630),
    ("overall", "datasetb", "stan", 0.801, 0.266, 0.465),
    ("small", "busis", "fcn-alexnet", 0.947, 0.767, 0.821),
    ("small", "busis", "segnet", 0.923, 0.251, 0.328),
    ("small", "busis", "unet", 0.920, 0.296, 0.376),
    ("small", "busis", "stan", 0.902, 0.165, 0.263),
    ("small", "datasetb", "fcn-alexnet", 0.868, 1.863, 1.995),
    ("small", "datasetb", "segnet", 0.854, 1.452, 1.598),
    ("small", "datasetb", "unet", 0.768, 0.682, 0.913),
    ("small", "datasetb", "stan", 0.814, 0.400, 0.586),
]

# One unit in the last place of a figure published at 3 decimals, and half
# of it: the most that rounding moves a figure from its unrounded value.
LAST_PLACE = Fraction(1, 1000)
ROUNDING_HALF_UNIT = LAST_PLACE / 2


def assert_aer_identity_at_rounding(tpr, fpr, aer):
    """Assert that unrounded figures within ROUNDING_HALF_UNIT of each of
    tpr, fpr and aer can satisfy aer = fpr + 1 - tpr; return the residual
    fpr + 1 - tpr - aer of the rounded figures.

    Works in exact arithmetic on the figures as written. Moving each figure
    by a third of the residual d is the witness whose largest move is
    smallest, so the check passes if and only if |d| <= 3 half-units.
    """
    figures = [Fraction(repr(v)) for v in (tpr, fpr, aer)]
    tpr, fpr, aer = figures
    d = fpr + 1 - tpr - aer
    witness = [tpr + d / 3, fpr - d / 3, aer + d / 3]
    w_tpr, w_fpr, w_aer = witness
    assert w_aer == w_fpr + 1 - w_tpr
    move = max(abs(w - f) for w, f in zip(witness, figures))
    assert move <= ROUNDING_HALF_UNIT, (
        f"tpr {float(tpr)}, fpr {float(fpr)}, aer {float(aer)}: residual "
        f"{float(d):+.4f} needs each figure moved by {float(move):.5f}, "
        f"more than its rounding half-unit {float(ROUNDING_HALF_UNIT)}")
    return d


# ------------------------------------------------------------------ masks

def count_confusion_ref(pred, gt):
    """(tp, fp, fn, tn) by per-pixel counting."""
    tp = fp = fn = tn = 0
    h, w = pred.shape
    for i in range(h):
        for j in range(w):
            p = bool(pred[i, j])
            g = bool(gt[i, j])
            if p and g:
                tp += 1
            elif p and not g:
                fp += 1
            elif g:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def region_scores_ref(pred, gt):
    """(tpr, fpr, ji, dsc, aer) from the confusion counts.

    aer uses the identity fpr + (1 - tpr) so that the reference performs
    the same float operations as the library.
    """
    tp, fp, fn, _ = count_confusion_ref(pred, gt)
    gsz = tp + fn
    area = tp + fp
    union = tp + fp + fn
    tpr = tp / gsz
    fpr = fp / gsz
    ji = tp / union
    dsc = 2 * tp / (area + gsz)
    aer = fpr + (1.0 - tpr)
    return tpr, fpr, ji, dsc, aer


def boundary_points_ref(mask):
    """Foreground pixel centres with a 4-neighbour outside the region."""
    h, w = mask.shape
    pts = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if not (0 <= a < h and 0 <= b < w) or not mask[a, b]:
                    pts.append((float(i), float(j)))
                    break
    return pts


def nearest_distances_ref(src, dst):
    """For each point of src, euclidean distance to the closest dst point."""
    out = []
    for (ai, aj) in src:
        best = math.inf
        for (bi, bj) in dst:
            di = ai - bi
            dj = aj - bj
            d = math.sqrt(di * di + dj * dj)
            if d < best:
                best = d
            if best == 0.0:
                break
        out.append(best)
    return out


def boundary_errors_ref(pred, gt):
    """(hausdorff, mean_absolute) between the two boundary point sets.

    Reductions use np.mean / max so the arithmetic mirrors the library.
    """
    bp = boundary_points_ref(pred)
    bg = boundary_points_ref(gt)
    d_pg = nearest_distances_ref(bp, bg)
    d_gp = nearest_distances_ref(bg, bp)
    he = max(max(d_pg), max(d_gp))
    mae = 0.5 * (float(np.mean(d_pg)) + float(np.mean(d_gp)))
    return he, mae


def longest_axis_ref(mask):
    """Max pairwise distance between foreground pixel centres, O(n^2)."""
    pts = [(i, j) for i in range(mask.shape[0]) for j in range(mask.shape[1])
           if mask[i, j]]
    best = 0
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            di = pts[a][0] - pts[b][0]
            dj = pts[a][1] - pts[b][1]
            d2 = di * di + dj * dj
            if d2 > best:
                best = d2
    return math.sqrt(best)


# ------------------------------------------------------------------ images

def bilinear_resize_ref(img, out_h, out_w):
    """Centre-aligned bilinear interpolation, one output pixel at a time."""
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    sy = in_h / out_h
    sx = in_w / out_w
    for i in range(out_h):
        for j in range(out_w):
            fy = (i + 0.5) * sy - 0.5
            fx = (j + 0.5) * sx - 0.5
            y0 = math.floor(fy)
            x0 = math.floor(fx)
            wy = fy - y0
            wx = fx - x0
            y0c = min(max(y0, 0), in_h - 1)
            y1c = min(max(y0 + 1, 0), in_h - 1)
            x0c = min(max(x0, 0), in_w - 1)
            x1c = min(max(x0 + 1, 0), in_w - 1)
            top = img[y0c, x0c] * (1.0 - wx) + img[y0c, x1c] * wx
            bot = img[y1c, x0c] * (1.0 - wx) + img[y1c, x1c] * wx
            out[i, j] = top * (1.0 - wy) + bot * wy
    return out


def nearest_resize_ref(mask, out_h, out_w):
    """Nearest-neighbour mask resize with centre-aligned sampling."""
    in_h, in_w = mask.shape
    out = np.zeros((out_h, out_w), dtype=mask.dtype)
    for i in range(out_h):
        for j in range(out_w):
            si = min(int(math.floor((i + 0.5) * in_h / out_h)), in_h - 1)
            sj = min(int(math.floor((j + 0.5) * in_w / out_w)), in_w - 1)
            out[i, j] = mask[si, sj]
    return out


def ellipse_mask_ref(h, w, cy, cx, ry, rx, theta):
    """Pixel centres inside a rotated ellipse, one inequality per pixel."""
    out = np.zeros((h, w), dtype=bool)
    ct = math.cos(theta)
    st = math.sin(theta)
    for i in range(h):
        for j in range(w):
            dy = i - cy
            dx = j - cx
            u = (dx * ct + dy * st) / rx
            v = (-dx * st + dy * ct) / ry
            out[i, j] = u * u + v * v <= 1.0
    return out


# ------------------------------------------------- checks through stanseg

def grad_check(f, x, h=1e-5):
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


def param_count(model):
    """Total number of scalar parameters (weights + biases) of a built model."""
    return sum(p.weights.size + p.bias.size for p in model.params.values())


def wiring(model):
    """(name, out_channels, in_channels, kernel) per layer of a built model,
    in creation order; kernel 2 marks a stride-2 transposed convolution."""
    return tuple((name, p.out_channels, p.in_channels, p.kernel_size)
                 for name, p in model.params.items())


def is_small(mask, threshold=120.0):
    """Longest axis at most ``threshold`` pixels (inclusive)."""
    return longest_axis(mask) <= threshold

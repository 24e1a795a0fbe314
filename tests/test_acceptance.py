"""Acceptance gate: eight go/no-go checks.

Each test covers one numbered criterion and prints a single
``criterion N (<name>): PASS|FAIL`` line. Criterion 5 checks each
transcribed benchmark row's aer = fpr + 1 - tpr identity at the
rounding half-unit (0.0005) of each 3-decimal figure, and lists the
rows whose rounded figures miss the identity by a last-place unit.
"""

import json
import time

import numpy as np
import pytest

from stanseg.autodiff import (
    ConvParams,
    Tensor,
    backward,
    concat_channels,
    conv2d,
    deconv2d,
    maxpool2d,
    no_grad,
    relu,
    sigmoid,
)
from stanseg.cli import main
from stanseg.data_io import SynthConfig, synth_generate
from stanseg.metrics import evaluate, region_metrics, boundary_errors
from stanseg.model import ModelConfig, build_model, named_arrays, save_weights
from stanseg.training import TrainConfig, dice_loss, train

from reference import (
    LAST_PLACE,
    PUBLISHED_ROWS,
    assert_aer_identity_at_rounding,
    boundary_errors_ref,
    grad_check,
    is_small,
    param_count,
    param_count_ref,
    region_scores_ref,
    stan_layer_table,
)


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    results = []

    def weighted(value, r):
        return (value * r).sum()

    # conv2d at each kernel size: input, weights, and bias gradients
    for k in (1, 3, 5):
        for i, (b, cin, cout, h, w) in enumerate(
                ((1, 1, 2, 6, 5), (2, 2, 3, 5, 7), (1, 3, 1, 8, 4))):
            rng = np.random.default_rng(100 * k + i)
            x = Tensor(rng.standard_normal((b, cin, h, w)))
            wt = Tensor(rng.standard_normal((cout, cin, k, k)))
            bias = Tensor(rng.standard_normal(cout))
            r = Tensor(rng.standard_normal((b, cout, h, w)))
            err = max(
                grad_check(lambda t: weighted(conv2d(t, ConvParams(wt, bias)), r), x),
                grad_check(lambda t: weighted(conv2d(x, ConvParams(t, bias)), r), wt),
                grad_check(lambda t: weighted(conv2d(x, ConvParams(wt, t)), r), bias))
            results.append((f"conv2d k={k}", err))

    for i, (b, cin, cout, h, w) in enumerate(
            ((1, 2, 2, 3, 3), (2, 1, 3, 4, 2), (1, 3, 1, 2, 5))):
        rng = np.random.default_rng(200 + i)
        x = Tensor(rng.standard_normal((b, cin, h, w)))
        wt = Tensor(rng.standard_normal((cout, cin, 2, 2)))
        bias = Tensor(rng.standard_normal(cout))
        r = Tensor(rng.standard_normal((b, cout, 2 * h, 2 * w)))
        err = max(
            grad_check(lambda t: weighted(deconv2d(t, ConvParams(wt, bias)), r), x),
            grad_check(lambda t: weighted(deconv2d(x, ConvParams(t, bias)), r), wt),
            grad_check(lambda t: weighted(deconv2d(x, ConvParams(wt, t)), r), bias))
        results.append(("deconv2d", err))

    for i, (b, c, h, w) in enumerate(((1, 1, 4, 4), (2, 2, 6, 4), (1, 3, 8, 6))):
        rng = np.random.default_rng(300 + i)
        x = Tensor(rng.standard_normal((b, c, h, w)))
        r = Tensor(rng.standard_normal((b, c, h // 2, w // 2)))
        results.append(("maxpool2d",
                        grad_check(lambda t: weighted(maxpool2d(t), r), x)))

    for i, shape in enumerate(((3, 3), (2, 2, 4, 4), (7,))):
        rng = np.random.default_rng(400 + i)
        # keep inputs away from the relu kink so differences stay one-sided
        x = Tensor(np.where(rng.standard_normal(shape) >= 0, 1.0, -1.0)
                   * rng.uniform(0.1, 1.0, shape))
        r = Tensor(rng.standard_normal(shape))
        results.append(("relu", grad_check(lambda t: weighted(relu(t), r), x)))

    for i, shape in enumerate(((4, 4), (1, 2, 3, 3), (9,))):
        rng = np.random.default_rng(500 + i)
        x = Tensor(rng.uniform(-3.0, 3.0, shape))
        r = Tensor(rng.standard_normal(shape))
        results.append(("sigmoid",
                        grad_check(lambda t: weighted(sigmoid(t), r), x)))

    for i, (c1, c2) in enumerate(((1, 2), (2, 2), (3, 1))):
        rng = np.random.default_rng(600 + i)
        x = Tensor(rng.standard_normal((1, c1, 3, 4)))
        y = Tensor(rng.standard_normal((1, c2, 3, 4)))
        r = Tensor(rng.standard_normal((1, c1 + c2, 3, 4)))
        err = max(
            grad_check(lambda t: weighted(concat_channels(t, y), r), x),
            grad_check(lambda t: weighted(concat_channels(x, t), r), y))
        results.append(("concat", err))

    for i, shape in enumerate(((4, 4), (1, 1, 5, 5), (2, 1, 4, 4))):
        rng = np.random.default_rng(700 + i)
        g = Tensor((rng.random(shape) > 0.6).astype(float))
        p = Tensor(rng.uniform(0.05, 0.95, shape))
        results.append(("dice_loss",
                        grad_check(lambda t: dice_loss(t, g), p)))

    worst_op, worst = max(results, key=lambda item: item[1])

    # full network: sampled parameter entries against central differences
    model = build_model(ModelConfig(input_size=32, base_filters=4,
                                    arch="stan", seed=11))
    rng = np.random.default_rng(12)
    x = Tensor(rng.random((1, 1, 32, 32)))
    g = Tensor((rng.random((1, 1, 32, 32)) > 0.7).astype(float))
    backward(dice_loss(model.forward(x), g))
    arrays = dict(named_arrays(model))
    names = sorted(arrays)
    flat_index = [(n, i) for n in names for i in range(arrays[n].size)]

    def loss_value():
        with no_grad():
            return float(dice_loss(model.forward(x), g).data)

    h = 1e-5
    e2e = 0.0
    for p in rng.choice(len(flat_index), size=150, replace=False):
        name, i = flat_index[p]
        t = arrays[name]
        idx = np.unravel_index(i, t.data.shape)
        orig = t.data[idx]
        t.data[idx] = orig + h
        fp = loss_value()
        t.data[idx] = orig - h
        fm = loss_value()
        t.data[idx] = orig
        numeric = (fp - fm) / (2.0 * h)
        rel = abs(t.grad[idx] - numeric) / max(1.0, abs(t.grad[idx]))
        e2e = max(e2e, rel)

    elapsed = time.perf_counter() - started
    ok = worst < 1e-5 and e2e < 1e-4 and elapsed < 120.0
    _verdict(1, "gradient correctness", ok,
             f"worst op {worst_op} {worst:.2e}, end-to-end {e2e:.2e}, "
             f"{elapsed:.0f}s")
    assert worst < 1e-5, f"{worst_op} finite-difference error {worst}"
    assert e2e < 1e-4, f"end-to-end finite-difference error {e2e}"
    assert elapsed < 120.0, f"gradient sweep took {elapsed:.0f}s"


def test_criterion_2_architecture_fidelity():
    model = build_model(ModelConfig(input_size=256, base_filters=32,
                                    arch="stan", seed=0))
    x = Tensor(np.random.default_rng(1).random((1, 1, 256, 256)))
    trace = {}
    out = model.forward(x, trace=trace)

    shape_ok = out.shape == (1, 1, 256, 256)
    range_ok = bool((out.data > 0.0).all() and (out.data < 1.0).all())

    links_ok = True
    for k in (1, 2, 3, 4):
        skip_a = trace[f"enc{k}_skip_a"]
        skip_b = trace[f"enc{k}_skip_b"]
        cat_up = trace[f"dec{k}_cat_up"]
        cat_mid = trace[f"dec{k}_cat_mid"]
        block_out = trace[f"dec{k}_out"]
        link1 = cat_up.node.op == "concat" and cat_up.node.parents[1] is skip_a
        s5 = cat_mid.node.parents[1]
        link2 = (s5.node.op == "relu"
                 and s5.node.parents[0].node.op == "conv2d"
                 and s5.node.parents[0].node.parents[0] is skip_a
                 and s5.node.parents[0].node.parents[1].shape[3] == 5)
        link3 = (block_out.node.op == "concat"
                 and block_out.node.parents[1] is skip_b)
        links_ok = links_ok and link1 and link2 and link3

    expected = param_count_ref(stan_layer_table(32))
    count = param_count(model)
    count_ok = count == expected == 10593041

    ok = shape_ok and range_ok and links_ok and count_ok
    _verdict(2, "architecture fidelity", ok,
             f"out {out.shape}, three links per block {links_ok}, "
             f"params {count}")
    assert shape_ok and range_ok
    assert links_ok, "a decoder block is missing one of its three skip links"
    assert count_ok, f"param count {count}, expected {expected}"


def test_criterion_3_loss_identities():
    g1 = (np.random.default_rng(1).random((2, 1, 4, 4)) > 0.5).astype(float)
    perfect = abs(float(dice_loss(Tensor(g1), Tensor(g1)).data))

    g2 = np.zeros((1, 1, 4, 4))
    g2[0, 0, :2, :2] = 1.0
    zero_pred = abs(float(dice_loss(Tensor(np.zeros((1, 1, 4, 4))),
                                    Tensor(g2)).data) - 0.8)

    g3 = np.zeros((2, 2))
    g3[0, 0] = 1.0
    half = abs(float(dice_loss(Tensor(np.full((2, 2), 0.5)),
                               Tensor(g3)).data) - 1.0 / 3.0)

    ok = perfect <= 1e-12 and zero_pred <= 1e-12 and half <= 1e-12
    _verdict(3, "loss identities", ok,
             f"residuals {perfect:.1e}, {zero_pred:.1e}, {half:.1e}")
    assert ok


def test_criterion_4_metric_oracle_equivalence():
    region_mismatches = 0
    boundary_mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a = rng.random((16, 16)) < 0.4
        g = rng.random((16, 16)) < 0.4
        a[7, 7] = True
        g[8, 8] = True
        if region_metrics(a, g) != region_scores_ref(a, g):
            region_mismatches += 1
        if boundary_errors(a, g) != boundary_errors_ref(a, g):
            boundary_mismatches += 1
    ok = region_mismatches == 0 and boundary_mismatches == 0
    _verdict(4, "metric oracle equivalence", ok,
             f"{region_mismatches} region and {boundary_mismatches} "
             f"boundary mismatches in 100 pairs")
    assert ok


def test_criterion_5_published_table_identities():
    residuals = {}
    try:
        for stratum, dataset, method, tpr, fpr, aer in PUBLISHED_ROWS:
            residuals[f"{stratum}/{dataset}/{method}"] = \
                assert_aer_identity_at_rounding(tpr, fpr, aer)
    finally:
        # Runs whether or not a row failed, so a FAIL line is printed too.
        ok = len(residuals) == len(PUBLISHED_ROWS)
        off = [f"{row} {float(d / LAST_PLACE):+g}"
               for row, d in residuals.items() if d]
        _verdict(5, "published-table identities", ok,
                 f"{len(residuals)} of {len(PUBLISHED_ROWS)} rows within "
                 "rounding; last-place residuals: "
                 + (", ".join(off) or "none"))


def test_criterion_6_overfit_smoke():
    samples = synth_generate(SynthConfig(count=8, image_size=64, seed=5))
    scores = {}
    times = {}
    for arch in ("stan", "unet"):
        t0 = time.perf_counter()
        model = build_model(ModelConfig(input_size=64, base_filters=8,
                                        arch=arch, seed=5))
        model, _ = train(model, samples, TrainConfig(
            epochs=80, batch_size=4, learning_rate=1e-3, seed=5))
        times[arch] = time.perf_counter() - t0
        scores[arch] = evaluate(model, samples).aggregates["all"]["dsc"]
    ok = all(v >= 0.95 for v in scores.values()) \
        and all(t < 600.0 for t in times.values())
    _verdict(6, "overfit smoke", ok,
             f"stan {scores['stan']:.4f} in {times['stan']:.0f}s, "
             f"unet {scores['unet']:.4f} in {times['unet']:.0f}s")
    assert scores["stan"] >= 0.95, scores
    assert scores["unet"] >= 0.95, scores
    assert max(times.values()) < 600.0, times


def test_criterion_7_end_to_end_determinism(tmp_path):
    base = ["--input-size", "16", "--base-filters", "4", "--seed", "21"]

    def pipeline(root):
        data = root / "data"
        run = root / "run"
        rep = root / "rep"
        assert main(["synth", "--count", "3", "--axis-list", "6,8",
                     "--input-size", "16", "--seed", "21", str(data)]) == 0
        assert main(["train", "--epochs", "2", "--batch-size", "2",
                     *base, str(data), str(run)]) == 0
        assert main(["eval", str(run / "weights.bin"), str(data),
                     str(rep)]) == 0
        return {
            "weights": (run / "weights.bin").read_bytes(),
            "report.json": (rep / "report.json").read_bytes(),
            "report.csv": (rep / "report.csv").read_bytes(),
        }

    first = pipeline(tmp_path / "one")
    second = pipeline(tmp_path / "two")
    same = {k for k in first if first[k] == second[k]}
    ok = same == set(first)
    _verdict(7, "end-to-end determinism", ok,
             "bitwise identical" if ok else f"only {sorted(same)} matched")
    assert ok, f"artifacts differ: {sorted(set(first) - same)}"


def test_criterion_8_stratification(tmp_path):
    axes = (80.0, 100.0, 140.0, 200.0)
    samples = synth_generate(SynthConfig(count=4, image_size=256,
                                         axis_list=axes, seed=9))
    pattern = [is_small(s.mask, 120.0) for s in samples]
    pattern_ok = pattern == [True, True, False, False]

    data = tmp_path / "data"
    assert main(["synth", "--count", "4", "--input-size", "256",
                 "--axis-list", "80,100,140,200", "--seed", "9",
                 str(data)]) == 0
    weights = tmp_path / "weights.bin"
    save_weights(build_model(ModelConfig(input_size=256, base_filters=4,
                                         arch="stan", seed=0)), weights)
    rep = tmp_path / "rep"
    assert main(["eval", str(weights), str(data), str(rep)]) == 0

    payload = json.loads((rep / "report.json").read_text())
    rows = payload["rows"]
    flags = [row["is_small"] for row in rows]
    small_rows = [row for row in rows if row["is_small"]]
    small_ids_ok = sorted(r["sample_id"] for r in small_rows) == \
        ["synth000", "synth001"]
    agg = payload["aggregates"]["small"]
    n_ok = agg["n"] == 2
    means_ok = all(
        agg[m] == float(np.mean([r[m] for r in small_rows]))
        for m in ("tpr", "fpr", "ji", "dsc", "aer", "he", "mae"))

    ok = pattern_ok and flags == [True, True, False, False] \
        and small_ids_ok and n_ok and means_ok
    _verdict(8, "size stratification", ok,
             f"is_small pattern {pattern}, small table n={agg['n']}")
    assert pattern_ok, pattern
    assert small_ids_ok and n_ok and means_ok

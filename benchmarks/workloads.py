"""The two workloads: what each sets up, times and checks.

Both are closed-loop batch jobs with one client: the next unit of
work starts when the previous one has finished. Inputs derive only from
the workload seed. Each workload calls stanseg through its public
functions; the spans of a traced run come from ``spans.install``.

A workload runs in three stages, driven by ``worker.py``:

* ``setup()`` makes the inputs, builds what the timed loop needs and
  runs the first item as warm-up; it is repeated and timed as set-up.
* ``run_unit(index, timed)`` runs one unit of work (a training call or
  a cycle of mask pairs) and wraps the measured part in
  ``timed``; it returns a ``Unit``.
* ``check()`` compares every output with an oracle, outside the timed
  region, and returns a ``Check``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles
import reference


@dataclass
class Unit:
    """One unit of timed work: its wall time, how many samples or pairs
    it processed, and the latency of each item in it."""

    wall_s: float
    work: int
    latencies_s: list[float]


@dataclass
class Check:
    """Correctness outcome: items attempted and failed, why, and what a
    later commit can be compared with."""

    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ----------------------------------------------------------------- train

def check_train(calls: list[tuple[list[float], str]]):
    """Per-call problems for (epoch losses, sha256 of final weights) pairs.

    Every loss must be finite, the last epoch's loss must be below the
    first's, and every call must reproduce the first call's trajectory
    and weights bitwise, since all calls start from the same seed.
    Returns one list of problems per call.
    """
    out = []
    first_losses, first_sha = calls[0] if calls else ([], "")
    for losses, sha in calls:
        problems = []
        if not _finite(losses):
            problems.append("non-finite loss")
        elif not losses or losses[-1] >= losses[0]:
            problems.append("last epoch loss not below first")
        if losses != first_losses or sha != first_sha:
            problems.append("differs from the first call with the same seed")
        out.append(problems)
    return out


class TrainStan64:
    """``training.train`` on stan, 64px, bf8, batch 4, dice loss, Adam and
    shift augmentation, over 4 in-memory phantoms, so that each epoch is
    exactly one step and ``epoch_seconds`` gives per-step latency."""

    name = "train-stan64"
    item = "step"
    work_unit = "samples"

    def __init__(self, seed: int, workdir: Path, sg):
        self.sg = sg
        self.workdir = workdir
        self.model_cfg = sg.model.ModelConfig(input_size=64, base_filters=8,
                                              arch="stan", seed=seed)
        self.train_cfg = sg.training.TrainConfig(
            batch_size=4, epochs=10, learning_rate=1e-3, shift_fraction=0.1,
            seed=seed)
        self.synth_cfg = sg.data_io.SynthConfig(count=4, image_size=64, seed=seed)
        self.config = {"model": asdict(self.model_cfg),
                       "train": asdict(self.train_cfg),
                       "synth": asdict(self.synth_cfg),
                       "unit": f"one train() call of {self.train_cfg.epochs} "
                               "one-step epochs"}
        self.calls: list[tuple[list[float], str]] = []

    def setup(self):
        sg = self.sg
        self.samples = sg.data_io.synth_generate(self.synth_cfg)
        model = sg.model.build_model(self.model_cfg)
        sg.training.train(model, self.samples, replace(self.train_cfg, epochs=1))

    def run_unit(self, index: int, timed) -> Unit:
        sg = self.sg
        model = sg.model.build_model(self.model_cfg)
        with timed(index) as clock:
            _, history = sg.training.train(model, self.samples, self.train_cfg)
        path = self.workdir / "weights.bin"
        sg.model.save_weights(model, path)
        self.calls.append((list(history.epoch_losses), _sha256(path)))
        batch = self.train_cfg.batch_size
        return Unit(clock.seconds, batch * len(history.epoch_seconds),
                    list(history.epoch_seconds))

    def check(self) -> Check:
        per_call = check_train(self.calls)
        steps = self.train_cfg.epochs
        problems = [f"call {i}: {p}" for i, ps in enumerate(per_call) for p in ps]
        losses, sha = self.calls[0]
        return Check(attempted=steps * len(self.calls),
                     failed=steps * sum(1 for ps in per_call if ps),
                     problems=problems,
                     record={"final_weights_sha256": sha, "loss_trajectory": losses})


# ----------------------------------------------------------------- score

PAIRS_PER_CYCLE = 4     # the first pair of each cycle is speckled
# lesions of nearly one size keep the cost of a pair, and so p50, p90 and
# peak RSS, steady from seed to seed
SEMI_MAJOR = (70.0, 74.0)
AXIS_RATIO = (0.74, 0.76)


def _ellipse(size, cy, cx, ry, rx, theta) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    c, s = math.cos(theta), math.sin(theta)
    u = ((xx - cx) * c + (yy - cy) * s) / rx
    v = (-(xx - cx) * s + (yy - cy) * c) / ry
    return u * u + v * v <= 1.0


def make_pair(seed: int, index: int, size: int = 512):
    """(kind, pred, gt) for pair ``index``: the first pair of each cycle is
    a Bernoulli speckle prediction, the others a perturbed copy of the
    ground-truth ellipse."""
    rng = np.random.default_rng([seed, index])
    a = rng.uniform(*SEMI_MAJOR)
    b = a * rng.uniform(*AXIS_RATIO)
    theta = rng.uniform(0.0, math.pi)
    cy, cx = rng.uniform(a + 8.0, size - 9.0 - a, size=2)
    gt = _ellipse(size, cy, cx, b, a, theta)
    if index % PAIRS_PER_CYCLE == 0:
        return "speckled", rng.random((size, size)) < 0.5, gt
    jy, jx = rng.uniform(-4.0, 4.0, size=2)
    sa, sb = rng.uniform(0.9, 1.1, size=2)
    pred = _ellipse(size, cy + jy, cx + jx, b * sb, a * sa,
                    theta + rng.uniform(-0.15, 0.15))
    return "clean", pred, gt


def check_pair(row: dict, pred: np.ndarray, gt: np.ndarray,
               use_reference: bool = False) -> list[str]:
    """Problems with one scored pair against the oracles."""
    if use_reference:
        region = reference.region_scores_ref(pred, gt)
        boundary = reference.boundary_errors_ref(pred, gt)
    else:
        region = oracles.region(pred, gt)
        boundary = oracles.boundary_errors(pred, gt)
    expected = dict(zip(("tpr", "fpr", "ji", "dsc", "aer"), region))
    expected["he"], expected["mae"] = boundary
    expected["longest_axis"] = oracles.longest_axis(gt)
    return [f"{k} = {row[k]!r}, oracle {v!r}" for k, v in expected.items()
            if row[k] != v]


def check_report(rows: list[dict], json_text: str, csv_text: str) -> list[str]:
    """Problems with one cycle's serialised report against its rows."""
    problems = []
    payload = json.loads(json_text)
    if payload["rows"] != rows:
        problems.append("report.json rows differ from the scored rows")
    if payload["aggregates"]["all"]["n"] != len(rows):
        problems.append("aggregate count differs from the row count")
    for key in ("tpr", "he"):
        want = float(np.mean([r[key] for r in rows]))
        if payload["aggregates"]["all"][key] != want:
            problems.append(f"aggregate {key} is not the mean of the rows")
    table = list(csv.reader(io.StringIO(csv_text)))
    body = table[1:]
    if len(body) != len(rows) or any(
            float(line[1]) != r["tpr"] or float(line[7]) != r["mae"]
            for line, r in zip(body, rows)):
        problems.append("report.csv differs from the scored rows")
    return problems


class ScoreMasks512:
    """The metrics functions alone on 512px (pred, gt) pairs: per cycle, one
    Bernoulli speckle prediction (the output of an untrained or diverged
    model) and three clean ellipse predictions; each cycle ends with
    aggregation and both report serialisers. The first pair, speckled,
    is the warm-up."""

    name = "score-masks512"
    # Latency is per cycle, not per pair: a clean pair's cost is mostly
    # Python (longest_axis), whose speed on a shared host drifts by a
    # quarter from minute to minute, while a cycle is dominated by the
    # speckled pair. Per-pair times are kept in the result's record.
    item = "cycle"
    work_unit = "pairs"
    small_axis = 120.0

    def __init__(self, seed: int, workdir: Path, sg):
        self.sg = sg
        self.seed = seed
        self.config = {"size": 512, "pairs_per_cycle": PAIRS_PER_CYCLE,
                       "speckled_per_cycle": 1, "speckle_p": 0.5,
                       "gt_semi_major": SEMI_MAJOR, "gt_axis_ratio": AXIS_RATIO,
                       "unit": "one cycle of pairs, aggregate, JSON and CSV report"}
        self.pairs: list = []       # (kind, pred, gt, row, seconds)
        self.cycles: list = []      # (first pair index, json, csv)

    def _score(self, sample_id: str, pred, gt):
        me = self.sg.metrics
        tpr, fpr, ji, dsc, aer = me.region_metrics(pred, gt)
        he, mae = me.boundary_errors(pred, gt)
        axis = me.longest_axis(gt)
        return me.ImageMetrics(sample_id=sample_id, tpr=tpr, fpr=fpr, ji=ji,
                               dsc=dsc, aer=aer, he=he, mae=mae,
                               longest_axis=axis, is_small=axis <= self.small_axis)

    def _report(self, rows):
        me = self.sg.metrics
        report = me.MetricsReport(rows=rows, aggregates=me.aggregate_rows(rows),
                                  provenance={"seed": self.seed})
        return me.report_to_json(report), me.report_to_csv(report)

    def setup(self):
        _, pred, gt = make_pair(self.seed, 0)
        self._report([self._score("pair00000", pred, gt)])

    def run_unit(self, index: int, timed) -> Unit:
        first = index * PAIRS_PER_CYCLE
        batch = [make_pair(self.seed, first + k) for k in range(PAIRS_PER_CYCLE)]
        rows = []
        pair_s = []
        with timed(index) as clock:
            for k, (kind, pred, gt) in enumerate(batch):
                started = clock.now()
                rows.append(self._score(f"pair{first + k:05d}", pred, gt))
                pair_s.append(clock.now() - started)
            json_text, csv_text = self._report(rows)
        for (kind, pred, gt), row, seconds in zip(batch, rows, pair_s):
            self.pairs.append((kind, pred, gt, asdict(row), seconds))
        self.cycles.append((first, json_text, csv_text))
        return Unit(clock.seconds, len(batch), [clock.seconds])

    def check(self) -> Check:
        bad = set()
        problems = []
        for i, (kind, pred, gt, row, _) in enumerate(self.pairs):
            # the tests' brute-force oracle is affordable on the first clean pair
            for p in check_pair(row, pred, gt, use_reference=(i == 1)):
                bad.add(i)
                problems.append(f"pair {i} ({kind}): {p}")
        for first, json_text, csv_text in self.cycles:
            rows = [p[3] for p in self.pairs[first:first + PAIRS_PER_CYCLE]]
            for p in check_report(rows, json_text, csv_text):
                bad.update(range(first, first + len(rows)))
                problems.append(f"cycle at pair {first}: {p}")
        return Check(attempted=len(self.pairs), failed=len(bad), problems=problems,
                     record={"kind": [p[0] for p in self.pairs],
                             "pair_ms": [1e3 * p[4] for p in self.pairs],
                             "boundary_pairs": [oracles.boundary_pairs(p[1], p[2])
                                                for p in self.pairs]})


WORKLOADS = {w.name: w for w in (TrainStan64, ScoreMasks512)}

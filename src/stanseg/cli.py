"""Command-line pipeline: generate phantoms, train, predict, evaluate.

Settings resolve in three layers: dataclass defaults, then a flat
``key = value`` config file given with --config, then explicit flags.
Every JSON artifact embeds the fully resolved settings so a run can be
reproduced from its outputs alone. Errors leave exit code 1 and a
single ``stanseg: error: <Type>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

from .autodiff import Tensor, no_grad
from .data_io import (
    SynthConfig,
    bilinear_resize,
    dataset_manifest,
    nearest_resize,
    read_pgm,
    save_image,
    save_mask,
    synth_generate,
)
from .metrics import binarize, evaluate, report_to_csv, report_to_json
from .model import (ARCHITECTURES, ModelConfig, build_model, load_weights,
                    save_weights)
from .training import TrainConfig, cross_validate, history_to_dict, train


class ConfigError(ValueError):
    """Bad key, value, or syntax in a config file."""


# The library configs own every setting's name, type and default; the
# flat keys below are derived from them. A key declared by several
# sections takes its type and default from the first.
_SECTIONS = (ModelConfig, TrainConfig, SynthConfig)
_FLAT_KEYS = {"image_size": "input_size"}  # section field -> flat key
_EVAL_SETTINGS = {"threshold": (float, 0.5), "small_axis": (float, 120.0)}


def _run_fields() -> dict:
    """Flat key -> (type, default), sections first, then evaluation."""
    fields = {}
    for section in _SECTIONS:
        hints = typing.get_type_hints(section)
        for f in dataclasses.fields(section):
            fields.setdefault(_FLAT_KEYS.get(f.name, f.name),
                              (hints[f.name], f.default))
    return {**fields, **_EVAL_SETTINGS}


def _validate(run) -> None:
    for f in dataclasses.fields(run):
        value = getattr(run, f.name)
        numbers = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    if not 0.0 < run.threshold <= 1.0:
        raise ConfigError(f"threshold must be in (0, 1], got {run.threshold}")
    if run.small_axis <= 0:
        raise ConfigError(f"small_axis must be positive, got {run.small_axis}")


RunConfig = dataclasses.make_dataclass(
    "RunConfig", [(key, tp, dataclasses.field(default=default))
                  for key, (tp, default) in _run_fields().items()],
    frozen=True, namespace={
        "__module__": __name__, "__post_init__": _validate,
        "__doc__": "Flat union of model, training, synthesis, and "
                   "evaluation settings."})


def project(run, section):
    """The ``section`` config (ModelConfig, TrainConfig or SynthConfig)
    holding ``run``'s values for its fields."""
    return section(**{f.name: getattr(run, _FLAT_KEYS.get(f.name, f.name))
                      for f in dataclasses.fields(section)})


def _float_list(text: str) -> tuple[float, ...] | None:
    """Comma- or space-separated numbers; None when there are none."""
    return tuple(float(p) for p in text.replace(",", " ").split()) or None


def _float_pair(text: str) -> tuple[float, float]:
    numbers = _float_list(text) or ()
    if len(numbers) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return numbers


def _arch_name(text: str) -> str:
    if text not in ARCHITECTURES:
        raise ValueError(f"arch must be {' or '.join(ARCHITECTURES)}, got {text!r}")
    return text


_TYPE_PARSERS = {int: int, float: float, tuple[float, float]: _float_pair,
                 tuple[float, ...] | None: _float_list}
_KEY_PARSERS = {f.name: _arch_name if f.name == "arch" else _TYPE_PARSERS[f.type]
                for f in dataclasses.fields(RunConfig)}


def parse_config_text(text: str, source: str = "config") -> dict:
    """Parse ``key = value`` lines; blank lines and # comments ignored."""
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            overrides[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}")
    return overrides


def resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the --config file, then explicit flags."""
    values: dict = {}
    if getattr(args, "config", None) is not None:
        path = Path(args.config)
        values.update(parse_config_text(path.read_text(), source=str(path)))
    for f in dataclasses.fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    return RunConfig(**values)


# ---------------------------------------------------------------- commands

_TABLE_COLUMNS = ("TPR", "FPR", "JI", "DSC", "AER", "AHE", "AME")
_TABLE_SOURCES = ("tpr", "fpr", "ji", "dsc", "aer", "he", "mae")


def format_table(aggregates: dict) -> str:
    """Stratified aggregate table; AHE/AME are the mean boundary errors."""
    header = f"{'stratum':<8} {'n':>4}" + "".join(
        f" {c:>8}" for c in _TABLE_COLUMNS)
    lines = [header]
    for name in ("all", "small", "large"):
        entry = aggregates[name]
        cells = [f"{name:<8}", f"{entry['n']:>4}"]
        for src in _TABLE_SOURCES:
            v = entry[src]
            cells.append(f"{v:>8.3f}" if v is not None else f"{'-':>8}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_synth(run: RunConfig, args: argparse.Namespace) -> None:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = synth_generate(project(run, SynthConfig))
    for s in samples:
        save_image(s.image, out / f"{s.id}.pgm")
        save_mask(s.mask, out / f"{s.id}_mask.pgm")
    _write_json(out / "dataset.json", {
        "command": "synth",
        "samples": [s.id for s in samples],
        "run_config": dataclasses.asdict(run),
    })
    print(f"wrote {len(samples)} image/mask pairs to {out}")


def cmd_train(run: RunConfig, args: argparse.Namespace) -> None:
    samples = dataset_manifest(args.data_dir, target_size=run.input_size)
    model = build_model(project(run, ModelConfig))
    model, history = train(model, samples, project(run, TrainConfig))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(model, out / "weights.bin")
    payload = history_to_dict(history)
    payload.update({"command": "train", "run_config": dataclasses.asdict(run)})
    _write_json(out / "history.json", payload)
    last = history.epoch_losses[-1] if history.epoch_losses else float("nan")
    print(f"trained {run.arch} for {run.epochs} epochs on {len(samples)} "
          f"samples, final loss {last:.4f}; weights in {out}")


def cmd_predict(run: RunConfig, args: argparse.Namespace) -> None:
    model = load_weights(args.weights)
    size = model.config.input_size
    image = read_pgm(args.image) / 255.0
    native = image.shape
    net_in = image if native == (size, size) else bilinear_resize(image, size, size)
    with no_grad():
        out = model.forward(Tensor(net_in[None, None, :, :]))
    mask = binarize(out.data[0, 0], run.threshold)
    if native != (size, size):
        mask = nearest_resize(mask, *native)
    out_path = Path(args.out_mask)
    save_mask(mask, out_path)
    _write_json(out_path.with_suffix(out_path.suffix + ".json"), {
        "command": "predict",
        "run_config": dataclasses.asdict(run),
        "weights": {"arch": model.config.arch, "input_size": size,
                    "base_filters": model.config.base_filters,
                    "seed": model.config.seed},
        "foreground_pixels": int(mask.sum()),
    })
    print(f"wrote mask with {int(mask.sum())} foreground pixels to {out_path}")


def cmd_eval(run: RunConfig, args: argparse.Namespace) -> None:
    model = load_weights(args.weights)
    samples = dataset_manifest(args.data_dir,
                               target_size=model.config.input_size)
    report = evaluate(model, samples, threshold=run.threshold,
                      small_axis=run.small_axis,
                      provenance={"command": "eval",
                                  "run_config": dataclasses.asdict(run)})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(report) + "\n")
    (out / "report.csv").write_text(report_to_csv(report))
    print(format_table(report.aggregates))


def cmd_crossval(run: RunConfig, args: argparse.Namespace) -> None:
    samples = dataset_manifest(args.data_dir, target_size=run.input_size)
    fold_reports, overall, histories = cross_validate(
        project(run, ModelConfig), samples, project(run, TrainConfig),
        threshold=run.threshold, small_axis=run.small_axis)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "crossval.json", {
        "command": "crossval",
        "run_config": dataclasses.asdict(run),
        "overall": {"aggregates": overall.aggregates,
                    "excluded": overall.excluded,
                    "provenance": overall.provenance},
        "folds": [{"aggregates": r.aggregates,
                   "provenance": r.provenance,
                   "rows": [dataclasses.asdict(row) for row in r.rows]}
                  for r in fold_reports],
        "histories": [history_to_dict(h) for h in histories],
    })
    print(format_table(overall.aggregates))


# ------------------------------------------------------------------ parser

_COMMON_FLAGS = (("--seed", "seed"), ("--arch", "arch"),
                 ("--input-size", "input_size"), ("--base-filters", "base_filters"),
                 ("--epochs", "epochs"), ("--batch-size", "batch_size"),
                 ("--lr", "learning_rate"), ("--threshold", "threshold"),
                 ("--small-axis", "small_axis"))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value settings file")
    for flag, key in _COMMON_FLAGS:
        common.add_argument(flag, type=_KEY_PARSERS[key], dest=key)

    parser = argparse.ArgumentParser(
        prog="stanseg",
        description="Train and evaluate tumor segmentation networks on "
                    "grayscale PGM images.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic phantom dataset")
    p.add_argument("out_dir")
    p.add_argument("--count", type=_KEY_PARSERS["count"])
    p.add_argument("--axis-list", type=_KEY_PARSERS["axis_list"],
                   help="comma-separated lesion axis lengths, cycled")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common],
                       help="train a model on an image/mask directory")
    p.add_argument("data_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="segment one image with trained weights")
    p.add_argument("weights")
    p.add_argument("image")
    p.add_argument("out_mask")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[common],
                       help="score trained weights against ground truth")
    p.add_argument("weights")
    p.add_argument("data_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossval", parents=[common],
                       help="k-fold cross-validation on one directory")
    p.add_argument("data_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_crossval)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = resolve_run_config(args)
        args.func(run, args)
    except Exception as exc:
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"stanseg: error: {exc.__class__.__name__}: {message}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

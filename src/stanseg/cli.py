"""Command-line pipeline: generate phantoms, train, predict, evaluate.

Each command reads only its own settings (``COMMAND_KEYS``) and offers
only their flags. They resolve in three layers: dataclass defaults, then
a flat ``key = value`` config file given with --config, then explicit
flags. A config file may also hold other commands' keys; those are
parsed but not applied. Every JSON artifact records, as ``settings``,
the resolved keys its command read. Errors leave exit code 1 and a
single ``stanseg: error: <Type>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

from .data_io import (
    SynthConfig,
    dataset_manifest,
    read_pgm,
    save_image,
    save_mask,
    synth_generate,
)
from .metrics import (METRIC_NAMES, EvalConfig, evaluate, report_to_csv,
                      report_to_json, segment)
from .model import ModelConfig, build_model, load_weights, save_weights
from .training import (CrossvalConfig, TrainConfig, cross_validate,
                       history_to_dict, train)


class ConfigError(ValueError):
    """Bad key, value, or syntax in a command's settings."""


# The library configs own every setting's name, type, default and
# check; the flat keys below are derived from them. A key declared by
# several sections takes its type and default from the first.
_FLAT_KEYS = {"image_size": "input_size"}  # section field -> flat key


def _fields(*sections) -> dict:
    """Flat key -> (type, default) over ``sections``' fields."""
    fields = {}
    for section in sections:
        hints = typing.get_type_hints(section)
        for f in dataclasses.fields(section):
            fields.setdefault(_FLAT_KEYS.get(f.name, f.name),
                              (hints[f.name], f.default))
    return fields


_FIELDS = _fields(ModelConfig, TrainConfig, SynthConfig, CrossvalConfig)
# The configs each command reads, and their keys: only these are
# applied and recorded. predict reads threshold alone.
_COMMAND_SECTIONS = {"synth": (SynthConfig,), "train": (ModelConfig, TrainConfig),
                     "predict": (EvalConfig,), "eval": (EvalConfig,),
                     "crossval": (ModelConfig, TrainConfig, CrossvalConfig)}
COMMAND_KEYS = {**{name: tuple(_fields(*sections))
                   for name, sections in _COMMAND_SECTIONS.items()},
                "predict": ("threshold",)}


def project(settings: dict, section):
    """The ``section`` config holding ``settings``' values for its
    fields; a field ``settings`` lacks keeps its default."""
    keys = {_FLAT_KEYS.get(f.name, f.name): f.name
            for f in dataclasses.fields(section)}
    return section(**{name: settings[key] for key, name in keys.items()
                      if key in settings})


def _float_list(text: str) -> tuple[float, ...] | None:
    """Comma- or space-separated numbers; None when there are none."""
    return tuple(float(p) for p in text.replace(",", " ").split()) or None


def _float_pair(text: str) -> tuple[float, float]:
    numbers = _float_list(text) or ()
    if len(numbers) != 2:
        raise ValueError(f"expected two numbers, got {text!r}")
    return numbers


def _arch_name(text: str) -> str:
    return ModelConfig(arch=text).arch  # rejects an unknown name


_TYPE_PARSERS = {int: int, float: float, tuple[float, float]: _float_pair,
                 tuple[float, ...] | None: _float_list}
_KEY_PARSERS = {key: _arch_name if key == "arch" else _TYPE_PARSERS[tp]
                for key, (tp, _) in _FIELDS.items()}


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


def resolve_settings(args: argparse.Namespace) -> dict:
    """The keys ``args.command`` reads: defaults, then the --config file,
    then explicit flags, checked by the configs that declare them. File
    keys of other commands are parsed but not applied."""
    settings = {key: _FIELDS[key][1] for key in COMMAND_KEYS[args.command]}
    if args.config is not None:
        path = Path(args.config)
        parsed = parse_config_text(path.read_text(), source=str(path))
        settings.update((k, v) for k, v in parsed.items() if k in settings)
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    try:
        for section in _COMMAND_SECTIONS[args.command]:
            project(settings, section)
    except ValueError as exc:  # a subclass such as GeometryError keeps its name
        raise ConfigError(exc) if type(exc) is ValueError else exc
    return settings


# ---------------------------------------------------------------- commands

_TABLE_COLUMNS = ("TPR", "FPR", "JI", "DSC", "AER", "AHE", "AME")


def format_table(aggregates: dict) -> str:
    """Stratified aggregate table; AHE/AME are the mean boundary errors."""
    header = f"{'stratum':<8} {'n':>4}" + "".join(
        f" {c:>8}" for c in _TABLE_COLUMNS)
    lines = [header]
    for name in ("all", "small", "large"):
        entry = aggregates[name]
        cells = [f"{name:<8}", f"{entry['n']:>4}"]
        for src in METRIC_NAMES:
            v = entry[src]
            cells.append(f"{v:>8.3f}" if v is not None else f"{'-':>8}")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_synth(settings: dict, args: argparse.Namespace) -> None:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    samples = synth_generate(project(settings, SynthConfig))
    for s in samples:
        save_image(s.image, out / f"{s.id}.pgm")
        save_mask(s.mask, out / f"{s.id}_mask.pgm")
    _write_json(out / "dataset.json", {
        "command": "synth",
        "samples": [s.id for s in samples],
        "settings": settings,
    })
    print(f"wrote {len(samples)} image/mask pairs to {out}")


def cmd_train(settings: dict, args: argparse.Namespace) -> None:
    samples = dataset_manifest(args.data_dir)
    model = build_model(project(settings, ModelConfig))
    model, history = train(model, samples, project(settings, TrainConfig))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(model, out / "weights.bin")
    payload = history_to_dict(history)
    payload.update({"command": "train", "settings": settings})
    _write_json(out / "history.json", payload)
    last = history.epoch_losses[-1] if history.epoch_losses else float("nan")
    print(f"trained {settings['arch']} for {settings['epochs']} epochs on "
          f"{len(samples)} samples, final loss {last:.4f}; weights in {out}")


def cmd_predict(settings: dict, args: argparse.Namespace) -> None:
    model = load_weights(args.weights)
    mask = segment(model, read_pgm(args.image) / 255.0, settings["threshold"])
    out_path = Path(args.out_mask)
    save_mask(mask, out_path)
    _write_json(out_path.with_suffix(out_path.suffix + ".json"), {
        "command": "predict",
        "settings": settings,
        "weights": dataclasses.asdict(model.config),
        "foreground_pixels": int(mask.sum()),
    })
    print(f"wrote mask with {int(mask.sum())} foreground pixels to {out_path}")


def cmd_eval(settings: dict, args: argparse.Namespace) -> None:
    model = load_weights(args.weights)
    samples = dataset_manifest(args.data_dir)
    report = evaluate(model, samples, project(settings, EvalConfig),
                      provenance={"command": "eval", "settings": settings})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(report) + "\n")
    (out / "report.csv").write_text(report_to_csv(report))
    print(format_table(report.aggregates))


def cmd_crossval(settings: dict, args: argparse.Namespace) -> None:
    samples = dataset_manifest(args.data_dir)
    fold_reports, overall, histories = cross_validate(
        project(settings, ModelConfig), samples,
        project(settings, TrainConfig), project(settings, CrossvalConfig))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "crossval.json", {
        "command": "crossval",
        "settings": settings,
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

# Each setting that has a flag; a command offers the flags of its keys.
_FLAGS = {"seed": "--seed", "arch": "--arch", "input_size": "--input-size",
          "base_filters": "--base-filters", "epochs": "--epochs",
          "batch_size": "--batch-size", "learning_rate": "--lr",
          "threshold": "--threshold", "small_axis": "--small-axis",
          "count": "--count", "axis_list": "--axis-list"}

_COMMANDS = {  # name -> (handler, positional arguments, help)
    "synth": (cmd_synth, ("out_dir",), "generate a synthetic phantom dataset"),
    "train": (cmd_train, ("data_dir", "out_dir"),
              "train a model on an image/mask directory"),
    "predict": (cmd_predict, ("weights", "image", "out_mask"),
                "segment one image with trained weights"),
    "eval": (cmd_eval, ("weights", "data_dir", "out_dir"),
             "score trained weights against ground truth"),
    "crossval": (cmd_crossval, ("data_dir", "out_dir"),
                 "k-fold cross-validation on one directory"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanseg",
        description="Train and evaluate tumor segmentation networks on "
                    "grayscale PGM images.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, positionals, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--config", help="flat key = value settings file")
        for key, flag in _FLAGS.items():
            if key in COMMAND_KEYS[name]:
                p.add_argument(flag, type=_KEY_PARSERS[key], dest=key,
                               help=f"sets {key}")
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:  # name the command and the first flag it does not take
        flags = [a for a in extra if a.startswith("-")] or extra
        args.parser.error(f"{args.command} does not take {flags[0]}")
    try:
        args.func(resolve_settings(args), args)
    except Exception as exc:
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"stanseg: error: {exc.__class__.__name__}: {message}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

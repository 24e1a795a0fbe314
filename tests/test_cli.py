"""Command-line behaviour: config resolution, composition of the
synth/train/predict/eval pipeline, determinism of artifacts, and the
error contract (exit 1, one structured stderr line)."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from stanseg.cli import (
    COMMAND_KEYS,
    ConfigError,
    _build_parser,
    format_table,
    main,
    parse_config_text,
    project,
    resolve_settings,
)
from stanseg.data_io import SynthConfig, dataset_manifest, read_pgm
from stanseg.metrics import EvalConfig, region_metrics
from stanseg.model import ModelConfig, build_model, save_weights
from stanseg.training import CrossvalConfig, TrainConfig

TINY = ["--input-size", "16", "--base-filters", "4", "--epochs", "2",
        "--batch-size", "2", "--seed", "11"]
SYNTH_TINY = ["--input-size", "16", "--seed", "11"]
# lesion diameters that fit the tiny frames above
AXES = ["--axis-list", "6,8"]


def read_tree(root):
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


# each command with placeholder positional arguments
BARE_ARGV = {"synth": ["synth", "o"], "train": ["train", "d", "o"],
             "predict": ["predict", "w", "i", "o"],
             "eval": ["eval", "w", "d", "o"], "crossval": ["crossval", "d", "o"]}


def resolved(argv):
    return resolve_settings(_build_parser().parse_args(argv))


class TestConfigParsing:
    def test_every_key_parses(self):
        text = "\n".join([
            "arch = unet",
            "input_size = 64",
            "base_filters = 8",
            "seed = 9",
            "epochs = 12",
            "batch_size = 3",
            "learning_rate = 0.001",
            "beta1 = 0.8",
            "beta2 = 0.95",
            "eps = 1e-7",
            "shift_fraction = 0.2",
            "folds = 4",
            "threshold = 0.6",
            "small_axis = 100",
            "count = 5",
            "axis_range = 4, 9",
            "axis_list = 8, 12",
            "lesion_intensity = 0.2",
            "background_intensity = 0.8",
            "noise_sigma = 0.05",
            "rotation_range = 0, 1.5",
        ])
        settings = parse_config_text(text)
        assert len(settings) == 21
        assert settings["arch"] == "unet"
        assert settings["axis_range"] == (4.0, 9.0)
        assert settings["axis_list"] == (8.0, 12.0)
        assert settings["folds"] == 4

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nepochs = 7   # tail comment\n"
        assert parse_config_text(text) == {"epochs": 7}

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="2.*momentum"):
            parse_config_text("epochs = 3\nmomentum = 0.9\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("epochs 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config_text("epochs = soon\n")

    def test_empty_axis_list_means_unset(self):
        assert parse_config_text("axis_list =\n") == {"axis_list": None}

    def test_bad_arch_rejected(self):
        with pytest.raises(ConfigError, match="arch"):
            parse_config_text("arch = resnet\n")


class TestKeyTable:
    """The flat keys are derived from the library configs; each one must
    reach the config that consumes it."""

    SECTIONS = (ModelConfig, TrainConfig, SynthConfig, CrossvalConfig)
    # every key set away from its default, valid for every section
    CHANGED = dict(
        arch="unet", input_size=32, base_filters=8, seed=9, epochs=12,
        batch_size=3, learning_rate=1e-3, beta1=0.8, beta2=0.95, eps=1e-7,
        shift_fraction=0.2, folds=4, threshold=0.6, small_axis=100.0,
        count=5, axis_range=(4.0, 9.0), axis_list=(8.0, 12.0),
        lesion_intensity=0.2, background_intensity=0.8, noise_sigma=0.05,
        rotation_range=(0.0, 1.5))

    @staticmethod
    def flat_key(name):
        return "input_size" if name == "image_size" else name

    def test_key_set_is_sections_plus_evaluation(self):
        keys = set().union(*COMMAND_KEYS.values())
        derived = {self.flat_key(f.name) for section in self.SECTIONS
                   for f in dataclasses.fields(section)}
        assert keys == derived == set(self.CHANGED)

    def test_every_key_reaches_its_section(self):
        defaults = {}
        for argv in BARE_ARGV.values():
            defaults.update(resolved(argv))
        for key, value in self.CHANGED.items():
            assert defaults[key] != value, key
        for section in self.SECTIONS:
            cfg = project(self.CHANGED, section)
            for f in dataclasses.fields(section):
                assert getattr(cfg, f.name) == self.CHANGED[self.flat_key(f.name)], \
                    (section.__name__, f.name)

    def test_default_run_projects_to_section_defaults(self):
        for section in self.SECTIONS:
            command = {SynthConfig: "synth",
                       CrossvalConfig: "crossval"}.get(section, "train")
            got = project(resolved(BARE_ARGV[command]), section)
            if section is SynthConfig:
                # the flat input_size default is the model's 256, not
                # the generator's own 64
                assert got.image_size == 256
                got = dataclasses.replace(got, image_size=64)
            assert got == section(), section.__name__


class TestResolution:
    def test_defaults(self):
        assert resolved(["train", "d", "o"]) == {
            **dataclasses.asdict(ModelConfig()),
            **dataclasses.asdict(TrainConfig())}
        assert resolved(["eval", "w", "d", "o"]) == {
            "threshold": 0.5, "small_axis": 120.0}

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nbase_filters = 8\n")
        args = _build_parser().parse_args(
            ["train", "d", "o", "--config", str(cfg), "--epochs", "5"])
        settings = resolve_settings(args)
        assert settings["epochs"] == 5          # flag wins
        assert settings["base_filters"] == 8    # file beats default

    def test_lr_flag_maps_to_learning_rate(self):
        args = _build_parser().parse_args(["train", "d", "o", "--lr", "0.01"])
        assert resolve_settings(args)["learning_rate"] == 0.01

    def test_invalid_threshold_rejected(self):
        args = _build_parser().parse_args(["eval", "w", "d", "o",
                                           "--threshold", "0"])
        with pytest.raises(ConfigError):
            resolve_settings(args)

    def test_threshold_one_accepted(self):
        assert resolved(["eval", "w", "d", "o", "--threshold", "1"]) == {
            "threshold": 1.0, "small_axis": 120.0}

    def test_zero_small_axis_rejected(self):
        with pytest.raises(ConfigError, match="small_axis"):
            resolved(["eval", "w", "d", "o", "--small-axis", "0"])


class TestSynthCommand:
    def test_same_seed_gives_byte_identical_directories(self, tmp_path):
        args = ["synth", "--count", "3", "--input-size", "24", "--seed", "7", *AXES]
        assert main(args + [str(tmp_path / "a")]) == 0
        assert main(args + [str(tmp_path / "b")]) == 0
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_seed_changes_bytes(self, tmp_path):
        base = ["synth", "--count", "2", "--input-size", "24", *AXES]
        main(base + ["--seed", "1", str(tmp_path / "a")])
        main(base + ["--seed", "2", str(tmp_path / "b")])
        assert read_tree(tmp_path / "a") != read_tree(tmp_path / "b")

    def test_layout_and_provenance(self, tmp_path):
        out = tmp_path / "data"
        main(["synth", "--count", "2", "--input-size", "24", "--seed", "3",
              *AXES, str(out)])
        names = sorted(p.name for p in out.iterdir())
        assert names == ["dataset.json", "synth000.pgm", "synth000_mask.pgm",
                         "synth001.pgm", "synth001_mask.pgm"]
        meta = json.loads((out / "dataset.json").read_text())
        assert meta["command"] == "synth"
        assert meta["settings"]["seed"] == 3
        assert meta["settings"]["input_size"] == 24


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train once; reused by the downstream command tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data"
    run = root / "run"
    assert main(["synth", "--count", "4", *SYNTH_TINY, *AXES, str(data)]) == 0
    assert main(["train", *TINY, str(data), str(run)]) == 0
    return data, run


class TestTrainCommand:
    def test_artifacts(self, pipeline):
        data, run = pipeline
        assert (run / "weights.bin").exists()
        history = json.loads((run / "history.json").read_text())
        assert history["command"] == "train"
        assert history["settings"]["seed"] == 11
        assert len(history["epoch_losses"]) == 2
        assert all(np.isfinite(v) for v in history["epoch_losses"])


class TestPredictCommand:
    def test_mask_file_and_sidecar(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        out_mask = tmp_path / "pred.pgm"
        rc = main(["predict", str(run / "weights.bin"),
                   str(data / "synth000.pgm"), str(out_mask)])
        assert rc == 0
        mask = read_pgm(out_mask)
        assert mask.shape == (16, 16)
        assert set(np.unique(mask)) <= {0, 255}
        sidecar = json.loads((tmp_path / "pred.pgm.json").read_text())
        assert sidecar["weights"]["base_filters"] == 4
        assert "foreground" in capsys.readouterr().out

    def test_resizes_to_native_geometry(self, pipeline, tmp_path):
        data, run = pipeline
        other = tmp_path / "big"
        main(["synth", "--count", "1", "--input-size", "24", "--seed", "2",
              *AXES, str(other)])
        out_mask = tmp_path / "pred24.pgm"
        rc = main(["predict", str(run / "weights.bin"),
                   str(other / "synth000.pgm"), str(out_mask)])
        assert rc == 0
        assert read_pgm(out_mask).shape == (24, 24)


class TestEvalCommand:
    def test_reports_and_table(self, pipeline, tmp_path, capsys):
        data, run = pipeline
        out = tmp_path / "report"
        rc = main(["eval", str(run / "weights.bin"), str(data), str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        for column in ("TPR", "FPR", "JI", "DSC", "AER", "AHE", "AME"):
            assert column in table.splitlines()[0]
        assert table.splitlines()[1].startswith("all")
        payload = json.loads((out / "report.json").read_text())
        assert payload["provenance"]["model_seed"] == 11
        assert payload["aggregates"]["all"]["n"] == 4
        csv_text = (out / "report.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "id,TPR,FPR,JI,DSC,AER,HE,MAE,longest_axis,is_small"
        assert len(csv_text.splitlines()) == 5

    def test_eval_is_deterministic(self, pipeline, tmp_path):
        data, run = pipeline
        main(["eval", str(run / "weights.bin"), str(data), str(tmp_path / "r1")])
        main(["eval", str(run / "weights.bin"), str(data), str(tmp_path / "r2")])
        assert read_tree(tmp_path / "r1") == read_tree(tmp_path / "r2")


def report_rows(out):
    with open(out / "report.csv", newline="") as f:
        return list(csv.DictReader(f))


class TestNativeResolution:
    """eval scores, and predict writes masks, at each image's own size."""

    def test_axis_and_stratum_do_not_depend_on_input_size(self, tmp_path):
        # 140 and 200 px lesions are large (small_axis 120) in their own
        # pixels, but measured in a 64 px model's pixels both read small
        data = tmp_path / "data"
        assert main(["synth", "--count", "2", "--input-size", "256", "--seed",
                     "9", "--axis-list", "140,200", str(data)]) == 0
        columns = []
        for size in (64, 256):
            weights = tmp_path / f"w{size}.bin"
            save_weights(build_model(ModelConfig(input_size=size,
                                                 base_filters=4)), weights)
            out = tmp_path / f"report{size}"
            assert main(["eval", str(weights), str(data), str(out)]) == 0
            columns.append([(r["longest_axis"], r["is_small"])
                            for r in report_rows(out)])
        assert columns[0] == columns[1]
        assert [small for _, small in columns[0]] == ["False", "False"]

    def test_predict_and_eval_agree(self, tmp_path):
        # 48 px images and a 32 px model; a threshold of 0.3 leaves this
        # briefly trained model's masks neither empty nor full
        data = tmp_path / "data"
        run = tmp_path / "run"
        weights = str(run / "weights.bin")
        assert main(["synth", "--count", "2", "--input-size", "48", "--seed",
                     "5", str(data)]) == 0
        assert main(["train", "--input-size", "32", "--base-filters", "4",
                     "--epochs", "2", "--batch-size", "2", str(data),
                     str(run)]) == 0
        assert main(["eval", "--threshold", "0.3", weights, str(data),
                     str(tmp_path / "report")]) == 0
        rows = report_rows(tmp_path / "report")
        for sample, row in zip(dataset_manifest(data), rows):
            out_mask = tmp_path / f"{sample.id}_pred.pgm"
            assert main(["predict", "--threshold", "0.3", weights,
                         str(data / f"{sample.id}.pgm"), str(out_mask)]) == 0
            pred = read_pgm(out_mask) == 255
            assert pred.shape == sample.mask.shape == (48, 48)
            assert 0 < pred.sum() < pred.size
            expected = region_metrics(pred, sample.mask)
            got = tuple(float(row[c]) for c in ("TPR", "FPR", "JI", "DSC", "AER"))
            assert row["id"] == sample.id and got == expected


class TestCrossvalCommand:
    def test_five_folds_cover_every_sample(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--count", "5", *SYNTH_TINY, *AXES, str(data)])
        out = tmp_path / "cv"
        rc = main(["crossval", *TINY, "--epochs", "1", str(data), str(out)])
        assert rc == 0
        payload = json.loads((out / "crossval.json").read_text())
        assert len(payload["folds"]) == 5
        assert payload["overall"]["aggregates"]["all"]["n"] == 5
        ids = sorted(row["sample_id"] for fold in payload["folds"]
                     for row in fold["rows"])
        assert ids == [f"synth{i:03d}" for i in range(5)]
        assert "all" in capsys.readouterr().out


class TestCommandSettings:
    """Each command applies and records only the keys it reads, and
    offers only their flags."""

    # all 21 keys, sized for a tiny pipeline
    SHARED_CONFIG = "\n".join([
        "arch = unet", "input_size = 16", "base_filters = 4", "seed = 11",
        "epochs = 1", "batch_size = 2", "learning_rate = 0.001",
        "beta1 = 0.8", "beta2 = 0.95", "eps = 1e-7", "shift_fraction = 0.2",
        "folds = 2", "threshold = 0.6", "small_axis = 7", "count = 4",
        "axis_range = 3, 5", "axis_list = 6, 8", "lesion_intensity = 0.2",
        "background_intensity = 0.8", "noise_sigma = 0.05",
        "rotation_range = 0, 1.5"]) + "\n"

    @staticmethod
    def flat_keys(*sections):
        return {"input_size" if f.name == "image_size" else f.name
                for section in sections for f in dataclasses.fields(section)}

    def test_one_config_file_drives_every_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.SHARED_CONFIG)
        values = json.loads(json.dumps(parse_config_text(self.SHARED_CONFIG)))
        assert len(values) == 21
        data, run, rep, cv = (tmp_path / n for n in ("data", "run", "rep", "cv"))
        mask = tmp_path / "pred.pgm"
        weights = str(run / "weights.bin")
        for argv in (["synth", str(data)], ["train", str(data), str(run)],
                     ["predict", weights, str(data / "synth000.pgm"), str(mask)],
                     ["eval", weights, str(data), str(rep)],
                     ["crossval", str(data), str(cv)]):
            assert main([*argv, "--config", str(cfg)]) == 0, argv[0]
        train_keys = self.flat_keys(ModelConfig, TrainConfig)
        evaluation = self.flat_keys(EvalConfig)
        recorded = {
            "synth": (json.loads((data / "dataset.json").read_text())["settings"],
                      self.flat_keys(SynthConfig)),
            "train": (json.loads((run / "history.json").read_text())["settings"],
                      train_keys),
            "predict": (json.loads((tmp_path / "pred.pgm.json").read_text())
                        ["settings"], {"threshold"}),
            "eval": (json.loads((rep / "report.json").read_text())
                     ["provenance"]["settings"], evaluation),
            "crossval": (json.loads((cv / "crossval.json").read_text())
                         ["settings"],
                         train_keys | self.flat_keys(CrossvalConfig)),
        }
        for command, (settings, keys) in recorded.items():
            assert set(settings) == keys == set(COMMAND_KEYS[command]), command
            assert settings == {k: values[k] for k in keys}, command

    def test_train_neither_reads_nor_records_folds(self, pipeline, tmp_path,
                                                   capsys):
        # folds belongs to crossval alone: train ignores a value that
        # crossval rejects
        data, _ = pipeline
        cfg = tmp_path / "run.cfg"
        cfg.write_text("folds = 1\n")
        run = tmp_path / "run"
        assert main(["train", *TINY, str(data), str(run),
                     "--config", str(cfg)]) == 0
        history = json.loads((run / "history.json").read_text())
        assert "folds" not in history["settings"]
        capsys.readouterr()
        assert main(["crossval", *TINY, str(data), str(tmp_path / "cv"),
                     "--config", str(cfg)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("stanseg: error: ConfigError: folds")

    @pytest.mark.parametrize("argv", [
        ["eval", "--arch", "unet", "w", "d", "o"],
        ["predict", "--input-size", "128", "w", "i", "o"],
    ], ids=["eval-arch", "predict-input-size"])
    def test_flag_of_another_command_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"stanseg {argv[0]}: error: {argv[0]} does not take {argv[1]}"


class TestFormatTable:
    def test_empty_stratum_prints_dash(self):
        agg = {
            name: {"n": 0, "tpr": None, "fpr": None, "ji": None, "dsc": None,
                   "aer": None, "he": None, "mae": None}
            for name in ("all", "small", "large")
        }
        agg["all"] = {"n": 1, "tpr": 1.0, "fpr": 0.0, "ji": 1.0, "dsc": 1.0,
                      "aer": 0.0, "he": 0.0, "mae": 0.0}
        text = format_table(agg)
        assert "-" in text.splitlines()[2]
        assert "1.000" in text.splitlines()[1]


class TestErrorContract:
    def check_error(self, capsys, argv, needle):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        lines = [l for l in err.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("stanseg: error: ")
        assert needle in lines[0]
        return lines[0]

    def test_missing_data_dir(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["train", str(tmp_path / "nowhere"), str(tmp_path / "out")],
            "Error")

    def test_missing_eval_data_dir(self, tmp_path, capsys):
        weights = tmp_path / "w.bin"
        save_weights(build_model(ModelConfig(input_size=16, base_filters=4)), weights)
        missing = tmp_path / "nowhere"
        line = self.check_error(
            capsys, ["eval", str(weights), str(missing), str(tmp_path / "out")],
            "FileNotFoundError")
        assert str(missing) in line

    def test_missing_weights(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["eval", str(tmp_path / "no.bin"), str(tmp_path), str(tmp_path)],
            "FileNotFoundError")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("optimizer = sgd\n")
        self.check_error(
            capsys,
            ["synth", "--config", str(cfg), str(tmp_path / "d")],
            "optimizer")

    def test_not_a_weight_file(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"definitely not weights")
        self.check_error(
            capsys,
            ["predict", str(junk), str(tmp_path / "x.pgm"),
             str(tmp_path / "y.pgm")],
            "Magic")

    def test_impossible_lesion_geometry(self, tmp_path, capsys):
        self.check_error(
            capsys,
            ["synth", "--input-size", "32", "--axis-list", "100",
             str(tmp_path / "d")],
            "GeometryError")

    def test_lesion_without_room_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "d"
        self.check_error(
            capsys,
            ["synth", "--count", "1", "--input-size", "16", "--axis-list",
             "13.5", str(out)],
            "no room for the centre")
        assert not out.exists()

    @pytest.mark.parametrize("config_text, argv, key", [
        ("noise_sigma = nan\n", ["synth", "d"], "noise_sigma"),
        ("axis_range = 4, nan\n", ["synth", "d"], "axis_range"),
        ("", ["train", "--lr", "nan", "d", "o"], "learning_rate"),
        ("", ["eval", "--small-axis", "inf", "w", "d", "o"], "small_axis"),
    ], ids=["config-key", "config-tuple-key", "flag", "flag-inf"])
    def test_non_finite_setting_rejected(self, tmp_path, monkeypatch, capsys,
                                         config_text, argv, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(config_text)
        line = self.check_error(capsys, [*argv, "--config", "run.cfg"],
                                "ConfigError")
        assert key in line and "finite" in line

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "d", "o", "--momentum", "0.9"])
        assert excinfo.value.code == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_diverged_training_is_reported(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--count", "2", *SYNTH_TINY, *AXES, str(data)])
        # the loss itself is bounded, so divergence means the weights
        # overflowed; a huge step rate forces that on the second step
        line = self.check_error(
            capsys,
            ["train", *TINY, "--lr", "1e300", str(data), str(tmp_path / "o")],
            "TrainingDivergedError")
        assert "epoch" in line

"""Training stack: dice loss identities and gradients, Adam against the
scalar recurrence, shift augmentation, fold splitting, and loop determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanseg.autodiff import ShapeMismatchError, Tensor, backward, grad_check
from stanseg.data_io import Sample, SynthConfig, synth_generate
from stanseg.model import ModelConfig, build_model, named_arrays
from stanseg.training import (
    AdamState,
    MissingGradientError,
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    adam_step,
    augment_shift,
    cross_validate,
    dice_loss,
    fold_seed,
    history_to_dict,
    kfold_split,
    shift_sample,
    train,
)

from reference import adam_scalar_ref, dice_loss_ref


def tiny_model(arch="stan", seed=0):
    return build_model(ModelConfig(input_size=16, base_filters=4,
                                   arch=arch, seed=seed))


def tiny_dataset(n=4, seed=0, size=16):
    cfg = SynthConfig(count=n, image_size=size, axis_range=(2.0, 4.0),
                      noise_sigma=0.05, seed=seed)
    return synth_generate(cfg)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.batch_size, cfg.epochs, cfg.learning_rate) == (4, 50, 1e-4)
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
        assert cfg.folds == 5 and cfg.shift_fraction == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 0},
        {"epochs": -1},
        {"learning_rate": 0.0},
        {"shift_fraction": 0.5},
        {"shift_fraction": -0.1},
        {"folds": 1},
        {"beta1": 1.0},
        {"beta1": -0.1},
        {"beta2": 1.0},
        {"eps": 0.0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            TrainConfig(**kwargs)


class TestDiceLoss:
    def test_perfect_binary_prediction_is_zero(self):
        g = (np.random.default_rng(1).random((2, 1, 4, 4)) > 0.5).astype(float)
        loss = dice_loss(Tensor(g), Tensor(g))
        assert abs(float(loss.data)) <= 1e-12

    def test_zero_prediction_four_positives(self):
        g = np.zeros((1, 1, 4, 4))
        g[0, 0, :2, :2] = 1.0
        loss = dice_loss(Tensor(np.zeros((1, 1, 4, 4))), Tensor(g))
        assert abs(float(loss.data) - 0.8) <= 1e-12

    def test_half_probability_single_positive(self):
        p = np.full((2, 2), 0.5)
        g = np.zeros((2, 2))
        g[0, 0] = 1.0
        loss = dice_loss(Tensor(p), Tensor(g))
        assert abs(float(loss.data) - 1.0 / 3.0) <= 1e-12

    def test_matches_elementwise_reference(self):
        rng = np.random.default_rng(2)
        p = rng.random((2, 1, 6, 6))
        g = (rng.random((2, 1, 6, 6)) > 0.6).astype(float)
        loss = float(dice_loss(Tensor(p), Tensor(g)).data)
        assert loss == pytest.approx(dice_loss_ref(p, g), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        g = Tensor((rng.random((8, 8)) > 0.5).astype(float))
        p = Tensor(rng.random((8, 8)))
        assert grad_check(lambda t: dice_loss(t, g), p) < 1e-6

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            dice_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_non_binary_target_rejected(self):
        with pytest.raises(ValueError, match="binary|0 and 1"):
            dice_loss(Tensor(np.zeros((2, 2))), Tensor(np.full((2, 2), 0.5)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_range_half_open(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random((4, 4))
        g = (rng.random((4, 4)) > rng.random()).astype(float)
        loss = float(dice_loss(Tensor(p), Tensor(g)).data)
        assert 0.0 <= loss < 1.0

    def test_positive_for_binary_mismatch(self):
        p = np.zeros((2, 2))
        p[0, 0] = 1.0
        g = np.zeros((2, 2))
        g[1, 1] = 1.0
        assert float(dice_loss(Tensor(p), Tensor(g)).data) > 0.0


class TestAdamStep:
    def test_first_step_magnitude_is_learning_rate(self):
        model = tiny_model()
        cfg = TrainConfig(learning_rate=1e-4)
        state = AdamState.for_model(model)
        name, tensor = next(iter(named_arrays(model)))
        tensor.data[...] = 0.1
        for _, t in named_arrays(model):
            t.grad = np.ones_like(t.data)
        adam_step(model, state, cfg)
        # mhat = vhat = 1 at t=1, so the update is lr/(1+eps) ~ lr
        assert tensor.data.flat[0] == pytest.approx(0.1 - 1e-4, abs=1e-9)
        assert state.t == 1

    def test_zero_gradient_from_zero_state_changes_nothing(self):
        model = tiny_model()
        state = AdamState.for_model(model)
        state.t = 7  # arbitrary step counter; moments are still zero
        before = {n: t.data.copy() for n, t in named_arrays(model)}
        for _, t in named_arrays(model):
            t.grad = np.zeros_like(t.data)
        adam_step(model, state, TrainConfig())
        for n, t in named_arrays(model):
            np.testing.assert_array_equal(t.data, before[n])

    def test_matches_scalar_recurrence_bitwise(self):
        model = tiny_model(seed=5)
        cfg = TrainConfig(learning_rate=3e-3)
        state = AdamState.for_model(model)
        rng = np.random.default_rng(6)
        grads = {n: [rng.standard_normal(t.data.shape) for _ in range(5)]
                 for n, t in named_arrays(model)}
        start = {n: t.data.copy() for n, t in named_arrays(model)}
        for step in range(5):
            for n, t in named_arrays(model):
                t.grad = grads[n][step]
            adam_step(model, state, cfg)
        name, tensor = next(iter(named_arrays(model)))
        flat_start = start[name].reshape(-1)
        flat_grads = [g.reshape(-1) for g in grads[name]]
        expected = np.array([
            adam_scalar_ref(flat_start[i], [fg[i] for fg in flat_grads],
                            lr=cfg.learning_rate)
            for i in range(flat_start.size)
        ]).reshape(tensor.data.shape)
        np.testing.assert_array_equal(tensor.data, expected)

    def test_missing_gradient_rejected(self):
        model = tiny_model()
        with pytest.raises(MissingGradientError, match="weights|bias"):
            adam_step(model, AdamState.for_model(model), TrainConfig())


def blob_sample(size=16):
    mask = np.zeros((size, size), dtype=bool)
    mask[6:9, 5:8] = True
    image = np.where(mask, 0.2, 0.7)
    return Sample(id="blob", image=image, mask=mask, origin="synthetic",
                  native_size=(size, size))


class TestShiftAugmentation:
    def test_zero_offsets_identity(self):
        s = blob_sample()
        out = shift_sample(s, 0, 0)
        np.testing.assert_array_equal(out.image, s.image)
        np.testing.assert_array_equal(out.mask, s.mask)

    def test_centroid_shifts_by_offset(self):
        s = blob_sample()
        out = shift_sample(s, 0, 5)
        before = np.argwhere(s.mask).mean(axis=0)
        after = np.argwhere(out.mask).mean(axis=0)
        assert after[0] == before[0]
        assert after[1] == before[1] + 5

    def test_round_trip_restores_interior(self):
        s = blob_sample()
        back = shift_sample(shift_sample(s, 3, -2), -3, 2)
        np.testing.assert_array_equal(back.mask, s.mask)
        # pixels that never left the frame (rows that fit under +3, columns
        # that fit under -2) are restored
        np.testing.assert_array_equal(back.image[:-3, 2:], s.image[:-3, 2:])

    def test_vacated_pixels_are_zero(self):
        s = blob_sample()
        out = shift_sample(s, 2, 0)
        assert np.all(out.image[:2] == 0.0)
        assert not out.mask[:2].any()

    @given(st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_foreground_count_preserved_inside_frame(self, dy, dx):
        s = blob_sample()
        out = shift_sample(s, dy, dx)
        assert out.mask.sum() == s.mask.sum()
        assert out.mask.dtype == np.bool_

    def test_random_offsets_respect_fraction(self):
        s = blob_sample(size=20)
        rng = np.random.default_rng(7)
        for _ in range(50):
            out = augment_shift(s, 0.1, rng)
            rows = np.argwhere(out.mask)
            assert abs(rows[:, 0].mean() - 7.0) <= 2.0
            assert abs(rows[:, 1].mean() - 6.0) <= 2.0

    def test_fraction_zero_is_identity(self):
        s = blob_sample()
        out = augment_shift(s, 0.0, np.random.default_rng(8))
        np.testing.assert_array_equal(out.image, s.image)


class TestKFoldSplit:
    def test_ten_samples_five_folds(self):
        folds = kfold_split(range(10), k=5, seed=0)
        tests = [tuple(t) for _, t in folds]
        assert all(len(t) == 2 for t in tests)
        union = sorted(i for t in tests for i in t)
        assert union == list(range(10))

    def test_eleven_samples_sizes(self):
        folds = kfold_split(range(11), k=5, seed=1)
        sizes = sorted(len(t) for _, t in folds)
        assert sizes == [2, 2, 2, 2, 3]

    def test_train_test_partition(self):
        folds = kfold_split(range(9), k=4, seed=2)
        for train_ids, test_ids in folds:
            assert not set(train_ids) & set(test_ids)
            assert sorted(train_ids + test_ids) == list(range(9))

    def test_seed_determinism(self):
        assert kfold_split(range(12), 5, seed=3) == kfold_split(range(12), 5, seed=3)
        assert kfold_split(range(12), 5, seed=3) != kfold_split(range(12), 5, seed=4)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            kfold_split(range(3), k=5, seed=0)


class TestTrainLoop:
    def test_zero_epochs_leaves_model_unchanged(self):
        model = tiny_model()
        before = {n: t.data.copy() for n, t in named_arrays(model)}
        _, history = train(model, tiny_dataset(), TrainConfig(epochs=0))
        assert history.epoch_losses == [] and history.epoch_seconds == []
        for n, t in named_arrays(model):
            np.testing.assert_array_equal(t.data, before[n])

    def test_same_seed_bitwise_identical_weights(self):
        cfg = TrainConfig(epochs=2, batch_size=2, seed=42)
        data = tiny_dataset(n=4, seed=9)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=1)
            train(model, data, cfg)
            runs.append({n: t.data.copy() for n, t in named_arrays(model)})
        for n in runs[0]:
            np.testing.assert_array_equal(runs[0][n], runs[1][n])

    def test_loss_decreases_on_small_set(self):
        model = tiny_model(seed=2)
        data = tiny_dataset(n=4, seed=10)
        _, history = train(model, data,
                           TrainConfig(epochs=30, batch_size=4,
                                       learning_rate=1e-3, seed=0))
        assert len(history.epoch_losses) == 30
        assert history.epoch_losses[-1] < history.epoch_losses[0]
        assert all(np.isfinite(history.epoch_losses))

    def test_non_finite_loss_aborts_with_location(self):
        model = tiny_model()
        for _, t in named_arrays(model):
            t.data[...] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 0.*step 0"):
            train(model, tiny_dataset(), TrainConfig(epochs=1))

    def test_wrong_sample_size_rejected(self):
        model = tiny_model()
        bad = tiny_dataset(n=2, size=32)
        with pytest.raises(ShapeMismatchError, match="model wants"):
            train(model, bad, TrainConfig(epochs=1))

    def test_history_lengths_match_epochs(self):
        model = tiny_model()
        _, history = train(model, tiny_dataset(), TrainConfig(epochs=3))
        assert len(history.epoch_losses) == 3
        assert len(history.epoch_seconds) == 3


class TestCrossValidate:
    def test_every_sample_evaluated_exactly_once(self):
        data = tiny_dataset(n=6, seed=11)
        cfg = TrainConfig(epochs=1, batch_size=2, folds=3, seed=5)
        fold_reports, overall, histories = cross_validate(
            ModelConfig(input_size=16, base_filters=4, arch="unet", seed=0),
            data, cfg)
        assert len(fold_reports) == 3 and len(histories) == 3
        ids = sorted(r.sample_id for rep in fold_reports for r in rep.rows)
        assert ids == sorted(s.id for s in data)
        assert len(overall.rows) == 6

    def test_aggregate_is_mean_of_rows(self):
        data = tiny_dataset(n=4, seed=12)
        cfg = TrainConfig(epochs=1, batch_size=2, folds=2, seed=6)
        _, overall, _ = cross_validate(
            ModelConfig(input_size=16, base_filters=4, arch="unet", seed=0),
            data, cfg)
        tprs = [r.tpr for r in overall.rows]
        assert overall.aggregates["all"]["tpr"] == pytest.approx(np.mean(tprs))
        assert overall.aggregates["all"]["n"] == 4

    def test_aer_identity_on_every_row(self):
        data = tiny_dataset(n=4, seed=13)
        cfg = TrainConfig(epochs=1, batch_size=2, folds=2, seed=7)
        fold_reports, overall, _ = cross_validate(
            ModelConfig(input_size=16, base_filters=4, arch="unet", seed=0),
            data, cfg)
        for rep in fold_reports + [overall]:
            for r in rep.rows:
                assert r.aer == r.fpr + (1.0 - r.tpr)

    def test_fold_seeds_differ_and_are_deterministic(self):
        seeds = [fold_seed(1, k) for k in range(5)]
        assert len(set(seeds)) == 5
        assert seeds == [fold_seed(1, k) for k in range(5)]

    def test_histories_carry_fold_and_validation(self):
        data = tiny_dataset(n=4, seed=14)
        cfg = TrainConfig(epochs=1, batch_size=2, folds=2, seed=8)
        _, _, histories = cross_validate(
            ModelConfig(input_size=16, base_filters=4, arch="unet", seed=0),
            data, cfg)
        assert [h.fold for h in histories] == [0, 1]
        assert all(h.validation is not None for h in histories)


class TestHistoryJson:
    def test_serializes_core_fields(self):
        h = TrainHistory(seed=3, epoch_losses=[0.5, 0.4], epoch_seconds=[0.1, 0.1])
        payload = json.loads(json.dumps(history_to_dict(h)))
        assert payload["seed"] == 3
        assert payload["epoch_losses"] == [0.5, 0.4]

"""Model builders: config validation, parameter counts, determinism,
forward contracts, skip wiring, end-to-end gradients, the weight file, and
mutated weight and PGM files."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stanseg.model
from stanseg.autodiff import ShapeMismatchError, Tensor, backward, no_grad
from stanseg.data_io import PgmFormatError, read_pgm, write_pgm
from stanseg.model import (
    Model,
    ModelConfig,
    WeightFileError,
    WeightMagicError,
    WeightMismatchError,
    WeightTruncatedError,
    WeightVersionError,
    build_model,
    load_weights,
    named_arrays,
    save_weights,
)
from stanseg.training import dice_loss

from reference import (
    STAN_LAYER_NAMES,
    UNET_LAYER_NAMES,
    param_count,
    param_count_ref,
    stan_layer_table,
    unet_layer_table,
    wiring,
)


def tiny_config(arch="stan", size=32, f1=4, seed=0):
    return ModelConfig(input_size=size, base_filters=f1, arch=arch, seed=seed)


class TestModelConfig:
    def test_defaults_are_valid(self):
        cfg = ModelConfig()
        assert cfg.input_size == 256 and cfg.base_filters == 32

    @pytest.mark.parametrize("size", [0, 100, 24, -16])
    def test_input_size_must_be_multiple_of_16(self, size):
        with pytest.raises(ValueError, match="input_size"):
            ModelConfig(input_size=size)

    @pytest.mark.parametrize("f1", [0, 2, 6, -4])
    def test_base_filters_must_be_multiple_of_4(self, f1):
        with pytest.raises(ValueError, match="base_filters"):
            ModelConfig(base_filters=f1)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError, match="arch"):
            ModelConfig(arch="resnet")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ModelConfig(seed=-1)

    def test_seed_must_fit_in_64_bits(self):
        assert ModelConfig(seed=2**64 - 1).seed == 2**64 - 1
        with pytest.raises(ValueError, match="seed"):
            ModelConfig(seed=2**64)


class TestParamCounts:
    # frozen from the hand-derived layer tables before the builder existed
    FROZEN = {
        ("stan", 4): 166107,
        ("stan", 8): 663077,
        ("stan", 32): 10593041,
        ("unet", 4): 121653,
        ("unet", 8): 485673,
        ("unet", 32): 7759521,
    }

    @pytest.mark.parametrize("arch,f1", sorted(FROZEN))
    def test_matches_frozen_closed_form(self, arch, f1):
        model = build_model(tiny_config(arch=arch, f1=f1))
        table = stan_layer_table(f1) if arch == "stan" else unet_layer_table(f1)
        assert param_count(model) == self.FROZEN[(arch, f1)]
        assert param_count_ref(table) == self.FROZEN[(arch, f1)]

    @pytest.mark.parametrize("arch,f1", sorted(FROZEN))
    def test_wiring_table_matches_reference(self, arch, f1):
        model = build_model(tiny_config(arch=arch, f1=f1))
        built = sorted((cout, cin, k) for _, cout, cin, k in wiring(model))
        table = stan_layer_table(f1) if arch == "stan" else unet_layer_table(f1)
        assert built == sorted(table)

    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_creation_order_frozen(self, arch):
        # weight files and the initial RNG draws follow this order
        model = build_model(tiny_config(arch=arch, f1=4))
        names, table = ((STAN_LAYER_NAMES, stan_layer_table(4)) if arch == "stan"
                        else (UNET_LAYER_NAMES, unet_layer_table(4)))
        assert list(wiring(model)) == [(n, *row) for n, row in zip(names, table)]
        assert len(wiring(model)) == len(names) == len(table)

    def test_unet_smaller_than_stan(self):
        stan = build_model(tiny_config("stan", f1=8))
        unet = build_model(tiny_config("unet", f1=8))
        assert param_count(unet) < param_count(stan)

    def test_count_equals_sum_of_array_sizes(self):
        model = build_model(tiny_config())
        assert param_count(model) == sum(t.size for _, t in named_arrays(model))


class TestBuildDeterminism:
    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_same_seed_bitwise_identical(self, arch):
        a = build_model(tiny_config(arch=arch, seed=9))
        b = build_model(tiny_config(arch=arch, seed=9))
        for (name_a, ta), (name_b, tb) in zip(named_arrays(a), named_arrays(b)):
            assert name_a == name_b
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = build_model(tiny_config(seed=1))
        b = build_model(tiny_config(seed=2))
        assert any(not np.array_equal(ta.data, tb.data)
                   for (_, ta), (_, tb) in zip(named_arrays(a), named_arrays(b)))

    def test_biases_start_at_zero(self):
        model = build_model(tiny_config())
        for p in model.params.values():
            np.testing.assert_array_equal(p.bias.data, np.zeros_like(p.bias.data))


class TestForward:
    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_output_shape_and_open_interval(self, arch):
        model = build_model(tiny_config(arch=arch))
        x = Tensor(np.random.default_rng(3).random((2, 1, 32, 32)))
        with no_grad():
            out = model.forward(x)
        assert out.shape == (2, 1, 32, 32)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_zeroed_weights_give_half_everywhere(self, arch):
        model = build_model(tiny_config(arch=arch))
        for _, t in named_arrays(model):
            t.data[...] = 0.0
        x = Tensor(np.random.default_rng(4).random((1, 1, 32, 32)))
        with no_grad():
            out = model.forward(x)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 32, 32), 0.5))

    def test_wrong_spatial_size_rejected(self):
        model = build_model(tiny_config())
        with pytest.raises(ShapeMismatchError, match="input_size"):
            model.forward(Tensor(np.zeros((1, 1, 64, 64))))

    def test_wrong_channel_count_rejected(self):
        model = build_model(tiny_config())
        with pytest.raises(ShapeMismatchError, match="B, 1"):
            model.forward(Tensor(np.zeros((1, 2, 32, 32))))

    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_missing_layer_raises_and_is_not_created(self, arch):
        model = build_model(tiny_config(arch=arch))
        del model.params["head_conv1"]
        with no_grad(), pytest.raises(KeyError, match="head_conv1"):
            model.forward(Tensor(np.zeros((1, 1, 32, 32))))
        assert "head_conv1" not in model.params

    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_forward_is_pure(self, arch):
        model = build_model(tiny_config(arch=arch))
        x = Tensor(np.random.default_rng(5).random((1, 1, 32, 32)))
        with no_grad():
            a = model.forward(x).data
            b = model.forward(x).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_rows_invariant_to_batch_packing(self, arch):
        # BLAS blocking differs with the batch extent, so equality here is
        # to float64 resolution rather than bitwise
        model = build_model(tiny_config(arch=arch))
        x = np.random.default_rng(6).random((3, 1, 32, 32))
        with no_grad():
            full = model.forward(Tensor(x)).data
            single = np.concatenate(
                [model.forward(Tensor(x[i:i + 1])).data for i in range(3)])
        np.testing.assert_allclose(full, single, rtol=0, atol=1e-12)


def _consumers(root, target):
    """All graph nodes that take ``target`` as a direct parent."""
    seen = set()
    stack = [root]
    found = []
    while stack:
        t = stack.pop()
        if t.node is None or id(t) in seen:
            continue
        seen.add(id(t))
        if any(p is target for p in t.node.parents):
            found.append(t)
        stack.extend(t.node.parents)
    return found


@pytest.fixture(scope="module")
def traced():
    model = build_model(tiny_config("stan"))
    trace = {}
    x = Tensor(np.random.default_rng(7).random((1, 1, 32, 32)),
               requires_grad=True)
    out = model.forward(x, trace=trace)
    return out, trace


class TestStanSkipWiring:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_skip_identities(self, traced, k):
        out, tr = traced
        skip_a = tr[f"enc{k}_skip_a"]
        skip_b = tr[f"enc{k}_skip_b"]
        # link 1: the upsampled tensor is concatenated with the branch-1 skip
        cat_up = tr[f"dec{k}_cat_up"]
        assert cat_up.node.op == "concat"
        assert cat_up.node.parents[1] is skip_a
        # link 2: the mid concat's second operand is relu(conv5(skip_a))
        cat_mid = tr[f"dec{k}_cat_mid"]
        s5 = cat_mid.node.parents[1]
        assert s5.node.op == "relu"
        conv5 = s5.node.parents[0]
        assert conv5.node.op == "conv2d"
        assert conv5.node.parents[0] is skip_a
        assert conv5.node.parents[1].shape[3] == 5
        # link 3: the block output concatenates the branch-2 skip
        block_out = tr[f"dec{k}_out"]
        assert block_out.node.op == "concat"
        assert block_out.node.parents[1] is skip_b

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_each_skip_feeds_exactly_one_decoder_block(self, traced, k):
        out, tr = traced
        # skip_a: one encoder conv + two decoder consumers (links 1 and 2)
        a_consumers = _consumers(out, tr[f"enc{k}_skip_a"])
        assert sorted(c.node.op for c in a_consumers) == ["concat", "conv2d", "conv2d"]
        assert sum(1 for c in a_consumers if c is tr[f"dec{k}_cat_up"]) == 1
        # skip_b: the encoder pool + one decoder concat (link 3)
        b_consumers = _consumers(out, tr[f"enc{k}_skip_b"])
        assert sorted(c.node.op for c in b_consumers) == ["concat", "maxpool2d"]
        assert sum(1 for c in b_consumers if c is tr[f"dec{k}_out"]) == 1


class TestUnetSkipWiring:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_single_skip_per_block(self, k):
        model = build_model(tiny_config("unet"))
        trace = {}
        out = model.forward(
            Tensor(np.random.default_rng(8).random((1, 1, 32, 32))), trace=trace)
        skip = trace[f"enc{k}_skip"]
        cat = trace[f"dec{k}_cat_up"]
        assert cat.node.parents[1] is skip
        consumers = _consumers(out, skip)
        assert sorted(c.node.op for c in consumers) == ["concat", "maxpool2d"]


class TestEndToEndGradient:
    def test_parameter_subset_matches_finite_differences(self):
        model = build_model(tiny_config("stan", size=32, f1=4, seed=11))
        rng = np.random.default_rng(12)
        x = Tensor(rng.random((1, 1, 32, 32)))
        g = Tensor((rng.random((1, 1, 32, 32)) > 0.7).astype(float))

        loss = dice_loss(model.forward(x), g)
        backward(loss)

        arrays = dict(named_arrays(model))
        names = sorted(arrays)
        flat_index = [(n, i) for n in names for i in range(arrays[n].size)]
        picks = rng.choice(len(flat_index), size=220, replace=False)

        def loss_value():
            with no_grad():
                return float(dice_loss(model.forward(x), g).data)

        h = 1e-5
        worst = 0.0
        for p in picks:
            name, i = flat_index[p]
            t = arrays[name]
            idx = np.unravel_index(i, t.data.shape)
            analytic = t.grad[idx]
            orig = t.data[idx]
            t.data[idx] = orig + h
            fp = loss_value()
            t.data[idx] = orig - h
            fm = loss_value()
            t.data[idx] = orig
            numeric = (fp - fm) / (2.0 * h)
            rel = abs(analytic - numeric) / max(1.0, abs(analytic))
            worst = max(worst, rel)
        assert worst < 1e-4


class TestWeightFile:
    def test_round_trip_bitwise(self, tmp_path):
        model = build_model(tiny_config("stan", seed=21))
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        loaded = load_weights(path)
        assert loaded.config == model.config
        for (na, ta), (nb, tb) in zip(named_arrays(model), named_arrays(loaded)):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_round_trip_preserves_forward(self, tmp_path):
        model = build_model(tiny_config("unet", seed=22))
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        loaded = load_weights(path)
        x = Tensor(np.random.default_rng(23).random((1, 1, 32, 32)))
        with no_grad():
            np.testing.assert_array_equal(model.forward(x).data,
                                          loaded.forward(x).data)

    def test_bad_magic_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightMagicError):
            load_weights(path)

    def test_bad_version_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightVersionError):
            load_weights(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 16])
        with pytest.raises(WeightTruncatedError):
            load_weights(path)

    def test_huge_declared_rank_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        name_len = int.from_bytes(blob[32:36], "little")
        rank_at = 36 + name_len  # rank of the first array follows its name
        blob[rank_at:rank_at + 4] = (0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightTruncatedError, match="ended early"):
            load_weights(path)

    def test_undecodable_name_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[36] = 0xFF  # first byte of the first array's name
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightMismatchError, match="unexpected parameter"):
            load_weights(path)

    def test_wrong_array_count_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        blob = bytearray(path.read_bytes())
        blob[28:32] = (7).to_bytes(4, "little")  # count lives after the 28-byte header
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightMismatchError):
            load_weights(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build_model(tiny_config())
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(WeightMismatchError):
            load_weights(path)

    def test_swapped_arrays_rejected(self, tmp_path, monkeypatch):
        # same names, shapes and count as the config implies, but two
        # adjacent arrays out of first-use order
        model = build_model(tiny_config())
        arrays = list(named_arrays(model))
        arrays[1], arrays[2] = arrays[2], arrays[1]
        monkeypatch.setattr(stanseg.model, "named_arrays", lambda m: iter(arrays))
        path = tmp_path / "m.stanw"
        save_weights(model, path)
        with pytest.raises(WeightMismatchError, match="unexpected parameter"):
            load_weights(path)

    @pytest.mark.parametrize("arch", ["stan", "unet"])
    def test_save_load_save_identical_bytes(self, tmp_path, arch):
        save_weights(build_model(tiny_config(arch, seed=24)), tmp_path / "a.stanw")
        save_weights(load_weights(tmp_path / "a.stanw"), tmp_path / "b.stanw")
        assert (tmp_path / "a.stanw").read_bytes() == (tmp_path / "b.stanw").read_bytes()

    def test_loaded_arrays_are_writable_float64(self, tmp_path):
        # adam_step updates parameters in place, so a read-only view of the
        # file's bytes would fail on the first step
        path = tmp_path / "m.stanw"
        save_weights(build_model(tiny_config()), path)
        for name, t in named_arrays(load_weights(path)):
            assert t.data.flags.writeable, name
            assert t.data.dtype == np.float64, name


@pytest.fixture(scope="module")
def intact_files(tmp_path_factory):
    """A 16px/bf4 stan weight file and a 4x4 PGM, as bytes."""
    root = tmp_path_factory.mktemp("intact")
    save_weights(build_model(tiny_config(size=16)), root / "w.stanw")
    write_pgm(root / "i.pgm", np.arange(16, dtype=np.uint8).reshape(4, 4))
    return root, {"weights": (root / "w.stanw").read_bytes(),
                  "pgm": (root / "i.pgm").read_bytes()}


EDITS = st.tuples(st.sampled_from(["truncate", "overwrite", "insert"]),
                  st.integers(0, 1 << 21), st.binary(min_size=1, max_size=8))


class TestMalformedFiles:
    @given(kind=st.sampled_from(["weights", "pgm"]),
           edits=st.lists(EDITS, min_size=1, max_size=3))
    @example(kind="weights",  # base_filters 2^20 in a 32-byte file
             edits=[("overwrite", 16, (1 << 20).to_bytes(4, "little")),
                    ("truncate", 32, b"")])
    @example(kind="weights",  # input_size 687,865,872
             edits=[("overwrite", 12, (687865872).to_bytes(4, "little"))])
    @example(kind="pgm",  # a width beyond int()'s digit limit
             edits=[("truncate", 3, b""), ("insert", 3, b"9" * 5000 + b" 4\n255\n")])
    @settings(max_examples=200, deadline=None)
    def test_mutated_file_loads_or_fails_typed(self, intact_files, kind, edits):
        root, intact = intact_files
        blob = intact[kind]
        for op, at, data in edits:
            at %= len(blob) + 1
            if op == "truncate":
                blob = blob[:at]
            elif op == "overwrite":
                blob = blob[:at] + data + blob[at + len(data):]
            else:
                blob = blob[:at] + data + blob[at:]
        path = root / f"mutated.{kind}"
        path.write_bytes(blob)
        try:
            load_weights(path) if kind == "weights" else read_pgm(path)
        except (WeightFileError, PgmFormatError):
            pass

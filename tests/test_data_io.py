"""PGM io, resizing, dataset pairing, and the synthetic phantom generator."""

import numpy as np
import pytest

from stanseg.data_io import (
    GeometryError,
    MaskNotBinaryError,
    PairMismatchError,
    PgmFormatError,
    Sample,
    SynthConfig,
    UnpairedFilesError,
    bilinear_resize,
    dataset_manifest,
    ellipse_mask,
    load_sample,
    nearest_resize,
    read_pgm,
    save_image,
    save_mask,
    synth_generate,
    write_pgm,
)
from stanseg.metrics import longest_axis

from reference import bilinear_resize_ref, ellipse_mask_ref, nearest_resize_ref


class TestPgmIo:
    def test_round_trip_bitwise(self, tmp_path):
        arr = np.random.default_rng(0).integers(0, 256, (7, 11), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, arr)
        np.testing.assert_array_equal(read_pgm(path), arr)

    def test_rectangular_layout(self, tmp_path):
        arr = np.arange(15, dtype=np.uint8).reshape(3, 5)
        path = tmp_path / "rect.pgm"
        write_pgm(path, arr)
        back = read_pgm(path)
        assert back.shape == (3, 5)
        assert back[2, 4] == 14

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        raster = bytes(range(8))
        path.write_bytes(b"P5\n# made by hand\n4 # width\n2\n# nearly there\n255\n"
                         + raster)
        back = read_pgm(path)
        assert back.shape == (2, 4)
        assert back.tobytes() == raster

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(PgmFormatError, match="magic"):
            read_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(PgmFormatError, match="maxval"):
            read_pgm(path)

    @pytest.mark.parametrize("blob", [
        b"P5\n4 4\n255\n" + bytes(9),
        b"P5\n1000000 1000000\n255\n" + bytes(3),
    ], ids=["short", "huge-declared"])
    def test_truncated_raster(self, tmp_path, blob):
        path = tmp_path / "short.pgm"
        path.write_bytes(blob)
        with pytest.raises(PgmFormatError, match="truncated"):
            read_pgm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "header.pgm"
        path.write_bytes(b"P5\n4 ")
        with pytest.raises(PgmFormatError, match="end of header"):
            read_pgm(path)

    def test_non_numeric_dimension(self, tmp_path):
        path = tmp_path / "alpha.pgm"
        path.write_bytes(b"P5\nfour 4\n255\n" + bytes(16))
        with pytest.raises(PgmFormatError, match="width"):
            read_pgm(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.pgm"
        path.write_bytes(b"P5\n0 3\n255\n")
        with pytest.raises(PgmFormatError, match="dimensions"):
            read_pgm(path)

    def test_write_rejects_wrong_dtype_or_rank(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "f.pgm", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "r.pgm", np.zeros((2, 2, 2), dtype=np.uint8))


class TestResize:
    def test_bilinear_identity_at_native_size(self):
        img = np.random.default_rng(1).random((9, 13))
        np.testing.assert_array_equal(bilinear_resize(img, 9, 13), img)

    def test_nearest_identity_at_native_size(self):
        mask = np.random.default_rng(2).random((6, 8)) < 0.5
        np.testing.assert_array_equal(nearest_resize(mask, 6, 8), mask)

    def test_checkerboard_upscales_to_blocks(self):
        board = np.array([[True, False], [False, True]])
        out = nearest_resize(board, 4, 4)
        expected = np.array([
            [True, True, False, False],
            [True, True, False, False],
            [False, False, True, True],
            [False, False, True, True],
        ])
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("out_shape", [(5, 7), (16, 16), (21, 9), (8, 24)])
    def test_bilinear_matches_per_pixel_oracle_bitwise(self, out_shape):
        img = np.random.default_rng(3).random((12, 16))
        got = bilinear_resize(img, *out_shape)
        np.testing.assert_array_equal(got, bilinear_resize_ref(img, *out_shape))

    @pytest.mark.parametrize("out_shape", [(3, 5), (16, 16), (13, 6)])
    def test_nearest_matches_per_pixel_oracle(self, out_shape):
        mask = np.random.default_rng(4).random((10, 10)) < 0.4
        got = nearest_resize(mask, *out_shape)
        np.testing.assert_array_equal(got, nearest_resize_ref(mask, *out_shape))

    def test_nearest_keeps_masks_binary(self):
        mask = np.random.default_rng(5).random((11, 11)) < 0.3
        up = nearest_resize(mask, 17, 23)
        down = nearest_resize(mask, 5, 4)
        assert up.dtype == np.bool_ and down.dtype == np.bool_
        assert not nearest_resize(np.zeros((9, 9), dtype=bool), 13, 13).any()
        assert nearest_resize(np.ones((9, 9), dtype=bool), 13, 13).all()


class TestLoadSample:
    def write_pair(self, tmp_path, img8, msk8, stem="case"):
        write_pgm(tmp_path / f"{stem}.pgm", img8)
        write_pgm(tmp_path / f"{stem}_mask.pgm", msk8)
        return tmp_path / f"{stem}.pgm", tmp_path / f"{stem}_mask.pgm"

    def test_native_load_scales_image_and_booleanizes_mask(self, tmp_path):
        rng = np.random.default_rng(6)
        img8 = rng.integers(0, 256, (10, 10), dtype=np.uint8)
        msk8 = np.where(rng.random((10, 10)) < 0.5, 255, 0).astype(np.uint8)
        ip, mp = self.write_pair(tmp_path, img8, msk8)
        s = load_sample(ip, mp)
        assert s.id == "case"
        assert s.origin == "file"
        assert s.native_size == (10, 10)
        np.testing.assert_array_equal(s.image, img8 / 255.0)
        np.testing.assert_array_equal(s.mask, msk8 == 255)

    def test_resized_load_matches_resizers(self, tmp_path):
        rng = np.random.default_rng(7)
        img8 = rng.integers(0, 256, (6, 6), dtype=np.uint8)
        msk8 = np.where(rng.random((6, 6)) < 0.5, 255, 0).astype(np.uint8)
        ip, mp = self.write_pair(tmp_path, img8, msk8)
        s = load_sample(ip, mp, target_size=9)
        assert s.image.shape == s.mask.shape == (9, 9)
        assert s.native_size == (6, 6)
        np.testing.assert_array_equal(s.image, bilinear_resize(img8 / 255.0, 9, 9))
        np.testing.assert_array_equal(s.mask, nearest_resize(msk8 == 255, 9, 9))

    def test_gray_mask_value_rejected(self, tmp_path):
        img8 = np.zeros((4, 4), dtype=np.uint8)
        msk8 = np.zeros((4, 4), dtype=np.uint8)
        msk8[1, 2] = 128
        ip, mp = self.write_pair(tmp_path, img8, msk8)
        with pytest.raises(MaskNotBinaryError, match="128"):
            load_sample(ip, mp)

    def test_dimension_mismatch_rejected(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
        write_pgm(tmp_path / "a_mask.pgm", np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(PairMismatchError):
            load_sample(tmp_path / "a.pgm", tmp_path / "a_mask.pgm")

    def test_save_then_load_round_trips(self, tmp_path):
        rng = np.random.default_rng(8)
        image = rng.random((12, 12))
        mask = rng.random((12, 12)) < 0.4
        save_image(image, tmp_path / "s.pgm")
        save_mask(mask, tmp_path / "s_mask.pgm")
        s = load_sample(tmp_path / "s.pgm", tmp_path / "s_mask.pgm")
        np.testing.assert_array_equal(s.mask, mask)
        # the image survives up to 8-bit quantization
        np.testing.assert_array_equal(s.image, np.rint(image * 255.0) / 255.0)


class TestSampleValidation:
    def test_non_boolean_mask_rejected(self):
        with pytest.raises(MaskNotBinaryError):
            Sample(id="x", image=np.zeros((3, 3)), mask=np.zeros((3, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PairMismatchError):
            Sample(id="x", image=np.zeros((3, 3)),
                   mask=np.zeros((3, 4), dtype=bool))

    def test_unknown_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            Sample(id="x", image=np.zeros((3, 3)),
                   mask=np.zeros((3, 3), dtype=bool), origin="guess")


class TestManifest:
    def fill(self, tmp_path, stems):
        rng = np.random.default_rng(9)
        for stem in stems:
            save_image(rng.random((8, 8)), tmp_path / f"{stem}.pgm")
            save_mask(rng.random((8, 8)) < 0.5, tmp_path / f"{stem}_mask.pgm")

    def test_pairs_in_lexicographic_order(self, tmp_path):
        self.fill(tmp_path, ["banana", "apple", "cherry"])
        samples = dataset_manifest(tmp_path)
        assert [s.id for s in samples] == ["apple", "banana", "cherry"]

    def test_image_without_mask_names_stem(self, tmp_path):
        self.fill(tmp_path, ["ok"])
        save_image(np.zeros((8, 8)), tmp_path / "lonely.pgm")
        with pytest.raises(UnpairedFilesError, match="lonely"):
            dataset_manifest(tmp_path)

    def test_mask_without_image_names_stem(self, tmp_path):
        self.fill(tmp_path, ["ok"])
        save_mask(np.zeros((8, 8), dtype=bool), tmp_path / "orphan_mask.pgm")
        with pytest.raises(UnpairedFilesError, match="orphan"):
            dataset_manifest(tmp_path)

    def test_missing_directory_named(self, tmp_path):
        # Path.glob on a missing directory yields nothing, which read as
        # an empty dataset
        with pytest.raises(FileNotFoundError, match="nowhere"):
            dataset_manifest(tmp_path / "nowhere")

    def test_target_size_applies_to_all(self, tmp_path):
        self.fill(tmp_path, ["a", "b"])
        samples = dataset_manifest(tmp_path, target_size=12)
        assert all(s.image.shape == (12, 12) for s in samples)
        assert all(s.mask.shape == (12, 12) for s in samples)


class TestSynthConfig:
    def test_defaults_validate(self):
        SynthConfig()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            SynthConfig(count=-1)

    def test_bad_axis_range_rejected(self):
        with pytest.raises(ValueError, match="axis_range"):
            SynthConfig(axis_range=(0.0, 5.0))
        with pytest.raises(ValueError, match="axis_range"):
            SynthConfig(axis_range=(10.0, 5.0))

    @pytest.mark.parametrize("axis_list", [(8.0, 0.0), (8.0, -6.0), ()],
                             ids=["0.0", "-6.0", "empty"])
    def test_nonpositive_axis_list_rejected(self, axis_list):
        # a zero diameter draws an empty mask, a negative one records a
        # negative lesion_axis, an empty list has nothing to cycle; all
        # must fail before any sample is drawn
        with pytest.raises(ValueError, match="axis_list"):
            SynthConfig(axis_list=axis_list)

    def test_oversized_range_rejected(self):
        with pytest.raises(GeometryError):
            SynthConfig(image_size=16, axis_range=(8.0, 8.0))

    def test_oversized_axis_list_rejected(self):
        with pytest.raises(GeometryError):
            SynthConfig(image_size=32, axis_list=(40.0,))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            SynthConfig(noise_sigma=-0.1)


class TestEllipseMask:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_pixel_oracle_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        cy, cx = rng.uniform(8, 24, size=2)
        ry = rng.uniform(2, 6)
        rx = rng.uniform(2, 6)
        theta = rng.uniform(0, np.pi)
        got = ellipse_mask(32, cy, cx, ry, rx, theta)
        np.testing.assert_array_equal(
            got, ellipse_mask_ref(32, 32, cy, cx, ry, rx, theta))

    def test_axis_aligned_circle(self):
        m = ellipse_mask(9, 4.0, 4.0, 2.0, 2.0, 0.0)
        assert m[4, 4] and m[4, 6] and m[2, 4]
        assert not m[2, 2] and not m[4, 7]


class TestSynthGenerate:
    def test_same_seed_is_bitwise_identical(self):
        cfg = SynthConfig(count=4, image_size=32, axis_range=(4.0, 8.0), seed=3)
        first = synth_generate(cfg)
        second = synth_generate(cfg)
        for a, b in zip(first, second):
            assert a.id == b.id
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.mask, b.mask)

    def test_seed_changes_output(self):
        base = SynthConfig(count=2, image_size=32, axis_range=(4.0, 8.0))
        a = synth_generate(SynthConfig(count=2, image_size=32,
                                       axis_range=(4.0, 8.0), seed=1))
        b = synth_generate(base)
        assert not np.array_equal(a[0].image, b[0].image)

    def test_metadata(self):
        samples = synth_generate(SynthConfig(count=3, image_size=24,
                                             axis_range=(3.0, 6.0)))
        assert [s.id for s in samples] == ["synth000", "synth001", "synth002"]
        assert all(s.origin == "synthetic" for s in samples)
        assert all(s.native_size == (24, 24) for s in samples)
        assert all(s.mask.any() for s in samples)
        assert all(0.0 <= s.image.min() and s.image.max() <= 1.0 for s in samples)

    def test_count_zero(self):
        assert synth_generate(SynthConfig(count=0)) == []

    def test_noiseless_image_is_two_level(self):
        cfg = SynthConfig(count=2, image_size=32, axis_range=(4.0, 8.0),
                          noise_sigma=0.0, seed=5)
        for s in synth_generate(cfg):
            np.testing.assert_array_equal(
                s.image, np.where(s.mask, 0.25, 0.75))

    def test_lesion_darker_than_background(self):
        for s in synth_generate(SynthConfig(count=3, image_size=48, seed=6)):
            assert s.image[s.mask].mean() < s.image[~s.mask].mean()

    def test_mask_clears_the_border(self):
        for s in synth_generate(SynthConfig(count=4, image_size=32,
                                            axis_range=(4.0, 10.0), seed=7)):
            assert not s.mask[0].any() and not s.mask[-1].any()
            assert not s.mask[:, 0].any() and not s.mask[:, -1].any()

    def test_axis_list_cycles_and_controls_size(self):
        cfg = SynthConfig(count=4, image_size=64, axis_list=(16.0, 24.0), seed=8)
        samples = synth_generate(cfg)
        assert [s.lesion_axis for s in samples] == [16.0, 24.0, 16.0, 24.0]
        for s in samples:
            measured = longest_axis(s.mask)
            # pixel-centre discretization may shave the continuous diameter
            assert s.lesion_axis - 2.0 <= measured <= s.lesion_axis + 1e-9

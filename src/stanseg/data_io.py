"""Image and mask io, resizing, and synthetic phantom generation.

The on-disk image format is 8-bit binary PGM (P5, maxval 255). A
dataset directory pairs ``<stem>.pgm`` with ``<stem>_mask.pgm``; masks
hold only the values 0 and 255. Images are bilinearly resized and
scaled to [0,1]; masks are resized by nearest neighbour so they stay
binary. Both resizers sample at pixel centres, so resizing to the
native size is an exact identity.

The phantom generator draws one rotated-ellipse lesion per image,
darker than the background, multiplies in speckle noise, and keeps the
exact ellipse as the ground-truth mask.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class PgmFormatError(ValueError):
    """Not a readable 8-bit P5 file (magic, header, maxval, or truncation)."""


class MaskNotBinaryError(ValueError):
    """A mask file contains values other than 0 and 255."""


class PairMismatchError(ValueError):
    """Image and mask of one sample have different native dimensions."""


class UnpairedFilesError(ValueError):
    """A dataset directory has images without masks or vice versa."""


class GeometryError(ValueError):
    """Requested lesion does not fit inside the frame."""


@dataclass
class Sample:
    """One grayscale image with its binary ground-truth mask."""

    id: str
    image: np.ndarray
    mask: np.ndarray
    origin: str = "file"
    native_size: tuple[int, int] = (0, 0)
    lesion_axis: float | None = None

    def __post_init__(self):
        if self.image.shape != self.mask.shape:
            raise PairMismatchError(
                f"sample {self.id!r}: image {self.image.shape} vs mask "
                f"{self.mask.shape}")
        if self.mask.dtype != np.bool_:
            raise MaskNotBinaryError(f"sample {self.id!r}: mask must be boolean")
        if self.origin not in ("file", "synthetic"):
            raise ValueError(f"unknown origin {self.origin!r}")


# ------------------------------------------------------------------- pgm io

def _read_header_token(f, path) -> bytes:
    tok = b""
    while True:
        c = f.read(1)
        if not c:
            raise PgmFormatError(f"{path}: unexpected end of header")
        if c == b"#":
            while c and c != b"\n":
                c = f.read(1)
            continue
        if c.isspace():
            if tok:
                return tok
            continue
        tok += c


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into a (height, width) uint8 array."""
    path = Path(path)
    with open(path, "rb") as f:
        if f.read(2) != b"P5":
            raise PgmFormatError(f"{path}: bad magic, expected P5")
        fields = []
        for name in ("width", "height", "maxval"):
            tok = _read_header_token(f, path)
            if not tok.isdigit():
                raise PgmFormatError(f"{path}: non-numeric {name} {tok!r}")
            fields.append(int(tok))
        width, height, maxval = fields
        if width <= 0 or height <= 0:
            raise PgmFormatError(f"{path}: non-positive dimensions {width}x{height}")
        if maxval != 255:
            raise PgmFormatError(f"{path}: only maxval 255 supported, got {maxval}")
        # check the declared size against the file before allocating it
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left < width * height:
            raise PgmFormatError(
                f"{path}: truncated raster, wanted {width * height} bytes, "
                f"got {left}")
        raster = f.read(width * height)
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, array: np.ndarray) -> None:
    """Write a (height, width) uint8 array as binary PGM."""
    arr = np.asarray(array)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError(f"write_pgm needs a 2-D uint8 array, got {arr.dtype} {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


# ------------------------------------------------------------------ resize

def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Centre-aligned bilinear resize of a 2-D float array."""
    in_h, in_w = img.shape
    sy = in_h / out_h
    sx = in_w / out_w
    fy = (np.arange(out_h) + 0.5) * sy - 0.5
    fx = (np.arange(out_w) + 0.5) * sx - 0.5
    y0 = np.floor(fy).astype(int)
    x0 = np.floor(fx).astype(int)
    wy = fy - y0
    wx = fx - x0
    y0c = np.clip(y0, 0, in_h - 1)
    y1c = np.clip(y0 + 1, 0, in_h - 1)
    x0c = np.clip(x0, 0, in_w - 1)
    x1c = np.clip(x0 + 1, 0, in_w - 1)
    wx_row = wx[None, :]
    top = img[np.ix_(y0c, x0c)] * (1.0 - wx_row) + img[np.ix_(y0c, x1c)] * wx_row
    bot = img[np.ix_(y1c, x0c)] * (1.0 - wx_row) + img[np.ix_(y1c, x1c)] * wx_row
    wy_col = wy[:, None]
    return top * (1.0 - wy_col) + bot * wy_col


def nearest_resize(mask: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Centre-aligned nearest-neighbour resize; output dtype equals input's."""
    in_h, in_w = mask.shape
    si = np.minimum(np.floor((np.arange(out_h) + 0.5) * in_h / out_h).astype(int),
                    in_h - 1)
    sj = np.minimum(np.floor((np.arange(out_w) + 0.5) * in_w / out_w).astype(int),
                    in_w - 1)
    return mask[np.ix_(si, sj)]


# ------------------------------------------------------------------ loading

def load_sample(image_path, mask_path, target_size: int | None = None) -> Sample:
    """Load an (image, mask) PGM pair, scale to [0,1], and resize.

    ``target_size`` of None keeps the native dimensions.
    """
    img8 = read_pgm(image_path)
    msk8 = read_pgm(mask_path)
    if img8.shape != msk8.shape:
        raise PairMismatchError(
            f"{image_path} is {img8.shape} but {mask_path} is {msk8.shape}")
    bad = np.setdiff1d(np.unique(msk8), [0, 255])
    if bad.size:
        raise MaskNotBinaryError(
            f"{mask_path}: mask holds non-binary values {bad.tolist()[:5]}")
    image = img8 / 255.0
    mask = msk8 == 255
    if target_size is not None:
        image = bilinear_resize(image, target_size, target_size)
        mask = nearest_resize(mask, target_size, target_size)
    return Sample(id=Path(image_path).stem, image=image, mask=mask,
                  origin="file", native_size=img8.shape)


def save_mask(mask: np.ndarray, path) -> None:
    """Write a boolean mask as a {0, 255} PGM."""
    write_pgm(path, np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8))


def save_image(image: np.ndarray, path) -> None:
    """Quantize a [0,1] float image to 8 bits and write it as PGM."""
    write_pgm(path, np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8))


def dataset_manifest(directory, target_size: int | None = None) -> list[Sample]:
    """Load every ``<stem>.pgm`` + ``<stem>_mask.pgm`` pair under
    ``directory``, in lexicographic stem order."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"{directory}: no such dataset directory")
    stems = set()
    mask_stems = set()
    for p in directory.glob("*.pgm"):
        if p.stem.endswith("_mask"):
            mask_stems.add(p.stem[:-len("_mask")])
        else:
            stems.add(p.stem)
    missing_masks = sorted(stems - mask_stems)
    missing_images = sorted(mask_stems - stems)
    if missing_masks or missing_images:
        parts = []
        if missing_masks:
            parts.append(f"images without masks: {missing_masks}")
        if missing_images:
            parts.append(f"masks without images: {missing_images}")
        raise UnpairedFilesError(f"{directory}: " + "; ".join(parts))
    return [
        load_sample(directory / f"{stem}.pgm", directory / f"{stem}_mask.pgm",
                    target_size)
        for stem in sorted(stems)
    ]


# --------------------------------------------------------------- synthesis

@dataclass
class SynthConfig:
    """Phantom generator settings.

    ``axis_range`` bounds the drawn semi-axes; ``axis_list`` overrides
    it with explicit longest-axis lengths (full diameters, one per
    sample, cycled) so size strata can be controlled exactly.
    """

    count: int = 8
    image_size: int = 64
    axis_range: tuple[float, float] = (8.0, 20.0)
    axis_list: tuple[float, ...] | None = None
    lesion_intensity: float = 0.25
    background_intensity: float = 0.75
    noise_sigma: float = 0.08
    rotation_range: tuple[float, float] = (0.0, math.pi)
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be non-negative, got {self.count}")
        if self.image_size < 4:
            raise ValueError(f"image_size too small: {self.image_size}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        lo, hi = self.axis_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad axis_range {self.axis_range}")
        if self.axis_list is not None and not (
                self.axis_list and all(a > 0 for a in self.axis_list)):
            raise ValueError(
                f"axis_list must be non-empty with positive entries, got {self.axis_list}")
        largest = max(self.axis_list) / 2.0 if self.axis_list else hi
        if 2.0 * largest >= self.image_size:
            raise GeometryError(
                f"semi-axis {largest} cannot fit in a {self.image_size}px frame")


def ellipse_mask(size: int, cy: float, cx: float, ry: float, rx: float,
                 theta: float) -> np.ndarray:
    """Pixels whose centres lie inside the rotated ellipse.

    ``rx`` is the semi-axis along the rotated x direction, ``theta`` the
    rotation in radians.
    """
    ct = math.cos(theta)
    st = math.sin(theta)
    yy, xx = np.mgrid[0:size, 0:size]
    dy = yy - cy
    dx = xx - cx
    u = (dx * ct + dy * st) / rx
    v = (-dx * st + dy * ct) / ry
    return u * u + v * v <= 1.0


def synth_generate(cfg: SynthConfig) -> list[Sample]:
    """Deterministic phantom dataset: darker elliptical lesion on a brighter
    background with multiplicative speckle."""
    rng = np.random.default_rng(cfg.seed)
    size = cfg.image_size
    samples = []
    for i in range(cfg.count):
        if cfg.axis_list is not None:
            a = cfg.axis_list[i % len(cfg.axis_list)] / 2.0
            b = a * rng.uniform(0.55, 0.9)
        else:
            lo, hi = cfg.axis_range
            a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)), reverse=True)
        margin = a + 1.0
        if size - 1.0 - margin <= margin:
            raise GeometryError(
                f"sample {i}: semi-axis {a} leaves no room for the centre "
                f"in a {size}px frame")
        theta = rng.uniform(*cfg.rotation_range)
        cy = rng.uniform(margin, size - 1.0 - margin)
        cx = rng.uniform(margin, size - 1.0 - margin)
        mask = ellipse_mask(size, cy, cx, b, a, theta)
        image = np.where(mask, cfg.lesion_intensity, cfg.background_intensity)
        noise = rng.standard_normal((size, size))
        image = np.clip(image * (1.0 + cfg.noise_sigma * noise), 0.0, 1.0)
        samples.append(Sample(
            id=f"synth{i:03d}", image=image, mask=mask, origin="synthetic",
            native_size=(size, size), lesion_axis=2.0 * a))
    return samples

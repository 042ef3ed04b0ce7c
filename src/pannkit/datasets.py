"""Dataset ingestion: IDX and CIFAR-10 binary readers plus synthetic sources.

File parsers are bit-exact against the public format definitions and fail
with byte offsets on malformed input. Synthetic generators are deterministic
given their seed and exist so every experiment in the suite can run without
any downloaded data.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .nn import FieldError
from .seeding import derive_rng

IDX_MAGIC_LABELS = 0x00000801  # uint8 payload, 1 axis
IDX_MAGIC_IMAGES = 0x00000803  # uint8 payload, 3 axes
CIFAR10_RECORD_BYTES = 3073  # 1 label byte + 3*32*32 pixel bytes

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message names the offending byte offset."""


def _normalize(x: np.ndarray, norm) -> np.ndarray:
    return x if norm is None else (x - norm[0]) / norm[1]


class ByteImages:
    """8-bit images that read as float64. Indexing decodes only the chosen
    images: raw / 255, then (x - mean) / std when ``norm`` is (mean, std).
    Decoding is elementwise, so a batch holds the bytes a decoded pool
    would; the pool takes a byte per pixel, not eight."""

    dtype = np.dtype(np.float64)

    def __init__(self, raw: np.ndarray, norm=None):
        self.raw, self.norm = raw, norm
        self.shape, self.ndim = raw.shape, raw.ndim

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, idx) -> np.ndarray:
        return _normalize(np.divide(self.raw[idx], 255.0, dtype=np.float64),
                          self.norm)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[...], dtype=dtype)  # always a new array


@dataclass(frozen=True)
class Dataset:
    """In-memory train/test split: float64-reading inputs, int64 labels."""

    x_train: np.ndarray | ByteImages
    y_train: np.ndarray
    x_test: np.ndarray | ByteImages
    y_test: np.ndarray
    n_classes: int
    spec: DatasetSpec | None = None  # set by load_dataset; names the data

    def __post_init__(self):
        for y in (self.y_train, self.y_test):
            if y.size and (y.min() < 0 or y.max() >= self.n_classes):
                raise ValueError(
                    f"labels out of range [0, {self.n_classes})")
        if self.x_train.shape[1:] != self.x_test.shape[1:]:
            raise ValueError("train/test sample shapes differ")

    @property
    def sample_shape(self) -> tuple:
        return tuple(self.x_train.shape[1:])


# ---------------------------------------------------------------------------
# IDX (the MNIST container format)


def read_idx(path) -> np.ndarray:
    """Parse one IDX file into a uint8 array.

    Accepts the two layouts used by the digit datasets: magic 0x00000801
    (label vector) and 0x00000803 (image stack).
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 4:
        raise DatasetFormatError(
            f"{path}: file ends at offset {len(raw)}, need 4 magic bytes")
    magic = int.from_bytes(raw[:4], "big")
    if magic not in (IDX_MAGIC_LABELS, IDX_MAGIC_IMAGES):
        raise DatasetFormatError(
            f"{path}: bad magic 0x{magic:08x} at offset 0; expected "
            f"0x{IDX_MAGIC_LABELS:08x} or 0x{IDX_MAGIC_IMAGES:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DatasetFormatError(
            f"{path}: file ends at offset {len(raw)} inside the "
            f"{ndim}-axis dimension header (need {header} bytes)")
    dims = [int.from_bytes(raw[4 + 4 * i:8 + 4 * i], "big")
            for i in range(ndim)]
    expected = header + math.prod(dims)
    if len(raw) != expected:
        raise DatasetFormatError(
            f"{path}: dims {dims} require {expected} bytes, file has "
            f"{len(raw)} (payload starts at offset {header})")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims).copy()


def _paired_idx(images_path, labels_path):
    images = read_idx(images_path)
    labels = read_idx(labels_path)
    if images.ndim != 3:
        raise DatasetFormatError(f"{images_path}: expected an image stack")
    if labels.ndim != 1:
        raise DatasetFormatError(f"{labels_path}: expected a label vector")
    if images.shape[0] != labels.shape[0]:
        raise DatasetFormatError(
            f"{images_path}: {images.shape[0]} images but "
            f"{labels.shape[0]} labels in {labels_path}")
    if labels.size == 0:
        raise DatasetFormatError(f"{images_path}: empty file (0 images)")
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        i = int(bad[0])  # a label file's payload starts at offset 8
        raise DatasetFormatError(
            f"{labels_path}: label {int(labels[i])} > 9 in record {i} "
            f"(offset {8 + i})")
    return ByteImages(images[:, None]), labels.astype(np.int64)  # (n, 1, H, W)


def load_mnist_idx(data_dir) -> Dataset:
    """Load the four standard IDX files from ``data_dir``."""
    d = Path(data_dir)
    x_tr, y_tr = _paired_idx(d / MNIST_FILES["train_images"],
                             d / MNIST_FILES["train_labels"])
    x_te, y_te = _paired_idx(d / MNIST_FILES["test_images"],
                             d / MNIST_FILES["test_labels"])
    return Dataset(x_tr, y_tr, x_te, y_te, n_classes=10)


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches


def read_cifar10_batch(path):
    """One .bin batch -> (images (n,3,32,32) uint8, labels (n,) uint8)."""
    path = Path(path)
    raw = path.read_bytes()
    n, leftover = divmod(len(raw), CIFAR10_RECORD_BYTES)
    if leftover:
        raise DatasetFormatError(
            f"{path}: size {len(raw)} is not a multiple of "
            f"{CIFAR10_RECORD_BYTES}; trailing fragment starts at offset "
            f"{n * CIFAR10_RECORD_BYTES}")
    if n == 0:
        raise DatasetFormatError(f"{path}: empty batch (0 records)")
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR10_RECORD_BYTES)
    labels = rec[:, 0].copy()
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(
            f"{path}: label {int(labels[i])} > 9 in record {i} "
            f"(offset {i * CIFAR10_RECORD_BYTES})")
    images = rec[:, 1:].reshape(n, 3, 32, 32).copy()
    return images, labels


def load_cifar10_binary(data_dir) -> Dataset:
    """Load data_batch_1..5.bin and test_batch.bin from ``data_dir``."""
    d = Path(data_dir)
    xs, ys = [], []
    for i in range(1, 6):
        img, lab = read_cifar10_batch(d / f"data_batch_{i}.bin")
        xs.append(img)
        ys.append(lab)
    img, lab = read_cifar10_batch(d / "test_batch.bin")
    return Dataset(ByteImages(np.concatenate(xs)),
                   np.concatenate(ys).astype(np.int64), ByteImages(img),
                   lab.astype(np.int64), n_classes=10)


# ---------------------------------------------------------------------------
# synthetic point clouds


def _balanced_labels(n: int, classes: int, rng) -> np.ndarray:
    """Class counts differ by at most one; order shuffled."""
    y = np.arange(n, dtype=np.int64) % classes
    rng.shuffle(y)
    return y


def synthetic_blobs(n: int, classes: int, dim: int, seed: int):
    """Gaussian clusters around well-separated deterministic centers."""
    rng = derive_rng(seed, "blobs")
    if dim == 1:
        centers = (np.arange(classes) - (classes - 1) / 2.0)[:, None] * 4.0
        spacing = 4.0
    else:
        ang = 2.0 * np.pi * np.arange(classes) / classes
        centers = np.zeros((classes, dim))
        centers[:, 0] = 4.0 * np.cos(ang)
        centers[:, 1] = 4.0 * np.sin(ang)
        spacing = 8.0 * np.sin(np.pi / classes)
    sigma = spacing / 6.0
    y = _balanced_labels(n, classes, rng)
    x = centers[y] + sigma * rng.standard_normal((n, dim))
    return x, y


def synthetic_moons(n: int, noise: float, seed: int):
    """Two interleaving half circles in the plane."""
    rng = derive_rng(seed, "moons")
    n0 = n // 2
    n1 = n - n0
    t0 = np.pi * rng.random(n0)
    t1 = np.pi * rng.random(n1)
    x = np.empty((n, 2))
    x[:n0, 0] = np.cos(t0)
    x[:n0, 1] = np.sin(t0)
    x[n0:, 0] = 1.0 - np.cos(t1)
    x[n0:, 1] = 0.5 - np.sin(t1)
    x += noise * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(n0, np.int64), np.ones(n1, np.int64)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


# ---------------------------------------------------------------------------
# synthetic digits: a deterministic stand-in for handwritten-digit files.
# Seven-segment glyphs with random shift, brightness jitter and pixel noise.

_SEGMENTS = {
    # (row0, row1, col0, col1) on a 20x14 glyph box
    "A": (0, 3, 0, 14),
    "B": (0, 10, 11, 14),
    "C": (10, 20, 11, 14),
    "D": (17, 20, 0, 14),
    "E": (10, 20, 0, 3),
    "F": (0, 10, 0, 3),
    "G": (9, 12, 0, 14),
}

_DIGIT_SEGMENTS = {
    0: "ABCDEF", 1: "BC", 2: "ABGED", 3: "ABGCD", 4: "FGBC",
    5: "AFGCD", 6: "AFGECD", 7: "ABC", 8: "ABCDEFG", 9: "ABCDFG",
}


def _digit_templates() -> np.ndarray:
    """(10, 28, 28) float glyphs, intensity 1 on segments, 0 elsewhere."""
    out = np.zeros((10, 28, 28))
    top, left = 4, 7  # glyph box placed at rows 4..23, cols 7..20
    for digit, segs in _DIGIT_SEGMENTS.items():
        for s in segs:
            r0, r1, c0, c1 = _SEGMENTS[s]
            out[digit, top + r0:top + r1, left + c0:left + c1] = 1.0
    return out


DIGITS_BLOCK = 256  # images per block of synthetic_digits' float64 steps


def synthetic_digits(n: int, seed: int, noise: float = 0.1):
    """n noisy 28x28 digit images (uint8) with balanced labels.

    ``noise`` is the pixel-noise sigma; raising it overlaps the classes,
    which desk-scale approximation-robustness experiments rely on. The
    float64 steps run over blocks of DIGITS_BLOCK images, each written into
    the uint8 output; the generator draws the blocks' noise in order, so
    the bytes are those of one draw over all n images.
    """
    rng = derive_rng(seed, "digits")
    y = _balanced_labels(n, 10, rng)
    shifts = rng.integers(-3, 4, size=(n, 2))
    brightness = 0.7 + 0.3 * rng.random(n)
    # every glyph at every shift, as np.roll by (dr, dc) places it: output
    # pixel (r, c) reads (r - dr, c - dc) mod 28; one row gathered per image
    rows = (np.arange(28) - np.arange(-3, 4)[:, None]) % 28
    shifted = _digit_templates()[:, rows[:, None, :, None],
                                 rows[None, :, None, :]].reshape(-1, 28, 28)
    glyph = (y * 7 + shifts[:, 0] + 3) * 7 + shifts[:, 1] + 3
    out = np.empty((n, 28, 28), dtype=np.uint8)
    for s in range(0, n, DIGITS_BLOCK):
        images = shifted[glyph[s:s + DIGITS_BLOCK]]
        images *= brightness[s:s + DIGITS_BLOCK, None, None]
        pixel_noise = rng.standard_normal(images.shape)
        images += np.multiply(pixel_noise, noise, out=pixel_noise)
        np.clip(images, 0.0, 1.0, out=images)
        images *= 255.0
        out[s:s + DIGITS_BLOCK] = np.round(images, out=images)
    return out, y


# ---------------------------------------------------------------------------
# declarative entry point

SOURCES = ("mnist_idx", "cifar10_binary", "synthetic_blobs",
           "synthetic_moons", "synthetic_digits")


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative dataset request, JSON-friendly.

    ``path`` names the data directory for file sources. ``n``, ``classes``,
    ``dim``, ``noise`` and ``seed`` parameterize the synthetic sources;
    ``train_fraction`` splits a generated pool. ``limit_train``/``limit_test``
    take a deterministic prefix subset (desk-scale runs). ``normalize_mean``
    and ``normalize_std`` apply (x - mean) / std after any uint8 -> [0, 1]
    scaling done by the readers.
    """

    source: str
    path: str | None = None
    n: int = 1000
    classes: int = 2
    dim: int = 2
    noise: float = 0.1
    seed: int = 0
    train_fraction: float = 0.8
    limit_train: int | None = None
    limit_test: int | None = None
    normalize_mean: float | None = None
    normalize_std: float | None = None

    def __post_init__(self):
        """Raise FieldError naming the first field no loader can use."""
        if self.source not in SOURCES:
            raise FieldError(f"source: unknown source {self.source!r}; one "
                             f"of {SOURCES}")
        pool = self.source not in ("mnist_idx", "cifar10_binary")
        blobs = self.source == "synthetic_blobs"
        n_train = int(round(self.train_fraction * self.n))  # _split_pool's
        for name, ok, wanted in (
                ("path", pool or self.path is not None, "a data directory"),
                ("n", not pool or self.n >= 2, "an integer >= 2"),
                ("classes", not blobs or self.classes >= 2, "an integer >= 2"),
                ("dim", not blobs or self.dim >= 1, "an integer >= 1"),
                ("noise", self.noise >= 0, "a nonnegative number"),
                ("train_fraction", 0.0 < self.train_fraction < 1.0 and (
                    not pool or 0 < n_train < self.n),
                 "a share in (0, 1) that leaves train and test samples"),
                ("limit_train", self.limit_train is None
                 or self.limit_train >= 1, "an integer >= 1 or null"),
                ("limit_test", self.limit_test is None
                 or self.limit_test >= 1, "an integer >= 1 or null"),
                ("normalize_std", self.normalize_std is None
                 or self.normalize_std > 0, "a positive number or null")):
            if not ok:
                raise FieldError(f"{name}: expected {wanted}, got "
                                 f"{getattr(self, name)!r}")

    def key(self) -> dict:
        """Every field, with a file path resolved: the dataset's part of a
        cached cell's identity."""
        key = asdict(self)
        if self.path is not None:
            key["path"] = os.path.realpath(self.path)
        return key


def _split_pool(x, y, spec: DatasetSpec, n_classes: int,
                wrap=np.asarray) -> Dataset:
    n_train = int(round(spec.train_fraction * len(x)))
    return Dataset(wrap(x[:n_train]), y[:n_train], wrap(x[n_train:]),
                   y[n_train:], n_classes=n_classes)


def load_dataset(spec: DatasetSpec) -> Dataset:
    """Resolve a spec to tensors; deterministic for a fixed spec."""
    if spec.source == "mnist_idx":
        ds = load_mnist_idx(spec.path)
    elif spec.source == "cifar10_binary":
        ds = load_cifar10_binary(spec.path)
    elif spec.source == "synthetic_blobs":
        x, y = synthetic_blobs(spec.n, spec.classes, spec.dim, spec.seed)
        ds = _split_pool(x, y, spec, spec.classes)
    elif spec.source == "synthetic_moons":
        x, y = synthetic_moons(spec.n, spec.noise, spec.seed)
        ds = _split_pool(x, y, spec, 2)
    else:
        img, lab = synthetic_digits(spec.n, spec.seed, spec.noise)
        ds = _split_pool(img[:, None], lab, spec, 10, wrap=ByteImages)
    norm = None
    if spec.normalize_mean is not None or spec.normalize_std is not None:
        norm = (spec.normalize_mean or 0.0, spec.normalize_std or 1.0)

    def head(x, stop):  # a prefix, normalized; 8-bit images stay 8-bit
        if isinstance(x, ByteImages):
            return ByteImages(x.raw[:stop], norm)
        return _normalize(x[:stop], norm)

    return replace(ds, x_train=head(ds.x_train, spec.limit_train),
                   y_train=ds.y_train[:spec.limit_train],
                   x_test=head(ds.x_test, spec.limit_test),
                   y_test=ds.y_test[:spec.limit_test], spec=spec)

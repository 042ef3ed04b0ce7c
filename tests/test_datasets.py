"""Dataset parser and generator tests.

File-format cases are checked against hand-built byte strings (IDX files
come from idx_files, which builds them byte by byte), so the readers are
validated independently of any writer.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pannkit import datasets as ds
from pannkit.seeding import derive_rng

from idx_files import idx_bytes, write_digit_idx_dataset, write_idx
from oracles import decoded_pool, traced_peak


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:32]


# sha256 prefixes of synthetic_digits(n, seed, noise) images by (n, noise,
# seed) and of its labels by (n, seed), as the per-image gather built them
# before the shifted-glyph table; an optimisation must keep every byte
_DIGIT_IMAGES = {
    (1800, 0.0, 0): "8d75e7f3c5bd35ea6335633910642d25",
    (1800, 0.25, 0): "579970a74b107440c25a143eb24c3ce2",
    (1800, 0.6, 0): "7c02bfd2047fe03794f06f454e05b5e8",
    (64, 0.0, 0): "a9b45afbf4951c17d2d847abe84d2ec7",
    (64, 0.25, 0): "d377ebb13e082e8b48328e02d799b667",
    (64, 0.6, 0): "9cf1552d8a66ada4050cb9ddbc9ecc1c",
    (7, 0.0, 0): "fdc4da5df4908ac9d9209a0975d86d61",
    (7, 0.25, 0): "9539f947d1e45d8c5c2bc4f243f9161d",
    (7, 0.6, 0): "d9e57d44324ee591d4b6b9cf81fd9696",
    (1800, 0.0, 5): "e61816fb9ce68c72dd3998700e3a5203",
    (1800, 0.25, 5): "711578432e5049eee6b6bda336aeaf8f",
    (1800, 0.6, 5): "15daaaf538426638d5e6f0aeef0aae79",
    (64, 0.0, 5): "b8d02e0738af66b8930c923159df7ccd",
    (64, 0.25, 5): "6ff35e9895eee679ea04c86304fa0c97",
    (64, 0.6, 5): "13338d2654d582acc9b1bf6f61770d35",
    (7, 0.0, 5): "d9e8005e069fe53ce93d610cb0326c02",
    (7, 0.25, 5): "100f01307a1afeafb2a2c7659b552891",
    (7, 0.6, 5): "54b6575dd6fe1f759edf97d5f3532e6b",
}
_DIGIT_LABELS = {
    (1800, 0): "fb3b376095bae655fe1ba920f1bec924",
    (64, 0): "954e832429cdd5dfe8312e3df4222a84",
    (7, 0): "bbfdcacd6b0b7d8a9dd191ce26882f0f",
    (1800, 5): "2adf51da4e4d1ccd417172de2ad4cda4",
    (64, 5): "75a9b6b0a5601d618f7c3218b2d5e0a9",
    (7, 5): "a4df9219b748c25ef2dd9682f56bfbed",
}


class TestIdx:
    def test_read_hand_built_labels(self, tmp_path):
        p = tmp_path / "labels"
        p.write_bytes(idx_bytes(0x00000801, [3], bytes([7, 0, 9])))
        out = ds.read_idx(p)
        assert out.dtype == np.uint8
        assert out.tolist() == [7, 0, 9]

    def test_read_hand_built_images(self, tmp_path):
        p = tmp_path / "imgs"
        payload = bytes(range(2 * 2 * 3))
        p.write_bytes(idx_bytes(0x00000803, [2, 2, 3], payload))
        out = ds.read_idx(p)
        assert out.shape == (2, 2, 3)
        assert out.ravel().tolist() == list(range(12))

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
        write_idx(tmp_path / "x", img)
        assert np.array_equal(ds.read_idx(tmp_path / "x"), img)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(idx_bytes(0x00000802, [1], b"\x00"))
        with pytest.raises(ds.DatasetFormatError, match="magic 0x00000802"):
            ds.read_idx(p)

    def test_truncated_payload_names_lengths(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(idx_bytes(0x00000803, [2, 2, 2], b"\x00" * 5))
        with pytest.raises(ds.DatasetFormatError, match=r"require 24 bytes.*has 21"):
            ds.read_idx(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "hdr"
        p.write_bytes((0x00000803).to_bytes(4, "big") + b"\x00\x00")
        with pytest.raises(ds.DatasetFormatError, match="offset 6"):
            ds.read_idx(p)

    def test_tiny_file(self, tmp_path):
        p = tmp_path / "tiny"
        p.write_bytes(b"\x00")
        with pytest.raises(ds.DatasetFormatError, match="offset 1"):
            ds.read_idx(p)

    def test_count_mismatch(self, tmp_path):
        write_idx(tmp_path / ds.MNIST_FILES["train_images"],
                  np.zeros((3, 4, 4), np.uint8))
        write_idx(tmp_path / ds.MNIST_FILES["train_labels"],
                  np.zeros(2, np.uint8))
        write_idx(tmp_path / ds.MNIST_FILES["test_images"],
                  np.zeros((1, 4, 4), np.uint8))
        write_idx(tmp_path / ds.MNIST_FILES["test_labels"],
                  np.zeros(1, np.uint8))
        with pytest.raises(ds.DatasetFormatError, match="3 images but 2 labels"):
            ds.load_mnist_idx(tmp_path)

    def test_label_out_of_range_names_record_and_offset(self, tmp_path):
        write_digit_idx_dataset(tmp_path, n_train=6, n_test=3)
        labels = np.array([1, 2, 3, 9, 12, 0], np.uint8)
        path = tmp_path / ds.MNIST_FILES["train_labels"]
        write_idx(path, labels)
        with pytest.raises(ds.DatasetFormatError) as exc:
            ds.load_mnist_idx(tmp_path)
        # the payload of a 1-axis file starts after 4 magic and 4 dim bytes
        assert str(exc.value) == \
            f"{path}: label 12 > 9 in record 4 (offset 12)"

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_file(self, tmp_path, split):
        write_digit_idx_dataset(tmp_path, n_train=6, n_test=3)
        images = tmp_path / ds.MNIST_FILES[f"{split}_images"]
        write_idx(images, np.zeros((0, 28, 28), np.uint8))
        write_idx(tmp_path / ds.MNIST_FILES[f"{split}_labels"],
                  np.zeros(0, np.uint8))
        with pytest.raises(ds.DatasetFormatError) as exc:
            ds.load_mnist_idx(tmp_path)
        assert str(exc.value) == f"{images}: empty file (0 images)"


class TestCifar10:
    def _write_batch(self, path, labels, rng):
        n = len(labels)
        rec = np.empty((n, ds.CIFAR10_RECORD_BYTES), np.uint8)
        rec[:, 0] = labels
        rec[:, 1:] = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
        path.write_bytes(rec.tobytes())
        return rec

    def test_read_batch(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = self._write_batch(tmp_path / "b.bin", [3, 0, 9], rng)
        img, lab = ds.read_cifar10_batch(tmp_path / "b.bin")
        assert lab.tolist() == [3, 0, 9]
        assert img.shape == (3, 3, 32, 32)
        assert np.array_equal(img[1].ravel(), rec[1, 1:])

    def test_ragged_file(self, tmp_path):
        p = tmp_path / "ragged.bin"
        p.write_bytes(b"\x00" * (2 * ds.CIFAR10_RECORD_BYTES + 10))
        with pytest.raises(ds.DatasetFormatError, match="offset 6146"):
            ds.read_cifar10_batch(p)

    def test_bad_label(self, tmp_path):
        rng = np.random.default_rng(2)
        self._write_batch(tmp_path / "b.bin", [1, 12], rng)
        with pytest.raises(ds.DatasetFormatError, match="label 12 > 9 in record 1"):
            ds.read_cifar10_batch(tmp_path / "b.bin")

    def test_full_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        for i in range(1, 6):
            self._write_batch(tmp_path / f"data_batch_{i}.bin", [i % 10] * 4, rng)
        self._write_batch(tmp_path / "test_batch.bin", [0, 1], rng)
        data = ds.load_cifar10_binary(tmp_path)
        assert data.x_train.shape == (20, 3, 32, 32)
        assert data.x_test.shape == (2, 3, 32, 32)
        x = np.asarray(data.x_train)
        assert x.max() <= 1.0 and x.min() >= 0.0
        assert data.n_classes == 10


class TestSynthetic:
    def test_blobs_balanced(self):
        x, y = ds.synthetic_blobs(n=100, classes=2, dim=2, seed=1)
        assert x.shape == (100, 2)
        counts = np.bincount(y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_blobs_balance_odd_n(self):
        _, y = ds.synthetic_blobs(n=101, classes=3, dim=2, seed=4)
        counts = np.bincount(y, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_blobs_deterministic(self):
        a = ds.synthetic_blobs(50, 2, 3, seed=9)
        b = ds.synthetic_blobs(50, 2, 3, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_blobs_on_a_line(self):
        # one axis: centers 4 apart around 0, sigma 4/6
        x, y = ds.synthetic_blobs(900, 3, 1, seed=2)
        assert x.shape == (900, 1)
        centers = np.array([-4.0, 0.0, 4.0])
        for k in range(3):
            assert abs(x[y == k].mean() - centers[k]) < 0.15
        nearest = np.argmin(np.abs(x - centers), axis=1)
        assert np.mean(nearest == y) >= 0.99

    def test_blobs_separable(self):
        # centers are 6 sigma apart, so nearest-center classification on a
        # fresh draw should be essentially perfect
        x, y = ds.synthetic_blobs(2000, 4, 2, seed=7)
        ang = 2.0 * np.pi * np.arange(4) / 4
        centers = 4.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        pred = np.argmin(((x[:, None, :] - centers) ** 2).sum(-1), axis=1)
        assert (pred == y).mean() >= 0.99

    def test_moons(self):
        x, y = ds.synthetic_moons(201, noise=0.05, seed=3)
        assert x.shape == (201, 2)
        counts = np.bincount(y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1
        a = ds.synthetic_moons(201, noise=0.05, seed=3)
        assert np.array_equal(a[0], x)

    def test_digits_shape_and_determinism(self):
        img, lab = ds.synthetic_digits(40, seed=2)
        assert img.shape == (40, 28, 28) and img.dtype == np.uint8
        counts = np.bincount(lab, minlength=10)
        assert counts.max() - counts.min() <= 1
        img2, lab2 = ds.synthetic_digits(40, seed=2)
        assert np.array_equal(img, img2) and np.array_equal(lab, lab2)

    def test_digits_match_per_image_loop(self):
        def loop(n, seed, noise=0.1):
            rng = derive_rng(seed, "digits")
            templates = ds._digit_templates()
            y = ds._balanced_labels(n, 10, rng)
            shifts = rng.integers(-3, 4, size=(n, 2))
            brightness = 0.7 + 0.3 * rng.random(n)
            images = np.empty((n, 28, 28))
            for i in range(n):
                g = templates[y[i]] * brightness[i]
                g = np.roll(g, (int(shifts[i, 0]), int(shifts[i, 1])),
                            axis=(0, 1))
                images[i] = g
            images += noise * rng.standard_normal((n, 28, 28))
            images = np.clip(images, 0.0, 1.0)
            return np.round(images * 255.0).astype(np.uint8), y

        # 777 ends on a partial block of DIGITS_BLOCK images
        for n, seed in ((1800, 3), (1000, 7), (2500, 0), (40, 2), (777, 5)):
            img, lab = ds.synthetic_digits(n, seed)
            want_img, want_lab = loop(n, seed)
            assert np.array_equal(img, want_img)
            assert np.array_equal(lab, want_lab)

    def test_digits_peak_below_one_float64_copy(self):
        # 2500 images are 15.7 MB in float64; building them whole held that
        # and an equal noise draw at once (36.5 MB)
        peak = traced_peak(lambda: ds.synthetic_digits(2500, 0, 0.25))
        assert peak < 2500 * 28 * 28 * 8, peak

    def test_digits_pinned_digests(self):
        for (n, noise, seed), want in _DIGIT_IMAGES.items():
            img, lab = ds.synthetic_digits(n, seed, noise)
            assert _sha(img) == want, (n, noise, seed)
            assert _sha(lab) == _DIGIT_LABELS[n, seed], (n, seed)

    def test_digit_classes_distinct(self):
        # shift-searched cosine matched filter recovers the class; cosine
        # (not raw dot product) so nested glyphs like 0 inside 8 separate
        templates = ds._digit_templates()
        img, lab = ds.synthetic_digits(200, seed=11)
        x = img.astype(float).reshape(200, -1) / 255.0
        scores = np.full((200, 10), -np.inf)
        for dr in range(-3, 4):
            for dc in range(-3, 4):
                t = np.roll(templates, (dr, dc), axis=(1, 2)).reshape(10, -1)
                t = t / np.linalg.norm(t, axis=1, keepdims=True)
                scores = np.maximum(scores, x @ t.T)
        acc = (np.argmax(scores, axis=1) == lab).mean()
        assert acc >= 0.8

    def test_digit_idx_files(self, tmp_path):
        write_digit_idx_dataset(tmp_path, n_train=30, n_test=10, seed=0)
        data = ds.load_mnist_idx(tmp_path)
        assert data.x_train.shape == (30, 1, 28, 28)
        assert data.x_test.shape == (10, 1, 28, 28)
        x = np.asarray(data.x_train)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert data.y_train.max() < 10


def _index(n: int):
    """Each kind of index a consumer may take of n samples."""
    bound = st.none() | st.integers(-n - 2, n + 2)
    return st.one_of(
        st.integers(0, n - 1), st.integers(-n, -1),
        st.builds(slice, bound, bound, st.sampled_from([1, 2, 3, -1, -4])),
        st.lists(st.integers(-n, n - 1), max_size=20).map(
            lambda i: np.array(i, dtype=np.intp)),
        st.just(Ellipsis))


@pytest.fixture(scope="module")
def byte_sources(tmp_path_factory):
    """8-bit source -> (spec fields, raw train images, raw test images), the
    raw images taken apart from the package's loaders."""
    root = tmp_path_factory.mktemp("byte_sources")
    img, _ = ds.synthetic_digits(300, 3, 0.25)
    write_digit_idx_dataset(root / "idx", n_train=30, n_test=10, seed=1)
    idx_img, _ = ds.synthetic_digits(40, 1)
    rng = np.random.default_rng(8)
    cifar = {}
    for name, n in [(f"data_batch_{i}", 3) for i in range(1, 6)] + \
            [("test_batch", 5)]:
        rec = rng.integers(0, 256, size=(n, ds.CIFAR10_RECORD_BYTES),
                           dtype=np.uint8)
        rec[:, 0] %= 10
        (root / f"{name}.bin").write_bytes(rec.tobytes())
        cifar[name] = rec[:, 1:].reshape(n, 3, 32, 32)
    return {
        # limits take a prefix of each split: train 0..199, test 240..289
        "digits": (dict(source="synthetic_digits", n=300, seed=3, noise=0.25,
                        limit_train=200, limit_test=50),
                   img[:200, None], img[240:290, None]),
        "idx": (dict(source="mnist_idx", path=str(root / "idx")),
                idx_img[:30, None], idx_img[30:, None]),
        "cifar": (dict(source="cifar10_binary", path=str(root)),
                  np.concatenate([cifar[f"data_batch_{i}"]
                                  for i in range(1, 6)]),
                  cifar["test_batch"])}


class TestByteImages:
    @pytest.mark.parametrize("mean, std", [
        (None, None), (0.5, None), (None, 0.3), (0.1307, 0.3081)])
    @pytest.mark.parametrize("source", ["digits", "idx", "cifar"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_index_decodes_the_eager_pool(self, byte_sources, source, mean,
                                          std, data):
        fields, raw_train, raw_test = byte_sources[source]
        loaded = ds.load_dataset(ds.DatasetSpec(
            **fields, normalize_mean=mean, normalize_std=std))
        for x, raw in ((loaded.x_train, raw_train), (loaded.x_test, raw_test)):
            pool = decoded_pool(raw, mean, std)
            assert (len(x), x.shape, x.ndim, x.dtype) == \
                (len(pool), pool.shape, pool.ndim, pool.dtype)
            whole = np.asarray(x)
            assert whole.shape == pool.shape
            assert whole.tobytes() == pool.tobytes()
            idx = data.draw(_index(len(raw)), label="index")
            got, want = x[idx], pool[idx]
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_digits_load_keeps_the_8_bit_pool(self):
        # 2500 images are 2.0 MB as bytes and 15.7 MB as one float64 pool,
        # which the loader used to keep (16.4 MB retained, 18.4 MB peak)
        spec = ds.DatasetSpec(source="synthetic_digits", n=2500, seed=0,
                              noise=0.25)
        kept = []

        def load():
            kept.append(ds.load_dataset(spec))
            kept.append(tracemalloc.get_traced_memory()[0])

        peak = traced_peak(load)
        assert kept[1] <= 3e6, kept[1]
        assert peak < 12e6, peak


class TestSpec:
    def test_unknown_source(self):
        with pytest.raises(ValueError, match="unknown source"):
            ds.DatasetSpec(source="imagenet")

    def test_bad_fraction(self):
        with pytest.raises(ValueError, match="train_fraction"):
            ds.DatasetSpec(source="synthetic_blobs", train_fraction=1.0)

    def test_split_sizes(self):
        spec = ds.DatasetSpec(source="synthetic_blobs", n=100, classes=2,
                              dim=2, seed=1, train_fraction=0.8)
        data = ds.load_dataset(spec)
        assert len(data.x_train) == 80 and len(data.x_test) == 20
        assert data.spec.source == "synthetic_blobs"

    def test_limits_take_prefix(self):
        spec = ds.DatasetSpec(source="synthetic_digits", n=50, seed=1,
                              train_fraction=0.8)
        full = ds.load_dataset(spec)
        cut = ds.load_dataset(ds.DatasetSpec(
            source="synthetic_digits", n=50, seed=1, train_fraction=0.8,
            limit_train=10, limit_test=5))
        assert np.array_equal(cut.x_train, full.x_train[:10])
        assert np.array_equal(cut.y_test, full.y_test[:5])

    def test_normalization(self):
        spec = ds.DatasetSpec(source="synthetic_blobs", n=40, seed=2,
                              normalize_mean=1.0, normalize_std=2.0)
        raw = ds.load_dataset(ds.DatasetSpec(source="synthetic_blobs", n=40,
                                             seed=2))
        norm = ds.load_dataset(spec)
        assert np.allclose(norm.x_train, (raw.x_train - 1.0) / 2.0)

    def test_digits_load_pinned_digests(self):
        data = ds.load_dataset(ds.DatasetSpec(
            source="synthetic_digits", n=300, seed=3, noise=0.25,
            train_fraction=0.8))
        assert data.x_train.dtype == np.float64
        assert _sha(np.asarray(data.x_train)) == \
            "cbed2526f46a35cc98e39fb8348e8e0a"
        assert _sha(np.asarray(data.x_test)) == \
            "7400ae54fbaa4b32f25190b7d8ecce05"

    def test_label_range_guard(self):
        x = np.zeros((4, 2))
        y = np.array([0, 1, 2, 3])
        with pytest.raises(ValueError, match="labels out of range"):
            ds.Dataset(x, y, x, y, n_classes=3)

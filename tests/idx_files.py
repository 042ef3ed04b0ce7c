"""IDX files for tests, built byte by byte apart from the package's reader."""

from pathlib import Path

import numpy as np

from pannkit import datasets as ds


def idx_bytes(magic, dims, payload: bytes) -> bytes:
    head = magic.to_bytes(4, "big")
    head += b"".join(int(d).to_bytes(4, "big") for d in dims)
    return head + payload


def write_idx(path, array: np.ndarray) -> None:
    """Write a uint8 array as an IDX file (1 axis: labels, 3 axes: images)."""
    a = np.ascontiguousarray(array, dtype=np.uint8)
    Path(path).write_bytes(idx_bytes(0x0800 | a.ndim, a.shape, a.tobytes()))


def write_digit_idx_dataset(data_dir, n_train: int, n_test: int,
                            seed: int = 0) -> None:
    """Synthetic digits under the four standard MNIST IDX file names."""
    d = Path(data_dir)
    d.mkdir(parents=True, exist_ok=True)
    img, lab = ds.synthetic_digits(n_train + n_test, seed)
    write_idx(d / ds.MNIST_FILES["train_images"], img[:n_train])
    write_idx(d / ds.MNIST_FILES["train_labels"], lab[:n_train])
    write_idx(d / ds.MNIST_FILES["test_images"], img[n_train:])
    write_idx(d / ds.MNIST_FILES["test_labels"], lab[n_train:])
